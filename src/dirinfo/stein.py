"""Stein error-exponent diagnostic of the causality-plus-coupling test.  It
runs an exact forward filter with one step per time: A's factor conditions
on the joint past, B's marginal on a belief over the model's windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import _node_groups
from .discrete import DiscreteMarkovModel, _Symbols, draw_symbols, sample_codes
from .errors import ParamError, PartitionError
from .measures import rate as measure_rate


@dataclass(frozen=True)
class SteinReport:
    """Empirical false-alarm exponents against the model's DI rate, with
    the bracket ``[rate_lower, rate_upper]`` that holds the limit rate
    (:class:`~dirinfo.measures.RateEstimate`)."""

    di_rate: float
    points: tuple  # (T, p_fa, exponent, censored, threshold) per grid entry
    slope: float
    trials: int
    miss_level: float
    rate_lower: float
    rate_upper: float

    def to_json(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["points"] = [dict(zip(("T", "p_fa", "exponent", "censored", "threshold"), point))
                         for point in self.points]
        return doc


class _BivariateFilter:
    """Exact forward machinery for a bivariate joint Markov model, one step
    per time and vectorized over trials.  A's side conditions on the joint
    past, a window code built by ``next_window`` from 0: ``kernels[min(t, k)]``
    is the law of the symbol at time t given it (the initial law's prefix
    conditional for t < k, then the model kernel), ``a_laws`` A's part of
    that law, and ``log_ratio`` the per-step log p(s_t | past) - log
    p(a_t | past).  B's side conditions on B's own past through a belief
    over the windows (``predict``, ``condition``)."""

    def __init__(self, model: DiscreteMarkovModel, a_idx, b_idx):
        if len(a_idx) + len(b_idx) != model.n_nodes:
            raise PartitionError("A and B must cover the model's node set")
        if model.kernel.min() <= 0.0 or model.initial.min() <= 0.0:
            raise ParamError("error-exponent check needs a strictly positive model")
        k, M = model.order, model.joint_alphabet
        # each joint symbol's part on A and on B as a code, and the number of codes
        states = _Symbols(model.decode_states(np.arange(M)), model.alphabet_sizes)
        (self.a_of, self.m_a), (self.b_of, self.m_b) = states.codes(a_idx), states.codes(b_idx)
        # joint symbol with a given a-part and b-part
        self.merge = np.full((self.m_a, self.m_b), -1, dtype=np.int64)
        self.merge[self.a_of, self.b_of] = np.arange(M)
        self.k, self.model, self.init = k, model, model.initial
        init_nd = model.initial.reshape((M,) * k)
        prefixes = [init_nd.sum(axis=tuple(range(t + 1, k))).reshape(-1, M) for t in range(k)]
        self.kernels = [p / p.sum(axis=1, keepdims=True) for p in prefixes] + [model.kernel]
        self.a_laws = [kern @ (self.a_of[:, None] == np.arange(self.m_a)) for kern in self.kernels]
        self.log_ratio = [np.log(kern) - np.log(law[:, self.a_of])
                          for kern, law in zip(self.kernels, self.a_laws)]
        # b_masks[min(t, k), beta, w]: 1 where the symbol at time t in window w
        # (position t, and the newest one from t = k on) has b-part beta
        b_at = self.b_of[np.stack(np.unravel_index(np.arange(M**k), (M,) * k))]
        b_at = np.concatenate([b_at, b_at[-1:]])
        self.b_masks = (b_at[:, None, :] == np.arange(self.m_b)[:, None]).astype(float)
        self.trans = model.window_transition()

    def predict(self, belief, t):
        """The belief over the windows ending at time t from the one ending
        at t - 1; the first window holds times 0..k-1."""
        return belief if t < self.k else belief @ self.trans

    def condition(self, belief, b_t, t):
        """The predicted belief given B's symbols ``b_t`` at time ``t``, and
        their predictive mass p(b_t | b^{t-1})."""
        belief = belief * self.b_masks[min(t, self.k), b_t]
        mass = belief.sum(axis=1)
        belief /= mass[:, None]  # in place: a fresh (trials, W) array per step costs page faults
        return belief, mass


def _stein_llr(flt: _BivariateFilter, codes: np.ndarray) -> np.ndarray:
    """log p(a^T, b^T) - log p(a^T || b^{T-1}) - log p(b^T), per trial: per
    step log p(s_t | past) - log p(a_t | past) - log p(b_t | b^{t-1})."""
    n_trials, T = codes.shape
    llr = np.zeros(n_trials)
    belief = np.broadcast_to(flt.init, (n_trials, len(flt.init)))
    window = np.zeros(n_trials, dtype=np.int64)
    for t in range(T):
        s = codes[:, t]
        belief, mass = flt.condition(flt.predict(belief, t), flt.b_of[s], t)
        llr += flt.log_ratio[min(t, flt.k)][window, s] - np.log(mass)
        window = flt.model.next_window(window, s)
    return llr


def _sample_h0(flt: _BivariateFilter, T, n_trials, rng) -> tuple[np.ndarray, np.ndarray]:
    """Sample from q = p(x_A^T || x_B^{T-1}) p(x_B^T), vectorized: under q,
    a_t and b_t are independent given the past, so each step draws b_t from
    B's belief and a_t from A's law given the joint past.  Returns the
    codes and their ``_stein_llr``, accumulated on the same filter pass."""
    a_cdfs = [np.cumsum(law, axis=1) for law in flt.a_laws]
    codes = np.empty((n_trials, T), dtype=np.int64)
    llr = np.zeros(n_trials)
    belief = np.broadcast_to(flt.init, (n_trials, len(flt.init)))
    window = np.zeros(n_trials, dtype=np.int64)
    for t in range(T):
        j, belief = min(t, flt.k), flt.predict(belief, t)
        b_t = draw_symbols(np.cumsum(belief @ flt.b_masks[j].T, axis=1), rng)
        a_t = draw_symbols(a_cdfs[j][window], rng)
        belief, mass = flt.condition(belief, b_t, t)
        s = codes[:, t] = flt.merge[a_t, b_t]
        llr += flt.log_ratio[j][window, s] - np.log(mass)
        window = flt.model.next_window(window, s)
    return codes, llr


def stein_exponent_check(model: DiscreteMarkovModel, a_nodes, b_nodes, T_grid,
                         trials: int = 5000, miss_level: float = 0.2,
                         seed=0, rate_horizon: int = 8) -> SteinReport:
    """Empirical false-alarm exponent of the optimal causality-plus-coupling
    test against the model's directed information rate.

    For each T the likelihood-ratio threshold is placed at the
    ``miss_level`` quantile of the alternative's LLR distribution (so the
    miss probability is about ``miss_level``), and the false-alarm rate is
    measured on data from the influence-free law
    ``p(x_A || x_B^{-1}) p(x_B)``.  A zero count is reported as a censored
    point.  The DI rate is the increment at ``rate_horizon``, reported
    with its certified bracket (:func:`~dirinfo.measures.rate`).
    Bivariate strictly positive models only.
    """
    if trials < 1000:
        raise ParamError("use at least 1000 trials")
    a_idx, b_idx, _ = _node_groups(model.n_nodes, a_nodes, b_nodes)
    stationary_rate = measure_rate("di", model, a_idx, b_idx, n_max=rate_horizon)
    flt = _BivariateFilter(model, a_idx, b_idx)
    rng = np.random.default_rng(seed)
    points = []
    exps, Ts = [], []
    for T in sorted(int(t) for t in T_grid):
        h1 = sample_codes(model, T, trials, rng)
        llr_h1 = _stein_llr(flt, h1)
        tau = float(np.quantile(llr_h1, miss_level))
        _, llr_h0 = _sample_h0(flt, T, trials, rng)
        n_fa = int(np.sum(llr_h0 > tau))
        if n_fa == 0:
            points.append((T, 0.0, math.inf, True, tau))
            continue
        p_fa = n_fa / trials
        exponent = -math.log(p_fa) / T
        points.append((T, p_fa, exponent, False, tau))
        exps.append(-math.log(p_fa))
        Ts.append(T)
    slope = float(np.polyfit(Ts, exps, 1)[0]) if len(Ts) >= 2 else math.nan
    return SteinReport(di_rate=stationary_rate.value, points=tuple(points),
                       slope=slope, trials=trials, miss_level=miss_level,
                       rate_lower=stationary_rate.lower, rate_upper=stationary_rate.upper)
