"""Statistical decision layer: likelihood-ratio tests for Granger causality
and instantaneous coupling, generalized LLR for parametric families,
error-exponent diagnostics and mixed causality-graph construction.

All test statistics are per-sample scaled log likelihood ratios between a
full and a nested restricted conditional model, so under the alternative
they estimate the corresponding information rate.  Calibration refers
``2 * T * statistic`` to a chi-square law (Wilks for the discrete family,
sandwich-weighted for the linear family, which is misspecified under
nonlinear couplings) or uses circular block-permutation surrogates of the
source process.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import special, stats

from .core import TimeSeriesPanel
from .discrete import DiscreteMarkovModel
from .errors import (
    CalibrationError,
    DirinfoError,
    FitError,
    InvalidModel,
    ParamError,
    PartitionError,
    RateNotConverged,
    SingularDesign,
)
from .measures import ConditioningMode, rate as measure_rate

DEFAULT_SURROGATES = 200
MIN_SURROGATES = 20
# relative pivot floor of the regressor Cholesky factor (see _cholesky)
_PIVOT_RTOL = 1e-10


# ---------------------------------------------------------------------------
# model families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteMarkovFamily:
    """Finite-alphabet conditional models of order ``order`` with additive
    smoothing ``smoothing`` (0 keeps plain maximum likelihood)."""

    order: int = 1
    smoothing: float = 0.5

    name = "discrete_markov"


@dataclass(frozen=True)
class VarFamily:
    """Linear Gaussian autoregressions of order ``order``."""

    order: int = 1

    name = "var"


@dataclass(frozen=True)
class GlmSpikingFamily:
    """Logistic point-process models on binary panels with ``memory`` lags."""

    memory: int = 1
    max_iter: int = 500

    name = "glm_spiking"


def family_from_spec(name: str, order: int = 1, smoothing: float = 0.5):
    if name in ("discrete", "discrete_markov"):
        return DiscreteMarkovFamily(order=order, smoothing=smoothing)
    if name == "var":
        return VarFamily(order=order)
    if name in ("glm", "glm_spiking"):
        return GlmSpikingFamily(memory=order)
    raise ParamError(f"unknown family {name!r}")


# ---------------------------------------------------------------------------
# test results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestResult:
    """Outcome of one likelihood-ratio test.

    ``statistic`` is the per-sample LLR; the decision is reject iff it
    exceeds ``threshold``.  ``level`` is the (corrected) test level.  Under
    chi-square calibration ``dof`` is the nominal degrees of freedom and
    the threshold is ``chi2_scale * chi2.isf(level, chi2_df) / (2 * n_obs)``
    (the Satterthwaite scale and dof; 1 and ``dof`` for the Wilks law).
    """

    statistic: float
    threshold: float
    decision: str
    p_value: float | None
    calibration: str
    dof: int | None
    n_obs: int
    level: float
    chi2_scale: float | None = None
    chi2_df: float | None = None

    __test__ = False  # not a pytest class despite the name

    def to_json(self) -> dict:
        return {
            "statistic": self.statistic,
            "threshold": self.threshold,
            "decision": self.decision,
            "p_value": self.p_value,
            "calibration": self.calibration,
            "dof": self.dof,
            "n_obs": self.n_obs,
            "level": self.level,
            "chi2_scale": self.chi2_scale,
            "chi2_df": self.chi2_df,
        }


def _decide(statistic, threshold, p_value, calibration, dof, n_obs, level,
            chi2_scale=None, chi2_df=None) -> TestResult:
    decision = "reject_H0" if statistic > threshold else "keep_H0"
    return TestResult(statistic=float(statistic), threshold=float(threshold),
                      decision=decision, p_value=p_value, calibration=calibration,
                      dof=dof, n_obs=int(n_obs), level=float(level),
                      chi2_scale=chi2_scale, chi2_df=chi2_df)


# ---------------------------------------------------------------------------
# statistic machinery
# ---------------------------------------------------------------------------

def _group_indices(panel, group):
    idx = tuple(panel.index_of(str(lab)) for lab in group)
    if len(set(idx)) != len(idx):
        raise PartitionError(f"duplicate labels in group {tuple(group)}")
    return idx


def _check_disjoint(*groups):
    seen = set()
    for g in groups:
        if set(g) & seen:
            raise PartitionError("A, B, C must be pairwise disjoint")
        seen |= set(g)


def _alphabet(values, idx):
    return tuple(int(values[:, a].max()) + 1 for a in idx)


def _encode(values, idx, sizes):
    """Joint symbol per row for the chosen columns (0 everywhere if empty)."""
    if not idx:
        return np.zeros(values.shape[0], dtype=np.int64), 1
    size = int(np.prod(sizes))
    codes = np.ravel_multi_index(tuple(values[:, a] for a in idx), sizes)
    return codes.astype(np.int64), size


def _window(codes, k, M):
    """Sliding window code of the k past symbols for targets at t = k..T-1."""
    T = codes.shape[0]
    out = np.zeros(T - k, dtype=np.int64)
    for j in range(k):
        out = out * M + codes[j:T - k + j]
    return out


def _cond_loglik(ctx, tgt, n_tgt, alpha):
    """Plug-in conditional log likelihood sum over the observed sample."""
    uniq, inv = np.unique(ctx, return_inverse=True)
    counts = np.bincount(inv * n_tgt + tgt, minlength=uniq.size * n_tgt)
    counts = counts.reshape(uniq.size, n_tgt).astype(float)
    row = counts.sum(axis=1, keepdims=True)
    if alpha > 0:
        probs = (counts + alpha) / (row + alpha * n_tgt)
    else:
        probs = counts / row
    mask = counts > 0
    return float(np.sum(counts[mask] * np.log(probs[mask])))


def _discrete_values(panel):
    if not panel.is_integer():
        raise InvalidModel("discrete family needs an integer (symbolized) panel")
    if panel.values.min() < 0:
        raise InvalidModel("symbol values must be nonnegative")
    return panel.values


@dataclass(frozen=True)
class _Symbols:
    """Symbol panel of the discrete family, with the alphabet sizes of the
    observed data; permuting a column keeps its alphabet."""

    values: np.ndarray
    sizes: tuple

    def with_values(self, values):
        return _Symbols(values, self.sizes)


def _discrete_causality(data, a_idx, b_idx, c_idx, k, alpha):
    """Statistic function, dof and n_obs of the discrete causality test.

    The restricted fit (B on the past of B and C) does not involve A, so
    it is computed once here; the returned function evaluates only the
    full fit on a panel whose A columns may have been permuted.
    """
    values, sizes = data.values, data.sizes
    T = values.shape[0]
    if T <= k:
        raise SingularDesign(f"T={T} too short for order {k}")
    full_idx = tuple(sorted(a_idx + b_idx + c_idx))
    res_idx = tuple(sorted(b_idx + c_idx))
    full_sizes = tuple(sizes[a] for a in full_idx)
    res_codes, m_res = _encode(values, res_idx, tuple(sizes[a] for a in res_idx))
    tgt_codes, m_tgt = _encode(values, b_idx, tuple(sizes[a] for a in b_idx))
    tgt = tgt_codes[k:]
    n_obs = T - k
    ll_res = _cond_loglik(_window(res_codes, k, m_res), tgt, m_tgt, alpha)

    def stat_of(sym):
        full_codes, m_full = _encode(sym.values, full_idx, full_sizes)
        ll_full = _cond_loglik(_window(full_codes, k, m_full), tgt, m_tgt, alpha)
        return (ll_full - ll_res) / n_obs

    m_a = int(np.prod([sizes[a] for a in a_idx]))
    dof = (m_a**k - 1) * (m_res**k) * (m_tgt - 1)
    return stat_of, dof, n_obs


def _discrete_coupling(data, a_idx, b_idx, c_idx, k, alpha, mode):
    """Statistic function, dof and n_obs of the discrete coupling test.
    A's past enters every term's context, so nothing is held fixed."""
    values, sizes = data.values, data.sizes
    T = values.shape[0]
    if T <= k:
        raise SingularDesign(f"T={T} too short for order {k}")
    past_idx = tuple(sorted(a_idx + b_idx + c_idx))
    past_sizes = tuple(sizes[a] for a in past_idx)
    m_past = int(np.prod(past_sizes))
    n_ctx_struct = m_past**k
    if mode is ConditioningMode.CONTEMPORANEOUS and c_idx:
        c_codes, m_c = _encode(values, tuple(sorted(c_idx)),
                               tuple(sizes[a] for a in sorted(c_idx)))
        n_ctx_struct *= m_c
    a_sizes = tuple(sizes[a] for a in a_idx)
    b_codes, m_b = _encode(values, b_idx, tuple(sizes[a] for a in b_idx))
    b_t = b_codes[k:]
    n_obs = T - k

    def stat_of(sym):
        past_codes, _ = _encode(sym.values, past_idx, past_sizes)
        ctx = _window(past_codes, k, m_past)
        if mode is ConditioningMode.CONTEMPORANEOUS and c_idx:
            ctx = ctx * m_c + c_codes[k:]
        a_codes, m_a = _encode(sym.values, a_idx, a_sizes)
        a_t = a_codes[k:]
        ll_joint = _cond_loglik(ctx, a_t * m_b + b_t, m_a * m_b, alpha)
        ll_a = _cond_loglik(ctx, a_t, m_a, alpha)
        ll_b = _cond_loglik(ctx, b_t, m_b, alpha)
        return (ll_joint - ll_a - ll_b) / n_obs

    dof = n_ctx_struct * (int(np.prod(a_sizes)) - 1) * (m_b - 1)
    return stat_of, dof, n_obs


def _cholesky(gram):
    """Lower Cholesky factor of a regressor Gram block.

    Raises ``SingularDesign`` when the factorization fails or when a pivot
    ``L_ii**2`` falls to ``1e-10 * G_ii`` or below.  That pivot is the
    residual sum of squares of regressor i on the regressors before it, so
    the test reads 1 - R_i**2 <= 1e-10: the design is rank deficient to
    working precision (an exactly repeated or constant column).
    """
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise SingularDesign("rank-deficient regressor matrix") from None
    if np.any(np.diag(chol) ** 2 <= _PIVOT_RTOL * np.diag(gram)):
        raise SingularDesign("rank-deficient regressor matrix")
    return chol


class _LaggedGram:
    """Gram matrix of the centred panel's lags 1..k and present, summed over
    t = k..T-1: the one source of every VAR regression on the panel (as in
    MVGC, Barnett & Seth, J. Neurosci. Methods 223, 2014).

    Row and column ``(j - 1) * d + c`` is lag j of node c, ``k * d + c`` the
    present of node c.  Each d x d block is one product of two lag-slice
    views of the panel, so no lagged design matrix is ever stacked.  Every
    residual covariance is a Schur complement of a sub-block (``fit``).
    """

    def __init__(self, x, k):
        T, d = x.shape
        if T <= k:
            raise SingularDesign(f"T={T} too short for order {k}")
        self.values, self.k, self.d, self.n = x, k, d, T - k
        self.blocks = [x[k - j:T - j] for j in range(1, k + 1)] + [x[k:]]
        m = len(self.blocks)
        self.gram = np.empty((m * d, m * d))
        for i in range(m):
            for j in range(i, m):
                block = self.blocks[i].T @ self.blocks[j]
                self.gram[i * d:(i + 1) * d, j * d:(j + 1) * d] = block
                self.gram[j * d:(j + 1) * d, i * d:(i + 1) * d] = block.T

    def with_values(self, x):
        """The Gram of an already centred panel of the same shape."""
        return _LaggedGram(x, self.k)

    def lags(self, cols):
        """Indices of lags 1..k of ``cols``, lag-major."""
        return [j * self.d + c for j in range(self.k) for c in cols]

    def present(self, cols):
        return [self.k * self.d + c for c in cols]

    def fit(self, design, target):
        """Per-row residual covariance of the least-squares regression of
        ``target`` on ``design`` (index lists), and its coefficients."""
        g_yy = self.gram[np.ix_(target, target)]
        if not design:
            return g_yy / self.n, np.empty((0, len(target)))
        if self.n <= len(design):
            raise SingularDesign("not enough rows for the regression")
        chol = _cholesky(self.gram[np.ix_(design, design)])
        # np.linalg.solve on the factor: scipy's triangular solver left
        # about 0.7 MB more resident memory in a process running these fits
        w = np.linalg.solve(chol, self.gram[np.ix_(design, target)])
        coef = np.linalg.solve(chol.T, w)
        return (g_yy - w.T @ w) / self.n, coef

    def rows(self, coef):
        """Rows of the panel's lags and present times ``coef`` (indexed like
        the Gram), summed over the lag-slice views."""
        d = self.d
        return sum(block @ coef[j * d:(j + 1) * d] for j, block in enumerate(self.blocks))


def _logdet(cov):
    sign, val = np.linalg.slogdet(np.atleast_2d(cov))
    if sign <= 0:
        raise SingularDesign("singular residual covariance")
    return val


def _var_causality(g, a_idx, b_idx, c_idx):
    """Statistic function, dof and n_obs of the VAR causality test: the
    Gaussian LLR of B on the past of (A, B, C) against B on the past of
    (B, C).  The restricted log-det does not involve A and is computed once
    on ``g``; the returned function fits only the full model on the Gram of
    a panel whose A columns may have been permuted."""
    y = g.present(b_idx)
    full = g.lags(sorted(a_idx + b_idx + c_idx))
    logdet_res = _logdet(g.fit(g.lags(sorted(b_idx + c_idx)), y)[0])

    def stat_of(gram):
        return 0.5 * (logdet_res - _logdet(gram.fit(full, y)[0]))

    return stat_of, g.k * len(a_idx) * len(b_idx), g.n


def _sandwich_weights(g, a_idx, b_idx, c_idx):
    """Sandwich eigenvalue weights of the tested coefficient block (A's lags).

    Under correct specification the weights are all 1 and ``2 T stat`` is
    the classical chi-square variate; under conditionally heteroskedastic
    innovations (e.g. a quadratic hidden coupling) the asymptotic law is
    the weighted chi-square sum instead.  The tested regressors are
    projected off the kept ones (B's and C's lags); the bread is that
    projection's Schur complement, the meat weights its rows by the squared
    row residuals of the full fit.
    """
    y = g.present(b_idx)
    tested, kept = g.lags(sorted(a_idx)), g.lags(sorted(b_idx + c_idx))
    full = g.lags(sorted(a_idx + b_idx + c_idx))
    cov_full, beta = g.fit(full, y)
    proj_cov, gamma = g.fit(kept, tested)
    # one pass over the panel gives the full fit's residuals and the
    # tested regressors' residuals on the kept ones
    ny = len(y)
    coef = np.zeros((g.gram.shape[0], ny + len(tested)))
    coef[y, :ny] = np.eye(ny)
    coef[full, :ny] -= beta
    coef[tested, ny:] = np.eye(len(tested))
    coef[kept, ny:] -= gamma
    both = g.rows(coef)
    resid, xs = both[:, :ny], both[:, ny:]
    bread = g.n * proj_cov
    weights = []
    for i in range(len(y)):
        meat = xs.T @ (xs * resid[:, i:i + 1] ** 2)
        lam = np.linalg.eigvals(np.linalg.solve(bread, meat)) / cov_full[i, i]
        weights.extend(np.clip(lam.real, 1e-12, None))
    return weights


def _var_coupling(g, a_idx, b_idx, c_idx, mode):
    """Statistic function, dof and n_obs of the VAR coupling test: the
    mutual information of the present of A and B given the history (and
    C's present under the contemporaneous mode), from one joint fit."""
    design = g.lags(sorted(a_idx + b_idx + c_idx))
    if mode is ConditioningMode.CONTEMPORANEOUS and c_idx:
        design += g.present(sorted(c_idx))
    y = g.present(a_idx + b_idx)
    na = len(a_idx)

    def stat_of(gram):
        cov = gram.fit(design, y)[0]
        return 0.5 * (_logdet(cov[:na, :na]) + _logdet(cov[na:, na:]) - _logdet(cov))

    return stat_of, na * len(b_idx), g.n


def _prepare(panel, family, caller):
    """Per-panel data every test of ``family`` on ``panel`` shares: the
    symbol values and alphabet (discrete) or the lagged Gram (VAR)."""
    if isinstance(family, DiscreteMarkovFamily):
        values = _discrete_values(panel)
        return _Symbols(values, _alphabet(values, range(panel.n_nodes)))
    if isinstance(family, VarFamily):
        x = panel.values.astype(float)
        return _LaggedGram(x - x.mean(axis=0), family.order)
    raise ParamError(f"unsupported family {family!r} for {caller}")


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def _chi_square_result(stat, dof, n_obs, alpha, weights=None) -> TestResult:
    """Chi-square calibration of ``2 * n_obs * stat``.

    With ``weights`` (sandwich eigenvalues of the tested block) the variate
    is referred to a Satterthwaite-matched scaled chi-square; all-ones
    weights recover the classical Wilks law.
    """
    scale = 2.0 * n_obs
    if weights:
        lam = np.asarray(weights, dtype=float)
        c = float(lam @ lam / lam.sum())
        f = float(lam.sum() ** 2 / (lam @ lam))
    else:
        c, f = 1.0, dof
    threshold = chi_square_threshold(alpha, c, f, n_obs)
    p_value = float(stats.chi2.sf(scale * stat / c, f))
    return _decide(stat, threshold, p_value, "chi_square", dof, n_obs, alpha,
                   chi2_scale=float(c), chi2_df=float(f))


def chi_square_threshold(level, chi2_scale, chi2_df, n_obs) -> float:
    """Per-sample LLR threshold of a (scaled) chi-square calibration.
    ``chdtri`` is what ``stats.chi2.isf`` evaluates, without its per-call
    argument handling."""
    return chi2_scale * special.chdtri(chi2_df, level) / (2.0 * n_obs)


def _block_permutation(T, block_len, rng):
    """Circular block permutation of 0..T-1: rotate by a random offset, cut
    into ``max(1, T // block_len)`` blocks whose first ``T % n_blocks`` are
    one longer, and concatenate the blocks in a random order."""
    offset = int(rng.integers(T))
    n_blocks = max(1, T // block_len)
    size, extra = divmod(T, n_blocks)
    order = rng.permutation(n_blocks)
    lengths = size + (order < extra)
    starts = order * size + np.minimum(order, extra)
    within = np.arange(T) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return (np.repeat(starts, lengths) + within + offset) % T


def _quantile_rank(alpha, n_surrogates):
    """1-based rank of the surrogate (1 - alpha) quantile among n + 1 values."""
    return math.ceil((1.0 - alpha) * (n_surrogates + 1))


def _check_surrogates(n_surrogates, alpha):
    """Refuse a surrogate count that cannot calibrate a test at level
    ``alpha``: the (1 - alpha) quantile of n surrogates plus the observed
    value exists only when its rank is at most n."""
    if n_surrogates < MIN_SURROGATES:
        raise CalibrationError(
            f"need at least {MIN_SURROGATES} surrogates, got {n_surrogates}")
    if not 0.0 < alpha < 1.0:
        raise ParamError(f"alpha must lie in (0, 1), got {alpha}")
    if _quantile_rank(alpha, n_surrogates) > n_surrogates:
        need = max(MIN_SURROGATES, math.ceil(1.0 / alpha) - 2)
        while _quantile_rank(alpha, need) > need:
            need += 1
        raise CalibrationError(
            f"surrogate calibration at level {alpha:.6g} needs at least {need} "
            f"surrogates, got {n_surrogates}")


def _surrogate_result(stat_of, data, a_idx, block_len, n_surrogates, alpha,
                      seed, n_obs, stat) -> TestResult:
    """Calibrate ``stat`` against ``stat_of`` evaluated on ``data`` with A's
    columns circularly block-permuted; ``stat_of`` refits only what A
    enters."""
    _check_surrogates(n_surrogates, alpha)
    rng = np.random.default_rng(seed)
    values = data.values
    T = values.shape[0]
    a_cols = list(a_idx)
    surr_stats = np.empty(n_surrogates)
    work = values.copy()
    for s in range(n_surrogates):
        perm = _block_permutation(T, block_len, rng)
        work[:, a_cols] = values[np.ix_(perm, a_cols)]
        surr_stats[s] = stat_of(data.with_values(work))
    rank = _quantile_rank(alpha, n_surrogates)
    threshold = float(np.sort(surr_stats)[rank - 1])
    p_value = float((1 + np.sum(surr_stats >= stat)) / (n_surrogates + 1))
    return _decide(stat, threshold, p_value, "surrogate", None, n_obs, alpha)


def _check_calibration(calibration):
    if calibration not in ("chi_square", "surrogate"):
        raise ParamError(f"unknown calibration {calibration!r}")


def _causality_test(data, family, a_idx, b_idx, c_idx, alpha, calibration,
                    surrogates, seed) -> TestResult:
    """``llr_causality`` on the panel data ``_prepare`` returned."""
    if isinstance(family, VarFamily):
        stat_of, dof, n_obs = _var_causality(data, a_idx, b_idx, c_idx)
    else:
        stat_of, dof, n_obs = _discrete_causality(data, a_idx, b_idx, c_idx,
                                                  family.order, family.smoothing)
    stat = stat_of(data)
    if calibration == "surrogate":
        return _surrogate_result(stat_of, data, a_idx, 5 * family.order, surrogates,
                                 alpha, seed, n_obs, stat)
    weights = (_sandwich_weights(data, a_idx, b_idx, c_idx)
               if isinstance(family, VarFamily) else None)
    return _chi_square_result(stat, dof, n_obs, alpha, weights=weights)


def _coupling_test(data, family, a_idx, b_idx, c_idx, mode, alpha, calibration,
                   surrogates, seed) -> TestResult:
    """``llr_coupling`` on the panel data ``_prepare`` returned."""
    if isinstance(family, VarFamily):
        stat_of, dof, n_obs = _var_coupling(data, a_idx, b_idx, c_idx, mode)
    else:
        stat_of, dof, n_obs = _discrete_coupling(data, a_idx, b_idx, c_idx,
                                                 family.order, family.smoothing, mode)
    stat = stat_of(data)
    if calibration == "surrogate":
        return _surrogate_result(stat_of, data, a_idx, 5 * family.order, surrogates,
                                 alpha, seed, n_obs, stat)
    return _chi_square_result(stat, dof, n_obs, alpha)


# ---------------------------------------------------------------------------
# public tests
# ---------------------------------------------------------------------------

def llr_causality(panel: TimeSeriesPanel, a_labels, b_labels, c_labels=(),
                  family=DiscreteMarkovFamily(), alpha: float = 0.05,
                  calibration: str = "chi_square",
                  surrogates: int = DEFAULT_SURROGATES, seed=None) -> TestResult:
    """Granger-causality test of A -> B given the side set C.

    Per-sample LLR between the conditional model of x_B(t) on the past of
    (A, B, C) and the nested model on the past of (B, C) only; under the
    alternative it converges to the causally conditioned transfer entropy
    rate of the family.

    Chi-square calibration uses the classical Wilks law for the discrete
    family (the model class contains the truth) and a sandwich-weighted
    chi-square for the linear family, which stays level-correct when the
    innovations are conditionally heteroskedastic (a nonlinear coupling
    seen through linear glasses) and reduces to Wilks otherwise.
    """
    a_idx = _group_indices(panel, a_labels)
    b_idx = _group_indices(panel, b_labels)
    c_idx = _group_indices(panel, c_labels)
    _check_disjoint(a_idx, b_idx, c_idx)
    data = _prepare(panel, family, "llr_causality")
    _check_calibration(calibration)
    return _causality_test(data, family, a_idx, b_idx, c_idx, alpha, calibration,
                           surrogates, seed)


def llr_coupling(panel: TimeSeriesPanel, a_labels, b_labels, c_labels=(),
                 family=DiscreteMarkovFamily(),
                 mode=ConditioningMode.CONTEMPORANEOUS, alpha: float = 0.05,
                 calibration: str = "chi_square",
                 surrogates: int = DEFAULT_SURROGATES, seed=None) -> TestResult:
    """Instantaneous-coupling test between A and B given the side set C.

    Per-sample LLR between the joint contemporaneous conditional
    p(x_A(t), x_B(t) | history) and the product of its marginals; under the
    alternative it converges to the information exchange rate.  ``mode``
    decides whether C's present enters the conditioning (contemporaneous,
    the conditional-independence-graph convention) or only C's past.
    """
    mode = mode if isinstance(mode, ConditioningMode) else ConditioningMode(str(mode))
    a_idx = _group_indices(panel, a_labels)
    b_idx = _group_indices(panel, b_labels)
    c_idx = _group_indices(panel, c_labels)
    _check_disjoint(a_idx, b_idx, c_idx)
    data = _prepare(panel, family, "llr_coupling")
    _check_calibration(calibration)
    return _coupling_test(data, family, a_idx, b_idx, c_idx, mode, alpha, calibration,
                          surrogates, seed)


# ---------------------------------------------------------------------------
# generalized LLR over parameter restrictions
# ---------------------------------------------------------------------------

def _lagged_design(x, k, cols):
    """Regressor block [x(t-1) .. x(t-k)] restricted to ``cols``."""
    T = x.shape[0]
    parts = [x[k - j:T - j][:, cols] for j in range(1, k + 1)]
    return np.concatenate(parts, axis=1) if parts else np.empty((T - k, 0))


def _glm_loglik(theta, design, y):
    z = design @ theta
    return float(y @ z - np.logaddexp(0.0, z).sum())


def _fit_glm(design, y, max_iter, tol=1e-9, ridge=1e-8):
    """Logistic maximum likelihood by damped Newton iterations.

    A tiny ridge keeps the Hessian invertible when classes separate; the
    returned value is the maximized log likelihood.
    """
    theta = np.zeros(design.shape[1])
    ll = _glm_loglik(theta, design, y)
    for _ in range(max_iter):
        z = design @ theta
        p = 1.0 / (1.0 + np.exp(-z))
        grad = design.T @ (y - p)
        w = p * (1.0 - p)
        hess = design.T @ (design * w[:, None]) + ridge * np.eye(design.shape[1])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise FitError("singular Hessian in logistic fit") from None
        # Newton decrement bounds the remaining likelihood gain
        if float(grad @ step) < 2.0 * tol:
            return ll
        scale = 1.0
        for _ in range(40):
            cand = theta + scale * step
            cand_ll = _glm_loglik(cand, design, y)
            if cand_ll >= ll - 1e-12:
                theta, ll = cand, cand_ll
                break
            scale *= 0.5
        else:
            return ll
    raise FitError(f"logistic fit did not converge in {max_iter} iterations")


def generalized_llr(panel: TimeSeriesPanel, family, theta_restriction,
                    alpha: float = 0.05) -> TestResult:
    """Generalized log likelihood ratio test between the unrestricted family
    and the sub-family where the masked parameters are pinned to zero.

    ``theta_restriction`` is an iterable of (target_label, source_label)
    pairs; all lag coefficients of those links are removed under the null.
    Calibration is chi-square with one degree of freedom per masked scalar.
    """
    pairs = [(str(t), str(s)) for t, s in theta_restriction]
    if not pairs:
        raise ParamError("theta_restriction must name at least one link")
    targets = sorted({t for t, _ in pairs})
    masked_by_target = {t: sorted({s for tt, s in pairs if tt == t}) for t in targets}

    if isinstance(family, VarFamily):
        g = _prepare(panel, family, "generalized_llr")
        all_cols = list(range(panel.n_nodes))
        full = g.lags(all_cols)
        ll_full = 0.0
        ll_res = 0.0
        for t_lab in targets:
            y = g.present([panel.index_of(t_lab)])
            keep_cols = [cidx for cidx in all_cols
                         if panel.labels[cidx] not in masked_by_target[t_lab]]
            ll_full += -0.5 * g.n * _logdet(g.fit(full, y)[0])
            ll_res += -0.5 * g.n * _logdet(g.fit(g.lags(keep_cols), y)[0])
        stat = (ll_full - ll_res) / g.n
        dof = family.order * len(pairs)
        return _chi_square_result(stat, dof, g.n, alpha)

    if isinstance(family, GlmSpikingFamily):
        values = _discrete_values(panel)
        if values.max() > 1:
            raise InvalidModel("GLM spiking family needs a binary panel")
        k = family.memory
        x = values.astype(float)
        T = x.shape[0]
        n_obs = T - k
        ones = np.ones((n_obs, 1))
        ll_full = 0.0
        ll_res = 0.0
        for t_lab in targets:
            t_idx = panel.index_of(t_lab)
            y = x[k:, t_idx]
            all_cols = list(range(panel.n_nodes))
            keep_cols = [cidx for cidx in all_cols
                         if panel.labels[cidx] not in masked_by_target[t_lab]]
            design_f = np.concatenate([ones, _lagged_design(x, k, all_cols)], axis=1)
            design_r = np.concatenate([ones, _lagged_design(x, k, keep_cols)], axis=1)
            ll_full += _fit_glm(design_f, y, family.max_iter)
            ll_res += _fit_glm(design_r, y, family.max_iter)
        stat = (ll_full - ll_res) / n_obs
        dof = k * len(pairs)
        return _chi_square_result(stat, dof, n_obs, alpha)

    raise ParamError(f"unsupported family {family!r} for generalized_llr")


# ---------------------------------------------------------------------------
# Stein error-exponent diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteinReport:
    """Empirical false-alarm exponents against the model's DI rate, with
    that rate's convergence diagnostic (:class:`~dirinfo.measures.RateEstimate`)."""

    di_rate: float
    points: tuple  # (T, p_fa, exponent, censored, threshold) per grid entry
    slope: float
    trials: int
    miss_level: float
    rate_gap: float
    rate_converged: bool

    def to_json(self) -> dict:
        return {
            "di_rate": self.di_rate,
            "points": [
                {"T": T, "p_fa": p, "exponent": e, "censored": c, "threshold": tau}
                for (T, p, e, c, tau) in self.points
            ],
            "slope": self.slope,
            "trials": self.trials,
            "miss_level": self.miss_level,
            "rate_gap": self.rate_gap,
            "rate_converged": self.rate_converged,
        }


class _BivariateFilter:
    """Exact forward machinery for a bivariate joint Markov model: joint
    log-likelihood, causal feedback factor, and the B-marginal predictive
    law, all vectorized over trials."""

    def __init__(self, model: DiscreteMarkovModel, a_idx, b_idx):
        if set(a_idx) | set(b_idx) != set(range(model.n_nodes)):
            raise PartitionError("A and B must cover the model's node set")
        if model.kernel.min() <= 0.0 or model.initial.min() <= 0.0:
            raise ParamError("error-exponent check needs a strictly positive model")
        self.model = model
        k = model.order
        M = model.joint_alphabet
        states = model.decode_states(np.arange(M))
        sizes = model.alphabet_sizes
        self.m_a = int(np.prod([sizes[a] for a in a_idx]))
        self.m_b = int(np.prod([sizes[b] for b in b_idx]))
        self.a_of = np.ravel_multi_index(
            tuple(states[:, a] for a in a_idx), tuple(sizes[a] for a in a_idx))
        self.b_of = np.ravel_multi_index(
            tuple(states[:, b] for b in b_idx), tuple(sizes[b] for b in b_idx))
        self.k, self.M = k, M
        W = M**k
        self.W = W
        # per-observed-b transition of the window chain
        shift = M ** (k - 1)
        tails = (np.arange(W) % shift) * M
        self.trans_b = np.zeros((self.m_b, W, W))
        for s in range(M):
            self.trans_b[self.b_of[s], np.arange(W), tails + s] += self.model.kernel[:, s]
        # p(a' = alpha | window)
        self.a_pred = np.zeros((W, self.m_a))
        for s in range(M):
            self.a_pred[:, self.a_of[s]] += self.model.kernel[:, s]
        # window decompositions of the initial law
        self.init = model.initial
        windows = np.array(np.unravel_index(np.arange(W), (M,) * k)).T  # (W, k)
        self.window_syms = windows
        self.b_prefix_of_window = np.zeros(W, dtype=np.int64)
        for j in range(k):
            self.b_prefix_of_window = (self.b_prefix_of_window * self.m_b
                                       + self.b_of[windows[:, j]])

    def window_of(self, codes):
        """Window code at the end of the first k joint symbols (trials, k)."""
        w = np.zeros(codes.shape[0], dtype=np.int64)
        for j in range(self.k):
            w = w * self.M + codes[:, j]
        return w


def _stein_llr(flt: _BivariateFilter, codes: np.ndarray) -> np.ndarray:
    """log p(a^T, b^T) - log p(a^T || b^{T-1}) - log p(b^T), per trial."""
    model, k, M = flt.model, flt.k, flt.M
    n_trials, T = codes.shape
    # joint log-likelihood
    w0 = flt.window_of(codes[:, :k])
    ll_joint = np.log(flt.init[w0])
    window = w0.copy()
    shift = M ** (k - 1)
    for t in range(k, T):
        s = codes[:, t]
        ll_joint += np.log(model.kernel[window, s])
        window = (window % shift) * M + s

    # causal factor p(a^T || b^{T-1}): within the initial window it is the
    # prefix-conditional of the initial law, afterwards a kernel row sum
    ll_a = np.zeros(n_trials)
    init_nd = flt.init.reshape((M,) * k)
    for t in range(k):
        # numerator marginal over (a_1..a_t, b_1..b_{t-1}), denominator one a less
        ll_a += _initial_prefix_term(flt, init_nd, codes, t)
    window = w0.copy()
    for t in range(k, T):
        a_t = flt.a_of[codes[:, t]]
        ll_a += np.log(flt.a_pred[window, a_t])
        window = (window % shift) * M + codes[:, t]

    # B-marginal via the forward filter
    ll_b = np.zeros(n_trials)
    belief = np.broadcast_to(flt.init, (n_trials, flt.W)).copy()
    # absorb the b-parts of the initial window one symbol at a time
    for t in range(k):
        b_t = flt.b_of[codes[:, t]]
        match = flt.b_of[flt.window_syms[:, t]][None, :] == b_t[:, None]
        nxt = np.where(match, belief, 0.0)
        mass = nxt.sum(axis=1)
        ll_b += np.log(mass)
        belief = nxt / mass[:, None]
    for t in range(k, T):
        b_t = flt.b_of[codes[:, t]]
        nxt = np.empty_like(belief)
        for beta in range(flt.m_b):
            hit = b_t == beta
            if np.any(hit):
                nxt[hit] = belief[hit] @ flt.trans_b[beta]
        mass = nxt.sum(axis=1)
        ll_b += np.log(mass)
        belief = nxt / mass[:, None]

    return ll_joint - ll_a - ll_b


def _initial_prefix_term(flt, init_nd, codes, t):
    """log p(a-part of symbol t | full joint symbols 0..t-1), i.e. the
    causal factor at 1-based time t+1, within the initial window."""
    k, M = flt.k, flt.M
    num_axes = tuple(range(t + 1, k))
    prefix = init_nd.sum(axis=num_axes) if num_axes else init_nd
    obs = codes[:, :t + 1]
    a_obs = flt.a_of[obs[:, t]]
    flat = prefix.reshape(-1, M)  # (M^t histories, symbol t)
    hist = np.zeros(codes.shape[0], dtype=np.int64)
    for j in range(t):
        hist = hist * M + obs[:, j]
    rows = flat[hist]  # joint p(history, symbol t) per trial
    same_a = flt.a_of[None, :] == a_obs[:, None]
    num = (rows * same_a).sum(axis=1)
    den = rows.sum(axis=1)
    return np.log(num) - np.log(den)


def _sample_h0(flt: _BivariateFilter, T, n_trials, rng) -> np.ndarray:
    """Sample from q = p(x_A^T || x_B^{T-1}) p(x_B^T), vectorized."""
    model, k, M = flt.model, flt.k, flt.M
    codes = np.empty((n_trials, T), dtype=np.int64)

    # b-path first: initial b-prefix from its exact marginal
    b_prefix_law = np.zeros(flt.m_b**k)
    np.add.at(b_prefix_law, flt.b_prefix_of_window, flt.init)
    cdf = np.cumsum(b_prefix_law)
    draw = np.searchsorted(cdf, rng.random(n_trials), side="right")
    draw = np.minimum(draw, flt.m_b**k - 1)
    b_path = np.empty((n_trials, T), dtype=np.int64)
    for j in range(k - 1, -1, -1):
        b_path[:, j] = draw % flt.m_b
        draw //= flt.m_b
    belief = np.broadcast_to(flt.init, (n_trials, flt.W)).copy()
    for t in range(k):
        match = flt.b_of[flt.window_syms[:, t]][None, :] == b_path[:, t][:, None]
        belief = np.where(match, belief, 0.0)
        belief /= belief.sum(axis=1, keepdims=True)
    for t in range(k, T):
        pred = np.stack([belief @ flt.trans_b[beta].sum(axis=1)
                         for beta in range(flt.m_b)], axis=1)
        pred /= pred.sum(axis=1, keepdims=True)
        u = rng.random(n_trials)
        b_t = (np.cumsum(pred, axis=1) < u[:, None]).sum(axis=1)
        np.minimum(b_t, flt.m_b - 1, out=b_t)
        b_path[:, t] = b_t
        nxt = np.empty_like(belief)
        for beta in range(flt.m_b):
            hit = b_t == beta
            if np.any(hit):
                nxt[hit] = belief[hit] @ flt.trans_b[beta]
        belief = nxt / nxt.sum(axis=1, keepdims=True)

    # a-path given b: within the initial window from prefix conditionals
    # (q's a-factor conditions on the joint past, not on b's present),
    # afterwards from the kernel's a-predictive at the realized window
    init_nd = flt.init.reshape((M,) * k)
    for t in range(k):
        num_axes = tuple(range(t + 1, k))
        prefix = init_nd.sum(axis=num_axes) if num_axes else init_nd
        flat = prefix.reshape(-1, M)
        hist = np.zeros(n_trials, dtype=np.int64)
        for j in range(t):
            hist = hist * M + codes[:, j]
        rows = flat[hist]
        probs = np.zeros((n_trials, flt.m_a))
        for alpha in range(flt.m_a):
            probs[:, alpha] = (rows * (flt.a_of[None, :] == alpha)).sum(axis=1)
        probs /= probs.sum(axis=1, keepdims=True)
        u = rng.random(n_trials)
        a_t = (np.cumsum(probs, axis=1) < u[:, None]).sum(axis=1)
        np.minimum(a_t, flt.m_a - 1, out=a_t)
        codes[:, t] = _merge_symbol(flt, a_t, b_path[:, t])
    window = flt.window_of(codes[:, :k])
    shift = M ** (k - 1)
    for t in range(k, T):
        probs = flt.a_pred[window]
        u = rng.random(n_trials)
        a_t = (np.cumsum(probs, axis=1) < u[:, None]).sum(axis=1)
        np.minimum(a_t, flt.m_a - 1, out=a_t)
        codes[:, t] = _merge_symbol(flt, a_t, b_path[:, t])
        window = (window % shift) * M + codes[:, t]
    return codes


def _merge_symbol(flt, a_codes, b_codes):
    """Joint symbol with the given a-part and b-part."""
    lut = np.full((flt.m_a, flt.m_b), -1, dtype=np.int64)
    lut[flt.a_of, flt.b_of] = np.arange(flt.M)
    return lut[a_codes, b_codes]


def _sample_h1(model: DiscreteMarkovModel, T, n_trials, rng) -> np.ndarray:
    M = model.joint_alphabet
    k = model.order
    codes = np.empty((n_trials, T), dtype=np.int64)
    cdf = np.cumsum(model.initial)
    start = np.searchsorted(cdf, rng.random(n_trials), side="right")
    start = np.minimum(start, M**k - 1)
    for j in range(k - 1, -1, -1):
        codes[:, j] = start % M
        start //= M
    kern_cdf = np.cumsum(model.kernel, axis=1)
    window = np.zeros(n_trials, dtype=np.int64)
    for j in range(k):
        window = window * M + codes[:, j]
    shift = M ** (k - 1)
    for t in range(k, T):
        u = rng.random(n_trials)
        nxt = (kern_cdf[window] < u[:, None]).sum(axis=1)
        np.minimum(nxt, M - 1, out=nxt)
        codes[:, t] = nxt
        window = (window % shift) * M + nxt
    return codes


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
    point.  Bivariate strictly positive models only.
    """
    if trials < 1000:
        raise ParamError("use at least 1000 trials")
    a_idx = tuple(int(a) for a in a_nodes)
    b_idx = tuple(int(b) for b in b_nodes)
    stationary_rate = measure_rate("di", model, a_idx, b_idx, n_max=rate_horizon)
    if not stationary_rate.converged:
        warnings.warn(f"DI rate at horizon {rate_horizon} did not converge: last increment "
                      f"and Cesaro mean differ by {stationary_rate.gap:.3g}",
                      RateNotConverged, stacklevel=2)
    flt = _BivariateFilter(model, a_idx, b_idx)
    rng = np.random.default_rng(seed)
    points = []
    exps, Ts = [], []
    for T in sorted(int(t) for t in T_grid):
        h1 = _sample_h1(model, T, trials, rng)
        llr_h1 = _stein_llr(flt, h1)
        tau = float(np.quantile(llr_h1, miss_level))
        h0 = _sample_h0(flt, T, trials, rng)
        llr_h0 = _stein_llr(flt, h0)
        n_fa = int(np.sum(llr_h0 > tau))
        if n_fa == 0:
            points.append((T, 0.0, math.inf, True, tau))
            continue
        p_fa = n_fa / trials
        exponent = -math.log(p_fa) / T
        points.append((T, p_fa, exponent, False, tau))
        exps.append(-math.log(p_fa))
        Ts.append(T)
    if len(Ts) >= 2:
        slope = float(np.polyfit(Ts, exps, 1)[0])
    else:
        slope = math.nan
    return SteinReport(di_rate=stationary_rate.value, points=tuple(points),
                       slope=slope, trials=trials, miss_level=miss_level,
                       rate_gap=stationary_rate.gap, rate_converged=stationary_rate.converged)


# ---------------------------------------------------------------------------
# causality graphs
# ---------------------------------------------------------------------------

def _edge_json(res: TestResult) -> dict:
    """Graph JSON of one edge test: enough to recompute its decision."""
    return {"stat": res.statistic, "p": res.p_value, "decision": res.decision,
            "threshold": res.threshold, "dof": res.dof,
            "calibration": res.calibration, "n_obs": res.n_obs, "level": res.level,
            "chi2_scale": res.chi2_scale, "chi2_df": res.chi2_df}


@dataclass(frozen=True)
class CausalityGraph:
    """Mixed graph over the panel's nodes: directed edges from the
    causality tests, undirected edges from the coupling tests.  An edge is
    present exactly when its test rejected H0."""

    nodes: tuple[str, ...]
    directed: dict  # (a, b) -> TestResult
    undirected: dict  # frozenset({a, b}) -> TestResult
    errors: dict  # edge key -> message
    mode: ConditioningMode
    alpha: float
    config: dict = field(default_factory=dict)

    def directed_edges(self) -> set[tuple[str, str]]:
        return {pair for pair, res in self.directed.items()
                if res.decision == "reject_H0"}

    def undirected_edges(self) -> set[frozenset]:
        return {pair for pair, res in self.undirected.items()
                if res.decision == "reject_H0"}

    def to_json(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "directed": [
                {"from": a, "to": b, **_edge_json(r)}
                for (a, b), r in sorted(self.directed.items())
            ],
            "undirected": [
                {"pair": sorted(pair), **_edge_json(r)}
                for pair, r in sorted(self.undirected.items(), key=lambda kv: sorted(kv[0]))
            ],
            "errors": {" -> ".join(k) if isinstance(k, tuple) else " -- ".join(sorted(k)): v
                       for k, v in self.errors.items()},
            "mode": self.mode.value,
            "alpha": self.alpha,
            "config": dict(self.config),
        }

    def to_dot(self) -> str:
        lines = ["digraph causality {"]
        for node in self.nodes:
            lines.append(f'  "{node}";')
        for a, b in sorted(self.directed_edges()):
            lines.append(f'  "{a}" -> "{b}";')
        for pair in sorted(self.undirected_edges(), key=sorted):
            x, y = sorted(pair)
            lines.append(f'  "{x}" -- "{y}" [style=dashed];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def bonferroni_count(n_nodes: int) -> int:
    """Number of tests charged by the correction: both directions per pair
    plus one coupling test per pair, counted as 2*C(n,2) + n*(n-1)."""
    return 2 * (n_nodes * (n_nodes - 1) // 2) + n_nodes * (n_nodes - 1)


def infer_graph(panel: TimeSeriesPanel, family, alpha: float = 0.05,
                mode=ConditioningMode.CONTEMPORANEOUS, correction: str = "bonferroni",
                calibration: str = "chi_square",
                surrogates: int = DEFAULT_SURROGATES, seed=None,
                threads: int = 1) -> CausalityGraph:
    """Pairwise causality-graph inference relative to the full node set.

    Each ordered pair (a, b) is tested for a -> b with all remaining nodes
    as side information; each unordered pair for instantaneous coupling
    under ``mode``.  ``correction='bonferroni'`` divides the level by the
    total test count; per-edge RNG streams derive from ``seed`` so serial
    and threaded runs are identical.  The per-panel data (the VAR family's
    lagged Gram matrix) is built once and shared by every edge, so an edge
    equals the corresponding single ``llr_causality``/``llr_coupling``
    call exactly.  Surrogate calibration raises ``CalibrationError`` before
    any edge runs when ``surrogates`` is too few for the corrected level.
    """
    mode = mode if isinstance(mode, ConditioningMode) else ConditioningMode(str(mode))
    labels = panel.labels
    if correction == "bonferroni":
        level = alpha / bonferroni_count(len(labels))
    elif correction == "none":
        level = alpha
    else:
        raise ParamError(f"unknown correction {correction!r}")
    _check_calibration(calibration)
    if calibration == "surrogate":
        _check_surrogates(surrogates, level)
    data = _prepare(panel, family, "infer_graph")

    tasks = []
    for a in labels:
        for b in labels:
            if a != b:
                tasks.append(("directed", (a, b)))
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            tasks.append(("undirected", (a, b)))
    seeds = np.random.SeedSequence(seed).spawn(len(tasks))

    def run(task, child_seed):
        kind, (a, b) = task
        a_idx, b_idx = (panel.index_of(a),), (panel.index_of(b),)
        c_idx = tuple(panel.index_of(x) for x in labels if x not in (a, b))
        if kind == "directed":
            return _causality_test(data, family, a_idx, b_idx, c_idx, level,
                                   calibration, surrogates, child_seed)
        return _coupling_test(data, family, a_idx, b_idx, c_idx, mode, level,
                              calibration, surrogates, child_seed)

    outcomes = [None] * len(tasks)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(run, task, s) for task, s in zip(tasks, seeds)]
            for i, fut in enumerate(futures):
                try:
                    outcomes[i] = fut.result()
                except DirinfoError as exc:
                    outcomes[i] = exc
    else:
        for i, (task, s) in enumerate(zip(tasks, seeds)):
            try:
                outcomes[i] = run(task, s)
            except DirinfoError as exc:
                outcomes[i] = exc

    directed, undirected, errors = {}, {}, {}
    for (kind, (a, b)), out in zip(tasks, outcomes):
        key = (a, b) if kind == "directed" else frozenset((a, b))
        if isinstance(out, DirinfoError):
            errors[key] = f"{type(out).__name__}: {out}"
        elif kind == "directed":
            directed[key] = out
        else:
            undirected[key] = out

    config = {
        "family": getattr(family, "name", str(family)),
        "order": getattr(family, "order", getattr(family, "memory", None)),
        "alpha": alpha, "correction": correction, "calibration": calibration,
        "mode": mode.value, "surrogates": surrogates if calibration == "surrogate" else None,
        "seed": seed,
    }
    return CausalityGraph(nodes=labels, directed=directed, undirected=undirected,
                          errors=errors, mode=mode, alpha=alpha, config=config)
