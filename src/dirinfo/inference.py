"""Statistical decision layer: likelihood-ratio tests for Granger causality
and instantaneous coupling, generalized LLR for parametric families,
error-exponent diagnostics and mixed causality-graph construction.

All test statistics are per-sample scaled log likelihood ratios between a
full and a nested restricted conditional model, so under the alternative
they estimate the corresponding information rate.  Calibration refers
``2 * T * statistic`` to a chi-square law (Wilks for the discrete family,
sandwich-weighted for the linear family, which is misspecified under
nonlinear couplings) or uses circular block-permutation surrogates of the
source process.  The Stein error-exponent diagnostic runs an exact forward
filter with one step per time: A's factor conditions on the joint past,
B's marginal on a belief over the model's windows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .core import DEFAULT_STATE_BUDGET, TimeSeriesPanel
from .discrete import (
    DiscreteMarkovModel,
    draw_symbols,
    sample_codes,
    window_codes,
)
from .errors import (
    CalibrationError,
    DirinfoError,
    FitError,
    InvalidModel,
    ParamError,
    PartitionError,
    SingularDesign,
)
from .gaussian import _residual_covs
from .measures import ConditioningMode, _as_mode, rate as measure_rate

DEFAULT_SURROGATES = 200
MIN_SURROGATES = 20
# bound on the (surrogates x T) row orders one chunk of surrogate statistics
# evaluates, about 13 surrogates at T = 5,000, and on the (rows x regressors)
# entries one block of a sandwich meat gathers.  At 2**18 a chunk's (S x T)
# temporaries passed glibc's heap trim threshold: in the infer benchmark job
# each surrogate test re-faulted 4,000-7,000 pages, against none at 2**16
_CHUNK_ENTRIES = 2**16
# Newton iterations a logistic fit may take before it raises FitError
GLM_MAX_ITER = 500


# ---------------------------------------------------------------------------
# model families
# each family builds its own statistics on the panel data its ``_prepare``
# returns: ``_causality`` and ``_coupling`` give (stat_of, dof, n_obs,
# weights) to ``_edge_test``, ``_loglik`` one target's log likelihood to
# ``generalized_llr``; weights are None (the Wilks law) but for VAR causality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteMarkovFamily:
    """Finite-alphabet conditional models of order ``order``, each fitted
    with pseudo-count 1/2 per (context, target) cell."""

    order: int = 1

    name = "discrete_markov"

    def __post_init__(self):
        _check_at_least_one(order=self.order)

    def _prepare(self, panel):
        values = _discrete_values(panel)
        return _Symbols(values, tuple(int(m) + 1 for m in values.max(axis=0)))

    def _causality(self, data, a_idx, b_idx, c_idx):
        return _discrete_causality(data, a_idx, b_idx, c_idx, self.order)

    def _coupling(self, data, a_idx, b_idx, c_idx, mode):
        return _discrete_coupling(data, a_idx, b_idx, c_idx, self.order, mode)


@dataclass(frozen=True)
class VarFamily:
    """Linear Gaussian autoregressions of order ``order``."""

    order: int = 1

    name = "var"

    def __post_init__(self):
        _check_at_least_one(order=self.order)

    def _prepare(self, panel):
        x = np.asarray(panel.values, dtype=float)
        return _LaggedGram(x - x.mean(axis=0), self.order)

    def _causality(self, data, a_idx, b_idx, c_idx):
        return _var_causality(data, a_idx, b_idx, c_idx)

    def _coupling(self, data, a_idx, b_idx, c_idx, mode):
        return _var_coupling(data, a_idx, b_idx, c_idx, mode)

    def _loglik(self, data, target, cols):
        """Gaussian log likelihood of ``target`` on lags 1..k of ``cols``."""
        return -0.5 * data.n * _logdet(data.fit(data.lags(cols), data.present([target]))[0])


@dataclass(frozen=True)
class GlmSpikingFamily:
    """Logistic point-process models on binary panels with ``memory`` lags."""

    memory: int = 1

    name = "glm_spiking"

    def __post_init__(self):
        _check_at_least_one(memory=self.memory)

    def _prepare(self, panel):
        values = _discrete_values(panel)
        if values.max() > 1:
            raise InvalidModel("GLM spiking family needs a binary panel")
        return _Spikes(values.astype(float), self.memory, len(values) - self.memory)

    def _loglik(self, data, target, cols):
        """Maximized logistic log likelihood of ``target`` on an intercept
        and lags 1..memory of ``cols``."""
        design = np.concatenate([np.ones((data.n, 1)),
                                 _lagged_design(data.values, data.k, cols)], axis=1)
        return _fit_glm(design, data.values[data.k:, target])


def _check_at_least_one(**params):
    """Refuse a family parameter (a lag count) below 1."""
    for name, value in params.items():
        if not value >= 1:
            raise ParamError(f"{name} must be >= 1, got {value!r}")


def _family_method(family, name, caller):
    """``family``'s method ``name``; without it the family is unsupported
    by ``caller``."""
    method = getattr(family, name, None)
    if method is None:
        raise ParamError(f"unsupported family {family!r} for {caller}")
    return method


def family_from_spec(name: str, order: int = 1):
    if name in ("discrete", "discrete_markov"):
        return DiscreteMarkovFamily(order=order)
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


def _encode(data, idx):
    """Joint symbol per row of the columns ``idx`` of a symbol panel, and
    the number of joint symbols; no columns give symbol 0 of 1."""
    if not idx:
        return np.zeros(data.values.shape[0], dtype=np.int64), 1
    sizes = tuple(data.sizes[a] for a in idx)
    codes = np.ravel_multi_index(tuple(data.values[:, a] for a in idx), sizes)
    return codes.astype(np.int64), math.prod(sizes)


def _count_cells(cells, n_ctx, n_tgt):
    """(rows, n_ctx, n_tgt) table counting each row of ``cells`` (S, n) in
    one ``bincount``, after adding each row's offset to it in place."""
    n_rows = cells.shape[0]
    cells += np.arange(0, n_rows * n_ctx * n_tgt, n_ctx * n_tgt)[:, None]
    counts = np.bincount(cells.ravel(), minlength=n_rows * n_ctx * n_tgt)
    return counts.reshape(n_rows, n_ctx, n_tgt)


def _read_cells(read, cells, n_ctx, n_tgt):
    """``read`` of the count table of each row of ``cells`` (S, n), cell =
    context * n_tgt + target: one (S, n_ctx, n_tgt) table within the state
    budget, else one per row over the contexts it holds.  Consumes ``cells``."""
    if cells.shape[0] * n_ctx * n_tgt <= DEFAULT_STATE_BUDGET:
        return read(_count_cells(cells, n_ctx, n_tgt))
    rows = []
    for row in cells:
        ctx, tgt = np.divmod(row, n_tgt)
        uniq, inv = np.unique(ctx, return_inverse=True)
        rows.append(read(_count_cells((inv * n_tgt + tgt)[None], uniq.size, n_tgt)))
    return np.concatenate(rows)


def _moved_cells(fixed, scaled, perms):
    """Cells of each row order (S, T) of A (None: the panel's own): ``fixed``
    plus A's code pre-scaled for each window position j at order index t + j."""
    n = fixed.size
    order = np.arange(scaled.shape[1])[None] if perms is None else perms
    cells = scaled[0][order[:, :n]]
    for j in range(1, len(scaled)):
        cells += scaled[j][order[:, j:j + n]]
    cells += fixed
    return cells


def _loglik(counts):
    """Log likelihood of each row of a (rows, contexts, targets) count
    table under the conditional fit with pseudo-count 1/2 per cell:
    sum n ln(n + 1/2) - sum n_ctx ln(n_ctx + m/2) for m targets.  Each
    term is looked up by its count, which takes a log per distinct count
    instead of per cell; ``einsum`` sums the short target axis several
    times faster than ``ndarray.sum``."""
    n_rows, _, m = counts.shape
    ctx_tot = np.einsum("sct->sc", counts)
    n = np.arange(ctx_tot.max() + 1)
    return ((n * np.log(n + 0.5))[counts].reshape(n_rows, -1).sum(axis=1)
            - (n * np.log(n + 0.5 * m))[ctx_tot].sum(axis=1))


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


def _discrete_causality(data, a_idx, b_idx, c_idx, k):
    """Statistic function, dof, n_obs and weights of the discrete causality test.

    The context of B's present is the pair (past window of B and C, past
    window of A), so a row order of A's columns moves only the second part.
    The restricted fit (B on the past of B and C) does not involve A, so it
    is counted once here.  The returned function takes a stack of row
    orders of A's columns (None: the observed panel) and counts the full
    model of each.
    """
    T = data.values.shape[0]
    if T <= k:
        raise SingularDesign(f"T={T} too short for order {k}")
    res_codes, m_res = _encode(data, tuple(sorted(b_idx + c_idx)))
    a_codes, m_a = _encode(data, a_idx)
    tgt_codes, m_tgt = _encode(data, b_idx)
    n_obs = T - k
    res_ctx = window_codes(res_codes[:-1], k, m_res)
    ll_res = _read_cells(_loglik, (res_ctx * m_tgt + tgt_codes[k:])[None], m_res**k, m_tgt)
    fixed = res_ctx * m_a**k * m_tgt + tgt_codes[k:]
    # A's window code, oldest most significant, counts m_tgt per context
    scaled = a_codes * (m_a ** np.arange(k - 1, -1, -1) * m_tgt)[:, None]

    def stat_of(perms):
        cells = _moved_cells(fixed, scaled, perms)
        return (_read_cells(_loglik, cells, (m_res * m_a)**k, m_tgt) - ll_res) / n_obs

    dof = (m_a**k - 1) * (m_res**k) * (m_tgt - 1)
    return stat_of, dof, n_obs, None


def _discrete_coupling(data, a_idx, b_idx, c_idx, k, mode):
    """Statistic function, dof, n_obs and weights of the discrete coupling
    test.  A's past and present enter every term, so each row order counts
    the joint present of A and B in context (past of B and C, C's present
    under contemporaneous conditioning, past of A) and reads the fits of A
    and of B from the table's two marginal sums."""
    T = data.values.shape[0]
    if T <= k:
        raise SingularDesign(f"T={T} too short for order {k}")
    fixed_codes, m_fixed = _encode(data, tuple(sorted(b_idx + c_idx)))
    fixed_ctx = window_codes(fixed_codes[:-1], k, m_fixed)
    n_fixed = m_fixed**k
    if mode is ConditioningMode.CONTEMPORANEOUS and c_idx:
        c_codes, m_c = _encode(data, tuple(sorted(c_idx)))
        fixed_ctx = fixed_ctx * m_c + c_codes[k:]
        n_fixed *= m_c
    a_codes, m_a = _encode(data, a_idx)
    b_codes, m_b = _encode(data, b_idx)
    n_obs = T - k
    n_tgt = m_a * m_b
    fixed = fixed_ctx * m_a**k * n_tgt + b_codes[k:]
    # A's past window in the context, then A's present in the target
    scaled = a_codes * np.append(m_a ** np.arange(k - 1, -1, -1) * n_tgt, m_b)[:, None]

    def read(counts):
        joint = counts.reshape(counts.shape[:2] + (m_a, m_b))
        return (_loglik(counts) - _loglik(np.einsum("scab->sca", joint))
                - _loglik(np.einsum("scab->scb", joint)))

    def stat_of(perms):
        cells = _moved_cells(fixed, scaled, perms)
        return _read_cells(read, cells, n_fixed * m_a**k, n_tgt) / n_obs

    dof = n_fixed * m_a**k * (m_a - 1) * (m_b - 1)
    return stat_of, dof, n_obs, None


class _LaggedGram:
    """Gram matrix of the centred panel's lags 1..k and present, summed over
    t = k..T-1: the one source of every VAR regression on the panel (as in
    MVGC, Barnett & Seth, J. Neurosci. Methods 223, 2014).

    Row and column ``(j - 1) * d + c`` is lag j of node c, ``k * d + c`` the
    present of node c.  Each d x d block is one product of two lag-slice
    views of the panel, so no lagged design matrix is ever stacked.  Every
    residual covariance is a Schur complement of a sub-block (``fit``);
    reordering A's rows changes only A's rows and columns (``covs``).
    """

    def __init__(self, x, k):
        T, d = x.shape
        if T <= k:
            raise SingularDesign(f"T={T} too short for order {k}")
        self.values, self.k, self.d, self.n = x, k, d, T - k
        # first panel row of the slice behind each d x d block
        self.starts = [k - j for j in range(1, k + 1)] + [k]
        self.gram = self._gram_of(x)
        self._fits = {}
        self._meats = {}

    def _gram_of(self, x):
        """Gram of the panel ``x`` (T, d): one product of two lag-slice views
        per block on or above the diagonal, mirrored below it."""
        blocks = [x[s:s + self.n] for s in self.starts]
        gram = np.empty((len(blocks), self.d) * 2)
        for i in range(len(blocks)):
            for j in range(i, len(blocks)):
                gram[i, :, j] = blocks[i].T @ blocks[j]
                gram[j, :, i] = gram[i, :, j].T
        return gram.reshape(len(blocks) * self.d, -1)

    def lags(self, cols):
        """Indices of lags 1..k of ``cols``, lag-major."""
        return [j * self.d + c for j in range(self.k) for c in cols]

    def present(self, cols):
        return [self.k * self.d + c for c in cols]

    def fit(self, design, target):
        """Per-row residual covariance of the least-squares regression of
        ``target`` on ``design`` (index lists), and its coefficients.  Each
        regression is solved once per Gram; the arrays returned are shared
        and read-only."""
        key = (tuple(design), tuple(target))
        fitted = self._fits.get(key)
        if fitted is None:
            if design and self.n <= len(design):
                raise SingularDesign("not enough rows for the regression")
            idx = list(design) + list(target)
            covs, chol, w = _residual_covs(self.gram[np.ix_(idx, idx)][None],
                                           len(design), self.n)
            coef = (np.empty((0, len(target))) if chol is None
                    else np.linalg.solve(chol[0].T, w[0]))
            fitted = covs[0], coef
            for array in fitted:
                array.setflags(write=False)
            self._fits[key] = fitted
        return fitted

    def covs(self, design, target, a_idx):
        """The function from row orders (S, T) of A's columns (None: the panel
        alone, ``fit``) to the residual covariances of ``target`` on ``design``.
        A's rows and columns of each Gram are A's lag windows times the other
        regressors' rows, gathered on the first reordered call, and times each
        other: one product per panel, so no result depends on the stack."""
        idx = np.array(list(design) + list(target))

        @functools.cache
        def plan():
            is_a = np.isin(idx % self.d, a_idx)
            moved, kept = np.flatnonzero(is_a), np.flatnonzero(~is_a)
            a_cols, node = np.unique(idx[moved] % self.d, return_inverse=True)
            start = np.array(self.starts)[idx[moved] // self.d]
            return moved, kept, self.rows(idx[kept]), a_cols, node, start

        def of(perms):
            if perms is None:
                return self.fit(design, target)[0][None]
            moved, kept, kept_rows, a_cols, node, start = plan()
            # A's columns gathered once, then the (S, moved, n) lag windows
            windows = np.lib.stride_tricks.sliding_window_view(
                self.values.T[a_cols][:, perms], self.n, axis=2)
            w = windows[node, np.arange(perms.shape[0])[:, None], start]
            cross = w @ kept_rows
            gram = np.repeat(self.gram[np.ix_(idx, idx)][None], perms.shape[0], axis=0)
            gram[:, moved[:, None], kept] = cross
            gram[:, kept[:, None], moved] = np.swapaxes(cross, 1, 2)
            gram[:, moved[:, None], moved] = w @ np.swapaxes(w, 1, 2)
            return _residual_covs(gram, len(design), self.n)[0]

        return of

    def rows(self, idx, start=0, stop=None):
        """Rows t = k + start..k + stop - 1 (default: k..T-1) of the panel's lags and
        present at the Gram indices ``idx``, gathered from windows of k + 1 panel rows."""
        windows = np.lib.stride_tricks.sliding_window_view(self.values, self.k + 1, axis=0)
        return windows[start:stop, [i % self.d for i in idx],
                       [self.starts[i // self.d] for i in idx]]

    def meats(self, design, target):
        """Sandwich meats of the full fit of ``target`` on ``design``: per
        target column i, sum_t e_i(t)^2 z(t) z(t)' over the design rows z and
        full-fit residuals e, from one pass over the panel in blocks of at
        most ``_CHUNK_ENTRIES`` gathered entries.  Memoized like ``fit``; the
        stack returned is shared and read-only."""
        key = (tuple(design), tuple(target))
        if key not in self._meats:
            idx, coef = list(design) + list(target), self.fit(design, target)[1]
            meats = np.zeros((len(target), len(design), len(design)))
            step = max(1, _CHUNK_ENTRIES // len(idx))
            for start in range(0, self.n, step):
                z, y = np.split(self.rows(idx, start, start + step), [len(design)], axis=1)
                for meat, e in zip(meats, (y - z @ coef).T):
                    meat += z.T @ (z * e[:, None] ** 2)
            meats.setflags(write=False)
            self._meats[key] = meats
        return self._meats[key]


def _logdet(cov):
    """log det of a covariance matrix, or of each in a stack."""
    sign, val = np.linalg.slogdet(np.atleast_2d(cov))
    if np.any(sign <= 0):
        raise SingularDesign("singular residual covariance")
    return val


def _var_causality(g, a_idx, b_idx, c_idx):
    """Statistic function, dof, n_obs and weights (a ``_sandwich_weights``
    thunk) of the VAR causality test: the Gaussian LLR of B on the past of
    (A, B, C) against B on the past of (B, C).  The restricted log-det does
    not involve A and is computed once on ``g``; the returned function takes
    a stack of row orders of A's columns (None: the observed panel) and fits
    only the full model of each."""
    y = g.present(b_idx)
    full = g.lags(sorted(a_idx + b_idx + c_idx))
    logdet_res = _logdet(g.fit(g.lags(sorted(b_idx + c_idx)), y)[0])
    covs = g.covs(full, y, a_idx)

    def stat_of(perms):
        return 0.5 * (logdet_res - _logdet(covs(perms)))

    return (stat_of, g.k * len(a_idx) * len(b_idx), g.n,
            lambda: _sandwich_weights(g, a_idx, b_idx, c_idx))


def _sandwich_weights(g, a_idx, b_idx, c_idx):
    """Sandwich eigenvalue weights of the tested coefficient block (A's lags).

    Under correct specification the weights are all 1 and ``2 T stat`` is
    the classical chi-square variate; under conditionally heteroskedastic
    innovations (e.g. a quadratic hidden coupling) the asymptotic law is
    the weighted chi-square sum instead.  The tested regressors are
    projected off the kept ones (B's and C's lags), x = z P with P the
    identity on the tested lags and -gamma on the kept ones; the bread is
    that projection's Schur complement, the meat P' W_i P, where W_i is the
    full design's Gram weighted by the full fit's squared row residuals
    (``_LaggedGram.meats``, shared by every edge into B).
    """
    y = g.present(b_idx)
    tested, kept = g.lags(sorted(a_idx)), g.lags(sorted(b_idx + c_idx))
    full = g.lags(sorted(a_idx + b_idx + c_idx))
    cov_full = g.fit(full, y)[0]
    proj_cov, gamma = g.fit(kept, tested)
    proj = np.zeros((len(full), len(tested)))
    proj[[full.index(col) for col in tested], range(len(tested))] = 1.0
    proj[[full.index(col) for col in kept]] = -gamma
    bread = g.n * proj_cov
    weights = []
    for i, meat in enumerate(g.meats(full, y)):
        lam = np.linalg.eigvals(np.linalg.solve(bread, proj.T @ meat @ proj)) / cov_full[i, i]
        weights.extend(np.clip(lam.real, 1e-12, None))
    return weights


def _var_coupling(g, a_idx, b_idx, c_idx, mode):
    """Statistic function, dof, n_obs and weights of the VAR coupling test:
    the mutual information of the present of A and B given the history (and
    C's present under the contemporaneous mode), from one joint fit."""
    design = g.lags(sorted(a_idx + b_idx + c_idx))
    if mode is ConditioningMode.CONTEMPORANEOUS and c_idx:
        design += g.present(sorted(c_idx))
    y = g.present(a_idx + b_idx)
    na = len(a_idx)
    covs = g.covs(design, y, a_idx)

    def stat_of(perms):
        cov = covs(perms)
        return 0.5 * (_logdet(cov[:, :na, :na]) + _logdet(cov[:, na:, na:]) - _logdet(cov))

    return stat_of, na * len(b_idx), g.n, None


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def _chi_square_result(stat, dof, n_obs, alpha, weights=None) -> TestResult:
    """Chi-square calibration of ``2 * n_obs * stat``.

    With ``weights`` (sandwich eigenvalues of the tested block) the variate
    is referred to a Satterthwaite-matched scaled chi-square; all-ones
    weights recover the classical Wilks law.
    """
    if dof <= 0:
        raise CalibrationError(f"chi-square calibration needs dof > 0, the test has {dof}")
    if weights:
        lam = np.asarray(weights, dtype=float)
        c = float(lam @ lam / lam.sum())
        f = float(lam.sum() ** 2 / (lam @ lam))
    else:
        c, f = 1.0, dof
    threshold = chi_square_threshold(alpha, c, f, n_obs)
    p_value = _chi_square_sf(2.0 * n_obs * stat / c, f)
    return _decide(stat, threshold, p_value, "chi_square", dof, n_obs, alpha,
                   chi2_scale=float(c), chi2_df=float(f))


def chi_square_threshold(level, chi2_scale, chi2_df, n_obs) -> float:
    """Per-sample LLR threshold of a (scaled) chi-square calibration: ``chi2_scale``
    times the upper ``level`` quantile of chi-square(``chi2_df``), over ``2 * n_obs``."""
    return chi2_scale * _chi_square_isf(level, chi2_df) / (2.0 * n_obs)


def _chi_square_sf(x, df) -> float:
    """Upper tail ``Q(df / 2, x / 2)`` of the chi-square law: 1 for x <= 0,
    0 for x = inf, NaN for NaN and unless 0 < df < inf."""
    if not 0.0 < df < math.inf or x != x:
        return math.nan
    return _gamma_pq(0.5 * df, 0.5 * float(x))[1] if 0.0 < x < math.inf else float(x <= 0.0)


# Temme's uniform expansion serves a >= 300 with |x / a - 1| <= 0.2, where the series
# and the continued fraction need the most terms.  Row k: the exact eta^n coefficients of
# C_k, cut where they add under 1e-16 there (Temme 1979; DiDonato & Morris, TOMS 12, 1986).
_TEMME_D = (
    (-1 / 3, 1 / 12, -2 / 135, 1 / 864, 1 / 2835, -139 / 777600, 1 / 25515, -571 / 261273600,
     -281 / 151559100, 163879 / 197522841600, -5221 / 29554024500, 5246819 / 782190452736000,
     5459 / 531972441000),
    (-1 / 540, -1 / 288, 1 / 378, -77 / 77760, 1 / 4860, -1 / 2488320, -2743 / 151559100,
     41969 / 5486745600, -11 / 6823440),
    (25 / 6048, -139 / 51840, 1 / 1296, 1 / 497664, -6199 / 57736800, 5531 / 104509440,
     -1219 / 95528160),
    (101 / 155520, 571 / 2488320, -54179 / 115473600, 41969 / 156764160, -20639 / 272937600),
    (-3184811 / 3695155200, 163879 / 209018880, -8707 / 29113344),
    (-2745493 / 8151736320,),
)


def _log1pmx(t) -> float:
    """``log(1 + t) - t``, near 0 from the series of ``2 atanh(t / (2 + t))``."""
    if abs(t) > 0.5:
        return math.log1p(t) - t
    u = t / (2.0 + t)  # |u| <= 1/3: 18 terms reach 1e-18
    return 2.0 * u ** 3 * sum(u ** (2 * j) / (2 * j + 3) for j in range(18)) - t * u


def _log_gamma_prefactor(a, x) -> float:
    """``log(x**a exp(-x) / Gamma(a))``; for a >= 30 and x >= a / 2 by ``log1pmx``
    and Stirling's series, as ``a log(x) - lgamma(a)`` loses eps * a * log(a)."""
    if a < 30.0 or x < 0.5 * a:
        return a * math.log(x) - x - math.lgamma(a)
    stirling = (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * a * a)) / (a * a)) / (a * a)) / a
    return a * _log1pmx((x - a) / a) + 0.5 * math.log(a / (2.0 * math.pi)) - stirling


def _gamma_pq(a, x) -> tuple[float, float]:
    """Regularized incomplete gamma functions ``(P(a, x), Q(a, x))`` for
    finite a, x > 0: the one in the tail is computed, the other is 1 minus it."""
    mu = (x - a) / a
    if a >= 300.0 and abs(mu) <= 0.2:  # Temme: Q = erfc(eta sqrt(a / 2)) / 2 + R
        log_lam, s, is_q = _log1pmx(mu), 0.0, mu >= 0.0
        eta = math.copysign(math.sqrt(-2.0 * log_lam), mu)
        for row in reversed(_TEMME_D):
            s = s / a + sum(d * eta ** n for n, d in enumerate(row))
        r = math.exp(a * log_lam) / math.sqrt(2.0 * math.pi * a) * s
        small = 0.5 * math.erfc(abs(eta) * math.sqrt(0.5 * a)) + (r if is_q else -r)
    else:
        prefactor, is_q = math.exp(_log_gamma_prefactor(a, x)), x >= a + 1.0
        if not is_q:  # P = prefactor / a * sum_n x^n / ((a + 1) ... (a + n))
            term, total, n = 1.0, 1.0, a
            while term > 2.0 ** -52 * total:
                n += 1.0
                term *= x / n
                total += term
            small = prefactor * total / a
        else:  # Legendre's continued fraction for Q, modified Lentz
            b, c, i, delta = x + 1.0 - a, math.inf, 0.0, 0.0
            h = d = 1.0 / b
            while abs(delta - 1.0) > 2.0 ** -52:
                i, b = i + 1.0, b + 2.0
                d, c = 1.0 / (b - i * (i - a) * d), b - i * (i - a) / c
                delta = d * c
                h *= delta
            small = prefactor * h
    return (1.0 - small, small) if is_q else (small, 1.0 - small)


def _chi_square_isf(level, df) -> float:
    """The x with ``_chi_square_sf(x, df) == level`` (inf at 0, 0 at 1, NaN outside [0, 1]
    or unless 0 < df < inf): bracketed Halley steps on log Q (log P above the median)."""
    if not (0.0 < df < math.inf and 0.0 <= level <= 1.0):
        return math.nan
    if level in (0.0, 1.0):
        return math.inf if level == 0.0 else 0.0
    a, upper = 0.5 * float(df), level <= 0.5
    target = math.log(level if upper else 1.0 - level)
    t = math.sqrt(-2.0 * target)  # normal quantile, Abramowitz & Stegun 26.2.22
    z = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t))
    low = math.exp((math.log1p(-level) + math.lgamma(a + 1.0)) / a)  # P < x^a / Gamma(a + 1)
    if low < 2.0 ** -1022:  # a subnormal quantile, where that bound is exact to rounding
        return 2.0 * low
    v = 1.0 / (9.0 * a)
    x = max(a * max(1.0 - v + (z if upper else -z) * math.sqrt(v), 0.0) ** 3, low)
    lo, hi = 0.0, math.inf
    for _ in range(100):
        tail = _gamma_pq(a, x)[1 if upper else 0]
        h = math.log(tail) - target if tail > 0.0 else -math.inf
        lo, hi = (x, hi) if (h > 0.0) == upper else (lo, x)  # h > 0: below the root on Q
        new = math.nan
        if tail > 0.0:
            slope = math.exp(_log_gamma_prefactor(a, x) - math.log(tail)) / x
            slope = -slope if upper else slope  # d log(tail) / dx
            step = h / slope
            step /= max(1.0 - 0.5 * step * ((a - 1.0) / x - 1.0 - slope), 0.5)  # Halley
            if abs(step) <= 1e-7 * x:  # Halley's error cubes: now far below 1e-16 x
                return 2.0 * (x - step)
            new = x - step
        x = new if lo < new < hi else 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
    raise CalibrationError(f"chi-square quantile at level {level!r} and {df!r} "
                           f"degrees of freedom did not converge")


def _block_permutations(T, block_len, rng, count):
    """``count`` circular block permutations of 0..T-1, one per row.  Each
    rotates by a random offset, cuts into ``max(1, T // block_len)`` blocks
    whose first ``T % n_blocks`` are one longer, and concatenates the blocks
    in a random order; its draws are the offset, then the block order."""
    n_blocks = max(1, T // block_len)
    size, extra = divmod(T, n_blocks)
    offsets = np.empty((count, 1), dtype=np.int64)
    orders = np.empty((count, n_blocks), dtype=np.int64)
    for s in range(count):
        offsets[s] = rng.integers(T)
        orders[s] = rng.permutation(n_blocks)
    lengths = size + (orders < extra)
    starts = orders * size + np.minimum(orders, extra)
    # each block moves from its start in the rotated index to its place
    # in the output
    shifts = starts - (np.cumsum(lengths, axis=1) - lengths) + offsets
    rotated = np.repeat(shifts.ravel(), lengths.ravel()).reshape(count, T)
    rotated += np.arange(T)
    # every entry lies in [0, 2T): wrapping by lookup is cheaper than % T
    return np.tile(np.arange(T), 2)[rotated]


def _quantile_rank(alpha, n_surrogates):
    """1-based rank of the surrogate (1 - alpha) quantile among n + 1 values."""
    return math.ceil((1.0 - alpha) * (n_surrogates + 1))


def _check_level(level):
    """Refuse a test level outside (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ParamError(f"alpha must lie in (0, 1), got {level}")


def min_surrogates(level: float) -> int:
    """Fewest surrogates that calibrate a test at ``level``: at least
    ``MIN_SURROGATES``, and enough that the (1 - level) quantile of the
    surrogates plus the observed value has a rank at most their count."""
    _check_level(level)
    need = max(MIN_SURROGATES, math.ceil(1.0 / level) - 2)
    while _quantile_rank(level, need) > need:
        need += 1
    return need


def surrogate_count(surrogates, level) -> int:
    """The surrogates a test at ``level`` draws: ``surrogates``, or by
    default the larger of ``DEFAULT_SURROGATES`` and ``min_surrogates``."""
    return max(DEFAULT_SURROGATES, min_surrogates(level)) if surrogates is None else surrogates


def _check_surrogates(n_surrogates, alpha):
    """Refuse a surrogate count below ``min_surrogates(alpha)``, which
    cannot calibrate a test at level ``alpha``."""
    if n_surrogates < MIN_SURROGATES:
        raise CalibrationError(
            f"need at least {MIN_SURROGATES} surrogates, got {n_surrogates}")
    need = min_surrogates(alpha)
    if n_surrogates < need:
        raise CalibrationError(
            f"surrogate calibration at level {alpha:.6g} needs at least {need} "
            f"surrogates, got {n_surrogates}")


def _surrogate_result(stat_of, T, block_len, n_surrogates, alpha, seed, n_obs,
                      stat) -> TestResult:
    """Calibrate ``stat`` against ``stat_of`` evaluated with A's rows
    circularly block-permuted, ``n_surrogates`` times (None: the default
    count at ``alpha``).  The permutations are drawn and evaluated in
    chunks of at most ``_CHUNK_ENTRIES`` indices; ``stat_of`` refits only
    what A enters."""
    n_surrogates = surrogate_count(n_surrogates, alpha)
    _check_surrogates(n_surrogates, alpha)
    rng = np.random.default_rng(seed)
    chunk = max(1, _CHUNK_ENTRIES // T)
    surr_stats = np.concatenate([
        stat_of(_block_permutations(T, block_len, rng, min(chunk, n_surrogates - start)))
        for start in range(0, n_surrogates, chunk)])
    rank = _quantile_rank(alpha, n_surrogates)
    threshold = float(np.sort(surr_stats)[rank - 1])
    p_value = float((1 + np.sum(surr_stats >= stat)) / (n_surrogates + 1))
    return _decide(stat, threshold, p_value, "surrogate", None, n_obs, alpha)


def _check_calibration(calibration):
    if calibration not in ("chi_square", "surrogate"):
        raise ParamError(f"unknown calibration {calibration!r}")


def _edge_test(family, build, data, args, alpha, calibration, surrogates,
               seed) -> TestResult:
    """One causality or coupling test on the panel data ``family._prepare``
    returned: ``build(data, *args)`` is the family's statistic builder, and
    its weights thunk (None: the Wilks law) runs only under chi-square
    calibration."""
    stat_of, dof, n_obs, weights = build(data, *args)
    stat = stat_of(None)[0]
    if calibration == "surrogate":
        return _surrogate_result(stat_of, data.values.shape[0], 5 * family.order,
                                 surrogates, alpha, seed, n_obs, stat)
    return _chi_square_result(stat, dof, n_obs, alpha,
                              weights=None if weights is None else weights())


def _resolve(panel, family, builder, caller, groups, alpha, calibration):
    """The family's statistic builder named ``builder``, its panel data and
    the index tuples of the label groups A, B, C, once the groups, the
    family, ``alpha`` and ``calibration`` pass their checks."""
    a_idx, b_idx, c_idx = (_group_indices(panel, g) for g in groups)
    _check_disjoint(a_idx, b_idx, c_idx)
    build = _family_method(family, builder, caller)
    _check_level(alpha)
    data = family._prepare(panel)
    _check_calibration(calibration)
    return build, data, (a_idx, b_idx, c_idx)


# ---------------------------------------------------------------------------
# public tests
# ---------------------------------------------------------------------------

def llr_causality(panel: TimeSeriesPanel, a_labels, b_labels, c_labels=(),
                  family=DiscreteMarkovFamily(), alpha: float = 0.05,
                  calibration: str = "chi_square",
                  surrogates: int | None = None, seed=None) -> TestResult:
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
    Surrogate calibration draws ``surrogates`` resamplings, by default
    ``max(DEFAULT_SURROGATES, min_surrogates(alpha))``.
    """
    build, data, groups = _resolve(panel, family, "_causality", "llr_causality",
                                   (a_labels, b_labels, c_labels), alpha, calibration)
    return _edge_test(family, build, data, groups, alpha, calibration, surrogates, seed)


def llr_coupling(panel: TimeSeriesPanel, a_labels, b_labels, c_labels=(),
                 family=DiscreteMarkovFamily(),
                 mode=ConditioningMode.CONTEMPORANEOUS, alpha: float = 0.05,
                 calibration: str = "chi_square",
                 surrogates: int | None = None, seed=None) -> TestResult:
    """Instantaneous-coupling test between A and B given the side set C.

    Per-sample LLR between the joint contemporaneous conditional
    p(x_A(t), x_B(t) | history) and the product of its marginals; under the
    alternative it converges to the information exchange rate.  ``mode``
    decides whether C's present enters the conditioning (contemporaneous,
    the conditional-independence-graph convention) or only C's past.
    Surrogates default as in ``llr_causality``.
    """
    mode = _as_mode(mode)
    build, data, groups = _resolve(panel, family, "_coupling", "llr_coupling",
                                   (a_labels, b_labels, c_labels), alpha, calibration)
    return _edge_test(family, build, data, groups + (mode,), alpha, calibration,
                      surrogates, seed)


# ---------------------------------------------------------------------------
# generalized LLR over parameter restrictions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Spikes:
    """The GLM family's panel data: the binary panel as floats, its memory
    ``k`` and the ``n`` rows t = k..T-1 each regression fits."""

    values: np.ndarray
    k: int
    n: int


def _lagged_design(x, k, cols):
    """Regressor block [x(t-1) .. x(t-k)] restricted to ``cols``."""
    T = x.shape[0]
    parts = [x[k - j:T - j][:, cols] for j in range(1, k + 1)]
    return np.concatenate(parts, axis=1) if parts else np.empty((T - k, 0))


def _glm_loglik(theta, design, y):
    z = design @ theta
    return float(y @ z - np.logaddexp(0.0, z).sum())


def _fit_glm(design, y, tol=1e-9, ridge=1e-8):
    """Logistic maximum likelihood by damped Newton iterations.

    A tiny ridge keeps the Hessian invertible when classes separate; the
    returned value is the maximized log likelihood.
    """
    theta = np.zeros(design.shape[1])
    ll = _glm_loglik(theta, design, y)
    for _ in range(GLM_MAX_ITER):
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
    raise FitError(f"logistic fit did not converge in {GLM_MAX_ITER} iterations")


def generalized_llr(panel: TimeSeriesPanel, family, theta_restriction,
                    alpha: float = 0.05) -> TestResult:
    """Generalized log likelihood ratio test between the unrestricted family
    and the sub-family where the masked parameters are pinned to zero.

    ``theta_restriction`` is an iterable of (target_label, source_label)
    pairs; all lag coefficients of those links are removed under the null,
    and a pair named twice counts once.  Calibration is chi-square with one
    degree of freedom per masked scalar.
    """
    pairs = sorted({(str(t), str(s)) for t, s in theta_restriction})
    if not pairs:
        raise ParamError("theta_restriction must name at least one link")
    for link in pairs:
        for label in link:
            panel.index_of(label)
    _check_level(alpha)
    targets = sorted({t for t, _ in pairs})
    masked_by_target = {t: sorted({s for tt, s in pairs if tt == t}) for t in targets}
    loglik = _family_method(family, "_loglik", "generalized_llr")
    data = family._prepare(panel)
    all_cols = list(range(panel.n_nodes))
    ll_full = 0.0
    ll_res = 0.0
    for t_lab in targets:
        target = panel.index_of(t_lab)
        keep_cols = [cidx for cidx in all_cols
                     if panel.labels[cidx] not in masked_by_target[t_lab]]
        ll_full += loglik(data, target, all_cols)
        ll_res += loglik(data, target, keep_cols)
    stat = (ll_full - ll_res) / data.n
    return _chi_square_result(stat, data.k * len(pairs), data.n, alpha)


# ---------------------------------------------------------------------------
# Stein error-exponent diagnostic
# ---------------------------------------------------------------------------

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
    that law.  B's side conditions on B's own past through a belief over the
    windows (``predict``, ``condition``)."""

    def __init__(self, model: DiscreteMarkovModel, a_idx, b_idx):
        if set(a_idx) | set(b_idx) != set(range(model.n_nodes)):
            raise PartitionError("A and B must cover the model's node set")
        if model.kernel.min() <= 0.0 or model.initial.min() <= 0.0:
            raise ParamError("error-exponent check needs a strictly positive model")
        k, M = model.order, model.joint_alphabet
        states = model.decode_states(np.arange(M))

        def part(nodes):
            """Each joint symbol's part on ``nodes`` as a code, and the number of codes."""
            shape = tuple(model.alphabet_sizes[v] for v in nodes)
            codes = np.ravel_multi_index(tuple(states[:, v] for v in nodes), shape)
            return codes, int(np.prod(shape))

        (self.a_of, self.m_a), (self.b_of, self.m_b) = part(a_idx), part(b_idx)
        # joint symbol with a given a-part and b-part
        self.merge = np.full((self.m_a, self.m_b), -1, dtype=np.int64)
        self.merge[self.a_of, self.b_of] = np.arange(M)
        self.k, self.model, self.init = k, model, model.initial
        init_nd = model.initial.reshape((M,) * k)
        prefixes = [init_nd.sum(axis=tuple(range(t + 1, k))).reshape(-1, M) for t in range(k)]
        self.kernels = [p / p.sum(axis=1, keepdims=True) for p in prefixes] + [model.kernel]
        self.a_laws = [kern @ (self.a_of[:, None] == np.arange(self.m_a)) for kern in self.kernels]
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
    log_ratio = [np.log(kern) - np.log(law[:, flt.a_of])
                 for kern, law in zip(flt.kernels, flt.a_laws)]
    llr = np.zeros(n_trials)
    belief = np.broadcast_to(flt.init, (n_trials, len(flt.init)))
    window = np.zeros(n_trials, dtype=np.int64)
    for t in range(T):
        s = codes[:, t]
        belief, mass = flt.condition(flt.predict(belief, t), flt.b_of[s], t)
        llr += log_ratio[min(t, flt.k)][window, s] - np.log(mass)
        window = flt.model.next_window(window, s)
    return llr


def _sample_h0(flt: _BivariateFilter, T, n_trials, rng) -> np.ndarray:
    """Sample from q = p(x_A^T || x_B^{T-1}) p(x_B^T), vectorized: under q,
    a_t and b_t are independent given the past, so each step draws b_t from
    B's belief and a_t from A's law given the joint past."""
    a_cdfs = [np.cumsum(law, axis=1) for law in flt.a_laws]
    codes = np.empty((n_trials, T), dtype=np.int64)
    belief = np.broadcast_to(flt.init, (n_trials, len(flt.init)))
    window = np.zeros(n_trials, dtype=np.int64)
    for t in range(T):
        j, belief = min(t, flt.k), flt.predict(belief, t)
        b_t = draw_symbols(np.cumsum(belief @ flt.b_masks[j].T, axis=1), rng)
        a_t = draw_symbols(a_cdfs[j][window], rng)
        belief, _ = flt.condition(belief, b_t, t)
        codes[:, t] = flt.merge[a_t, b_t]
        window = flt.model.next_window(window, codes[:, t])
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
    point.  The DI rate is the increment at ``rate_horizon``, reported
    with its certified bracket (:func:`~dirinfo.measures.rate`).
    Bivariate strictly positive models only.
    """
    if trials < 1000:
        raise ParamError("use at least 1000 trials")
    a_idx = tuple(int(a) for a in a_nodes)
    b_idx = tuple(int(b) for b in b_nodes)
    stationary_rate = measure_rate("di", model, a_idx, b_idx, n_max=rate_horizon)
    flt = _BivariateFilter(model, a_idx, b_idx)
    rng = np.random.default_rng(seed)
    points = []
    exps, Ts = [], []
    for T in sorted(int(t) for t in T_grid):
        h1 = sample_codes(model, T, trials, rng)
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
    slope = float(np.polyfit(Ts, exps, 1)[0]) if len(Ts) >= 2 else math.nan
    return SteinReport(di_rate=stationary_rate.value, points=tuple(points),
                       slope=slope, trials=trials, miss_level=miss_level,
                       rate_lower=stationary_rate.lower, rate_upper=stationary_rate.upper)


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
    """Number of tests charged by the correction: n*(n-1) directed tests
    plus n*(n-1) for the C(n,2) coupling pairs, two per pair although one
    coupling test runs per pair (112 charged at 8 nodes, for 84 tests run)."""
    return 2 * (n_nodes * (n_nodes - 1) // 2) + n_nodes * (n_nodes - 1)


def infer_graph(panel: TimeSeriesPanel, family, alpha: float = 0.05,
                mode=ConditioningMode.CONTEMPORANEOUS, correction: str = "bonferroni",
                calibration: str = "chi_square", surrogates: int | None = None,
                seed=None, threads: int = 1) -> CausalityGraph:
    """Pairwise causality-graph inference relative to the full node set.

    Each ordered pair (a, b) is tested for a -> b with all remaining nodes
    as side information; each unordered pair for instantaneous coupling
    under ``mode``.  ``correction='bonferroni'`` divides the level by the
    total test count; per-edge RNG streams derive from ``seed`` so serial
    and threaded runs are identical.  The per-panel data (the VAR family's
    lagged Gram matrix) is built once and shared by every edge, so an edge
    equals the corresponding single ``llr_causality``/``llr_coupling``
    call exactly.  Surrogate calibration draws ``surrogates`` resamplings
    per test, by default ``max(DEFAULT_SURROGATES, min_surrogates(level))``
    at the corrected level; a count too few for that level raises
    ``CalibrationError`` before any edge runs.
    """
    mode = _as_mode(mode)
    _check_level(alpha)
    labels = panel.labels
    if correction == "bonferroni":
        level = alpha / bonferroni_count(len(labels))
    elif correction == "none":
        level = alpha
    else:
        raise ParamError(f"unknown correction {correction!r}")
    _check_calibration(calibration)
    if calibration == "surrogate":
        surrogates = surrogate_count(surrogates, level)
        _check_surrogates(surrogates, level)
    causality = _family_method(family, "_causality", "infer_graph")
    coupling = _family_method(family, "_coupling", "infer_graph")
    data = family._prepare(panel)

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
        groups = ((panel.index_of(a),), (panel.index_of(b),),
                  tuple(panel.index_of(x) for x in labels if x not in (a, b)))
        build, args = ((causality, groups) if kind == "directed"
                       else (coupling, groups + (mode,)))
        try:
            return _edge_test(family, build, data, args, level, calibration, surrogates,
                              child_seed)
        except DirinfoError as exc:
            return exc

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # imported only where it runs
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run, tasks, seeds))
    else:
        outcomes = list(map(run, tasks, seeds))

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
        "family": family.name,
        "order": family.order,
        "alpha": alpha, "correction": correction, "calibration": calibration,
        "mode": mode.value, "surrogates": surrogates if calibration == "surrogate" else None,
        "seed": seed,
    }
    return CausalityGraph(nodes=labels, directed=directed, undirected=undirected,
                          errors=errors, mode=mode, alpha=alpha, config=config)
