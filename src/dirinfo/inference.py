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
from scipy import special

from .core import DEFAULT_STATE_BUDGET, TimeSeriesPanel
from .discrete import (
    DiscreteMarkovModel,
    draw_symbols,
    draw_window,
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
    RateNotConverged,
    SingularDesign,
)
from .measures import ConditioningMode, rate as measure_rate

DEFAULT_SURROGATES = 200
MIN_SURROGATES = 20
# bound on the (surrogates x T) row orders one chunk of surrogate statistics
# evaluates: about 52 surrogates at T = 5,000
_CHUNK_ENTRIES = 2**18
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


def _encode_split(values, idx, sizes, a_idx):
    """``_encode`` of ``idx`` as the part of the columns outside A and the
    part of those in A.  The code is linear in the symbols, so the parts
    sum to the joint code, and reordering A's rows reorders only the
    second part."""
    outside = values.copy()
    outside[:, list(a_idx)] = 0
    fixed, size = _encode(outside, idx, sizes)
    return fixed, _encode(values - outside, idx, sizes)[0], size


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


def _cond_logliks(ctx, tgt, n_ctx, n_tgt, alpha):
    """``_cond_loglik`` of every row of ``ctx`` (S, n), contexts below
    ``n_ctx``, against ``tgt`` of shape (n,) or (S, n).

    When S x n_ctx x n_tgt fits the state budget, one ``bincount`` over
    (row, context, target) counts every row at once.  The observed cells
    come out in the order ``_cond_loglik`` sums them, and each row's sum is
    taken over its own cells, so every value equals ``_cond_loglik``'s bit
    for bit.  A larger table falls back to ``_cond_loglik`` row by row.
    """
    n_rows = ctx.shape[0]
    tgt = np.broadcast_to(tgt, ctx.shape)
    if n_rows * n_ctx * n_tgt > DEFAULT_STATE_BUDGET:
        return np.array([_cond_loglik(c, t, n_tgt, alpha) for c, t in zip(ctx, tgt)])
    cells = (np.arange(n_rows)[:, None] * n_ctx + ctx) * n_tgt + tgt
    counts = np.bincount(cells.ravel(), minlength=n_rows * n_ctx * n_tgt)
    counts = counts.reshape(n_rows, n_ctx, n_tgt).astype(float)
    mask = counts > 0
    observed = counts[mask]
    row = np.broadcast_to(counts.sum(axis=2, keepdims=True), counts.shape)[mask]
    if alpha > 0:
        probs = (observed + alpha) / (row + alpha * n_tgt)
    else:
        probs = observed / row
    terms = observed * np.log(probs)
    ends = np.cumsum(mask.reshape(n_rows, -1).sum(axis=1)).tolist()
    return np.array([terms[start:end].sum() for start, end in zip([0] + ends, ends)])


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


def _rows_of(perms, T):
    """Row order of each panel a statistic function evaluates: the observed
    panel alone when ``perms`` is None."""
    return np.arange(T)[None] if perms is None else perms


def _discrete_causality(data, a_idx, b_idx, c_idx, k, alpha):
    """Statistic function, dof and n_obs of the discrete causality test.

    The restricted fit (B on the past of B and C) does not involve A, so
    it is computed once here.  The returned function takes a stack of row
    orders of A's columns (None: the observed panel) and fits only the full
    model of each.
    """
    values, sizes = data.values, data.sizes
    T = values.shape[0]
    if T <= k:
        raise SingularDesign(f"T={T} too short for order {k}")
    full_idx = tuple(sorted(a_idx + b_idx + c_idx))
    res_idx = tuple(sorted(b_idx + c_idx))
    full_fixed, full_moving, m_full = _encode_split(
        values, full_idx, tuple(sizes[a] for a in full_idx), a_idx)
    res_codes, m_res = _encode(values, res_idx, tuple(sizes[a] for a in res_idx))
    tgt_codes, m_tgt = _encode(values, b_idx, tuple(sizes[a] for a in b_idx))
    tgt = tgt_codes[k:]
    n_obs = T - k
    ll_res = _cond_loglik(window_codes(res_codes[:-1], k, m_res), tgt, m_tgt, alpha)

    def stat_of(perms):
        full_codes = full_fixed + full_moving[_rows_of(perms, T)]
        ctx = window_codes(full_codes[:, :-1], k, m_full)
        return (_cond_logliks(ctx, tgt, m_full**k, m_tgt, alpha) - ll_res) / n_obs

    m_a = int(np.prod([sizes[a] for a in a_idx]))
    dof = (m_a**k - 1) * (m_res**k) * (m_tgt - 1)
    return stat_of, dof, n_obs


def _discrete_coupling(data, a_idx, b_idx, c_idx, k, alpha, mode):
    """Statistic function, dof and n_obs of the discrete coupling test.
    A's past and present enter every term, so each row order refits all
    three."""
    values, sizes = data.values, data.sizes
    T = values.shape[0]
    if T <= k:
        raise SingularDesign(f"T={T} too short for order {k}")
    past_idx = tuple(sorted(a_idx + b_idx + c_idx))
    past_fixed, past_moving, m_past = _encode_split(
        values, past_idx, tuple(sizes[a] for a in past_idx), a_idx)
    n_ctx = m_past**k
    side_present = mode is ConditioningMode.CONTEMPORANEOUS and bool(c_idx)
    if side_present:
        c_codes, m_c = _encode(values, tuple(sorted(c_idx)),
                               tuple(sizes[a] for a in sorted(c_idx)))
        n_ctx *= m_c
    a_codes, m_a = _encode(values, a_idx, tuple(sizes[a] for a in a_idx))
    b_codes, m_b = _encode(values, b_idx, tuple(sizes[a] for a in b_idx))
    b_t = b_codes[k:]
    n_obs = T - k

    def stat_of(perms):
        rows = _rows_of(perms, T)
        ctx = window_codes((past_fixed + past_moving[rows])[:, :-1], k, m_past)
        if side_present:
            ctx = ctx * m_c + c_codes[k:]
        a_t = a_codes[rows][:, k:]
        ll_joint = _cond_logliks(ctx, a_t * m_b + b_t, n_ctx, m_a * m_b, alpha)
        ll_a = _cond_logliks(ctx, a_t, n_ctx, m_a, alpha)
        ll_b = _cond_logliks(ctx, b_t, n_ctx, m_b, alpha)
        return (ll_joint - ll_a - ll_b) / n_obs

    dof = n_ctx * (m_a - 1) * (m_b - 1)
    return stat_of, dof, n_obs


def _cholesky(gram):
    """Lower Cholesky factors of a stack of regressor Gram blocks.

    Raises ``SingularDesign`` when a factorization fails or when a pivot
    ``L_ii**2`` falls to ``1e-10 * G_ii`` or below.  That pivot is the
    residual sum of squares of regressor i on the regressors before it, so
    the test reads 1 - R_i**2 <= 1e-10: the design is rank deficient to
    working precision (an exactly repeated or constant column).
    """
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise SingularDesign("rank-deficient regressor matrix") from None
    pivots = np.diagonal(chol, axis1=-2, axis2=-1) ** 2
    if np.any(pivots <= _PIVOT_RTOL * np.diagonal(gram, axis1=-2, axis2=-1)):
        raise SingularDesign("rank-deficient regressor matrix")
    return chol


def _residual_covs(grams, p, n):
    """Per-row residual covariances of the least-squares regressions of the
    last rows of each Gram in the stack (S, p + q, p + q) on its first
    ``p`` rows, with the Cholesky factors and the solved cross blocks."""
    g_yy = grams[:, p:, p:]
    if p == 0:
        return g_yy / n, None, None
    chol = _cholesky(grams[:, :p, :p])
    # np.linalg.solve on the factor: scipy's triangular solver left
    # about 0.7 MB more resident memory in a process running these fits
    w = np.linalg.solve(chol, grams[:, :p, p:])
    return (g_yy - np.swapaxes(w, 1, 2) @ w) / n, chol, w


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
        # first panel row of the slice behind each d x d block
        self.starts = [k - j for j in range(1, k + 1)] + [k]
        self.gram = self._gram_of(x, np.arange((k + 1) * d), range(d))
        self._fits = {}
        self._meats = {}

    def _gram_of(self, x, idx, moved):
        """Rows and columns ``idx`` of the Gram of a panel (T, d), or of
        each panel in a stack (S, T, d) that differs from this panel only in
        the columns ``moved``.  A block pair is multiplied only when it
        holds an entry of ``idx`` in a moved column; the other entries are
        this panel's own.  A stack's blocks are the same matrix products,
        one per panel, and no entry of a product depends on other columns,
        so each of its Grams equals that panel's own Gram bit for bit."""
        blocks = [x[..., s:s + self.n, :] for s in self.starts]
        block_of, col = np.divmod(idx, self.d)
        hit = np.isin(col, list(moved))
        gram = np.empty(x.shape[:-2] + (len(idx), len(idx)))
        for i in range(len(blocks)):
            for j in range(i, len(blocks)):
                rows, cols = np.flatnonzero(block_of == i), np.flatnonzero(block_of == j)
                if hit[rows].any() or hit[cols].any():
                    block = np.swapaxes(blocks[i], -1, -2) @ blocks[j]
                    part = block[..., col[rows][:, None], col[cols]]
                else:
                    part = self.gram[np.ix_(idx[rows], idx[cols])]
                gram[..., rows[:, None], cols] = part
                gram[..., cols[:, None], rows] = np.swapaxes(part, -1, -2)
        return gram

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

    def covs(self, design, target, a_idx, perms):
        """Residual covariances of ``target`` on ``design`` as a stack: of
        the panel alone when ``perms`` is None (``fit``), else of each panel
        whose A columns are reordered by a row of ``perms`` (S, T)."""
        if perms is None:
            return self.fit(design, target)[0][None]
        a_cols = list(a_idx)
        x = np.repeat(self.values[None], perms.shape[0], axis=0)
        x[:, :, a_cols] = self.values[:, a_cols][perms]
        grams = self._gram_of(x, np.array(list(design) + list(target)), a_cols)
        return _residual_covs(grams, len(design), self.n)[0]

    def rows(self, idx):
        """Rows t = k..T-1 of the panel's lags and present at the Gram
        indices ``idx``, gathered from windows of k + 1 panel rows."""
        windows = np.lib.stride_tricks.sliding_window_view(self.values, self.k + 1, axis=0)
        return windows[:, [i % self.d for i in idx], [self.starts[i // self.d] for i in idx]]

    def meats(self, design, target):
        """Sandwich meats of the full fit of ``target`` on ``design``: per
        target column i, sum_t e_i(t)^2 z(t) z(t)' over the design rows z and
        full-fit residuals e, from one pass over the panel.  Memoized like
        ``fit``; the stack returned is shared and read-only."""
        key = (tuple(design), tuple(target))
        if key not in self._meats:
            both = self.rows(list(design) + list(target))
            z = both[:, :len(design)]
            resid = both[:, len(design):] - z @ self.fit(design, target)[1]
            self._meats[key] = np.stack([z.T @ (z * e[:, None] ** 2) for e in resid.T])
            self._meats[key].setflags(write=False)
        return self._meats[key]


def _logdet(cov):
    """log det of a covariance matrix, or of each in a stack."""
    sign, val = np.linalg.slogdet(np.atleast_2d(cov))
    if np.any(sign <= 0):
        raise SingularDesign("singular residual covariance")
    return val


def _var_causality(g, a_idx, b_idx, c_idx):
    """Statistic function, dof and n_obs of the VAR causality test: the
    Gaussian LLR of B on the past of (A, B, C) against B on the past of
    (B, C).  The restricted log-det does not involve A and is computed once
    on ``g``; the returned function takes a stack of row orders of A's
    columns (None: the observed panel) and fits only the full model of
    each."""
    y = g.present(b_idx)
    full = g.lags(sorted(a_idx + b_idx + c_idx))
    logdet_res = _logdet(g.fit(g.lags(sorted(b_idx + c_idx)), y)[0])

    def stat_of(perms):
        return 0.5 * (logdet_res - _logdet(g.covs(full, y, a_idx, perms)))

    return stat_of, g.k * len(a_idx) * len(b_idx), g.n


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
    """Statistic function, dof and n_obs of the VAR coupling test: the
    mutual information of the present of A and B given the history (and
    C's present under the contemporaneous mode), from one joint fit."""
    design = g.lags(sorted(a_idx + b_idx + c_idx))
    if mode is ConditioningMode.CONTEMPORANEOUS and c_idx:
        design += g.present(sorted(c_idx))
    y = g.present(a_idx + b_idx)
    na = len(a_idx)

    def stat_of(perms):
        cov = g.covs(design, y, a_idx, perms)
        return 0.5 * (_logdet(cov[:, :na, :na]) + _logdet(cov[:, na:, na:]) - _logdet(cov))

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
    p_value = _chi_square_sf(scale * stat / c, f)
    return _decide(stat, threshold, p_value, "chi_square", dof, n_obs, alpha,
                   chi2_scale=float(c), chi2_df=float(f))


def chi_square_threshold(level, chi2_scale, chi2_df, n_obs) -> float:
    """Per-sample LLR threshold of a (scaled) chi-square calibration.
    ``chdtri`` is what ``stats.chi2.isf`` evaluates, without its per-call
    argument handling."""
    return chi2_scale * special.chdtri(chi2_df, level) / (2.0 * n_obs)


def _chi_square_sf(x, df) -> float:
    """``stats.chi2.sf(x, df)`` bit for bit: ``chdtrc`` is what it
    evaluates inside the support, and outside it gives 1 for x <= 0 and
    NaN for df <= 0, without its per-call argument handling."""
    return float(special.chdtrc(df, max(x, 0.0))) if df > 0 else math.nan


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


def min_surrogates(level: float) -> int:
    """Fewest surrogates that calibrate a test at ``level``: at least
    ``MIN_SURROGATES``, and enough that the (1 - level) quantile of the
    surrogates plus the observed value has a rank at most their count."""
    if not 0.0 < level < 1.0:
        raise ParamError(f"alpha must lie in (0, 1), got {level}")
    need = max(MIN_SURROGATES, math.ceil(1.0 / level) - 2)
    while _quantile_rank(level, need) > need:
        need += 1
    return need


def surrogate_count(surrogates, level) -> int:
    """The surrogates a test at ``level`` draws: ``surrogates``, or by
    default the larger of ``DEFAULT_SURROGATES`` and ``min_surrogates``."""
    return max(DEFAULT_SURROGATES, min_surrogates(level)) if surrogates is None else surrogates


def _check_surrogates(n_surrogates, alpha):
    """Refuse a surrogate count that cannot calibrate a test at level
    ``alpha``: the (1 - alpha) quantile of n surrogates plus the observed
    value exists only when its rank is at most n."""
    if n_surrogates < MIN_SURROGATES:
        raise CalibrationError(
            f"need at least {MIN_SURROGATES} surrogates, got {n_surrogates}")
    need = min_surrogates(alpha)
    if _quantile_rank(alpha, n_surrogates) > n_surrogates:
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


def _causality_test(data, family, a_idx, b_idx, c_idx, alpha, calibration,
                    surrogates, seed) -> TestResult:
    """``llr_causality`` on the panel data ``_prepare`` returned."""
    if isinstance(family, VarFamily):
        stat_of, dof, n_obs = _var_causality(data, a_idx, b_idx, c_idx)
    else:
        stat_of, dof, n_obs = _discrete_causality(data, a_idx, b_idx, c_idx,
                                                  family.order, family.smoothing)
    stat = stat_of(None)[0]
    if calibration == "surrogate":
        return _surrogate_result(stat_of, data.values.shape[0], 5 * family.order,
                                 surrogates, alpha, seed, n_obs, stat)
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
    stat = stat_of(None)[0]
    if calibration == "surrogate":
        return _surrogate_result(stat_of, data.values.shape[0], 5 * family.order,
                                 surrogates, alpha, seed, n_obs, stat)
    return _chi_square_result(stat, dof, n_obs, alpha)


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
                 surrogates: int | None = None, seed=None) -> TestResult:
    """Instantaneous-coupling test between A and B given the side set C.

    Per-sample LLR between the joint contemporaneous conditional
    p(x_A(t), x_B(t) | history) and the product of its marginals; under the
    alternative it converges to the information exchange rate.  ``mode``
    decides whether C's present enters the conditioning (contemporaneous,
    the conditional-independence-graph convention) or only C's past.
    Surrogates default as in ``llr_causality``.
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
        # joint symbol with a given a-part and b-part
        self.merge = np.full((self.m_a, self.m_b), -1, dtype=np.int64)
        self.merge[self.a_of, self.b_of] = np.arange(M)
        self.k, self.M = k, M
        W = M**k
        self.W = W
        # per-observed-b transition of the window chain
        self.shift = M ** (k - 1)
        tails = (np.arange(W) % self.shift) * M
        self.trans_b = np.zeros((self.m_b, W, W))
        for s in range(M):
            self.trans_b[self.b_of[s], np.arange(W), tails + s] += self.model.kernel[:, s]
        # p(b' = beta | window), one vector per beta
        self.b_pred = [self.trans_b[beta].sum(axis=1) for beta in range(self.m_b)]
        # p(a' = alpha | window)
        self.a_pred = np.zeros((W, self.m_a))
        for s in range(M):
            self.a_pred[:, self.a_of[s]] += self.model.kernel[:, s]
        # the initial law: per window its b-part at each position, the law
        # of the b-prefix, and prefix[t] = p(history, symbol t) over the
        # first t+1 symbols with the history as a window code
        self.init = model.initial
        self.b_in_window = self.b_of[np.stack(np.unravel_index(np.arange(W), (M,) * k), axis=-1)]
        self.b_prefix_law = np.zeros(self.m_b**k)
        np.add.at(self.b_prefix_law, window_codes(self.b_in_window, k, self.m_b)[:, 0], self.init)
        init_nd = self.init.reshape((M,) * k)
        self.prefix = [init_nd.sum(axis=tuple(range(t + 1, k))).reshape(-1, M)
                       for t in range(k)]

    def advance(self, window, s):
        """Window code after appending joint symbols ``s``; from 0 this
        also builds the code of the first t symbols for t < k."""
        return (window % self.shift) * self.M + s

    def observe(self, belief, b_t, t):
        """Condition the window belief on B's symbols at time ``t`` (a mask
        inside the initial window, a ``trans_b`` step after it); returns
        the new belief and the predictive mass of ``b_t``."""
        if t < self.k:
            nxt = np.where(self.b_in_window[:, t][None, :] == b_t[:, None], belief, 0.0)
        else:
            nxt = np.empty_like(belief)
            for beta in range(self.m_b):
                hit = b_t == beta
                if np.any(hit):
                    nxt[hit] = belief[hit] @ self.trans_b[beta]
        mass = nxt.sum(axis=1)
        return nxt / mass[:, None], mass


def _stein_llr(flt: _BivariateFilter, codes: np.ndarray) -> np.ndarray:
    """log p(a^T, b^T) - log p(a^T || b^{T-1}) - log p(b^T), per trial.

    Within the initial window the causal factor is the prefix-conditional
    of the initial law, afterwards a kernel row sum; the B-marginal comes
    from the forward filter."""
    n_trials, T = codes.shape
    ll_joint = np.zeros(n_trials)
    ll_a = np.zeros(n_trials)
    ll_b = np.zeros(n_trials)
    belief = np.broadcast_to(flt.init, (n_trials, flt.W)).copy()
    window = np.zeros(n_trials, dtype=np.int64)
    for t in range(T):
        s = codes[:, t]
        if t < flt.k:
            rows = flt.prefix[t][window]
            same_a = flt.a_of[None, :] == flt.a_of[s][:, None]
            ll_a += np.log((rows * same_a).sum(axis=1)) - np.log(rows.sum(axis=1))
        else:
            ll_joint += np.log(flt.model.kernel[window, s])
            ll_a += np.log(flt.a_pred[window, flt.a_of[s]])
        belief, mass = flt.observe(belief, flt.b_of[s], t)
        ll_b += np.log(mass)
        window = flt.advance(window, s)
        if t == flt.k - 1:  # the initial law of the first k symbols
            ll_joint = np.log(flt.init[window])
    return ll_joint - ll_a - ll_b


def _sample_h0(flt: _BivariateFilter, T, n_trials, rng) -> np.ndarray:
    """Sample from q = p(x_A^T || x_B^{T-1}) p(x_B^T), vectorized.

    The whole b-path is drawn before the a-path: q's a-factor conditions
    on the joint past, not on b's present."""
    k = flt.k
    b_path = np.empty((n_trials, T), dtype=np.int64)
    b_path[:, :k] = draw_window(flt.b_prefix_law, flt.m_b, k, n_trials, rng)
    belief = np.broadcast_to(flt.init, (n_trials, flt.W)).copy()
    for t in range(T):
        if t >= k:
            pred = np.stack([belief @ col for col in flt.b_pred], axis=1)
            pred /= pred.sum(axis=1, keepdims=True)
            b_path[:, t] = draw_symbols(np.cumsum(pred, axis=1), rng)
        belief, _ = flt.observe(belief, b_path[:, t], t)

    codes = np.empty((n_trials, T), dtype=np.int64)
    window = np.zeros(n_trials, dtype=np.int64)
    for t in range(T):
        if t < k:
            rows = flt.prefix[t][window]
            probs = np.stack([(rows * (flt.a_of[None, :] == alpha)).sum(axis=1)
                              for alpha in range(flt.m_a)], axis=1)
            probs /= probs.sum(axis=1, keepdims=True)
        else:
            probs = flt.a_pred[window]
        a_t = draw_symbols(np.cumsum(probs, axis=1), rng)
        codes[:, t] = flt.merge[a_t, b_path[:, t]]
        window = flt.advance(window, codes[:, t])
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
        warnings.warn(f"DI rate at horizon {rate_horizon} did not converge: its last two "
                      f"increments differ by {stationary_rate.gap:.3g}",
                      RateNotConverged, stacklevel=2)
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
        surrogates = surrogate_count(surrogates, level)
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
