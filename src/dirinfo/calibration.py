"""Null laws of the likelihood-ratio tests: each turns a statistic into a
decision.  Calibration refers ``2 * T * statistic`` to a chi-square law
(Wilks for the discrete family, sandwich-weighted for the linear family,
which is misspecified under nonlinear couplings) or uses circular
block-permutation surrogates of the source process.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CalibrationError, ParamError

DEFAULT_SURROGATES = 200
MIN_SURROGATES = 20
# bound on the (surrogates x T) row orders one chunk of surrogate statistics
# evaluates, about 13 surrogates at T = 5,000, and on the (rows x regressors)
# entries one block of a sandwich meat gathers.  At 2**18 a chunk's (S x T)
# temporaries passed glibc's heap trim threshold: in the infer benchmark job
# each surrogate test re-faulted 4,000-7,000 pages, against none at 2**16
_CHUNK_ENTRIES = 2**16


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
        return asdict(self)


def _decide(statistic, threshold, p_value, calibration, dof, n_obs, level,
            chi2_scale=None, chi2_df=None) -> TestResult:
    decision = "reject_H0" if statistic > threshold else "keep_H0"
    return TestResult(statistic=float(statistic), threshold=float(threshold),
                      decision=decision, p_value=p_value, calibration=calibration,
                      dof=dof, n_obs=int(n_obs), level=float(level),
                      chi2_scale=chi2_scale, chi2_df=chi2_df)


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


def bonferroni_count(n_nodes: int) -> int:
    """Number of tests charged by the correction: n*(n-1) directed tests
    plus n*(n-1) for the C(n,2) coupling pairs, two per pair although one
    coupling test runs per pair (112 charged at 8 nodes, for 84 tests run)."""
    return 2 * (n_nodes * (n_nodes - 1) // 2) + n_nodes * (n_nodes - 1)
