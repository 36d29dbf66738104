"""Stationary Gaussian VAR engine: fitting, exact innovation covariances
and the rate law through which ``measures`` reads a model's exact rates.

A subprocess of a VAR is a state-space model: its innovation covariance
given its entire past solves one discrete algebraic Riccati equation
(Barnett & Seth, Phys. Rev. E 91, 040101(R), 2015), so every measure of
``measures`` is an exact infinite-horizon rate in nats on ``rate_law``.
``geweke_index`` and ``gaussian_mi_rate`` are twice those rates: Geweke's
classical log variance ratios.  One equation is solved per distinct past
set and model, and none for the full node set, whose innovation
covariance is the noise covariance.  The equation is solved in numpy by
structure-preserving doubling (Chu, Fan, Lin & Wang, Int. J. Control 77,
2004), which converges quadratically.  The finite-window projection that
cross-checks these values lives with the test references, not in the
package.  One lagged Gram (``_LaggedGram``) serves ``fit_var``, the test
layer's VAR regressions and the GLM family's designs.  Every least-squares
fit is the Schur complement of a Gram of second moments, through a
Cholesky factor with a relative pivot floor.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import calibration as _calibration  # its _CHUNK_ENTRIES, patchable in one place
from .core import MeasureValue, TimeSeriesPanel, _integer, _node_groups, _node_index, read_json
from .errors import (
    InvalidModel,
    ParamError,
    PartitionError,
    SingularDesign,
    UnstableFitWarning,
    UnstableModel,
)
from .measures import ConditioningMode, rate

@dataclass(frozen=True)
class VarModel:
    """Gaussian VAR(p): x(t) = sum_j coeffs[j] x(t-j) + w(t), w ~ N(0, noise_cov)."""

    order: int
    coeffs: np.ndarray  # (p, d, d)
    noise_cov: np.ndarray  # (d, d)
    labels: tuple[str, ...]
    # memo of innovation covariances; fresh per instance, as are the cached
    # spectral radius and rate law, so a model made by dataclasses.replace
    # recomputes them
    _innovations: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = int(self.order)
        if p < 1:
            raise InvalidModel("order must be >= 1")
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim == 2:
            coeffs = coeffs[None, :, :]
        if coeffs.ndim != 3 or coeffs.shape[0] != p or coeffs.shape[1] != coeffs.shape[2]:
            raise InvalidModel(f"coeffs must be (order, d, d), got {coeffs.shape}")
        if not np.isfinite(coeffs).all():
            raise InvalidModel("coeffs have non-finite entries")
        d = coeffs.shape[1]
        noise = np.asarray(self.noise_cov, dtype=float)
        if noise.shape != (d, d):
            raise InvalidModel(f"noise_cov must be ({d}, {d}), got {noise.shape}")
        if not np.isfinite(noise).all():
            raise InvalidModel("noise_cov has non-finite entries")
        if np.max(np.abs(noise - noise.T)) > 1e-10:
            raise InvalidModel("noise_cov is not symmetric")
        eigs = np.linalg.eigvalsh(0.5 * (noise + noise.T))
        if eigs.min() <= 0:
            raise InvalidModel("noise_cov must be positive definite")
        labels = tuple(str(x) for x in self.labels)
        if len(labels) != d or len(set(labels)) != d:
            raise InvalidModel(f"need {d} distinct labels")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        noise = 0.5 * (noise + noise.T)
        noise.setflags(write=False)
        object.__setattr__(self, "order", p)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "noise_cov", noise)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_innovations", {})

    @property
    def n_nodes(self) -> int:
        return self.coeffs.shape[1]

    def companion(self) -> np.ndarray:
        p, d = self.order, self.n_nodes
        F = np.zeros((p * d, p * d))
        F[:d] = np.concatenate(self.coeffs, axis=1)
        if p > 1:
            F[d:, :-d] = np.eye((p - 1) * d)
        return F

    @functools.cached_property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.companion()))))

    @property
    def is_stable(self) -> bool:
        return self.spectral_radius < 1.0

    @functools.cached_property
    def rate_law(self) -> _RateLaw:
        """The model as the law ``measures`` reads its exact rates from."""
        return _RateLaw(self)


def innovation_cov(model: VarModel, nodes) -> np.ndarray:
    """Covariance of the one-step prediction error of x_S, S = ``nodes``
    (in that order), given the entire past of x_S.

    The state z(t) = (x(t-1), ..., x(t-p)) moves by ``model.companion()``
    plus K w(t), K = [I 0 ... 0]', and x_S(t) = C z(t) + w_S(t) with C the
    rows S of the stacked coefficients.  The steady-state Kalman covariance
    P solves one Riccati equation; the result is C P C' + Sigma_SS.  Given
    the past of every node the error is w(t) itself, so the full node set
    returns ``noise_cov`` without a solve.

    Each node set is solved once per model: the result is kept on the model
    under the sorted set and returned, read-only, for the sorted set; a
    call in another node order permutes it.
    """
    d = model.n_nodes
    nodes = [_node_index(d, a) for a in nodes]
    if not nodes or len(set(nodes)) != len(nodes):
        raise PartitionError(f"nodes must be nonempty, each named once, got {nodes}")
    key = tuple(sorted(nodes))
    cov = model._innovations.get(key)
    if cov is None:
        if not model.is_stable:
            raise UnstableModel(
                f"spectral radius {model.spectral_radius:.6f} >= 1; no stationary law")
        cov = model.noise_cov if len(key) == d else _riccati_innovation_cov(model, list(key))
        model._innovations[key] = cov
    if list(key) == nodes:
        return cov
    order = np.searchsorted(key, nodes)
    return cov[np.ix_(order, order)]


def _riccati_innovation_cov(model: VarModel, nodes) -> np.ndarray:
    """The filter Riccati equation of ``innovation_cov`` with the cross
    covariance K Sigma_{.S} of state and observation noise folded into the
    state matrix: A = F - K Sigma_{.S} R^-1 C, Q = K (Sigma - Sigma_{.S}
    R^-1 Sigma_{S.}) K', and P = A P (I + C' R^-1 C P)^-1 A' + Q."""
    d = model.n_nodes
    F = model.companion()
    C = F[nodes]
    sigma = model.noise_cov
    R = sigma[np.ix_(nodes, nodes)]
    gain = np.linalg.solve(R, sigma[nodes]).T  # Sigma_{.S} R^-1
    A = F.copy()
    A[:d] -= gain @ C
    Q = np.zeros_like(F)
    Q[:d, :d] = sigma - gain @ sigma[nodes]
    try:
        P = _solve_riccati(A.T, C.T @ np.linalg.solve(R, C), Q)
    except np.linalg.LinAlgError as exc:
        raise SingularDesign(f"Riccati equation for nodes {nodes} failed: {exc}") from None
    cov = C @ P @ C.T + R
    cov = 0.5 * (cov + cov.T)
    cov.setflags(write=False)
    return cov


# doubling stops once an update's largest entry is this small relative to
# the solution's; it converges quadratically, so the cap is never reached on a
# stable model
RICCATI_TOL = 1e-15
RICCATI_MAX_STEPS = 64


@np.errstate(over="ignore", invalid="ignore")  # divergence raises below
def _solve_riccati(A, G, H) -> np.ndarray:
    """Stabilizing solution X of X = A' X (I + G X)^-1 A + H, with G and H
    symmetric positive semidefinite, by structure-preserving doubling: with
    W = I + G H, A <- A W^-1 A, G <- G + A W^-1 G A', H <- H + A' H W^-1 A,
    and H converges to X.  Raises ``SingularDesign`` on a non-finite input
    or iterate, and when no update falls below ``RICCATI_TOL`` within
    ``RICCATI_MAX_STEPS`` steps."""
    if not (np.isfinite(A).all() and np.isfinite(G).all() and np.isfinite(H).all()):
        raise SingularDesign("Riccati equation has non-finite coefficients")
    eye = np.eye(A.shape[0])
    n = A.shape[1]
    for _ in range(RICCATI_MAX_STEPS):
        solved = np.linalg.solve(eye + G @ H, np.concatenate([A, G], axis=1))
        WA, WG = solved[:, :n], solved[:, n:]
        update = A.T @ H @ WA
        G = G + A @ WG @ A.T
        A = A @ WA
        H = H + update
        if not np.isfinite(H).all():
            raise SingularDesign("Riccati doubling diverged")
        if np.abs(update).max() <= RICCATI_TOL * np.abs(H).max():
            return 0.5 * (H + H.T)
    raise SingularDesign(f"Riccati doubling did not converge in {RICCATI_MAX_STEPS} steps")


# ---------------------------------------------------------------------------
# exact rates, and the Geweke indices
# ---------------------------------------------------------------------------

GEWEKE_KINDS = ("directed", "instantaneous", "directed_conditional",
                "instantaneous_conditional")


class _RateLaw:
    """A VAR model as a law of two times: mask bits 0..d-1 are the nodes'
    entire pasts and bits d..2d-1 their presents, so a measure's time-2 term
    (``measures._terms``) is its exact rate and each time-1 term is zero.
    An entropy is 1/2 log det(2 pi e S) of the presents given the pasts, S
    their block of ``innovation_cov(model, past)``: the pasts' own entropy
    cancels from every term, one side of which is a present only.  Memoized
    by mask, and per model (``VarModel.rate_law``)."""

    horizon = 2

    def __init__(self, model):
        self.model, self.n_nodes, self._entropies = model, model.n_nodes, {}

    def entropy_of_cells(self, mask) -> float:
        h = self._entropies.get(mask)
        if h is None:
            d = self.n_nodes
            past, now = mask & (1 << d) - 1, mask >> d
            if now & ~past:
                raise ParamError(f"cell mask {mask:#x} is not a set of pasts and presents "
                                 f"of {d} nodes, each present with its past")
            nodes = [a for a in range(d) if past >> a & 1]
            idx = [i for i, a in enumerate(nodes) if now >> a & 1]
            h = 0.0
            if idx:
                cov = innovation_cov(self.model, nodes)
                if len(idx) < len(nodes):
                    cov = cov[idx][:, idx]
                h = 0.5 * float(len(idx) * np.log(2 * np.pi * np.e) + np.linalg.slogdet(cov)[1])
            self._entropies[mask] = h
        return h


def geweke_index(model: VarModel, partition, kind: str,
                 side_past_only: bool = True) -> MeasureValue:
    """Geweke log variance-ratio index for the partition's (A, B) pair:
    twice the exact rate (``measures.rate``) of the transfer entropy
    (``directed``: how much A's past improves the one-step prediction of B
    beyond B's own past) or of the instantaneous exchange
    (``instantaneous``: the further gain from A's present).  The
    ``*_conditional`` kinds add the side set C, through its past only when
    ``side_past_only`` (the convention under which the conditional
    decomposition closes) and through its present as well otherwise.
    ``horizon`` is 0, which marks an exact infinite-horizon rate.
    """
    if kind not in GEWEKE_KINDS:
        raise ParamError(f"kind must be one of {GEWEKE_KINDS}, got {kind!r}")
    mode = ConditioningMode.STRICT_PAST if side_past_only else ConditioningMode.CONTEMPORANEOUS
    value = rate("te" if kind.startswith("directed") else "iie", model, partition.a,
                 partition.b, partition.c if kind.endswith("conditional") else (), mode).value
    return MeasureValue(value=2 * value, horizon=0, kind="rate")


def gaussian_mi_rate(model: VarModel, a_nodes, b_nodes,
                     conditional_on_past_c: bool = False) -> MeasureValue:
    """Mutual information rate between node groups, in the same log
    variance-ratio convention as the Geweke indices: twice
    ``measures.rate("mi", ...)``, optionally given the strict past of the
    remaining nodes C (``conditional_on_past_c``).  Exact; ``horizon`` is 0.
    """
    a, b, _ = _node_groups(model.n_nodes, a_nodes, b_nodes)
    c = tuple(i for i in range(model.n_nodes) if i not in a + b) if conditional_on_past_c else ()
    return MeasureValue(value=2 * rate("mi", model, a, b, c).value, horizon=0, kind="rate")


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

# relative pivot floor of the regressor Cholesky factor (see _cholesky)
_PIVOT_RTOL = 1e-10


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
    """Gram matrix of a panel's lags 1..k and present, summed over
    t = k..T-1: the one source of every regression on lagged panel rows (as
    in MVGC, Barnett & Seth, J. Neurosci. Methods 223, 2014).  It serves
    ``fit_var``'s least squares, the VAR tests on the centred panel and,
    through ``rows``, the GLM family's logistic designs.

    Row and column ``(j - 1) * d + c`` is lag j of node c, ``k * d + c`` the
    present of node c.  Each d x d block is one product of two lag-slice
    views of the panel, so no least-squares fit stacks a lagged design.  Every
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
        # one product of two lag-slice views per block on or above the
        # diagonal, mirrored below it
        blocks = [x[s:s + self.n] for s in self.starts]
        gram = np.empty((k + 1, d) * 2)
        for i in range(k + 1):
            for j in range(i, k + 1):
                gram[i, :, j] = blocks[i].T @ blocks[j]
                gram[j, :, i] = gram[i, :, j].T
        self.gram = gram.reshape((k + 1) * d, -1)
        self._fits = {}
        self._meats = {}

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
            step = max(1, _calibration._CHUNK_ENTRIES // len(idx))
            for start in range(0, self.n, step):
                z, y = np.split(self.rows(idx, start, start + step), [len(design)], axis=1)
                for meat, e in zip(meats, (y - z @ coef).T):
                    meat += z.T @ (z * e[:, None] ** 2)
            meats.setflags(write=False)
            self._meats[key] = meats
        return self._meats[key]


def fit_var(panel: TimeSeriesPanel, order: int, method: str = "ols") -> VarModel:
    """Fit a VAR(p) by least squares or multivariate Yule-Walker.

    Columns are mean-centered before fitting.  Both methods regress the
    present on lags 1..p through one Gram of second moments, lag-major
    with the present last: ``ols`` is the panel's ``_LaggedGram``,
    ``yule_walker`` is block Toeplitz in the autocovariances.
    An unstable fit is returned with a warning rather than rejected;
    downstream operations that need stationarity raise
    :class:`UnstableModel` themselves.
    """
    p = _integer(order, ParamError, "order")
    if p < 1:
        raise ParamError("order must be >= 1")
    T, d = panel.n_samples, panel.n_nodes
    if T - p <= p * d:
        raise SingularDesign(
            f"T={T} leaves {T - p} usable rows for {p * d} regressors")
    x = panel.values.astype(float)
    x = x - x.mean(axis=0)

    if method == "ols":
        g = _LaggedGram(x, p)
        noise, beta = g.fit(g.lags(range(d)), g.present(range(d)))
    elif method == "yule_walker":
        # gam[h] = E x(t + h) x(t)'; lag i against lag j >= i is gam[j - i]
        gam = [x[h:].T @ x[:T - h] / T for h in range(p + 1)]
        lags = list(range(1, p + 1)) + [0]
        gram = np.block([[gam[j - i] if j >= i else gam[i - j].T for j in lags] for i in lags])
        noise, chol, w = _residual_covs(gram[None], p * d, 1)
        noise, beta = noise[0], np.linalg.solve(chol[0].T, w[0])
    else:
        raise ParamError(f"unknown method {method!r}")
    # beta is (p * d, d), row (j - 1) * d + c: lag j of node c
    coeffs = beta.T.reshape(d, p, d).transpose(1, 0, 2)

    model = VarModel(order=p, coeffs=coeffs, noise_cov=noise, labels=panel.labels)
    if not model.is_stable:
        warnings.warn(f"fitted VAR is unstable (spectral radius "
                      f"{model.spectral_radius:.4f})", UnstableFitWarning, stacklevel=2)
    return model


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def var_to_json(model: VarModel) -> dict:
    return {
        "order": model.order,
        "labels": list(model.labels),
        "coeffs": [m.tolist() for m in model.coeffs],
        "noise_cov": model.noise_cov.tolist(),
    }


def var_from_json(doc: dict) -> VarModel:
    return VarModel(order=int(doc["order"]),
                    coeffs=np.asarray(doc["coeffs"], dtype=float),
                    noise_cov=np.asarray(doc["noise_cov"], dtype=float),
                    labels=tuple(doc["labels"]))


def save_var(model: VarModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(var_to_json(model), fh)
        fh.write("\n")


def load_var(path) -> VarModel:
    return read_json(path, var_from_json)
