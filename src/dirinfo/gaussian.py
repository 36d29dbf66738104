"""Stationary Gaussian VAR engine: fitting, analytic one-step prediction
risks, Geweke indices and Gaussian information rates.

Risks are generalized variances ``log det`` of the one-step prediction
error covariance, so every index below is a log variance ratio in Geweke's
classical convention (twice the corresponding Shannon rate in nats).  A
subprocess of a VAR is a state-space model: its innovation covariance given
its entire past solves one discrete algebraic Riccati equation (Barnett &
Seth, Phys. Rev. E 91, 040101(R), 2015), so indices and rates are exact
infinite-horizon values.  One equation is solved per distinct past set and
model, and none for the full node set, whose innovation covariance is the
noise covariance.  The equation is solved in numpy by structure-preserving
doubling (Chu, Fan, Lin & Wang, Int. J. Control 77, 2004), which converges
quadratically.  The finite-window projection that cross-checks these values
lives with the test references, not in the package.  ``fit_var`` and the
test layer's VAR regressions share one least-squares routine: the Schur
complement of a Gram of second moments, through a Cholesky factor with a
relative pivot floor.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import MeasureValue, TimeSeriesPanel, read_json
from .errors import (
    InvalidModel,
    ParamError,
    SingularDesign,
    UnstableFitWarning,
    UnstableModel,
)

@dataclass(frozen=True)
class VarModel:
    """Gaussian VAR(p): x(t) = sum_j coeffs[j] x(t-j) + w(t), w ~ N(0, noise_cov)."""

    order: int
    coeffs: np.ndarray  # (p, d, d)
    noise_cov: np.ndarray  # (d, d)
    labels: tuple[str, ...]
    # memo of innovation covariances; fresh per instance, so a model made
    # by dataclasses.replace recomputes them
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

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.companion()))))

    @property
    def is_stable(self) -> bool:
        return self.spectral_radius < 1.0


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
    under the sorted set, and a call in another node order permutes it.
    """
    nodes = [int(a) for a in nodes]
    d = model.n_nodes
    if not nodes or len(set(nodes)) != len(nodes) or not all(0 <= a < d for a in nodes):
        raise ParamError(f"nodes must be distinct indices in 0..{d - 1}, got {nodes}")
    key = tuple(sorted(nodes))
    cov = model._innovations.get(key)
    if cov is None:
        if not model.is_stable:
            raise UnstableModel(
                f"spectral radius {model.spectral_radius:.6f} >= 1; no stationary law")
        cov = model.noise_cov if len(key) == d else _riccati_innovation_cov(model, list(key))
        model._innovations[key] = cov
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
# Geweke indices and Gaussian rates
# ---------------------------------------------------------------------------

GEWEKE_KINDS = ("directed", "instantaneous", "directed_conditional",
                "instantaneous_conditional")


def _risk(model, target, past, present=()):
    """log det error covariance of ``target`` given the entire past of the
    ``past`` nodes and the present of ``present``, a subset of ``past``.  The
    Schur complement of a positive definite covariance is never singular."""
    if not set(target) <= set(past):
        raise ParamError(f"information set lacks the past of target {target}")
    cov = innovation_cov(model, past)
    t = [past.index(b) for b in target]
    q = [past.index(a) for a in present]
    err = cov[np.ix_(t, t)]
    if q:
        err = err - cov[np.ix_(t, q)] @ np.linalg.solve(cov[np.ix_(q, q)], cov[np.ix_(q, t)])
    return float(np.linalg.slogdet(err)[1])


def geweke_index(model: VarModel, partition, kind: str,
                 side_past_only: bool = True) -> MeasureValue:
    """Geweke log variance-ratio index for the partition's (A, B) pair.

    ``directed``: how much A's past improves the one-step prediction of B
    beyond B's own past.  ``instantaneous``: the further gain from A's
    present.  The ``*_conditional`` kinds add the side set C, through its
    past only when ``side_past_only`` (the convention under which the
    conditional decomposition closes); with ``side_past_only=False`` C's
    present is conditioned on as well.  Every risk conditions on the entire
    past, so the index is the exact infinite-horizon rate: ``horizon`` is 0.
    """
    a, b, c = tuple(partition.a), tuple(partition.b), tuple(partition.c)
    c_now = () if side_past_only else c
    # (past, present) nodes of the numerator and the denominator risk
    information_sets = {
        "directed": ((b, ()), (b + a, ())),
        "instantaneous": ((b + a, ()), (b + a, a)),
        "directed_conditional": ((b + c, c_now), (b + a + c, c_now)),
        "instantaneous_conditional": ((b + a + c, c_now), (b + a + c, a + c_now)),
    }
    if kind not in information_sets:
        raise ParamError(f"kind must be one of {GEWEKE_KINDS}, got {kind!r}")
    num, den = information_sets[kind]
    return MeasureValue(value=_risk(model, b, *num) - _risk(model, b, *den),
                        horizon=0, kind="rate")


def gaussian_mi_rate(model: VarModel, a_nodes, b_nodes,
                     conditional_on_past_c: bool = False) -> MeasureValue:
    """Mutual information rate between node groups, in the same log
    variance-ratio convention as the Geweke indices.

    Assembled from the marginal and joint one-step prediction problems:
    ``risk(A | own past) + risk(B | own past) - risk(A,B | both pasts)``,
    optionally with the strict past of the remaining nodes C in every
    information set (``conditional_on_past_c``).  Exact; ``horizon`` is 0.
    """
    a = tuple(int(x) for x in a_nodes)
    b = tuple(int(x) for x in b_nodes)
    if set(a) & set(b):
        raise ParamError("node groups overlap")
    c = tuple(i for i in range(model.n_nodes) if i not in a + b) if conditional_on_past_c else ()
    value = _risk(model, a, a + c) + _risk(model, b, b + c) - _risk(model, a + b, a + b + c)
    return MeasureValue(value=value, horizon=0, kind="rate")


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


def fit_var(panel: TimeSeriesPanel, order: int, method: str = "ols") -> VarModel:
    """Fit a VAR(p) by least squares or multivariate Yule-Walker.

    Columns are mean-centered before fitting.  Both methods regress the
    present on lags 1..p through one Gram of second moments, lag-major
    with the present last: ``ols`` sums the lag-slice products over
    t = p..T-1, ``yule_walker`` is block Toeplitz in the autocovariances.
    An unstable fit is returned with a warning rather than rejected;
    downstream operations that need stationarity raise
    :class:`UnstableModel` themselves.
    """
    p = int(order)
    if p < 1:
        raise ParamError("order must be >= 1")
    T, d = panel.n_samples, panel.n_nodes
    if T - p <= p * d:
        raise SingularDesign(
            f"T={T} leaves {T - p} usable rows for {p * d} regressors")
    x = panel.values.astype(float)
    x = x - x.mean(axis=0)

    if method == "ols":
        blocks = [x[p - j:T - j] for j in range(1, p + 1)] + [x[p:]]
        gram, n = np.block([[u.T @ v for v in blocks] for u in blocks]), T - p
    elif method == "yule_walker":
        # gam[h] = E x(t + h) x(t)'; lag i against lag j >= i is gam[j - i]
        gam = [x[h:].T @ x[:T - h] / T for h in range(p + 1)]
        lags = list(range(1, p + 1)) + [0]
        gram = np.block([[gam[j - i] if j >= i else gam[i - j].T for j in lags] for i in lags])
        n = 1
    else:
        raise ParamError(f"unknown method {method!r}")
    noise, chol, w = _residual_covs(gram[None], p * d, n)
    beta = np.linalg.solve(chol[0].T, w[0])  # (p * d, d), row (j - 1) * d + c: lag j of node c
    coeffs = beta.T.reshape(d, p, d).transpose(1, 0, 2)

    model = VarModel(order=p, coeffs=coeffs, noise_cov=noise[0], labels=panel.labels)
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
