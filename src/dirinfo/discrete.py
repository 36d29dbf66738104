"""Finite-alphabet joint Markov models and exact enumeration.

A model over nodes ``V`` with per-node alphabet sizes ``(m_0, .., m_{d-1})``
works on *joint symbols*: the tuple of node symbols at one time step encoded
row-major (node 0 most significant), giving ``M = prod(m_a)`` states.

Serialized layout (also used by the JSON format):

* ``kernel`` -- shape ``(M**k, M)``; row index encodes the window of the
  ``k`` past joint symbols, oldest first and most significant; column is
  the next joint symbol.
* ``initial`` -- length ``M**k``; law of the first ``k`` joint samples,
  same window encoding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_STATE_BUDGET, SequenceDistribution, TimeSeriesPanel
from .errors import (
    FitError,
    InsufficientData,
    InvalidModel,
    SelectionError,
)

KERNEL_ATOL = 1e-12


@dataclass(frozen=True)
class DiscreteMarkovModel:
    """Order-``k`` joint Markov law over a finite alphabet."""

    alphabet_sizes: tuple[int, ...]
    order: int
    kernel: np.ndarray
    initial: np.ndarray
    labels: tuple[str, ...] | None = None
    _cumulative: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(int(m) for m in self.alphabet_sizes)
        if any(m < 1 for m in sizes):
            raise InvalidModel("alphabet sizes must be positive")
        k = int(self.order)
        if k < 1:
            raise InvalidModel("order must be >= 1")
        M = int(np.prod(sizes))
        kernel = np.asarray(self.kernel, dtype=float)
        if kernel.shape != (M**k, M):
            raise InvalidModel(f"kernel shape {kernel.shape} != {(M**k, M)}")
        if kernel.min() < 0:
            raise InvalidModel("kernel has negative entries")
        rows = kernel.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > KERNEL_ATOL:
            raise InvalidModel("kernel rows must each sum to 1")
        initial = np.asarray(self.initial, dtype=float)
        if initial.shape != (M**k,):
            raise InvalidModel(f"initial shape {initial.shape} != {(M**k,)}")
        if initial.min() < 0 or abs(initial.sum() - 1.0) > KERNEL_ATOL:
            raise InvalidModel("initial must be a distribution over the first k samples")
        labels = self.labels
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != len(sizes):
                raise InvalidModel("one label per node required")
        kernel = kernel.copy()
        kernel.setflags(write=False)
        initial = initial.copy()
        initial.setflags(write=False)
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "order", k)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "labels", labels)

    @property
    def n_nodes(self) -> int:
        return len(self.alphabet_sizes)

    @property
    def joint_alphabet(self) -> int:
        return int(np.prod(self.alphabet_sizes))

    def encode_states(self, rows: np.ndarray) -> np.ndarray:
        """Map (T, |V|) integer samples to joint symbols."""
        rows = np.asarray(rows)
        return np.ravel_multi_index(tuple(rows[:, a] for a in range(self.n_nodes)),
                                    self.alphabet_sizes)

    def decode_states(self, codes: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`encode_states`; returns (T, |V|)."""
        parts = np.unravel_index(np.asarray(codes), self.alphabet_sizes)
        return np.stack(parts, axis=-1)


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------

def enumerate_joint(model: DiscreteMarkovModel, n: int,
                    budget: int = DEFAULT_STATE_BUDGET) -> SequenceDistribution:
    """Exact joint law of all length-``n`` trajectories.

    The law is kept as the model's initial window law and kernel; nothing
    of size ``M**n`` is built here.  ``budget`` caps the largest array that
    a marginal of the law (or its dense ``pmf`` table) allocates, see
    :class:`~dirinfo.core.SequenceDistribution`.
    """
    if n < 1:
        raise SelectionError("horizon must be >= 1")
    sizes, k, d = model.alphabet_sizes, model.order, model.n_nodes
    initial = model.initial.reshape(sizes * k)
    if n < k:
        initial = initial.sum(axis=tuple(range(n * d, k * d)))
    kernel = model.kernel.reshape(sizes * (k + 1)) if n > k else None
    return SequenceDistribution(alphabet_sizes=sizes, horizon=n, initial=initial,
                                kernel=kernel, budget=budget)


def marginal(dist: SequenceDistribution, nodes, times) -> SequenceDistribution:
    """Exact marginal onto ``nodes`` x ``times``.

    Output nodes keep their original index order; the selected times are
    relabelled 1..len(times) in ascending order.
    """
    nodes = sorted(set(int(a) for a in nodes))
    times = sorted(set(int(t) for t in times))
    if not nodes or not times:
        raise SelectionError("node and time selections must be nonempty")
    for a in nodes:
        if not 0 <= a < dist.n_nodes:
            raise SelectionError(f"node {a} out of range")
    for t in times:
        if not 1 <= t <= dist.horizon:
            raise SelectionError(f"time {t} out of range 1..{dist.horizon}")
    table = dist.cell_marginal([(a, t) for a in nodes for t in times])
    sizes = tuple(dist.alphabet_sizes[a] for a in nodes)
    return SequenceDistribution(alphabet_sizes=sizes, horizon=len(times), pmf=table)


# ---------------------------------------------------------------------------
# plug-in estimation
# ---------------------------------------------------------------------------

def fit_plugin(panel: TimeSeriesPanel, order: int, smoothing: float = 0.5,
               alphabet_sizes=None) -> DiscreteMarkovModel:
    """Additive-smoothing plug-in estimate of the joint Markov kernel.

    ``kernel[w, s] = (count(w, s) + a) / (count(w) + a * M)`` over sliding
    windows; the initial law is the empirical law of the first ``order``
    samples.  ``smoothing=0`` keeps raw maximum-likelihood counts (rows that
    were never visited fall back to uniform so the kernel stays stochastic).
    """
    if not panel.is_integer():
        raise InvalidModel("plug-in fitting needs an integer (symbolized) panel")
    if smoothing < 0:
        raise InvalidModel("smoothing must be >= 0")
    k = int(order)
    T = panel.n_samples
    if T <= k:
        raise InsufficientData(f"need more than order={k} samples, got T={T}")
    values = panel.values
    if values.min() < 0:
        raise InvalidModel("symbol values must be nonnegative")
    if alphabet_sizes is None:
        sizes = tuple(int(values[:, a].max()) + 1 for a in range(panel.n_nodes))
    else:
        sizes = tuple(int(m) for m in alphabet_sizes)
        for a in range(panel.n_nodes):
            if values[:, a].max() >= sizes[a]:
                raise InvalidModel(f"column {a} exceeds alphabet size {sizes[a]}")
    M = int(np.prod(sizes))
    codes = np.ravel_multi_index(tuple(values[:, a] for a in range(panel.n_nodes)), sizes)

    windows = window_codes(codes[:-1], k, M)
    nxt = codes[k:]
    counts = np.bincount(windows * M + nxt, minlength=M ** (k + 1)).reshape(M**k, M)
    counts = counts.astype(float)
    row_tot = counts.sum(axis=1, keepdims=True)
    if smoothing > 0:
        kernel = (counts + smoothing) / (row_tot + smoothing * M)
    else:
        unseen = row_tot[:, 0] == 0
        kernel = np.where(unseen[:, None], 1.0 / M,
                          counts / np.where(row_tot == 0, 1.0, row_tot))
    initial = np.zeros(M**k)
    initial[windows[0]] = 1.0
    return DiscreteMarkovModel(alphabet_sizes=sizes, order=k, kernel=kernel,
                               initial=initial, labels=panel.labels)


# ---------------------------------------------------------------------------
# stationary law and sampling
# ---------------------------------------------------------------------------

def stationary_window_distribution(model: DiscreteMarkovModel, tol: float = 1e-12,
                                   max_iter: int = 100_000) -> np.ndarray:
    """Stationary law of the window chain by power iteration."""
    M = model.joint_alphabet
    k = model.order
    pi = np.full(M**k, 1.0 / M**k)
    kernel = model.kernel
    for _ in range(max_iter):
        # window (s_1..s_k) -> (s_2..s_k, s'): drop the leading symbol,
        # append the kernel draw
        if k > 1:
            joint = pi[:, None] * kernel  # (M**k, M)
            nxt = joint.reshape(M, M ** (k - 1), M).sum(axis=0).reshape(M**k)
        else:
            nxt = pi @ kernel
        if np.abs(nxt - pi).sum() < tol:
            return nxt
        pi = nxt
    raise FitError("power iteration for the stationary law did not converge")


def with_stationary_initial(model: DiscreteMarkovModel, **kwargs) -> DiscreteMarkovModel:
    """Copy of ``model`` whose initial law is the stationary window law."""
    pi = stationary_window_distribution(model, **kwargs)
    return DiscreteMarkovModel(alphabet_sizes=model.alphabet_sizes, order=model.order,
                               kernel=model.kernel, initial=pi, labels=model.labels)


def sample_panel(model: DiscreteMarkovModel, T: int, seed, labels=None) -> TimeSeriesPanel:
    """Draw one length-``T`` trajectory (enumerate_joint-consistent)."""
    return sample_panels(model, T, 1, seed, labels=labels)[0]


def sample_panels(model: DiscreteMarkovModel, T: int, count: int, seed,
                  labels=None) -> list[TimeSeriesPanel]:
    """Draw ``count`` independent trajectories from one seed, vectorized."""
    codes = sample_codes(model, T, count, np.random.default_rng(seed))
    if labels is None:
        labels = model.labels or tuple(f"x{a}" for a in range(model.n_nodes))
    return [TimeSeriesPanel(values=model.decode_states(codes[i]), labels=labels)
            for i in range(count)]


def sample_codes(model: DiscreteMarkovModel, T: int, count: int, rng) -> np.ndarray:
    """``count`` independent length-``T`` trajectories as joint symbols,
    shape ``(count, T)``: the first window from the initial law, then one
    kernel draw per step."""
    M, k = model.joint_alphabet, model.order
    if T < k:
        raise InsufficientData(f"T={T} shorter than the model order {k}")
    codes = np.empty((count, T), dtype=np.int64)
    codes[:, :k] = draw_window(model.initial, M, k, count, rng)
    kern_cdf = np.cumsum(model.kernel, axis=1)
    window = window_codes(codes[:, :k], k, M)[:, 0]
    shift = M ** (k - 1)
    for t in range(k, T):
        codes[:, t] = draw_symbols(kern_cdf[window], rng)
        window = (window % shift) * M + codes[:, t]
    return codes


def draw_symbols(cdf: np.ndarray, rng) -> np.ndarray:
    """One inverse-CDF draw per row of ``cdf`` (rows, symbols); rounding
    in the cumulative sum cannot push a draw past the last symbol."""
    u = rng.random(cdf.shape[0])
    return np.minimum((cdf < u[:, None]).sum(axis=1), cdf.shape[1] - 1)


def draw_window(law: np.ndarray, base: int, k: int, count: int, rng) -> np.ndarray:
    """``count`` draws from ``law`` over the ``base**k`` codes of k-symbol
    windows, decoded into symbols oldest first: shape ``(count, k)``."""
    code = np.searchsorted(np.cumsum(law), rng.random(count), side="right")
    code = np.minimum(code, base**k - 1)
    return np.stack(np.unravel_index(code, (base,) * k), axis=-1)


def window_codes(codes: np.ndarray, k: int, base: int) -> np.ndarray:
    """Code of every window of ``k`` consecutive symbols along the last
    axis, oldest most significant: ``(..., T)`` to ``(..., T - k + 1)``."""
    T = codes.shape[-1]
    out = np.zeros(codes.shape[:-1] + (T - k + 1,), dtype=np.int64)
    for j in range(k):
        out = out * base + codes[..., j:T - k + 1 + j]
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def model_to_json(model: DiscreteMarkovModel) -> dict:
    doc = {
        "alphabet_sizes": list(model.alphabet_sizes),
        "order": model.order,
        "kernel": model.kernel.ravel().tolist(),
        "initial": model.initial.tolist(),
    }
    if model.labels is not None:
        doc["labels"] = list(model.labels)
    return doc


def model_from_json(doc: dict) -> DiscreteMarkovModel:
    sizes = tuple(int(m) for m in doc["alphabet_sizes"])
    k = int(doc["order"])
    M = int(np.prod(sizes))
    kernel = np.asarray(doc["kernel"], dtype=float).reshape(M**k, M)
    initial = np.asarray(doc["initial"], dtype=float)
    labels = tuple(doc["labels"]) if "labels" in doc else None
    return DiscreteMarkovModel(alphabet_sizes=sizes, order=k, kernel=kernel,
                               initial=initial, labels=labels)


def save_model(model: DiscreteMarkovModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_json(model), fh)
        fh.write("\n")


def load_model(path) -> DiscreteMarkovModel:
    with open(path) as fh:
        return model_from_json(json.load(fh))
