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
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import DEFAULT_STATE_BUDGET, SequenceDistribution, TimeSeriesPanel, _integer, cells_of
from .errors import (
    BudgetError,
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
        if not np.isfinite(kernel).all():
            raise InvalidModel("kernel has non-finite entries")
        if kernel.min() < 0:
            raise InvalidModel("kernel has negative entries")
        rows = kernel.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > KERNEL_ATOL:
            raise InvalidModel("kernel rows must each sum to 1")
        initial = np.asarray(self.initial, dtype=float)
        if initial.shape != (M**k,):
            raise InvalidModel(f"initial shape {initial.shape} != {(M**k,)}")
        if not np.isfinite(initial).all():
            raise InvalidModel("initial has non-finite entries")
        if initial.min() < 0 or abs(initial.sum() - 1.0) > KERNEL_ATOL:
            raise InvalidModel("initial must be a distribution over the first k samples")
        labels = self.labels
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != len(sizes) or len(set(labels)) != len(labels):
                raise InvalidModel(f"need {len(sizes)} distinct labels")
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
        """Map (T, |V|) integer samples, each in its node's alphabet, to
        joint symbols."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.n_nodes:
            raise InvalidModel(f"samples of shape {rows.shape}, expected (T, {self.n_nodes})")
        symbols = _Symbols.of(rows, self.labels or range(self.n_nodes), self.alphabet_sizes)
        return symbols.codes(range(self.n_nodes))[0]

    def decode_states(self, codes: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`encode_states`; returns (T, |V|)."""
        parts = np.unravel_index(np.asarray(codes), self.alphabet_sizes)
        return np.stack(parts, axis=-1)

    def next_window(self, window, s):
        """Window code after appending joint symbols ``s``, the oldest one
        dropped; from 0 it builds the code of the first t < ``order``."""
        M = self.joint_alphabet
        return (window % M ** (self.order - 1)) * M + s

    def window_transition(self) -> np.ndarray:
        """Dense (W, W) transition matrix of the window chain, W = M**k."""
        windows = np.arange(len(self.kernel))[:, None]
        trans = np.zeros((len(windows), len(windows)))
        trans[windows, self.next_window(windows, np.arange(self.joint_alphabet))] = self.kernel
        return trans


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
    n = _integer(n, SelectionError, "horizon")
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
    cells = cells_of(nodes, times)
    if not cells:
        raise SelectionError("node and time selections must be nonempty")
    table = dist.cell_marginal(cells)  # reads every cell, or raises
    sizes = tuple(dist.alphabet_sizes[a] for a in sorted({a for a, _ in cells}))
    return SequenceDistribution(sizes, len({t for _, t in cells}), table)


# ---------------------------------------------------------------------------
# symbol panels and plug-in estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Symbols:
    """Symbols (T, |V|) of an integer panel with the alphabet size of each
    column; permuting a column keeps its alphabet."""

    values: np.ndarray
    sizes: tuple

    @classmethod
    def of(cls, values: np.ndarray, labels, sizes=None) -> _Symbols:
        """The symbols ``values`` (T, |V|) of the columns ``labels``, a
        panel's or a model's, with the given alphabet ``sizes`` or, by
        default, each column's largest symbol plus one."""
        if not np.issubdtype(values.dtype, np.integer):
            raise InvalidModel("discrete models need an integer (symbolized) panel")
        if values.min(initial=0) < 0:
            raise InvalidModel("symbol values must be nonnegative")
        if sizes is None:
            return cls(values, tuple(int(m) + 1 for m in values.max(axis=0)))
        sizes = tuple(int(m) for m in sizes)
        if len(sizes) != len(labels):
            raise InvalidModel(f"{len(sizes)} alphabet sizes for {len(labels)} columns")
        for label, top, m in zip(labels, values.max(axis=0, initial=0), sizes):
            if top >= m:
                raise InvalidModel(f"column {label!r} exceeds alphabet size {m}")
        return cls(values, sizes)

    def codes(self, cols):
        """Joint symbol per row of the columns ``cols``, the first most
        significant, and the number of joint symbols (no columns: 0 of 1)."""
        if not cols:
            return np.zeros(self.values.shape[0], dtype=np.int64), 1
        sizes = tuple(self.sizes[a] for a in cols)
        codes = np.ravel_multi_index(tuple(self.values[:, a] for a in cols), sizes)
        return codes.astype(np.int64), math.prod(sizes)


def fit_plugin(panel: TimeSeriesPanel, order: int, smoothing: float = 0.5,
               alphabet_sizes=None) -> DiscreteMarkovModel:
    """Additive-smoothing plug-in estimate of the joint Markov kernel.

    ``kernel[w, s] = (count(w, s) + a) / (count(w) + a * M)`` over sliding
    windows; the initial law is the empirical law of the first ``order``
    samples.  ``smoothing=0`` keeps raw maximum-likelihood counts (rows that
    were never visited fall back to uniform so the kernel stays stochastic).
    The ``M**(order + 1)`` kernel entries are charged to the state budget
    first.  At ``smoothing=0.5`` this is the law the discrete tests fit.
    """
    symbols = _Symbols.of(panel.values, panel.labels, alphabet_sizes)
    if not 0 <= smoothing < np.inf:
        raise InvalidModel(f"smoothing must be finite and >= 0, got {smoothing!r}")
    k = _integer(order, InvalidModel, "order")
    if k < 1:
        raise InvalidModel("order must be >= 1")
    T = panel.n_samples
    if T <= k:
        raise InsufficientData(f"need more than order={k} samples, got T={T}")
    entries = math.prod(symbols.sizes) ** (k + 1)
    if entries > DEFAULT_STATE_BUDGET:
        raise BudgetError(entries, DEFAULT_STATE_BUDGET)
    codes, M = symbols.codes(range(panel.n_nodes))

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
    return DiscreteMarkovModel(alphabet_sizes=symbols.sizes, order=k, kernel=kernel,
                               initial=initial, labels=panel.labels)


# ---------------------------------------------------------------------------
# stationary law and sampling
# ---------------------------------------------------------------------------

def stationary_window_distribution(model: DiscreteMarkovModel,
                                   budget: int = DEFAULT_STATE_BUDGET) -> np.ndarray:
    """Stationary law of the window chain by one solve of (P^T - I) pi = 0,
    its last row replaced by sum(pi) = 1 (Kemeny & Snell, 1960), with the
    W x W matrix P charged to ``budget``.  It must be unique (one closed class)."""
    W = model.joint_alphabet ** model.order
    if W * W > budget:
        raise BudgetError(W * W, budget)
    trans = model.window_transition()
    system = trans.T - np.eye(W)
    system[-1] = 1.0
    try:
        pi = np.linalg.solve(system, np.eye(1, W, W - 1)[0])
        seen = frontier = np.arange(W) == np.argmax(pi)
    except np.linalg.LinAlgError:
        seen = frontier = np.zeros(W, dtype=bool)
    # one closed class, holding the likeliest window, is reached from every
    # window; search back from that window, breadth first
    while frontier.any():
        frontier = (trans[:, frontier] > 0).any(axis=1) & ~seen
        seen = seen | frontier
    if not seen.all():
        raise InvalidModel("the window chain has more than one closed class")
    pi = np.maximum(pi, 0.0)  # rounding below 0
    return pi / pi.sum()


def with_stationary_initial(model: DiscreteMarkovModel,
                            budget: int = DEFAULT_STATE_BUDGET) -> DiscreteMarkovModel:
    """Copy of ``model`` whose initial law is the stationary window law."""
    return replace(model, initial=stationary_window_distribution(model, budget))


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
    for t in range(k, T):
        codes[:, t] = draw_symbols(kern_cdf[window], rng)
        window = model.next_window(window, codes[:, t])
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
    out = codes[..., :T - k + 1].astype(np.int64)
    for j in range(1, k):
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
