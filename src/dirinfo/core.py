"""Shared data model: time-series panels, node partitions and exact
distributions over finite sequence spaces.

Conventions used throughout the package:

* time is 1-based; a horizon-``n`` record holds samples at times ``1..n``;
* all information quantities are in nats (the CLI can display bits);
* probabilities are kept in linear scale, entropy sums are accumulated in
  extended precision and ``0 * log 0 = 0``.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetError,
    DegenerateColumn,
    InvalidModel,
    ParamError,
    ParseError,
    PartitionError,
    SchemaError,
    SelectionError,
)

PMF_ATOL = 1e-12
# default cap on the entries of any array an exact marginal allocates
DEFAULT_STATE_BUDGET = 2**22
# cells per block of rows write_panel turns into text
_WRITE_CELLS = 2**14

# a "cell" is one scalar observation slot: (node index, 1-based time)
Cell = tuple[int, int]


# ---------------------------------------------------------------------------
# panels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeSeriesPanel:
    """T x |V| record of a multivariate process.

    Parameters
    ----------
    values : ndarray, shape (T, |V|)
        One row per time step, one column per node.  Float for raw data,
        integer for symbolized data.
    labels : tuple of str
        Distinct node names; column order equals label order.
    meta : dict
        Free-form provenance (e.g. bin edges recorded by :func:`symbolize`).
    """

    values: np.ndarray
    labels: tuple[str, ...]
    meta: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2:
            raise SchemaError(f"panel values must be 2-D, got shape {values.shape}")
        T, d = values.shape
        if T < 1:
            raise SchemaError("panel needs at least one time step")
        if d < 2:
            raise SchemaError("panel needs at least two nodes")
        labels = tuple(str(x) for x in self.labels)
        if len(labels) != d:
            raise SchemaError(f"{len(labels)} labels for {d} columns")
        if len(set(labels)) != len(labels):
            raise SchemaError(f"duplicate labels: {sorted(labels)}")
        if not np.isfinite(values if values.dtype.kind == "f" else values.astype(float)).all():
            raise SchemaError("panel contains missing or non-finite entries")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.values.shape[1]

    def is_integer(self) -> bool:
        return np.issubdtype(self.values.dtype, np.integer)


def load_panel(path, format: str = "csv") -> TimeSeriesPanel:
    """Read a panel from ``path``.

    CSV: comma separated, '.' decimal point, first row is the header,
    one row per time step.  JSON: ``{"labels": [...], "values": [[...]]}``.
    """
    if format == "csv":
        return _load_csv(path)
    if format == "json":
        return _load_json(path)
    raise ParseError(f"unknown panel format {format!r}")


def _parse_cell(text, row, col):
    try:
        as_float = float(text)
    except (TypeError, ValueError):
        raise ParseError(f"non-numeric cell at row {row}, column {col}: {text!r}") from None
    if not math.isfinite(as_float):
        raise ParseError(f"non-finite cell at row {row}, column {col}: {text!r}")
    return as_float


def _load_csv(path) -> TimeSeriesPanel:
    with open(path, newline="") as fh:
        # the header is read by readline, so the data's start can be told
        header = next(csv.reader(iter(fh.readline, "")), None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        labels = [cell.strip() for cell in header]
        if len(set(labels)) != len(labels):
            raise SchemaError(f"{path}: duplicate labels in header")
        width = len(labels)
        start = fh.tell()
        data = _fast_rows(fh, width)
        if data is None:
            fh.seek(start)
            data = []
            for r, row in enumerate(csv.reader(fh), start=2):
                if len(row) != width:
                    raise ParseError(f"{path}: row {r} has {len(row)} cells, expected {width}")
                data.append([_parse_cell(cell, r, labels[c]) for c, cell in enumerate(row)])
            if not data:
                raise ParseError(f"{path}: no data rows")
    return TimeSeriesPanel(values=_coerce_integral(data), labels=tuple(labels))


def _fast_rows(fh, width):
    """The rest of ``fh`` parsed by numpy's C reader, or None unless that
    gives one finite row of ``width`` values per line.  On None the per-cell
    parser runs and raises its own errors: ``loadtxt`` rejects quoted cells,
    and a blank line, which it would skip, reaches it as a cell it rejects."""
    if not (first := fh.readline()):
        return None  # loadtxt warns, rather than raises, when it finds no data
    lines = (line if line.strip() else "?" for line in itertools.chain([first], fh))
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] != width or not np.isfinite(values).all():
        return None
    return values


def _coerce_integral(data) -> np.ndarray:
    """Parsed cells as an array: int64 when every cell is an integer below
    2**31 in magnitude that round-trips exactly, float otherwise."""
    values = np.asarray(data, dtype=float)
    head = values[:1]  # a fractional panel mostly stops at its first row
    if all(np.allclose(x, np.round(x)) for x in (head, values)) and np.all(np.abs(values) < 2**31):
        as_int = np.round(values).astype(np.int64)
        if np.array_equal(as_int.astype(float), values):
            return as_int
    return values


def read_json(path, parse=None):
    """The JSON object in ``path``, through ``parse`` when given.  Invalid
    JSON or another JSON type is a ParseError, and a field that ``parse``
    finds missing or mistyped is a SchemaError that names the file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # invalid JSON, or text that is not UTF-8
            raise ParseError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    try:
        return doc if parse is None else parse(doc)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"{path}: missing or mistyped field ({exc!r})") from None


def _load_json(path) -> TimeSeriesPanel:
    def parse(doc):
        labels = list(doc["labels"])
        if len(set(map(str, labels))) != len(labels):
            raise SchemaError(f"{path}: duplicate labels")
        data = []
        for r, row in enumerate(doc["values"], start=1):
            if len(row) != len(labels):
                raise ParseError(f"{path}: row {r} has {len(row)} cells, expected {len(labels)}")
            data.append([_parse_cell(cell, r, labels[c]) for c, cell in enumerate(row)])
        return TimeSeriesPanel(values=_coerce_integral(data),
                               labels=tuple(str(x) for x in labels))

    return read_json(path, parse)


def _format_number(x) -> str:
    if float(x) == int(x) and abs(float(x)) < 2**53:
        return str(int(x))
    return repr(float(x))


def write_panel(panel: TimeSeriesPanel, path, format: str = "csv") -> None:
    """Write ``panel`` in canonical form (round-trips bit-exactly through
    :func:`load_panel` for CSV)."""
    if format == "csv":
        values, floats = panel.values, panel.values.dtype.kind == "f"
        step = max(1, _WRITE_CELLS // panel.n_nodes)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(panel.labels) + "\n")
            for block in (values[i:i + step] for i in range(0, len(values), step)):
                # the per-cell rule only for rows with an integral float or an integer >= 2**53
                by_cell = block == np.trunc(block) if floats else abs(block.astype(float)) >= 2**53
                for row, slow in zip(block.tolist(), by_cell.any(axis=1).tolist()):
                    cell = _format_number if slow else repr if floats else "{:d}".format
                    fh.write(",".join(map(cell, row)) + "\n")
    elif format == "json":
        doc = {"labels": list(panel.labels), "values": panel.values.tolist()}
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
    else:
        raise ParseError(f"unknown panel format {format!r}")


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def _integer(x, error, what) -> int:
    """``x`` read as an integer (``operator.index``: no float or string is
    truncated or parsed), else ``error`` naming it as ``what``."""
    try:
        return operator.index(x)
    except TypeError:
        raise error(f"{what} {x!r} is not an integer") from None


def _node_index(nodes, x) -> int:
    """Node ``x`` as an index, the one reading of a node name.  ``nodes`` is
    either a node set's labels, which ``x`` names as ``str(x)``, or a node
    count, below which ``x`` must be an integer index."""
    if isinstance(nodes, int):
        i = _integer(x, SelectionError, "node")
        if not 0 <= i < nodes:
            raise SelectionError(f"node {i} out of range")
        return i
    try:
        return nodes.index(str(x))
    except ValueError:
        raise PartitionError(f"unknown node label {str(x)!r}") from None


def _node_groups(nodes, a, b, c=()) -> tuple[tuple[int, ...], ...]:
    """The node groups A, B and C as index tuples read by :func:`_node_index`,
    once A and B are nonempty and no node is named twice, within a group or
    across groups.  The one check of a group triple, shared by partitions,
    measures and tests."""
    groups = tuple(tuple(_node_index(nodes, x) for x in g) for g in (a, b, c))
    if not groups[0] or not groups[1]:
        raise PartitionError("A and B must be nonempty")
    flat = [x for g in groups for x in g]
    if len(set(flat)) != len(flat):
        raise PartitionError("A, B, C must be pairwise disjoint, each node named once")
    return groups


@dataclass(frozen=True)
class NodePartition:
    """Disjoint split V = A + B + C framing every directional measure.

    ``a``, ``b`` and ``c`` are node indices into ``labels``; ``c`` collects
    the side information and may be empty.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        groups = _node_groups(len(self.labels), self.a, self.b, self.c)
        if sum(map(len, groups)) != len(self.labels):
            raise PartitionError("A, B, C must cover the node set exactly")
        for name, group in zip("abc", groups):
            object.__setattr__(self, name, group)

    @property
    def a_labels(self) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in self.a)

    @property
    def b_labels(self) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in self.b)

    @property
    def c_labels(self) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in self.c)


def make_partition(labels, a_labels, b_labels) -> NodePartition:
    """Build the partition (A, B, C := V minus A minus B) from node names."""
    labels = tuple(str(x) for x in labels)
    if len(set(labels)) != len(labels):
        raise PartitionError("node set contains duplicate labels")
    a, b, _ = _node_groups(labels, a_labels, b_labels)
    c = tuple(i for i in range(len(labels)) if i not in a + b)
    return NodePartition(a=a, b=b, c=c, labels=labels)


# ---------------------------------------------------------------------------
# symbolization
# ---------------------------------------------------------------------------

def symbolize(panel: TimeSeriesPanel, bins: int, scheme: str = "equal_width") -> TimeSeriesPanel:
    """Quantize each column into symbols 0..bins-1.

    ``equal_width`` splits [min, max] evenly (monotone per column);
    ``equal_frequency`` uses empirical quantile edges and rejects constant
    columns, which cannot be split.
    Bin edges are recorded in the output panel's ``meta['bin_edges']``.
    """
    bins = _integer(bins, ParamError, "bins")
    if bins < 2:
        raise ParamError(f"bins must be >= 2, got {bins}")
    if scheme not in ("equal_width", "equal_frequency"):
        raise ParamError(f"unknown scheme {scheme!r}")
    values = panel.values.astype(float)
    out = np.empty_like(values, dtype=np.int64)
    edges_by_label = {}
    for j, label in enumerate(panel.labels):
        col = values[:, j]
        lo, hi = col.min(), col.max()
        if scheme == "equal_width":
            if lo == hi:
                out[:, j] = 0
                edges_by_label[label] = [lo, hi]
                continue
            edges = np.linspace(lo, hi, bins + 1)
        else:
            if lo == hi:
                raise DegenerateColumn(f"column {label!r} is constant")
            edges = np.quantile(col, np.linspace(0.0, 1.0, bins + 1))
            edges = np.unique(edges)
        # a value equal to an interior edge belongs to the lower bin
        out[:, j] = np.clip(np.searchsorted(edges[1:-1], col, side="left"), 0, bins - 1)
        edges_by_label[label] = edges.tolist()
    meta = dict(panel.meta)
    meta["bin_edges"] = edges_by_label
    meta["symbolize_scheme"] = scheme
    return TimeSeriesPanel(values=out, labels=panel.labels, meta=meta)


# ---------------------------------------------------------------------------
# exact sequence distributions
# ---------------------------------------------------------------------------

def _xlogx_sum(p: np.ndarray) -> float:
    """sum(p * ln p) with 0 ln 0 = 0: float64 terms in C order, summed in
    extended precision."""
    flat = p.ravel()
    positive = flat > 0.0
    return float(_xlogx_pairwise(flat if positive.all() else flat[positive]))


def _xlogx_pairwise(x):
    """numpy's pairwise sum of the extended-precision terms x ln x, which
    halves a block of over 128 entries at a multiple of 8, formed 2048
    entries at a time: no temporary is large enough to be mapped afresh."""
    if x.size <= 2048:
        return np.add.reduce((x * np.log(x)).astype(np.longdouble))
    half = x.size // 2 - x.size // 2 % 8
    return _xlogx_pairwise(x[:half]) + _xlogx_pairwise(x[half:])


def _law(array, shape, what) -> np.ndarray:
    """Validated read-only copy of a pmf of the given shape."""
    law = np.asarray(array, dtype=float)
    if law.shape != shape:
        raise InvalidModel(f"{what} shape {law.shape} != expected {shape}")
    if not np.isfinite(law).all():
        raise InvalidModel(f"{what} has non-finite entries")
    if law.size and law.min() < -PMF_ATOL:
        raise InvalidModel(f"{what} has negative entries")
    law = law.copy()
    law.setflags(write=False)
    return law


class CellMask(int):
    """A cell set as one integer: bit ``(t-1) * |V| + a``, the cell's array
    axis, is node ``a`` at time ``t``.  Iterating yields the set bits, so a
    wrapper of ``entropy_of_cells`` can key its calls by ``frozenset``."""

    __slots__ = ()

    def __iter__(self):
        return (b for b in range(self.bit_length()) if self >> b & 1)


class SequenceDistribution:
    """Exact joint law of ``x_V^n`` over a finite alphabet, held as a chain
    of window width ``w``: the law ``initial`` of the first ``w`` samples
    and a ``kernel`` giving the next sample from the last ``w``.

    Arrays have one axis per cell (node, time), ordered time-major: the
    initial law's axis ``(t-1) * |V| + a`` carries node ``a`` at time ``t``,
    and the kernel's last ``|V|`` axes carry the predicted sample.  A table
    given as ``pmf`` is the chain with ``w = n`` and no kernel steps.

    Marginals are contracted from the chain one time step at a time, so the
    dense ``M**n`` table is never needed; :attr:`pmf` builds it on demand.
    ``budget`` caps the entries of the largest array a contraction or
    :attr:`pmf` allocates, and is checked before anything is allocated.
    A cell set is held as one :class:`CellMask` integer, and every memo
    (entropies, steps, summed kernels, step plans) lives on the instance.
    """

    def __init__(self, alphabet_sizes, horizon, pmf=None, *, initial=None, kernel=None,
                 budget: int = DEFAULT_STATE_BUDGET):
        sizes = tuple(int(m) for m in alphabet_sizes)
        if any(m < 1 for m in sizes):
            raise InvalidModel("alphabet sizes must be positive")
        n = _integer(horizon, InvalidModel, "horizon")
        if n < 1:
            raise InvalidModel("horizon must be >= 1")
        if (pmf is None) == (initial is None):
            raise InvalidModel("give either a pmf table or an initial law")
        d = len(sizes)
        if pmf is not None:
            initial, width, what = pmf, n, "pmf"
        else:
            width, what = np.ndim(initial) // max(d, 1), "initial law"
            if not 1 <= width <= n:
                raise InvalidModel(f"initial law spans {width} samples, horizon is {n}")
        initial = _law(initial, sizes * width, what)
        total = float(np.sum(initial.astype(np.longdouble)))
        if abs(total - 1.0) > PMF_ATOL:
            raise InvalidModel(f"{what} sums to {total!r}, not 1")
        if (kernel is None) != (width == n):
            raise InvalidModel("a kernel is needed exactly when the initial law "
                               "is shorter than the horizon")
        if kernel is not None:
            kernel = _law(kernel, sizes * (width + 1), "kernel")
            rows = kernel.reshape(-1, int(np.prod(sizes))).sum(axis=1)
            if np.max(np.abs(rows - 1.0)) > PMF_ATOL:
                raise InvalidModel("kernel rows must each sum to 1")
        self.alphabet_sizes = sizes
        self.horizon = n
        self.budget = int(budget)
        self._width = width
        self._initial = initial
        self._kernel = kernel
        self._pmf = initial if width == n else None
        self._prefix = None
        # masks of every cell, of one time and of the first w times
        self._all, self._block, self._window = (1 << n * d) - 1, (1 << d) - 1, (1 << width * d) - 1
        self._by_size = [(m, sum(self._all // self._block << a for a in range(d) if sizes[a] == m))
                         for m in set(sizes)]
        self._entropy_cache, self._step_memo, self._kernels, self._kernel_plans = {}, {}, {}, {}

    @property
    def n_nodes(self) -> int:
        return len(self.alphabet_sizes)

    @property
    def pmf(self) -> np.ndarray:
        """The dense ``M**n`` table, built (and charged to the budget) on
        first use."""
        if self._pmf is None:
            table = self._marginal(self._all)
            table.setflags(write=False)
            self._pmf = table
        return self._pmf

    def axis_of(self, node: int, time: int) -> int:
        """Array axis holding node ``node`` at 1-based time ``time``."""
        node, time = _node_index(self.n_nodes, node), _integer(time, SelectionError, "time")
        if not (1 <= time <= self.horizon):
            raise SelectionError(f"time {time} out of range 1..{self.horizon}")
        return (time - 1) * self.n_nodes + node

    def _mask_of(self, cells) -> int:
        """``cells``, a :class:`CellMask` or (node, time) pairs, validated."""
        if isinstance(cells, CellMask):
            if not 0 <= cells <= self._all:
                raise SelectionError(f"cells {int(cells):#x} reach past time {self.horizon}")
            return cells
        return sum({1 << self.axis_of(node, t) for node, t in cells})

    def cell_marginal(self, cells) -> np.ndarray:
        """Exact marginal over an arbitrary cell set, axes sorted time-major."""
        return self._marginal(self._mask_of(cells))

    def entropy_of_cells(self, cells) -> float:
        """Shannon entropy (nats) of the cells' joint marginal, cached.

        A set holding every node at times ``1..s`` (``s >= w``) is split as
        ``H(x^s) + H(rest | window_s)``: the first term by the chain rule,
        the second from the window law at ``s`` contracted over the later
        cells, so the past of V is never laid out as an array.
        """
        mask = self._mask_of(cells)
        cached = self._entropy_cache.get(mask)
        if cached is None:
            cached = self._entropy_cache[mask] = self._entropy(mask) if mask else 0.0
        return cached

    # -- contraction ---------------------------------------------------------

    def _entropy(self, mask) -> float:
        d, w = self.n_nodes, self._width
        s = ((~mask & mask + 1).bit_length() - 1) // d  # leading complete times
        if s < w:
            return -_xlogx_sum(self._marginal(mask, self._step_memo))
        laws, h_prefix, h_window = self._chain_prefix()
        rest = mask >> s * d << s * d
        if not rest:
            return h_prefix[s]
        joint = self._forward(self._window << (s - w) * d | rest, s, laws[s], self._step_memo)
        return h_prefix[s] - h_window[s] - _xlogx_sum(joint)

    def _chain_prefix(self):
        """Window laws ``pi_t`` (over times t-w+1..t), ``H(x^t)`` and
        ``H(pi_t)`` for t = w..n, computed once."""
        if self._prefix is None:
            w, n = self._width, self.horizon
            shape = self._initial.shape
            pi = self._initial.ravel()
            h = -_xlogx_sum(pi)
            laws, h_prefix, h_window = {w: self._initial}, {w: h}, {w: h}
            if self._kernel is not None:
                M = int(np.prod(self.alphabet_sizes))
                rows = self._kernel.reshape(pi.size, M)
                with np.errstate(divide="ignore", invalid="ignore"):
                    row_h = -np.sum(np.where(rows > 0.0, rows * np.log(rows), 0.0), axis=1)
                for t in range(w + 1, n + 1):
                    h += float(pi @ row_h)
                    pi = (pi[:, None] * rows).reshape(M, pi.size // M, M).sum(axis=0).ravel()
                    laws[t] = pi.reshape(shape)
                    h_prefix[t] = h
                    h_window[t] = -_xlogx_sum(pi)
            self._prefix = laws, h_prefix, h_window
        return self._prefix

    def _marginal(self, mask, memo=None) -> np.ndarray:
        if mask <= self._window:
            drop = tuple(ax for ax in range(self._initial.ndim) if not mask >> ax & 1)
            return np.add.reduce(self._initial, axis=drop) if drop else self._initial
        return self._forward(mask, self._width, self._initial, memo)

    def _forward(self, mask, t0, phi, memo=None) -> np.ndarray:
        """Joint marginal of the cells of ``mask`` (all at times after
        ``t0 - w``), starting from the joint law ``phi`` of every cell of
        times ``t0-w+1..t0`` and applying one kernel step per later time.

        Each step keeps the selected cells as axes, carries the unselected
        cells of the current window and sums out the ones that leave it.
        The steps are planned and charged to the budget first; each then
        runs as one batched matrix product (:meth:`_step`).  A step before
        the last is memoized in ``memo`` by ``(t0, kept cells)``, which fixes
        its input: entropy passes share ``_step_memo`` and replay the steps
        of a shared past.  A dense build (no ``memo``) keeps none.
        """
        d, w = self.n_nodes, self._width
        last = (mask.bit_length() - 1) // d + 1
        axes, plan = self._window << (t0 - w) * d, []
        for t in range(t0 + 1, last + 1):
            carry = self._window << (t - w) * d if t < last else 0
            kept = (axes | self._block << (t - 1) * d) & (mask | carry)
            plan.append((axes, t, kept))
            axes = kept
        required = max(math.prod(m ** (kept & cells).bit_count() for m, cells in self._by_size)
                       for _, _, kept in plan)
        if required > self.budget:
            raise BudgetError(required, self.budget)
        for axes, t, kept in plan[:-1]:
            key = (t0, kept)
            out = None if memo is None else memo.get(key)
            if out is None:
                out = self._step(phi, axes, t, kept)
                if memo is not None:
                    out.setflags(write=False)
                    memo[key] = out
            phi = out
        return self._step(phi, *plan[-1])

    def _step(self, phi, axes, t, kept) -> np.ndarray:
        """One kernel step: the law ``phi`` over the cells of ``axes`` to the
        law over ``kept``, given the new sample at time ``t``.

        The cells of ``axes`` before the kernel's window (O) are there only
        because they are selected, so they are kept.  The window splits into
        kept cells Wk and summed cells Wd; the new cells that are not kept
        are summed out of the kernel first, leaving Nk.  Then
        ``out[Wk, O, Nk] = phi[Wk, O, Wd] @ kernel[Wk, Wd, Nk]``, batched
        over Wk, and is returned with its axes in ``kept`` order.
        """
        d, sizes, width = self.n_nodes, self.alphabet_sizes, self._window.bit_length()
        start = (t - 1) * d - width
        old = [sizes[b % d] for b in range(start) if axes >> b & 1]
        wk, nk = kept >> start & self._window, kept >> (t - 1) * d
        plan = self._kernel_plans.get((wk, nk))
        if plan is None:  # memoized per kept pattern, the summed kernel per new one
            kw, dw, new = ([b for b in range(width) if m >> b & 1]
                           for m in (wk, self._window & ~wk, nk))
            shapes = [[sizes[b % d] for b in g] for g in (kw, dw, new)]
            if nk not in self._kernels:
                dropped = tuple(width + i for i in range(d) if not nk >> i & 1)
                self._kernels[nk] = self._kernel.sum(axis=dropped) if dropped else self._kernel
            plan = self._kernel_plans[wk, nk] = (
                kw, dw, shapes[0], shapes[2], self._kernels[nk],
                kw + dw + list(range(width, width + len(new))), [math.prod(g) for g in shapes])
        kw, dw, kw_shape, nk_shape, kernel, k_order, k_groups = plan
        o, k = len(old), len(kw)
        order = [o + b for b in kw] + list(range(o)) + [o + b for b in dw]
        back = [*range(k, k + o), *range(k), *range(k + o, k + o + len(nk_shape))]
        out = np.matmul(phi.transpose(order).reshape(k_groups[0], math.prod(old), k_groups[1]),
                        kernel.transpose(k_order).reshape(k_groups))
        return out.reshape(kw_shape + old + nk_shape).transpose(back)


def cells_of(nodes, times) -> frozenset[Cell]:
    """Cartesian cell set nodes x times (either may be empty)."""
    return frozenset(itertools.product(nodes, times))


@dataclass(frozen=True)
class MeasureValue:
    """Scalar information measure in nats over a fixed horizon.

    ``horizon == 0`` marks an exact infinite-horizon rate (the Gaussian
    Geweke indices and rates), not a horizon of zero samples.
    """

    value: float
    horizon: int
    kind: str

    KINDS = ("entropy", "mi", "di", "te", "iie", "rate", "lautum")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ParamError(f"unknown measure kind {self.kind!r}")

    def in_bits(self) -> float:
        return self.value / math.log(2.0)
