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
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateColumn,
    InvalidModel,
    ParamError,
    ParseError,
    PartitionError,
    SchemaError,
    SelectionError,
)

PMF_ATOL = 1e-12

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
    time_origin : int
        Index of the first row (convention: 1).
    meta : dict
        Free-form provenance (e.g. bin edges recorded by :func:`symbolize`).
    """

    values: np.ndarray
    labels: tuple[str, ...]
    time_origin: int = 1
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
        if not np.all(np.isfinite(values.astype(float))):
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

    def column(self, label: str) -> np.ndarray:
        return self.values[:, self.index_of(label)]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise PartitionError(f"unknown node label {label!r}") from None

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
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(f"{path}: empty file")
    labels = [cell.strip() for cell in rows[0]]
    if len(set(labels)) != len(labels):
        raise SchemaError(f"{path}: duplicate labels in header")
    width = len(labels)
    data = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ParseError(f"{path}: row {r} has {len(row)} cells, expected {width}")
        data.append([_parse_cell(cell, r, labels[c]) for c, cell in enumerate(row)])
    if not data:
        raise ParseError(f"{path}: no data rows")
    return TimeSeriesPanel(values=_coerce_integral(data), labels=tuple(labels))


def _coerce_integral(data) -> np.ndarray:
    """Parsed cells as an array: int64 when every cell is an integer below
    2**31 in magnitude that round-trips exactly, float otherwise."""
    values = np.asarray(data, dtype=float)
    if np.allclose(values, np.round(values)) and np.all(np.abs(values) < 2**31):
        as_int = np.round(values).astype(np.int64)
        if np.array_equal(as_int.astype(float), values):
            return as_int
    return values


def _load_json(path) -> TimeSeriesPanel:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from None
    try:
        labels = list(doc["labels"])
        raw = doc["values"]
    except (KeyError, TypeError):
        raise ParseError(f"{path}: expected object with 'labels' and 'values'") from None
    if len(set(map(str, labels))) != len(labels):
        raise SchemaError(f"{path}: duplicate labels")
    width = len(labels)
    data = []
    for r, row in enumerate(raw, start=1):
        if len(row) != width:
            raise ParseError(f"{path}: row {r} has {len(row)} cells, expected {width}")
        data.append([_parse_cell(cell, r, labels[c]) for c, cell in enumerate(row)])
    return TimeSeriesPanel(values=_coerce_integral(data),
                           labels=tuple(str(x) for x in labels))


def _format_number(x) -> str:
    if float(x) == int(x) and abs(float(x)) < 2**53:
        return str(int(x))
    return repr(float(x))


def write_panel(panel: TimeSeriesPanel, path, format: str = "csv") -> None:
    """Write ``panel`` in canonical form (round-trips bit-exactly through
    :func:`load_panel` for CSV)."""
    if format == "csv":
        with open(path, "w", newline="") as fh:
            fh.write(",".join(panel.labels) + "\n")
            for row in panel.values:
                fh.write(",".join(_format_number(x) for x in row) + "\n")
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
        all_idx = list(self.a) + list(self.b) + list(self.c)
        if not self.a or not self.b:
            raise PartitionError("A and B must be nonempty")
        if len(set(all_idx)) != len(all_idx):
            raise PartitionError("A, B, C must be pairwise disjoint")
        if sorted(all_idx) != list(range(len(self.labels))):
            raise PartitionError("A, B, C must cover the node set exactly")

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
    index = {lab: i for i, lab in enumerate(labels)}

    def resolve(group, name):
        idx = []
        for lab in group:
            if str(lab) not in index:
                raise PartitionError(f"label {lab!r} in {name} is not in the node set")
            idx.append(index[str(lab)])
        return tuple(idx)

    a = resolve(a_labels, "A")
    b = resolve(b_labels, "B")
    if set(a) & set(b):
        raise PartitionError("A and B overlap")
    c = tuple(i for i in range(len(labels)) if i not in set(a) | set(b))
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
    return TimeSeriesPanel(values=out, labels=panel.labels, time_origin=panel.time_origin, meta=meta)


# ---------------------------------------------------------------------------
# exact sequence distributions
# ---------------------------------------------------------------------------

def _xlogx_sum(p: np.ndarray) -> float:
    """sum(p * ln p) with 0 ln 0 = 0, accumulated in extended precision."""
    flat = np.asarray(p, dtype=float).ravel()
    nz = flat[flat > 0.0]
    if nz.size == 0:
        return 0.0
    return float(np.sum(nz.astype(np.longdouble) * np.log(nz.astype(np.longdouble))))


@dataclass(frozen=True)
class SequenceDistribution:
    """Exact joint pmf of ``x_V^n`` over a finite alphabet.

    The table has one axis per cell (node, time), ordered time-major:
    axis ``(t-1) * |V| + a`` carries node ``a`` at time ``t``.
    """

    alphabet_sizes: tuple[int, ...]
    horizon: int
    pmf: np.ndarray
    _entropy_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(int(m) for m in self.alphabet_sizes)
        if any(m < 1 for m in sizes):
            raise InvalidModel("alphabet sizes must be positive")
        n = int(self.horizon)
        if n < 1:
            raise InvalidModel("horizon must be >= 1")
        expected = sizes * n
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.shape != expected:
            raise InvalidModel(f"pmf shape {pmf.shape} != expected {expected}")
        if pmf.min() < -PMF_ATOL:
            raise InvalidModel("pmf has negative entries")
        total = float(np.sum(pmf.astype(np.longdouble)))
        if abs(total - 1.0) > PMF_ATOL:
            raise InvalidModel(f"pmf sums to {total!r}, not 1")
        pmf = pmf.copy()
        pmf.setflags(write=False)
        object.__setattr__(self, "pmf", pmf)
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "horizon", n)

    @property
    def n_nodes(self) -> int:
        return len(self.alphabet_sizes)

    def axis_of(self, node: int, time: int) -> int:
        """Array axis holding node ``node`` at 1-based time ``time``."""
        if not (0 <= node < self.n_nodes):
            raise SelectionError(f"node {node} out of range")
        if not (1 <= time <= self.horizon):
            raise SelectionError(f"time {time} out of range 1..{self.horizon}")
        return (time - 1) * self.n_nodes + node

    def cell_marginal(self, cells) -> np.ndarray:
        """Exact marginal over an arbitrary cell set, axes sorted time-major."""
        cells = sorted(set(cells), key=lambda c: (c[1], c[0]))
        keep = [self.axis_of(node, t) for node, t in cells]
        drop = tuple(ax for ax in range(self.pmf.ndim) if ax not in set(keep))
        return np.sum(self.pmf, axis=drop) if drop else self.pmf

    def entropy_of_cells(self, cells) -> float:
        """Shannon entropy (nats) of the cells' joint marginal, cached."""
        key = frozenset(cells)
        if not key:
            return 0.0
        cached = self._entropy_cache.get(key)
        if cached is None:
            cached = -_xlogx_sum(self.cell_marginal(key))
            self._entropy_cache[key] = cached
        return cached


def cells_of(nodes, times) -> frozenset[Cell]:
    """Cartesian cell set nodes x times (either may be empty)."""
    return frozenset((int(a), int(t)) for a in nodes for t in times)


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
