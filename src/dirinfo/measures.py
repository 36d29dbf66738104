"""Directed-information measures and their decomposition identities,
computed exactly from a :class:`~dirinfo.core.SequenceDistribution`, and
as exact infinite-horizon rates from a :class:`~dirinfo.gaussian.VarModel`.

For a partition V = A + B + C and horizon ``n`` (time origin 1):

* directed information      ``sum_i I(x_A^i ; x_B(i) | x_B^{i-1}, x_C^*)``
* transfer entropy (delayed) ``sum_i I(x_A^{i-1} ; x_B(i) | x_B^{i-1}, x_C^*)``
* information exchange       ``sum_i I(x_A(i) ; x_B(i) | x_A^{i-1}, x_B^{i-1}, x_C^*)``

where ``x_C^*`` is the side information up to time ``i`` (contemporaneous
mode) or ``i-1`` (strict-past mode).  Delayed conditioning lists are empty
at ``i = 1`` and simply drop out of the conditioning (wild-card rule).

Each measure is defined once, as its time-``i`` term (:func:`_terms`);
sums, rates and the decomposition add those terms up.  Every conditional
mutual information reduces to entropies of marginals of one exact law,
cached per law by cell mask.  A VAR model is read through its ``rate_law``,
whose time 1 is every node's entire past: its time-2 terms are its rates.
"""

from __future__ import annotations

import enum
import math
import operator
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import (
    DEFAULT_STATE_BUDGET,
    CellMask,
    MeasureValue,
    SequenceDistribution,
    _integer,
    _node_groups,
    cells_of,
)
from .discrete import DiscreteMarkovModel, enumerate_joint, marginal, with_stationary_initial
from .errors import DivergenceInfinite, ParamError, PartitionError, SelectionError

EXACT_RESIDUAL_TOL = 1e-9


class ConditioningMode(enum.Enum):
    """How side information enters a time-``i`` term: its present included
    (``x_C^i``) or its strict past only (``x_C^{i-1}``)."""

    CONTEMPORANEOUS = "contemporaneous"
    STRICT_PAST = "strict_past"


DEFAULT_MODE = ConditioningMode.STRICT_PAST


def _as_mode(mode) -> ConditioningMode:
    """``mode`` as a ConditioningMode: a member or its value."""
    try:
        return ConditioningMode(mode)
    except ValueError:
        allowed = ", ".join(repr(m.value) for m in ConditioningMode)
        raise ParamError(f"unknown mode {mode!r}: expected one of {allowed}") from None


def _check_law(dist):
    """Refuse a VAR model: it has exact rates only, no finite-horizon law."""
    if hasattr(dist, "rate_law"):
        raise ParamError("a VAR model has exact rates only: use rate or decompose")


def _check_groups(dist, n, a, b, c=()):
    """The horizon ``n`` (default the law's) and the groups A, B and C as
    index tuples, once the law is not a VAR model and the groups pass
    :func:`~dirinfo.core._node_groups`."""
    _check_law(dist)
    groups = _node_groups(dist.n_nodes, a, b, c)
    n = dist.horizon if n is None else _integer(n, SelectionError, "horizon")
    if not 1 <= n <= dist.horizon:
        raise SelectionError(f"horizon {n} out of range 1..{dist.horizon}")
    return (n, *groups)


def _node_mask(nodes) -> int:
    """A node group as the CellMask of its cells at time 1."""
    return sum(1 << a for a in nodes)


def _upto(nodes, i, d):
    """A node mask's cells at times 1..i (``nodes << (i-1) * d`` at time i)."""
    return nodes * ((1 << i * d) - 1) // ((1 << d) - 1)


def _cmi(dist, xs, ys, zs) -> float:
    """I(X;Y|Z) as cached entropy combinations (0 when X or Y is empty)."""
    if not xs or not ys:
        return 0.0
    h = dist.entropy_of_cells
    return (h(CellMask(xs | zs)) + h(CellMask(ys | zs))
            - h(CellMask(xs | ys | zs)) - h(CellMask(zs)))


def _terms(measure, a, b, c, mode, i, d):
    """The time-``i`` term of ``measure`` as ``(xs, ys, zs)`` mask triples
    whose conditional mutual informations I(xs; ys | zs) add up to the term;
    ``a``, ``b`` and ``c`` are node masks of a law with ``d`` nodes.

    ``di``   I(x_A^i ; x_B(i) | x_B^{i-1}, x_C^*)
    ``te``   I(x_A^{i-1} ; x_B(i) | x_B^{i-1}, x_C^*)
    ``iie``  I(x_A(i) ; x_B(i) | x_A^{i-1}, x_B^{i-1}, x_C^*)
    ``mi``   I(x_A(i) ; x_B^i | x_A^{i-1}, x_C^{i-1})
             + I(x_A^{i-1} ; x_B(i) | x_B^{i-1}, x_C^{i-1})

    The ``mi`` term always conditions on the strict past of C; by the chain
    rule it equals the causally conditioned mutual information term of
    :func:`causal_mutual_information`.
    """
    past_a, past_b, past_c = (_upto(x, i - 1, d) for x in (a, b, c))
    now_a, now_b = a << (i - 1) * d, b << (i - 1) * d
    if measure == "mi":
        return ((now_a, now_b | past_b, past_a | past_c),
                (past_a, now_b, past_b | past_c))
    side = past_c | c << (i - 1) * d if mode is ConditioningMode.CONTEMPORANEOUS else past_c
    if measure == "di":
        return ((past_a | now_a, now_b, past_b | side),)
    if measure == "te":
        return ((past_a, now_b, past_b | side),)
    if measure == "iie":
        return ((now_a, now_b, past_a | past_b | side),)
    raise ParamError(f"unknown measure {measure!r}")


def _steps(dist, measure, a, b, c, mode, n) -> list[float]:
    """Per-step terms of ``measure`` at times 1..n."""
    a, b, c, d = _node_mask(a), _node_mask(b), _node_mask(c), dist.n_nodes
    return [sum(_cmi(dist, *triple) for triple in _terms(measure, a, b, c, mode, i, d))
            for i in range(1, n + 1)]


def _summed(dist, measure, a, b, c, mode, n) -> MeasureValue:
    mode = _as_mode(mode)
    n, a, b, c = _check_groups(dist, n, a, b, c)
    return MeasureValue(value=sum(_steps(dist, measure, a, b, c, mode, n)),
                        horizon=n, kind=measure)


# ---------------------------------------------------------------------------
# elementary measures
# ---------------------------------------------------------------------------

def entropy(dist: SequenceDistribution, nodes, times) -> MeasureValue:
    """Shannon entropy (nats) of the marginal on ``nodes`` x ``times``."""
    _check_law(dist)
    cells = cells_of(nodes, times)
    if not cells:
        raise SelectionError("empty selection")
    value = dist.entropy_of_cells(cells)  # reads every cell, or raises
    return MeasureValue(value=value, horizon=operator.index(max(t for _, t in cells)),
                        kind="entropy")


def mutual_information(dist, a_nodes, b_nodes, n=None) -> MeasureValue:
    """I(x_A^n ; x_B^n), symmetric in the two groups."""
    n, a, b, _ = _check_groups(dist, n, a_nodes, b_nodes)
    a, b = (_upto(_node_mask(x), n, dist.n_nodes) for x in (a, b))
    value = _cmi(dist, a, b, 0)
    return MeasureValue(value=value, horizon=n, kind="mi")


def directed_information(dist, a_nodes, b_nodes, n=None, c_nodes=(),
                         mode=DEFAULT_MODE) -> MeasureValue:
    """Causal conditional directed information I(x_A^n -> x_B^n || x_C^*).

    With empty side information this is the Massey directed information
    written through its chain rule.
    """
    return _summed(dist, "di", a_nodes, b_nodes, c_nodes, mode, n)


def delayed_directed_information(dist, a_nodes, b_nodes, n=None, c_nodes=(),
                                 mode=DEFAULT_MODE) -> MeasureValue:
    """Transfer-entropy part I(x_A^{n-1} -> x_B^n || x_C^*): the source
    enters through its strict past only."""
    return _summed(dist, "te", a_nodes, b_nodes, c_nodes, mode, n)


def instantaneous_exchange(dist, a_nodes, b_nodes, n=None, c_nodes=(),
                           mode=DEFAULT_MODE) -> MeasureValue:
    """Instantaneous information exchange I(x_A^n <-> x_B^n || x_C^*),
    symmetric in A and B."""
    return _summed(dist, "iie", a_nodes, b_nodes, c_nodes, mode, n)


def delta_instantaneous(dist, a_nodes, b_nodes, c_nodes, n=None) -> MeasureValue:
    """Coupling correction dI(C <-> B): the exchange of C and B given A's
    strict past (intrinsic) minus their exchange without it (extrinsic).
    May be negative."""
    if not c_nodes:
        raise PartitionError("delta term needs nonempty side information C")
    n, a, b, c = _check_groups(dist, n, a_nodes, b_nodes, c_nodes)
    strict = ConditioningMode.STRICT_PAST
    intrinsic = sum(_steps(dist, "iie", c, b, a, strict, n))
    extrinsic = sum(_steps(dist, "iie", c, b, (), strict, n))
    return MeasureValue(value=intrinsic - extrinsic, horizon=n, kind="iie")


def causal_mutual_information(dist, a_nodes, b_nodes, n=None, c_nodes=()) -> MeasureValue:
    """Causally conditioned mutual information I(x_A^n ; x_B^n || x_C^{n-1}).

    Its time-``i`` term is ``H(x_A(i) | x_A^{i-1}, x_C^{i-1})
    + H(x_B(i) | x_B^{i-1}, x_C^{i-1}) - H(x_A(i), x_B(i) | x_A^{i-1}, x_B^{i-1}, x_C^{i-1})``,
    the form under which the strict-past decomposition closes exactly.
    Reduces to the plain mutual information when C is empty.
    """
    return _summed(dist, "mi", a_nodes, b_nodes, c_nodes, ConditioningMode.STRICT_PAST, n)


def schreiber_transfer_entropy(dist, a_nodes, b_nodes, k: int, l: int,
                               n=None) -> MeasureValue:
    """Single-term transfer entropy with truncated memories:
    I(x_A(n-l..n-1) ; x_B(n) | x_B(n-k..n-1)).

    ``k`` past samples of the target and ``l`` of the source; with
    ``k = l = n-1`` this is the last summand of the delayed directed
    information.
    """
    n, a, b, _ = _check_groups(dist, n, a_nodes, b_nodes)
    k, l = _integer(k, ParamError, "k"), _integer(l, ParamError, "l")
    if not 1 <= k <= n - 1:
        raise ParamError(f"target memory k={k} outside 1..{n - 1}")
    if not 1 <= l <= n - 1:
        raise ParamError(f"source memory l={l} outside 1..{n - 1}")
    a, b, d = _node_mask(a), _node_mask(b), dist.n_nodes
    value = _cmi(dist, _upto(a, n - 1, d) & ~_upto(a, n - l - 1, d), b << (n - 1) * d,
                 _upto(b, n - 1, d) & ~_upto(b, n - k - 1, d))
    return MeasureValue(value=value, horizon=n, kind="te")


# ---------------------------------------------------------------------------
# divergence forms
# ---------------------------------------------------------------------------

def _bivariate_view(dist, a_nodes, b_nodes, n):
    """Marginal law of the A,B nodes over times 1..n, with the node masks of
    the two groups in the reduced table."""
    keep = sorted(set(a_nodes) | set(b_nodes))
    if keep == list(range(dist.n_nodes)) and n == dist.horizon:
        view = dist
    else:
        view = marginal(dist, keep, range(1, n + 1))
    pos = {node: idx for idx, node in enumerate(keep)}
    return view, _node_mask(pos[a] for a in a_nodes), _node_mask(pos[b] for b in b_nodes)


def _expand(view, mask):
    """Marginal over the cells of ``mask`` reshaped to broadcast against the
    full table (whose axes are the mask's bits)."""
    if not mask:
        return np.ones(1)
    arr = view.cell_marginal(CellMask(mask))
    return arr.reshape([m if mask >> ax & 1 else 1 for ax, m in enumerate(view.pmf.shape)])


def _conditional_factor(view, head, given):
    """p(head | given) broadcast to the full table shape, 0/0 -> 0."""
    num = _expand(view, head | given)
    den = _expand(view, given)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    return out


def _influence_free(dist, a_nodes, b_nodes, n, lag):
    """The bivariate view of A and B over times 1..n, and on it the law
    p(x_B^n) prod_i p(x_A(i) | x_A^{i-1}, x_B^{i-lag}), ``lag`` 1 or 0."""
    view, a, b = _bivariate_view(dist, a_nodes, b_nodes, n)
    d = view.n_nodes
    factorized = _expand(view, _upto(b, n, d))
    for i in range(1, n + 1):
        factorized = factorized * _conditional_factor(
            view, a << (i - 1) * d, _upto(a, i - 1, d) | _upto(b, i - lag, d))
    return view, factorized


def _kl_linear(p: np.ndarray, q: np.ndarray, context: str) -> float:
    """sum p log(p/q) over the support of p; infinite on support mismatch."""
    p = np.broadcast_to(p, np.broadcast_shapes(p.shape, q.shape))
    q = np.broadcast_to(q, p.shape)
    support = p > 0.0
    if np.any(support & (q <= 0.0)):
        warnings.warn(f"{context}: factorized law misses support points",
                      DivergenceInfinite, stacklevel=3)
        return math.inf
    ps = p[support]
    qs = q[support]
    terms = ps.astype(np.longdouble) * (np.log(ps.astype(np.longdouble))
                                        - np.log(qs.astype(np.longdouble)))
    return float(np.sum(terms))


def kl_directed_information(dist, a_nodes, b_nodes, n=None) -> MeasureValue:
    """Directed information as the Kullback divergence
    D( p(x_A^n, x_B^n) || p(x_A^n || x_B^{n-1}) p(x_B^n) ),
    evaluated term-by-term on the enumerated table.

    Bivariate by construction; equals the chain-rule form of
    :func:`directed_information` on exact tables.
    """
    n, a, b, _ = _check_groups(dist, n, a_nodes, b_nodes)
    view, factorized = _influence_free(dist, a, b, n, 1)
    value = _kl_linear(view.pmf, factorized, "directed information")
    return MeasureValue(value=value, horizon=n, kind="di")


def lautum_transfer_rate(model_or_dist, a_nodes, b_nodes, n=None,
                         budget: int = DEFAULT_STATE_BUDGET) -> MeasureValue:
    """Lautum transfer entropy rate
    (1/n) D( p(x_A^n || x_B^n) p(x_B^n)  ||  p(x_A^n, x_B^n) ):
    the per-sample loss from wrongly assuming A influences B when the
    influence-free law holds.  Arguments are reversed relative to
    :func:`kl_directed_information`.
    """
    if isinstance(model_or_dist, DiscreteMarkovModel):
        if n is None:
            raise ParamError("horizon n is required when passing a model")
        dist = enumerate_joint(model_or_dist, n, budget)
    else:
        dist = model_or_dist
    n, a, b, _ = _check_groups(dist, n, a_nodes, b_nodes)
    view, factorized = _influence_free(dist, a, b, n, 0)
    factorized = np.broadcast_to(factorized, view.pmf.shape)
    # mass lost at contexts the true law never reaches would flow onto
    # zero-probability trajectories: the divergence is infinite
    if float(np.sum(factorized)) < 1.0 - 1e-9:
        warnings.warn("lautum transfer: factorized law escapes the joint support",
                      DivergenceInfinite, stacklevel=2)
        return MeasureValue(value=math.inf, horizon=n, kind="lautum")
    value = _kl_linear(factorized, view.pmf, "lautum transfer") / n
    return MeasureValue(value=value, horizon=n, kind="lautum")


# ---------------------------------------------------------------------------
# decomposition bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InfoDecomposition:
    """All directional measures for one (A, B, C, n) plus the residuals of
    the six decomposition identities (see :func:`decompose`)."""

    di_ab: float
    di_ba: float
    te_ab: float
    te_ba: float
    iie: float
    mi: float
    delta_cb: float
    residuals: dict[str, float]
    horizon: int
    mode: ConditioningMode

    def max_residual(self) -> float:
        return max(abs(v) for v in self.residuals.values())

    def to_json(self) -> dict:
        return {**asdict(self), "mode": self.mode.value}


def decompose(dist, partition, n=None, mode=DEFAULT_MODE) -> InfoDecomposition:
    """Compute the full decomposition bundle for a partition.

    Reported component measures are causally conditioned on the
    partition's side set C under ``mode``.  The residuals always use the
    conditioning each identity requires:

    ``id1``  DI(A->B) + TE(B->A) - MI(A;B)                      (bivariate)
    ``id2``  DI(A->B) + DI(B->A) - MI(A;B) - IIE(A<->B)          (bivariate)
    ``id3``  DI(A->B) - TE(A->B) - IIE(A<->B)                    (bivariate)
    ``id4``  TE(A->B) + TE(B->A) + IIE(A<->B) - MI(A;B)          (bivariate)
    ``id5``  DI(A->B||C^n) - TE(A->B||C^{n-1}) - IIE(A<->B||C^n) - dI(C<->B)
    ``id6``  TE(A->B||C^{n-1}) + TE(B->A||C^{n-1}) + IIE(A<->B||C^{n-1})
             - I(A;B||C^{n-1})

    On an exact table every residual is zero to numerical precision; the
    bundle from an estimated distribution inherits the estimation error.
    A VAR model takes no ``n``: its measures are exact rates, ``horizon`` 0.
    """
    mode = _as_mode(mode)
    exact = getattr(dist, "rate_law", None)
    if exact is not None and n is not None:
        raise ParamError("a VAR model's measures are exact rates: it takes no horizon n")
    dist = exact or dist
    n, a, b, c = _check_groups(dist, n, partition.a, partition.b, partition.c)
    strict = ConditioningMode.STRICT_PAST
    contemp = ConditioningMode.CONTEMPORANEOUS

    def total(measure, x, y, side=(), how=strict):
        return sum(_steps(dist, measure, x, y, side, how, n))

    # bivariate identities on the (A, B) marginal
    biv_mi = mutual_information(dist, a, b, n).value
    biv_di_ab, biv_di_ba = total("di", a, b), total("di", b, a)
    biv_te_ab, biv_te_ba = total("te", a, b), total("te", b, a)
    biv_iie = total("iie", a, b)

    te_c_past = total("te", a, b, c)
    causal_mi = total("mi", a, b, c)
    delta = delta_instantaneous(dist, a, b, c, n).value if c else 0.0

    residuals = {
        "id1": biv_di_ab + biv_te_ba - biv_mi,
        "id2": biv_di_ab + biv_di_ba - biv_mi - biv_iie,
        "id3": biv_di_ab - biv_te_ab - biv_iie,
        "id4": biv_te_ab + biv_te_ba + biv_iie - biv_mi,
        "id5": (total("di", a, b, c, contemp) - te_c_past
                - total("iie", a, b, c, contemp) - delta),
        "id6": te_c_past + total("te", b, a, c) + total("iie", a, b, c) - causal_mi,
    }
    return InfoDecomposition(di_ab=total("di", a, b, c, mode), di_ba=total("di", b, a, c, mode),
                             te_ab=total("te", a, b, c, mode), te_ba=total("te", b, a, c, mode),
                             iie=total("iie", a, b, c, mode),
                             mi=causal_mi if c else biv_mi, delta_cb=delta,
                             residuals=residuals, horizon=0 if exact else n, mode=mode)


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateEstimate(MeasureValue):
    """Per-sample rate of a measure for a stationary model: ``value`` is the
    last conditional increment at ``horizon``, and the limit rate lies in
    ``[lower, upper]`` (Birch's bounds, see :func:`rate`)."""

    lower: float
    upper: float


_RATE_MEASURES = ("di", "te", "iie", "mi")


def _birch(dist, measure, a_nodes, b_nodes, c_nodes, mode, n, order) -> RateEstimate:
    """The increment of ``measure`` at time ``n`` of a stationary law of
    memory ``order``, and Birch's bracket of its limit (see :func:`rate`);
    with ``order`` 0 nothing is hidden and the bracket is the increment."""
    n, a, b, c = _check_groups(dist, n, a_nodes, b_nodes, c_nodes)
    d = dist.n_nodes
    terms = _terms(measure, _node_mask(a), _node_mask(b), _node_mask(c), mode, n, d)
    start = (1 << min(order, n) * d) - 1
    value = sum(_cmi(dist, *t) for t in terms)
    lower = upper = value
    for xs, ys, zs in terms:
        if ys & (1 << (n - 1) * d) - 1:  # ys reaches before time n: xs is the side at n
            xs, ys = ys, xs
        lower -= _cmi(dist, start, ys, zs)
        upper += _cmi(dist, start, ys, xs | zs)
    return RateEstimate(value=value, horizon=n, kind="rate", lower=lower, upper=upper)


def rate(measure: str, model, a_nodes, b_nodes, c_nodes=(),
         mode=DEFAULT_MODE, n_max: int = 6, budget: int = DEFAULT_STATE_BUDGET) -> RateEstimate:
    """Information rate of ``measure`` for the stationary version of ``model``.

    A :class:`~dirinfo.gaussian.VarModel` gives its exact rate: the term of
    its ``rate_law``, with ``lower == upper`` and ``horizon`` 0; ``n_max``
    and ``budget`` are not used.  A discrete model is restarted from its
    exact stationary window law and enumerated up to ``n_max``; the rate is
    read off as the increment at ``n_max`` and bracketed by Birch's bounds
    (Ann. Math. Statist. 33, 1962).  For each term I(X; Y | Z) of the
    increment, Y the side at time ``n_max``, the cells S of the first
    ``min(order, n_max)`` times bound the limit by ``term - I(S; Y | Z)``
    from below and ``term + I(S; Y | X, Z)`` from above; by stationarity
    the bounds tighten monotonically with ``n_max``.
    """
    if measure not in _RATE_MEASURES:
        raise ParamError(f"measure must be one of {_RATE_MEASURES}, got {measure!r}")
    mode = _as_mode(mode)
    _node_groups(model.n_nodes, a_nodes, b_nodes, c_nodes)  # before any law is built
    exact = getattr(model, "rate_law", None)
    if exact is not None:  # its time 1 is every node's entire past: nothing is hidden
        return replace(_birch(exact, measure, a_nodes, b_nodes, c_nodes, mode, 2, 0), horizon=0)
    dist = enumerate_joint(with_stationary_initial(model, budget), n_max, budget)
    return _birch(dist, measure, a_nodes, b_nodes, c_nodes, mode, n_max, model.order)
