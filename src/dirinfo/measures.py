"""Directed-information measures and their decomposition identities,
computed exactly from a :class:`~dirinfo.core.SequenceDistribution`.

For a partition V = A + B + C and horizon ``n`` (time origin 1):

* directed information      ``sum_i I(x_A^i ; x_B(i) | x_B^{i-1}, x_C^*)``
* transfer entropy (delayed) ``sum_i I(x_A^{i-1} ; x_B(i) | x_B^{i-1}, x_C^*)``
* information exchange       ``sum_i I(x_A(i) ; x_B(i) | x_A^{i-1}, x_B^{i-1}, x_C^*)``

where ``x_C^*`` is the side information up to time ``i`` (contemporaneous
mode) or ``i-1`` (strict-past mode).  Delayed conditioning lists are empty
at ``i = 1`` and simply drop out of the conditioning (wild-card rule).

Each measure is defined once, as its time-``i`` term (:func:`_terms`);
sums, rates and the decomposition add those terms up.  Every conditional
mutual information reduces to entropies of marginals of one exact
distribution, cached per distribution by cell-set signature.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import MeasureValue, SequenceDistribution, cells_of
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
    if isinstance(mode, ConditioningMode):
        return mode
    return ConditioningMode(str(mode))


def _check_groups(dist, n, *groups):
    seen = set()
    for g in groups:
        for a in g:
            if not 0 <= int(a) < dist.n_nodes:
                raise SelectionError(f"node {a} out of range")
            if int(a) in seen:
                raise PartitionError("node groups must be pairwise disjoint")
            seen.add(int(a))
    if n is None:
        n = dist.horizon
    if not 1 <= n <= dist.horizon:
        raise SelectionError(f"horizon {n} out of range 1..{dist.horizon}")
    return int(n)


def _past(nodes, i):
    return cells_of(nodes, range(1, i))


def _upto(nodes, i):
    return cells_of(nodes, range(1, i + 1))


def _now(nodes, i):
    return cells_of(nodes, [i])


def _side(nodes, i, mode):
    return _upto(nodes, i) if mode is ConditioningMode.CONTEMPORANEOUS else _past(nodes, i)


def _cmi(dist, xs, ys, zs) -> float:
    """I(X;Y|Z) as cached entropy combinations (0 when X or Y is empty)."""
    if not xs or not ys:
        return 0.0
    h = dist.entropy_of_cells
    return h(xs | zs) + h(ys | zs) - h(xs | ys | zs) - h(zs)


def _terms(measure, a, b, c, mode, i):
    """The time-``i`` term of ``measure`` as ``(xs, ys, zs)`` triples whose
    conditional mutual informations I(xs; ys | zs) add up to the term.

    ``di``   I(x_A^i ; x_B(i) | x_B^{i-1}, x_C^*)
    ``te``   I(x_A^{i-1} ; x_B(i) | x_B^{i-1}, x_C^*)
    ``iie``  I(x_A(i) ; x_B(i) | x_A^{i-1}, x_B^{i-1}, x_C^*)
    ``mi``   I(x_A(i) ; x_B^i | x_A^{i-1}, x_C^{i-1})
             + I(x_A^{i-1} ; x_B(i) | x_B^{i-1}, x_C^{i-1})

    The ``mi`` term always conditions on the strict past of C; by the chain
    rule it equals the causally conditioned mutual information term of
    :func:`causal_mutual_information`.
    """
    past_a, past_b = _past(a, i), _past(b, i)
    now_a, now_b = _now(a, i), _now(b, i)
    if measure == "mi":
        past_c = _past(c, i)
        return ((now_a, now_b | past_b, past_a | past_c),
                (past_a, now_b, past_b | past_c))
    side = _side(c, i, mode)
    if measure == "di":
        return ((past_a | now_a, now_b, past_b | side),)
    if measure == "te":
        return ((past_a, now_b, past_b | side),)
    if measure == "iie":
        return ((now_a, now_b, past_a | past_b | side),)
    raise ParamError(f"unknown measure {measure!r}")


def _steps(dist, measure, a, b, c, mode, n) -> list[float]:
    """Per-step terms of ``measure`` at times 1..n."""
    return [sum(_cmi(dist, *triple) for triple in _terms(measure, a, b, c, mode, i))
            for i in range(1, n + 1)]


def _summed(dist, measure, a, b, c, mode, n) -> MeasureValue:
    mode = _as_mode(mode)
    n = _check_groups(dist, n, a, b, c)
    return MeasureValue(value=sum(_steps(dist, measure, a, b, c, mode, n)),
                        horizon=n, kind=measure)


# ---------------------------------------------------------------------------
# elementary measures
# ---------------------------------------------------------------------------

def entropy(dist: SequenceDistribution, nodes, times) -> MeasureValue:
    """Shannon entropy (nats) of the marginal on ``nodes`` x ``times``."""
    cells = cells_of(nodes, times)
    if not cells:
        raise SelectionError("empty selection")
    for a, t in cells:
        dist.axis_of(a, t)
    times = sorted({t for _, t in cells})
    return MeasureValue(value=dist.entropy_of_cells(cells), horizon=times[-1], kind="entropy")


def mutual_information(dist, a_nodes, b_nodes, n=None) -> MeasureValue:
    """I(x_A^n ; x_B^n), symmetric in the two groups."""
    n = _check_groups(dist, n, a_nodes, b_nodes)
    value = _cmi(dist, _upto(a_nodes, n), _upto(b_nodes, n), frozenset())
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
    n = _check_groups(dist, n, a_nodes, b_nodes, c_nodes)
    strict = ConditioningMode.STRICT_PAST
    intrinsic = sum(_steps(dist, "iie", c_nodes, b_nodes, a_nodes, strict, n))
    extrinsic = sum(_steps(dist, "iie", c_nodes, b_nodes, (), strict, n))
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
    n = _check_groups(dist, n, a_nodes, b_nodes)
    if not 1 <= k <= n - 1:
        raise ParamError(f"target memory k={k} outside 1..{n - 1}")
    if not 1 <= l <= n - 1:
        raise ParamError(f"source memory l={l} outside 1..{n - 1}")
    value = _cmi(dist,
                 cells_of(a_nodes, range(n - l, n)),
                 _now(b_nodes, n),
                 cells_of(b_nodes, range(n - k, n)))
    return MeasureValue(value=value, horizon=n, kind="te")


# ---------------------------------------------------------------------------
# divergence forms
# ---------------------------------------------------------------------------

def _bivariate_view(dist, a_nodes, b_nodes, n):
    """Marginal law of the A,B nodes over times 1..n, with the positions of
    the two groups in the reduced table."""
    keep = sorted(set(int(a) for a in a_nodes) | set(int(b) for b in b_nodes))
    if keep == list(range(dist.n_nodes)) and n == dist.horizon:
        view = dist
    else:
        view = marginal(dist, keep, range(1, n + 1))
    pos = {node: idx for idx, node in enumerate(keep)}
    return view, [pos[int(a)] for a in a_nodes], [pos[int(b)] for b in b_nodes]


def _expand(view, cells):
    """Marginal over ``cells`` reshaped to broadcast against the full table."""
    if not cells:
        return np.ones(1)
    arr = view.cell_marginal(cells)
    shape = [1] * view.pmf.ndim
    for size, (a, t) in zip(arr.shape, sorted(set(cells), key=lambda c: (c[1], c[0]))):
        shape[view.axis_of(a, t)] = size
    return arr.reshape(shape)


def _conditional_factor(view, head_cells, given_cells):
    """p(head | given) broadcast to the full table shape, 0/0 -> 0."""
    num = _expand(view, frozenset(head_cells) | frozenset(given_cells))
    den = _expand(view, frozenset(given_cells))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    return out


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
    n = _check_groups(dist, n, a_nodes, b_nodes)
    view, a_pos, b_pos = _bivariate_view(dist, a_nodes, b_nodes, n)
    factorized = _expand(view, _upto(b_pos, n))
    for i in range(1, n + 1):
        factorized = factorized * _conditional_factor(
            view, _now(a_pos, i), _past(a_pos, i) | _past(b_pos, i))
    value = _kl_linear(view.pmf, factorized, "directed information")
    return MeasureValue(value=value, horizon=n, kind="di")


def lautum_transfer_rate(model_or_dist, a_nodes, b_nodes, n=None,
                         budget=None) -> MeasureValue:
    """Lautum transfer entropy rate
    (1/n) D( p(x_A^n || x_B^n) p(x_B^n)  ||  p(x_A^n, x_B^n) ):
    the per-sample loss from wrongly assuming A influences B when the
    influence-free law holds.  Arguments are reversed relative to
    :func:`kl_directed_information`.
    """
    if isinstance(model_or_dist, DiscreteMarkovModel):
        kwargs = {} if budget is None else {"budget": budget}
        if n is None:
            raise ParamError("horizon n is required when passing a model")
        dist = enumerate_joint(model_or_dist, n, **kwargs)
    else:
        dist = model_or_dist
    n = _check_groups(dist, n, a_nodes, b_nodes)
    view, a_pos, b_pos = _bivariate_view(dist, a_nodes, b_nodes, n)
    factorized = _expand(view, _upto(b_pos, n))
    for i in range(1, n + 1):
        factorized = factorized * _conditional_factor(
            view, _now(a_pos, i), _past(a_pos, i) | _upto(b_pos, i))
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
        return {
            "di_ab": self.di_ab, "di_ba": self.di_ba,
            "te_ab": self.te_ab, "te_ba": self.te_ba,
            "iie": self.iie, "mi": self.mi, "delta_cb": self.delta_cb,
            "residuals": dict(self.residuals),
            "horizon": self.horizon, "mode": self.mode.value,
        }


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
    """
    mode = _as_mode(mode)
    a, b, c = tuple(partition.a), tuple(partition.b), tuple(partition.c)
    n = _check_groups(dist, n, a, b, c)
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
    delta = total("iie", c, b, a) - total("iie", c, b) if c else 0.0

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
                             residuals=residuals, horizon=n, mode=mode)


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateEstimate:
    """Per-sample rate of a measure for a stationary model.

    ``value`` is the last conditional increment at ``n_max`` (the limit
    form of the rate for stationary processes); ``cesaro`` is the averaged
    sum.  ``gap`` is the change of the increment from ``n_max - 1`` to
    ``n_max``, the convergence diagnostic.
    """

    value: float
    horizon: int
    kind: str
    cesaro: float
    gap: float
    converged: bool

    def in_bits(self) -> float:
        return self.value / math.log(2.0)


_RATE_MEASURES = ("di", "te", "iie", "mi")


def rate(measure: str, model: DiscreteMarkovModel, a_nodes, b_nodes, c_nodes=(),
         mode=DEFAULT_MODE, n_max: int = 6, budget=None, tol: float = 1e-6) -> RateEstimate:
    """Information rate of ``measure`` for the stationary version of ``model``.

    The model is restarted from its stationary window law, enumerated up to
    ``n_max``, and the rate is read off as the last conditional increment;
    the Cesaro average over the horizon is reported alongside.  A change of
    the increment from ``n_max - 1`` above ``tol`` flags non-convergence
    without failing.
    """
    if measure not in _RATE_MEASURES:
        raise ParamError(f"measure must be one of {_RATE_MEASURES}, got {measure!r}")
    if n_max < 2:
        raise ParamError(f"a rate needs n_max >= 2 to compare two increments, got {n_max}")
    mode = _as_mode(mode)
    stationary = with_stationary_initial(model)
    kwargs = {} if budget is None else {"budget": budget}
    dist = enumerate_joint(stationary, n_max, **kwargs)
    n = _check_groups(dist, n_max, a_nodes, b_nodes, c_nodes)
    increments = _steps(dist, measure, a_nodes, b_nodes, c_nodes, mode, n)
    gap = abs(increments[-1] - increments[-2])
    return RateEstimate(value=increments[-1], horizon=n, kind="rate",
                        cesaro=sum(increments) / n, gap=gap, converged=gap <= tol)
