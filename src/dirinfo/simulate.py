"""Seeded generators for the worked examples plus random model factories.

Every generator is deterministic given (config, seed) and returns the panel
together with a machine-readable ground-truth graph encoded at generation
time: directed edges where a coupling coefficient is structurally nonzero,
instantaneous pairs where same-time dependence is wired in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TimeSeriesPanel, _node_index
from .errors import ParamError, UnstableModel
from .discrete import DiscreteMarkovModel
from .gaussian import VarModel

NONLINEAR_BURN_IN = 1000


@dataclass(frozen=True)
class GroundTruth:
    """Edges that the generating mechanism actually contains, relative to
    the generated node set."""

    directed: frozenset[tuple[str, str]]
    instantaneous: frozenset[frozenset[str]]
    relative_to: tuple[str, ...]

    def __post_init__(self):
        nodes = set(self.relative_to)
        for a, b in self.directed:
            if a not in nodes or b not in nodes:
                raise ParamError(f"directed edge ({a}, {b}) references unknown node")
        for pair in self.instantaneous:
            if not set(pair) <= nodes:
                raise ParamError(f"instantaneous pair {set(pair)} references unknown node")

    def to_json(self) -> dict:
        return {
            "directed": sorted([a, b] for a, b in self.directed),
            "instantaneous": sorted(sorted(p) for p in self.instantaneous),
            "relative_to": list(self.relative_to),
        }


def _truth(labels, directed, instantaneous=()) -> GroundTruth:
    return GroundTruth(
        directed=frozenset((str(a), str(b)) for a, b in directed),
        instantaneous=frozenset(frozenset(map(str, p)) for p in instantaneous),
        relative_to=tuple(labels),
    )


def _samples(T, burn_in):
    """Samples to draw for ``T`` kept rows after ``burn_in`` discarded ones."""
    if not T >= 1:
        raise ParamError(f"T must be >= 1, got {T!r}")
    return T + burn_in


# ---------------------------------------------------------------------------
# linear Gaussian
# ---------------------------------------------------------------------------

def _mixing_length(radius: float) -> int:
    if radius <= 0.0:
        return 1
    return max(1, math.ceil(1.0 / -math.log(radius)))


def gen_var(model: VarModel, T: int, seed) -> tuple[TimeSeriesPanel, GroundTruth]:
    """Simulate a stable VAR; burn-in is ten mixing lengths.

    Truth: a -> b iff some lag coefficient from a to b is nonzero;
    {a, b} instantaneous iff the noise covariance couples them.
    """
    if not model.is_stable:
        raise UnstableModel(f"spectral radius {model.spectral_radius:.4f} >= 1")
    rng = np.random.default_rng(seed)
    p, d = model.order, model.n_nodes
    burn = max(p, 10 * _mixing_length(model.spectral_radius))
    total = _samples(T, burn)
    chol = np.linalg.cholesky(model.noise_cov)
    # each innovation row becomes x(t) in place
    x = rng.standard_normal((total, d)) @ chol.T
    coeffs = model.coeffs
    for t in range(total):
        acc = x[t]
        for j in range(1, min(t, p) + 1):
            acc += coeffs[j - 1] @ x[t - j]
    labels = model.labels
    directed = [(labels[a], labels[b])
                for a in range(d) for b in range(d)
                if a != b and np.any(model.coeffs[:, b, a] != 0.0)]
    instantaneous = [(labels[a], labels[b])
                     for a in range(d) for b in range(a + 1, d)
                     if model.noise_cov[a, b] != 0.0]
    panel = TimeSeriesPanel(values=x[burn:], labels=labels)
    return panel, _truth(labels, directed, instantaneous)


def gen_chain_example(T: int, seed, noise_scales=(1.0, 1.0)) -> tuple[TimeSeriesPanel, GroundTruth]:
    """The chain x -> y -> z: y(n+1) = x(n) + e, z(n+1) = y(n) + h.

    Relative to {x, y, z} the truth is exactly {x->y, y->z}; x does not
    cause z once y is observed.
    """
    se, sh = float(noise_scales[0]), float(noise_scales[1])
    if se <= 0 or sh <= 0:
        raise ParamError("noise scales must be positive")
    rng = np.random.default_rng(seed)
    total = _samples(T, 2)
    x = rng.standard_normal(total)
    eps = rng.standard_normal(total) * se
    eta = rng.standard_normal(total) * sh
    y = np.empty(total)
    z = np.empty(total)
    y[0] = eps[0]
    z[0] = eta[0]
    y[1:] = x[:-1] + eps[1:]
    z[1:] = y[:-1] + eta[1:]
    values = np.column_stack([x, y, z])[2:]
    labels = ("x", "y", "z")
    panel = TimeSeriesPanel(values=values, labels=labels)
    return panel, _truth(labels, [("x", "y"), ("y", "z")])


def gen_nonlinear_example(alpha: float, beta: float, T: int, seed) -> tuple[TimeSeriesPanel, GroundTruth]:
    """x(n+1) = alpha x(n) + beta y(n)^2 + e(n+1) with i.i.d. Gaussian y, e.

    y drives x through a square, so x(n+1) and y(n) are uncorrelated: a
    linear test is blind to the true y -> x edge.
    """
    if not abs(alpha) < 1:
        raise ParamError("|alpha| < 1 required for stationarity")
    rng = np.random.default_rng(seed)
    total = _samples(T, NONLINEAR_BURN_IN)
    y = rng.standard_normal(total)
    eps = rng.standard_normal(total)
    drive = np.zeros(total)
    drive[1:] = beta * y[:-1] ** 2 + eps[1:]
    # lfilter([1], [1, -alpha], drive)'s arithmetic, without scipy.signal
    x, level = [], 0.0
    for d in drive.tolist():
        level = alpha * level + d
        x.append(level)
    values = np.column_stack([x, y])[NONLINEAR_BURN_IN:]
    labels = ("x", "y")
    directed = [("y", "x")] if beta != 0.0 else []
    panel = TimeSeriesPanel(values=values, labels=labels)
    return panel, _truth(labels, directed)


def gen_glm_spiking(weights: dict, T: int, seed, labels=None,
                    bias=None) -> tuple[TimeSeriesPanel, GroundTruth]:
    """Binary spiking network: Pr(x_b(t)=1 | history) = logistic(bias_b +
    sum of lagged inputs), sampled sequentially.

    ``weights`` maps (source, target) label pairs to impulse responses
    (entry i applies at lag i+1).  Spikes are conditionally independent
    given the history, so the truth graph has no instantaneous pairs.
    """
    if labels is None:
        labels = sorted({lab for pair in weights for lab in pair})
    labels = tuple(str(x) for x in labels)
    bias = {str(k): float(v) for k, v in (bias or {}).items()}
    resp = {}
    memory = 1
    for (src, dst), w in weights.items():
        w = np.atleast_1d(np.asarray(w, dtype=float))
        resp[(_node_index(labels, src), _node_index(labels, dst))] = w
        memory = max(memory, len(w))

    rng = np.random.default_rng(seed)
    d = len(labels)
    total = _samples(T, NONLINEAR_BURN_IN)
    x = np.zeros((total, d), dtype=np.int64)
    bias_vec = np.array([bias.get(lab, 0.0) for lab in labels])
    uniforms = rng.random((total, d))
    for t in range(total):
        drive = bias_vec.copy()
        for (a, b), w in resp.items():
            for lag in range(1, min(len(w), t) + 1):
                drive[b] += w[lag - 1] * x[t - lag, a]
        prob = 1.0 / (1.0 + np.exp(-drive))
        x[t] = uniforms[t] < prob
    directed = [(labels[a], labels[b]) for (a, b), w in resp.items()
                if a != b and np.any(w != 0.0)]
    panel = TimeSeriesPanel(values=x[NONLINEAR_BURN_IN:], labels=labels)
    return panel, _truth(labels, directed)


# ---------------------------------------------------------------------------
# random model factories
# ---------------------------------------------------------------------------

def random_markov_model(seed, nodes: int = 2, alphabet: int = 2, order: int = 1,
                        concentration: float = 1.0) -> DiscreteMarkovModel:
    """Dirichlet-random joint kernel and initial law."""
    rng = np.random.default_rng(seed)
    M = alphabet ** nodes
    kernel = rng.dirichlet(np.full(M, concentration), size=M ** order)
    initial = rng.dirichlet(np.full(M ** order, concentration))
    return DiscreteMarkovModel(alphabet_sizes=(alphabet,) * nodes, order=order,
                               kernel=kernel, initial=initial,
                               labels=tuple(f"x{i}" for i in range(nodes)))


def random_feedback_free_model(seed, alphabet: int = 2) -> DiscreteMarkovModel:
    """Bivariate order-1 model where the source evolves autonomously:
    p(a', b' | a, b) = p(a' | a) p(b' | a', a, b), so the link A -> B carries
    no feedback and mutual information equals directed information."""
    rng = np.random.default_rng(seed)
    m = alphabet
    p_a = rng.dirichlet(np.ones(m), size=m)                # p(a' | a)
    p_b = rng.dirichlet(np.ones(m), size=(m, m, m))        # p(b' | a', a, b)
    u, v = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m))  # p(a), p(b) at time 1
    return _from_laws((m, m), 1, ("a", "b"), lambda a, b, a2, b2: p_a[a, a2] * p_b[a2, a, b, b2],
                      lambda a, b: u[a] * v[b])


def random_var_model(seed, nodes: int = 2, order: int = 1, radius: float = 0.8,
                     noise_corr: float = 0.0, labels=None) -> VarModel:
    """Random stable VAR with the companion spectral radius rescaled to
    ``radius`` and exchangeable noise correlation ``noise_corr``."""
    if not 0.0 < radius < 1.0:
        raise ParamError("radius must be in (0, 1)")
    rng = np.random.default_rng(seed)
    d = nodes
    coeffs = rng.normal(size=(order, d, d)) * 0.4
    if labels is None:
        labels = tuple(f"x{i}" for i in range(d))
    probe = VarModel(order=order, coeffs=coeffs, noise_cov=np.eye(d), labels=labels)
    rho = probe.spectral_radius
    if rho > 0:
        coeffs = coeffs * (radius / rho)
        probe = VarModel(order=order, coeffs=coeffs, noise_cov=np.eye(d), labels=labels)
        # rescaling all lags by one factor is not exactly radius-preserving
        # for order > 1; nudge until inside
        while probe.spectral_radius >= 1.0:
            coeffs = coeffs * 0.9
            probe = VarModel(order=order, coeffs=coeffs, noise_cov=np.eye(d), labels=labels)
    noise = np.full((d, d), float(noise_corr))
    np.fill_diagonal(noise, 1.0)
    return VarModel(order=order, coeffs=coeffs, noise_cov=noise, labels=labels)


# ---------------------------------------------------------------------------
# canonical discrete channels (enumerable reductions of the generators): the
# nodes' conditional laws broadcast over one index grid per (time, node) cell
# ---------------------------------------------------------------------------

def _from_laws(sizes, order, labels, kernel_law, initial_law=None) -> DiscreteMarkovModel:
    """Model from laws of open index grids, one per (time, node) cell in the
    window layout of :class:`DiscreteMarkovModel`: ``kernel_law`` takes those
    of the ``order`` past samples and the next one, ``initial_law`` (default
    uniform) those of the first ``order``."""
    M = math.prod(sizes)
    laws = ((kernel_law, order + 1), (initial_law or (lambda *cells: 1 / M ** order), order))
    kernel, initial = (np.broadcast_to(law(*np.indices(sizes * n, sparse=True)), sizes * n)
                       for law, n in laws)
    return DiscreteMarkovModel(alphabet_sizes=sizes, order=order, labels=labels,
                               kernel=kernel.reshape(M ** order, M), initial=initial.ravel())


def _flip(p):
    """Law of a bit copied through a flip: entry [x, y] is 1 - p if y == x, else p."""
    return np.array([[1 - p, p], [p, 1 - p]], dtype=float)


def _bernoulli(p):
    """Laws of bits that are 1 with probabilities ``p``, on a new last axis;
    the zero outcome is 1 - p, which can differ from ``_flip``'s in the last bit."""
    return np.stack([1.0 - p, p], axis=-1)


def delay_channel(flip: float = 0.0) -> DiscreteMarkovModel:
    """y(i) = x(i-1) xor noise(flip); x i.i.d. fair, y(1) an independent
    fair coin (it has no parent)."""
    fire = _bernoulli(_flip(flip)[:, 1])
    return _from_laws((2, 2), 1, ("x", "y"), lambda x, y, x2, y2: 0.5 * fire[x, y2])


def copy_channel(flip: float = 0.0) -> DiscreteMarkovModel:
    """y(i) = x(i) xor noise(flip); x i.i.d. fair: purely instantaneous
    coupling, wired into the first sample as well."""
    fire = _bernoulli(_flip(flip)[:, 1])
    return _from_laws((2, 2), 1, ("x", "y"), lambda x, y, x2, y2: 0.5 * fire[x2, y2],
                      lambda x, y: 0.5 * _flip(flip)[x, y])


def common_driver_model(flip: float = 0.1, persistence: float = 0.2) -> DiscreteMarkovModel:
    """Three binary nodes (x, y, w): w is a sticky chain (flips with
    probability ``persistence``), x(i) = w(i) xor a(i), y(i) = w(i) xor b(i)
    with independent Bernoulli(flip) noises.

    x and y are instantaneously coupled through w only: the exchange
    conditioned on w's present vanishes while the bare exchange does not.
    The persistence makes the coupling-correction term nonzero when the
    driver's past is the extra conditioning.
    """
    noise, stay = _flip(flip), _flip(persistence)
    return _from_laws((2, 2, 2), 1, ("x", "y", "w"),
                      lambda x0, y0, w0, x, y, w: stay[w0, w] * (noise[w, x] * noise[w, y]),
                      lambda x, y, w: 0.5 * (noise[w, x] * noise[w, y]))


def chain_markov_model(flip: float = 0.1) -> DiscreteMarkovModel:
    """Binary chain x -> y -> z: y(i) = x(i-1) xor noise, z(i) = y(i-1) xor
    noise; the enumerable reduction of :func:`gen_chain_example`."""
    step = _flip(flip)
    return _from_laws((2, 2, 2), 1, ("x", "y", "z"),
                      lambda x, y, z, x2, y2, z2: 0.5 * step[x, y2] * step[y, z2])


def lag2_channel(flip: float = 0.1) -> DiscreteMarkovModel:
    """Bivariate order-2 model where y(i) depends on x(i-2) only."""
    step = _flip(flip)
    return _from_laws((2, 2), 2, ("x", "y"), lambda x1, y1, x2, y2, x3, y3: 0.5 * step[x1, y3])
