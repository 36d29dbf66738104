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

from .core import TimeSeriesPanel
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
    total = T + burn
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
    total = T + 2
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
    total = T + NONLINEAR_BURN_IN
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
    index = {lab: i for i, lab in enumerate(labels)}
    bias = {str(k): float(v) for k, v in (bias or {}).items()}
    resp = {}
    memory = 1
    for (src, dst), w in weights.items():
        w = np.atleast_1d(np.asarray(w, dtype=float))
        resp[(index[str(src)], index[str(dst)])] = w
        memory = max(memory, len(w))

    rng = np.random.default_rng(seed)
    d = len(labels)
    total = T + NONLINEAR_BURN_IN
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
    kernel = np.zeros((m * m, m * m))
    for a in range(m):
        for b in range(m):
            for a2 in range(m):
                for b2 in range(m):
                    kernel[a * m + b, a2 * m + b2] = p_a[a, a2] * p_b[a2, a, b, b2]
    initial = np.kron(rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m)))
    return DiscreteMarkovModel(alphabet_sizes=(m, m), order=1, kernel=kernel,
                               initial=initial, labels=("a", "b"))


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
# canonical discrete channels (enumerable reductions of the generators)
# ---------------------------------------------------------------------------

def _binary_channel(cond_b, cond_a=None, initial=None) -> DiscreteMarkovModel:
    """Bivariate binary order-1 kernel from per-step conditionals.

    ``cond_a(a_prev, b_prev)`` and ``cond_b(a_now, a_prev, b_prev)`` return
    the firing probabilities of the next symbols; defaults to a fresh fair
    coin for the source and a joint-uniform first sample.
    """
    if cond_a is None:
        cond_a = lambda a, b: 0.5
    kernel = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            pa1 = cond_a(a, b)
            for a2 in range(2):
                pa = pa1 if a2 == 1 else 1.0 - pa1
                pb1 = cond_b(a2, a, b)
                for b2 in range(2):
                    pb = pb1 if b2 == 1 else 1.0 - pb1
                    kernel[a * 2 + b, a2 * 2 + b2] = pa * pb
    if initial is None:
        initial = np.full(4, 0.25)
    return DiscreteMarkovModel(alphabet_sizes=(2, 2), order=1, kernel=kernel,
                               initial=np.asarray(initial, dtype=float), labels=("x", "y"))


def delay_channel(flip: float = 0.0) -> DiscreteMarkovModel:
    """y(i) = x(i-1) xor noise(flip); x i.i.d. fair, y(1) an independent
    fair coin (it has no parent)."""
    return _binary_channel(lambda a2, a, b: (1 - flip) if a == 1 else flip)


def copy_channel(flip: float = 0.0) -> DiscreteMarkovModel:
    """y(i) = x(i) xor noise(flip); x i.i.d. fair: purely instantaneous
    coupling, wired into the first sample as well."""
    initial = [0.5 * ((1 - flip) if y == x else flip)
               for x in range(2) for y in range(2)]
    return _binary_channel(lambda a2, a, b: (1 - flip) if a2 == 1 else flip,
                           initial=initial)


def common_driver_model(flip: float = 0.1, persistence: float = 0.2) -> DiscreteMarkovModel:
    """Three binary nodes (x, y, w): w is a sticky chain (flips with
    probability ``persistence``), x(i) = w(i) xor a(i), y(i) = w(i) xor b(i)
    with independent Bernoulli(flip) noises.

    x and y are instantaneously coupled through w only: the exchange
    conditioned on w's present vanishes while the bare exchange does not.
    The persistence makes the coupling-correction term nonzero when the
    driver's past is the extra conditioning.
    """
    def emission(w):
        out = np.zeros(8)
        for a in range(2):
            for b in range(2):
                x, y = w ^ a, w ^ b
                pa = flip if a == 1 else 1 - flip
                pb = flip if b == 1 else 1 - flip
                out[x * 4 + y * 2 + w] += pa * pb
        return out

    kernel = np.zeros((8, 8))
    for past in range(8):
        w_prev = past & 1
        for w in range(2):
            pw = persistence if w != w_prev else 1 - persistence
            kernel[past] += pw * emission(w)
    initial = 0.5 * (emission(0) + emission(1))
    return DiscreteMarkovModel(alphabet_sizes=(2, 2, 2), order=1, kernel=kernel,
                               initial=initial, labels=("x", "y", "w"))


def chain_markov_model(flip: float = 0.1) -> DiscreteMarkovModel:
    """Binary chain x -> y -> z: y(i) = x(i-1) xor noise, z(i) = y(i-1) xor
    noise; the enumerable reduction of :func:`gen_chain_example`."""
    kernel = np.zeros((8, 8))
    for x in range(2):
        for y in range(2):
            for z in range(2):
                row = x * 4 + y * 2 + z
                for x2 in range(2):
                    for y2 in range(2):
                        for z2 in range(2):
                            py = (1 - flip) if y2 == x else flip
                            pz = (1 - flip) if z2 == y else flip
                            kernel[row, x2 * 4 + y2 * 2 + z2] = 0.5 * py * pz
    return DiscreteMarkovModel(alphabet_sizes=(2, 2, 2), order=1, kernel=kernel,
                               initial=np.full(8, 1 / 8), labels=("x", "y", "z"))


def lag2_channel(flip: float = 0.1) -> DiscreteMarkovModel:
    """Bivariate order-2 model where y(i) depends on x(i-2) only."""
    M = 4
    kernel = np.zeros((M * M, M))
    for past1 in range(M):      # joint symbol at t-2
        x_lag2 = past1 >> 1
        for past2 in range(M):  # joint symbol at t-1
            row = past1 * M + past2
            for nxt in range(M):
                x2, y2 = nxt >> 1, nxt & 1
                py = (1 - flip) if y2 == x_lag2 else flip
                kernel[row, nxt] = 0.5 * py
    return DiscreteMarkovModel(alphabet_sizes=(2, 2), order=2, kernel=kernel,
                               initial=np.full(M * M, 1 / (M * M)), labels=("x", "y"))
