import numpy as np
import pytest

import reference
from dirinfo import simulate
from dirinfo.discrete import DiscreteMarkovModel, enumerate_joint
from dirinfo.errors import ParamError, UnstableModel
from dirinfo.gaussian import VarModel
from dirinfo.measures import delayed_directed_information
from dirinfo.simulate import (
    NONLINEAR_BURN_IN,
    GroundTruth,
    chain_markov_model,
    delay_channel,
    gen_chain_example,
    gen_glm_spiking,
    gen_nonlinear_example,
    gen_var,
    random_var_model,
)


def test_ground_truth_validates_nodes():
    with pytest.raises(ParamError):
        GroundTruth(directed=frozenset({("a", "q")}), instantaneous=frozenset(),
                    relative_to=("a", "b"))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_generators_deterministic():
    for gen in (lambda s: gen_chain_example(300, seed=s),
                lambda s: gen_nonlinear_example(0.5, 1.0, 300, seed=s),
                lambda s: gen_glm_spiking({("a", "b"): [1.0]}, 300, seed=s,
                                          labels=["a", "b"]),
                lambda s: gen_var(random_var_model(3, nodes=2), 300, seed=s)):
        one, t1 = gen(42)
        two, t2 = gen(42)
        assert np.array_equal(one.values, two.values)
        assert t1 == t2


@pytest.mark.parametrize("T", [0, -5, -5000])
@pytest.mark.parametrize("gen", [
    lambda T: gen_chain_example(T, seed=1),
    lambda T: gen_nonlinear_example(0.5, 1.0, T, seed=1),
    lambda T: gen_var(random_var_model(3, nodes=2), T, seed=1),
    lambda T: gen_glm_spiking({("a", "b"): [1.0]}, T, seed=1),
], ids=["chain", "nonlinear", "var", "glm"])
def test_generators_refuse_a_length_below_1(gen, T):
    with pytest.raises(ParamError, match=f"T must be >= 1, got {T}"):
        gen(T)


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------

def test_chain_truth_excludes_indirect_edge():
    _, truth = gen_chain_example(100, seed=0)
    assert truth.directed == {("x", "y"), ("y", "z")}
    assert ("x", "z") not in truth.directed
    assert truth.instantaneous == frozenset()
    assert truth.relative_to == ("x", "y", "z")


def test_chain_relative_to_pair_x_causes_z():
    # dropping y from the observation set revives the x -> z dependence:
    # on the enumerable reduction, the bare transfer entropy is positive
    # while the y-conditioned one vanishes
    dist = enumerate_joint(chain_markov_model(0.1), 5)
    bare = delayed_directed_information(dist, (0,), (2,), 5).value
    conditioned = delayed_directed_information(dist, (0,), (2,), 5, (1,)).value
    assert bare > 0.01
    assert abs(conditioned) < 1e-9


def test_chain_noise_scales_validated():
    with pytest.raises(ParamError):
        gen_chain_example(100, seed=1, noise_scales=(0.0, 1.0))


# ---------------------------------------------------------------------------
# canonical discrete models
# ---------------------------------------------------------------------------

FLIPS = (0, 0.05, 0.1, 0.2, 0.3, 1 / 3, 0.5, 0.7, 1)
FACTORY_GRID = {
    "delay_channel": [(f,) for f in FLIPS],
    "copy_channel": [(f,) for f in FLIPS],
    "chain_markov_model": [(f,) for f in FLIPS],
    "lag2_channel": [(f,) for f in FLIPS],
    "common_driver_model": [(f, p) for f in FLIPS for p in (0, 0.1, 0.2, 0.45, 1)],
    "random_feedback_free_model": [(s, m) for s in range(30) for m in (2, 3, 4)],
}


@pytest.mark.parametrize("name", sorted(FACTORY_GRID))
def test_factories_match_entrywise_loops(name):
    # each broadcast law fills every kernel and initial entry with the same
    # arithmetic as the reference's per-entry loops, so the bytes agree
    for args in FACTORY_GRID[name]:
        got, want = getattr(simulate, name)(*args), getattr(reference, name)(*args)
        assert (got.alphabet_sizes, got.order, got.labels) == \
            (want.alphabet_sizes, want.order, want.labels)
        assert got.kernel.tobytes() == want.kernel.tobytes(), (name, args)
        assert got.initial.tobytes() == want.initial.tobytes(), (name, args)


# ---------------------------------------------------------------------------
# nonlinear example
# ---------------------------------------------------------------------------

def test_nonlinear_truth():
    _, truth = gen_nonlinear_example(0.5, 1.0, 100, seed=0)
    assert truth.directed == {("y", "x")}
    _, empty = gen_nonlinear_example(0.5, 0.0, 100, seed=0)
    assert empty.directed == frozenset()


def test_nonlinear_zero_lagged_covariance():
    # the quadratic coupling is invisible to covariance: cov(x(n+1), y(n)) = 0
    panel, _ = gen_nonlinear_example(0.5, 1.0, 20_000, seed=3)
    x, y = panel.values[:, 0], panel.values[:, 1]
    T = len(x) - 1
    c = np.mean((x[1:] - x.mean()) * (y[:-1] - y.mean()))
    # var(x(n+1) y(n)) / T bounds the estimator variance
    se = np.sqrt(np.var(x[1:] * y[:-1]) / T)
    assert abs(c) < 3 * se


@pytest.mark.parametrize("T", [1, 500, 20_000])
@pytest.mark.parametrize("alpha", [-0.8, 0, 0.5, 0.99])
@pytest.mark.parametrize("seed", [0, 3, 1009])
def test_nonlinear_filter_matches_lfilter(seed, alpha, T):
    # the AR(1) recursion does lfilter's arithmetic, so the panel is the
    # same bit for bit
    panel, _ = gen_nonlinear_example(alpha, 1.0, T, seed)
    want = reference.nonlinear_example_values(alpha, 1.0, T, seed, NONLINEAR_BURN_IN)
    assert panel.values.dtype == want.dtype and panel.values.shape == want.shape
    assert panel.values.tobytes() == want.tobytes()


def test_nonlinear_alpha_range():
    with pytest.raises(ParamError):
        gen_nonlinear_example(1.0, 1.0, 100, seed=0)


def test_nonlinear_quantized_te_beats_surrogates():
    from dirinfo.core import symbolize
    from dirinfo.inference import DiscreteMarkovFamily, llr_causality

    panel, _ = gen_nonlinear_example(0.5, 1.0, 20_000, seed=5)
    sym = symbolize(panel, bins=8, scheme="equal_frequency")
    res = llr_causality(sym, ["y"], ["x"], family=DiscreteMarkovFamily(order=1),
                        calibration="surrogate", surrogates=100, seed=8, alpha=0.05)
    assert res.decision == "reject_H0"


# ---------------------------------------------------------------------------
# GLM spiking
# ---------------------------------------------------------------------------

def test_glm_zero_weights_independent():
    panel, truth = gen_glm_spiking({("a", "b"): [0.0]}, 20_000, seed=2,
                                   labels=["a", "b"])
    assert truth.directed == frozenset()
    a, b = panel.values[:, 0], panel.values[:, 1]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 3 / np.sqrt(len(a))


def test_glm_firing_rate_matches_decision_function_at_zero_bias():
    panel, _ = gen_glm_spiking({("a", "b"): [0.0]}, 50_000, seed=7,
                               labels=["a", "b"])
    rate = panel.values.mean(axis=0)
    se = np.sqrt(0.25 / panel.n_samples)
    assert np.all(np.abs(rate - 0.5) < 3 * se)


def test_glm_coupled_pair_detected():
    from dirinfo.inference import DiscreteMarkovFamily, llr_causality

    panel, truth = gen_glm_spiking({("a", "b"): [1.0]}, 10_000, seed=4,
                                   labels=["a", "b"])
    assert truth.directed == {("a", "b")}
    res = llr_causality(panel, ["a"], ["b"], family=DiscreteMarkovFamily(order=1),
                        calibration="surrogate", surrogates=100, seed=11)
    assert res.decision == "reject_H0"


# ---------------------------------------------------------------------------
# VAR generator
# ---------------------------------------------------------------------------

def test_gen_var_truth_reads_structure():
    coeffs = np.zeros((1, 3, 3))
    coeffs[0, 1, 0] = 0.4  # x0 -> x1
    coeffs[0, 2, 1] = 0.4  # x1 -> x2
    np.fill_diagonal(coeffs[0], 0.3)
    model = VarModel(order=1, coeffs=coeffs, noise_cov=np.eye(3),
                     labels=("x0", "x1", "x2"))
    _, truth = gen_var(model, 200, seed=0)
    assert truth.directed == {("x0", "x1"), ("x1", "x2")}
    assert truth.instantaneous == frozenset()


def test_gen_var_diagonal_model_empty_truth():
    model = VarModel(order=1, coeffs=np.array([[[0.5, 0.0], [0.0, 0.4]]]),
                     noise_cov=np.eye(2), labels=("a", "b"))
    _, truth = gen_var(model, 200, seed=0)
    assert truth.directed == frozenset() and truth.instantaneous == frozenset()


def test_gen_var_rejects_unstable():
    model = VarModel(order=1, coeffs=np.array([[[1.01, 0.0], [0.0, 0.5]]]),
                     noise_cov=np.eye(2), labels=("a", "b"))
    with pytest.raises(UnstableModel):
        gen_var(model, 100, seed=0)


def test_gen_var_moments_match_model():
    model = random_var_model(6, nodes=2, order=1, noise_corr=0.4)
    panel, _ = gen_var(model, 200_000, seed=6)
    x = panel.values - panel.values.mean(axis=0)
    emp = x.T @ x / x.shape[0]
    assert np.max(np.abs(emp - reference.autocovariance(model, 0)[0])) < 0.03


# ---------------------------------------------------------------------------
# generated-truth soundness on enumerable reductions
# ---------------------------------------------------------------------------

def glm_reduction(weight):
    """Exact binary Markov model of the two-neuron GLM with lag-1 weight."""
    def sigmoid(u):
        return 1.0 / (1.0 + np.exp(-u))

    kernel = np.zeros((4, 4))
    for past in range(4):
        a_prev = past >> 1
        pa, pb = sigmoid(0.0), sigmoid(weight * a_prev)
        for nxt in range(4):
            a2, b2 = nxt >> 1, nxt & 1
            kernel[past, nxt] = (pa if a2 else 1 - pa) * (pb if b2 else 1 - pb)
    return DiscreteMarkovModel(alphabet_sizes=(2, 2), order=1, kernel=kernel,
                               initial=np.full(4, 0.25), labels=("a", "b"))


@pytest.mark.parametrize("model,truth_pairs", [
    (chain_markov_model(0.1), {(0, 1), (1, 2)}),
    (delay_channel(0.1), {(0, 1)}),
    (glm_reduction(2.0), {(0, 1)}),
])
def test_truth_soundness_on_reductions(model, truth_pairs):
    dist = enumerate_joint(model, 5)
    d = model.n_nodes
    for a in range(d):
        for b in range(d):
            if a == b:
                continue
            c = tuple(i for i in range(d) if i not in (a, b))
            te = delayed_directed_information(dist, (a,), (b,), 5, c).value
            if (a, b) in truth_pairs:
                assert te > 1e-3, f"edge {(a, b)} should carry flow"
            else:
                assert abs(te) < 1e-9, f"edge {(a, b)} should be silent"
