import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats

import oracle
import reference
from conftest import oracle_law
from dirinfo import inference
from dirinfo.core import TimeSeriesPanel, symbolize
from dirinfo.errors import (
    CalibrationError,
    ParamError,
    PartitionError,
    RateNotConverged,
    SingularDesign,
)
from dirinfo.inference import (
    DiscreteMarkovFamily,
    GlmSpikingFamily,
    VarFamily,
    bonferroni_count,
    family_from_spec,
    generalized_llr,
    infer_graph,
    llr_causality,
    llr_coupling,
    stein_exponent_check,
)
from dirinfo.measures import ConditioningMode, rate
from dirinfo.simulate import (
    chain_markov_model,
    copy_channel,
    delay_channel,
    gen_chain_example,
    gen_glm_spiking,
    gen_nonlinear_example,
    gen_var,
    lag2_channel,
    random_markov_model,
    random_var_model,
)
from dirinfo.discrete import sample_codes, sample_panel, with_stationary_initial


def iid_panel(T, seed, nodes=2):
    rng = np.random.default_rng(seed)
    labels = tuple(f"x{i}" for i in range(nodes))
    return TimeSeriesPanel(values=rng.integers(0, 2, size=(T, nodes)), labels=labels)


# ---------------------------------------------------------------------------
# result plumbing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("df", [0.0, 0.5, 1.0, 1.7, 2.0, 3.3, 7.0, 12.45, 40.0])
def test_chi_square_sf_matches_scipy(df):
    """The p-value shortcut equals ``stats.chi2.sf`` bit for bit, for the
    integer Wilks and non-integer Satterthwaite dof, and outside the
    support (x <= 0, NaN, df = 0)."""
    xs = [-1e-17, -1.0, 0.0, 1e-300, 1e-8, 0.3, 1.0, 2.5, 9.9, 31.4, 250.0, np.inf, np.nan]
    got = [inference._chi_square_sf(x, df) for x in xs]
    np.testing.assert_array_equal(got, stats.chi2.sf(xs, df))


def test_decision_matches_threshold_rule():
    res = llr_causality(iid_panel(2000, 0), ["x0"], ["x1"],
                        family=DiscreteMarkovFamily())
    assert (res.decision == "reject_H0") == (res.statistic > res.threshold)
    assert res.p_value is not None and 0.0 <= res.p_value <= 1.0
    assert res.dof == 2 and res.calibration == "chi_square"


def test_family_spec_parsing():
    assert isinstance(family_from_spec("discrete", order=2), DiscreteMarkovFamily)
    assert isinstance(family_from_spec("var", order=3), VarFamily)
    assert isinstance(family_from_spec("glm", order=2), GlmSpikingFamily)
    with pytest.raises(ParamError):
        family_from_spec("kernel")


def test_groups_must_be_disjoint():
    with pytest.raises(PartitionError):
        llr_causality(iid_panel(500, 1), ["x0"], ["x0"], family=VarFamily())


@pytest.mark.parametrize("family", [DiscreteMarkovFamily(smoothing=0.0), VarFamily()])
@pytest.mark.parametrize("seed", range(5))
def test_nested_llr_nonnegative(family, seed):
    if isinstance(family, VarFamily):
        rng = np.random.default_rng(seed)
        panel = TimeSeriesPanel(values=rng.standard_normal((400, 3)),
                                labels=("x0", "x1", "x2"))
    else:
        panel = iid_panel(400, seed, nodes=3)
    res = llr_causality(panel, ["x0"], ["x1"], ["x2"], family=family)
    assert res.statistic >= -1e-10
    resc = llr_coupling(panel, ["x0"], ["x1"], ["x2"], family=family)
    assert resc.statistic >= -1e-10


# ---------------------------------------------------------------------------
# convergence to information rates
# ---------------------------------------------------------------------------

def test_causality_statistic_estimates_conditional_te_rate():
    model = with_stationary_initial(chain_markov_model(0.1))
    te = rate("te", model, (0,), (1,), (2,), n_max=5).value
    panel = sample_panel(model, 100_000, seed=3)
    res = llr_causality(panel, ["x"], ["y"], ["z"], family=DiscreteMarkovFamily(order=1))
    assert abs(res.statistic - te) / te < 0.05


def test_coupling_statistic_estimates_iie_rate():
    model = copy_channel(0.1)
    iie = rate("iie", model, (0,), (1,), n_max=5).value
    panel = sample_panel(model, 100_000, seed=4)
    res = llr_coupling(panel, ["x"], ["y"], family=DiscreteMarkovFamily(order=1))
    assert abs(res.statistic - iie) / iie < 0.05


def test_var_coupling_detects_noise_correlation():
    from dirinfo.simulate import gen_var, random_var_model

    model = random_var_model(5, nodes=2, order=1, noise_corr=0.5)
    panel, _ = gen_var(model, 20_000, seed=5)
    res = llr_coupling(panel, ["x0"], ["x1"], family=VarFamily(order=1))
    assert res.decision == "reject_H0"
    # statistic estimates the Gaussian exchange rate -0.5 log(1 - rho^2)
    want = -0.5 * math.log(1 - 0.5**2)
    assert abs(res.statistic - want) < 0.02


# ---------------------------------------------------------------------------
# surrogate calibration
# ---------------------------------------------------------------------------

def test_surrogate_needs_enough_replicas():
    with pytest.raises(CalibrationError):
        llr_causality(iid_panel(500, 2), ["x0"], ["x1"],
                      family=DiscreteMarkovFamily(), calibration="surrogate",
                      surrogates=10, seed=0)


def test_surrogate_deterministic_given_seed():
    panel = sample_panel(delay_channel(0.2), 5000, seed=6)
    kwargs = dict(family=DiscreteMarkovFamily(), calibration="surrogate",
                  surrogates=50, seed=123)
    one = llr_causality(panel, ["x"], ["y"], **kwargs)
    two = llr_causality(panel, ["x"], ["y"], **kwargs)
    assert one == two


def test_surrogate_detects_strong_coupling():
    panel = sample_panel(delay_channel(0.1), 10_000, seed=7)
    res = llr_causality(panel, ["x"], ["y"], family=DiscreteMarkovFamily(),
                        calibration="surrogate", surrogates=100, seed=1)
    assert res.decision == "reject_H0"
    assert res.p_value == pytest.approx(1 / 101)


def test_surrogate_default_count_covers_level():
    """Without a count, a surrogate test draws enough for its level; an
    explicit count too small for it still raises."""
    panel, _ = gen_chain_example(1000, seed=2)
    kwargs = dict(family=VarFamily(), alpha=0.001, calibration="surrogate", seed=0)
    res = llr_coupling(panel, ["x"], ["y"], ["z"], **kwargs)
    assert res.p_value >= 1 / (inference.min_surrogates(0.001) + 1)
    assert math.isfinite(res.threshold)
    with pytest.raises(CalibrationError, match="at least 999 surrogates, got 998"):
        llr_causality(panel, ["x"], ["y"], ["z"], surrogates=998, **kwargs)


def test_surrogate_level_needs_enough_replicas():
    # ceil(0.999 * 201) = 201 > 200: no finite (1 - alpha) quantile exists
    with pytest.raises(CalibrationError, match="at least 999 surrogates, got 200"):
        llr_causality(iid_panel(500, 2), ["x0"], ["x1"], family=DiscreteMarkovFamily(),
                      alpha=0.001, calibration="surrogate", surrogates=200, seed=0)


def test_graph_surrogate_level_checked_before_any_edge(monkeypatch):
    def edge(*args, **kwargs):
        raise AssertionError("an edge ran")

    monkeypatch.setattr(inference, "_causality_test", edge)
    monkeypatch.setattr(inference, "_coupling_test", edge)
    panel, _ = gen_chain_example(500, seed=3)
    with pytest.raises(CalibrationError, match="got 200"):
        infer_graph(panel, VarFamily(), calibration="surrogate", surrogates=200, seed=1)


def _surrogate_case(family, kind, a_idx, c_idx, mode, order):
    """Package statistic function, panel data and a per-panel reference
    statistic for one test of x1 on the 3-node chain."""
    b_idx = (1,)
    panel, _ = gen_chain_example(3000, seed=31)
    if family == "discrete":
        fam = DiscreteMarkovFamily(order=order)
        data = inference._prepare(symbolize(panel, 3, "equal_frequency"), fam, "test")
        if kind == "causality":
            stat_of = inference._discrete_causality(data, a_idx, b_idx, c_idx, order,
                                                    fam.smoothing)[0]
            ref = lambda v: reference.discrete_causality_stat(  # noqa: E731
                v, data.sizes, a_idx, b_idx, c_idx, order, fam.smoothing)
        else:
            stat_of = inference._discrete_coupling(data, a_idx, b_idx, c_idx, order,
                                                   fam.smoothing, mode)[0]
            ref = lambda v: reference.discrete_coupling_stat(  # noqa: E731
                v, data.sizes, a_idx, b_idx, c_idx, order, fam.smoothing,
                mode is ConditioningMode.CONTEMPORANEOUS)
        return stat_of, data, ref
    data = inference._prepare(panel, VarFamily(order=order), "test")

    def ref(values):
        # the single-panel statistic on a Gram built from the permuted panel
        g = inference._LaggedGram(values, order)
        if kind == "causality":
            return inference._var_causality(g, a_idx, b_idx, c_idx)[0](None)[0]
        return inference._var_coupling(g, a_idx, b_idx, c_idx, mode)[0](None)[0]

    if kind == "causality":
        stat_of = inference._var_causality(data, a_idx, b_idx, c_idx)[0]
    else:
        stat_of = inference._var_coupling(data, a_idx, b_idx, c_idx, mode)[0]
    return stat_of, data, ref


@pytest.mark.parametrize("n_surrogates", [20, 201])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("kind, a_idx, c_idx, mode", [
    ("causality", (0,), (2,), None),
    ("causality", (0, 2), (), None),
    ("coupling", (0,), (2,), ConditioningMode.CONTEMPORANEOUS),
    ("coupling", (0,), (2,), ConditioningMode.STRICT_PAST),
    ("coupling", (2, 0), (), ConditioningMode.CONTEMPORANEOUS),
], ids=["causality", "causality_two_sources", "coupling_contemporaneous",
        "coupling_strict_past", "coupling_two_sources"])
@pytest.mark.parametrize("family", ["discrete", "var"])
def test_batched_surrogates_match_per_panel_loop(family, kind, a_idx, c_idx, mode,
                                                 order, n_surrogates):
    """Chunked surrogate statistics against the loop that evaluates one
    permuted panel at a time (T = 3000, so 201 surrogates span three
    chunks): discrete and VAR causality statistics bit for bit, VAR
    coupling to 1e-12 relative, and the same threshold, p-value and
    generator state afterwards."""
    stat_of, data, ref = _surrogate_case(family, kind, a_idx, c_idx, mode, order)
    stat = stat_of(None)[0]
    block_len, alpha, seed = 5 * order, 0.05, 1234
    chunks = []

    def recorded(perms):
        chunks.append(stat_of(perms))
        return chunks[-1]

    rng = np.random.default_rng(seed)
    res = inference._surrogate_result(recorded, data.values.shape[0], block_len,
                                      n_surrogates, alpha, rng, 3000 - order, stat)
    got = np.concatenate(chunks)
    want, ref_rng = reference.surrogate_stats(ref, data.values, a_idx, block_len,
                                              n_surrogates, seed)
    assert len(chunks) == (3 if n_surrogates == 201 else 1)
    assert rng.random() == ref_rng.random()
    assert ref(data.values) == pytest.approx(stat, rel=1e-12, abs=0)
    exact = family == "discrete" or kind == "causality"
    if exact:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    rank = math.ceil((1 - alpha) * (n_surrogates + 1))
    assert res.threshold == pytest.approx(np.sort(want)[rank - 1], rel=0 if exact else 1e-12)
    assert res.p_value == (1 + np.sum(want >= stat)) / (n_surrogates + 1)


@pytest.mark.parametrize("kind", ["causality", "coupling"])
def test_surrogate_counts_over_state_budget_fall_back_bit_identically(kind, monkeypatch):
    """Above the state budget each surrogate is counted on its own through
    ``np.unique``; the statistics equal the one-bincount chunk's."""
    mode = ConditioningMode.CONTEMPORANEOUS if kind == "coupling" else None
    stat_of, data, _ = _surrogate_case("discrete", kind, (0,), (2,), mode, 2)
    perms = inference._block_permutations(data.values.shape[0], 10,
                                          np.random.default_rng(3), 12)
    chunked = stat_of(perms)
    monkeypatch.setattr(inference, "DEFAULT_STATE_BUDGET", 0)
    np.testing.assert_array_equal(stat_of(perms), chunked)


@pytest.mark.parametrize("block_len", [5, 10])
@pytest.mark.parametrize("T", [7, 4000, 4001, 10007])
def test_block_permutation_matches_array_split_reference(T, block_len):
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = inference._block_permutations(T, block_len, rng, 3)
        want = [reference.block_permutation(T, block_len, ref_rng) for _ in range(3)]
        np.testing.assert_array_equal(got, want)
        assert rng.random() == ref_rng.random()  # same draws consumed


# ---------------------------------------------------------------------------
# the lagged-Gram VAR engine against per-test lstsq fits
# ---------------------------------------------------------------------------

def _var_panel(seed, nodes, order, T):
    model = random_var_model(seed, nodes=nodes, order=order, noise_corr=0.3)
    return gen_var(model, T, seed)[0]


def _close(got, want, rel=1e-9):
    assert abs(got - want) <= rel * abs(want), (got, want)


@pytest.mark.parametrize("nodes, order, T, seed", [
    (2, 1, 500, 0), (3, 2, 1000, 1), (4, 2, 800, 2), (5, 1, 2000, 3),
    (8, 1, 1500, 4), (8, 2, 4000, 5),
])
def test_gram_engine_matches_lstsq_reference(nodes, order, T, seed):
    panel = _var_panel(seed, nodes, order, T)
    family = VarFamily(order=order)
    labels = panel.labels
    a, b, rest = [labels[0]], [labels[1]], list(labels[2:])
    idx = {lab: i for i, lab in enumerate(labels)}
    a_idx, b_idx = (idx[a[0]],), (idx[b[0]],)
    for c in ([], rest):
        c_idx = tuple(idx[x] for x in c)
        stat, dof, n_obs, weights = reference.var_causality_stat(
            panel.values, a_idx, b_idx, c_idx, order)
        want = inference._chi_square_result(stat, dof, n_obs, 0.05, weights=weights)
        got = llr_causality(panel, a, b, c, family=family)
        assert (got.dof, got.n_obs) == (dof, n_obs)
        for field in ("statistic", "threshold", "p_value"):
            _close(getattr(got, field), getattr(want, field))
        for mode in ConditioningMode:
            stat, dof, _ = reference.var_coupling_stat(
                panel.values, a_idx, b_idx, c_idx, order,
                mode is ConditioningMode.CONTEMPORANEOUS)
            got = llr_coupling(panel, a, b, c, family=family, mode=mode)
            assert got.dof == dof
            _close(got.statistic, stat)
    masked = {idx[b[0]]: [idx[a[0]]], idx[a[0]]: [idx[x] for x in [b[0]] + rest[:1]]}
    restriction = [(labels[t], labels[s]) for t, sources in masked.items() for s in sources]
    _close(generalized_llr(panel, family, restriction).statistic,
           reference.var_generalized_llr_stat(panel.values, order, masked))


def _sandwich_cases():
    panel = _var_panel(7, nodes=8, order=2, T=3000)
    nodes = range(panel.n_nodes)
    for a in nodes:
        for b in nodes:
            if a != b:
                rest = tuple(c for c in nodes if c not in (a, b))
                yield f"var8_{a}{b}", panel, (a,), (b,), rest, 2
    yield "nonlinear", gen_nonlinear_example(0.5, 1.0, 5000, 3)[0], (1,), (0,), (), 1
    panel = _var_panel(8, nodes=5, order=2, T=2000)
    yield "two_node_b", panel, (0,), (3, 1), (2,), 2


def test_sandwich_weights_match_lstsq_reference():
    """Per-target meats against per-edge lstsq projections: every edge of
    an 8-node order-2 graph, the nonlinear example and a two-node B."""
    for name, panel, a_idx, b_idx, c_idx, order in _sandwich_cases():
        g = inference._prepare(panel, VarFamily(order=order), "test")
        got = inference._sandwich_weights(g, a_idx, b_idx, c_idx)
        want = reference.var_causality_stat(panel.values, a_idx, b_idx, c_idx, order)[3]
        per_target = (len(b_idx), -1)
        np.testing.assert_allclose(np.sort(np.reshape(got, per_target)),
                                   np.sort(np.reshape(want, per_target)),
                                   rtol=1e-12, atol=0, err_msg=name)


def test_duplicated_column_is_singular_design():
    x = np.random.default_rng(21).standard_normal((1000, 2))
    panel = TimeSeriesPanel(values=np.column_stack([x, x[:, 0]]), labels=("a", "b", "c"))
    with pytest.raises(SingularDesign):
        llr_causality(panel, ["a"], ["b"], ["c"], family=VarFamily())
    with pytest.raises(SingularDesign):
        llr_coupling(panel, ["a"], ["b"], ["c"], family=VarFamily())


def test_highly_correlated_pair_is_not_singular():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((1000, 2))
    twin = 0.999 * x[:, 0] + math.sqrt(1 - 0.999**2) * rng.standard_normal(1000)
    values = np.column_stack([x, twin])
    panel = TimeSeriesPanel(values=values, labels=("a", "b", "c"))
    got = llr_causality(panel, ["a"], ["b"], ["c"], family=VarFamily())
    _close(got.statistic, reference.var_causality_stat(values, (0,), (1,), (2,), 1)[0])


# ---------------------------------------------------------------------------
# generalized LLR
# ---------------------------------------------------------------------------

def test_generalized_llr_var_matches_causality_test():
    panel, _ = gen_chain_example(5000, seed=9)
    direct = llr_causality(panel, ["x"], ["y"], ["z"], family=VarFamily(order=2))
    general = generalized_llr(panel, VarFamily(order=2), [("y", "x")])
    assert abs(direct.statistic - general.statistic) < 1e-8
    assert direct.dof == general.dof


def test_generalized_llr_needs_restriction():
    panel, _ = gen_chain_example(1000, seed=10)
    with pytest.raises(ParamError):
        generalized_llr(panel, VarFamily(order=1), [])


def test_glm_null_rejection_near_level():
    rejections = 0
    runs = 50
    for s in range(runs):
        panel, _ = gen_glm_spiking({("a", "b"): [0.0]}, 2000, seed=s,
                                   labels=["a", "b"])
        res = generalized_llr(panel, GlmSpikingFamily(memory=1), [("b", "a")],
                              alpha=0.05)
        rejections += res.decision == "reject_H0"
    assert rejections <= 8  # ~ alpha with binomial slack


def test_glm_power_on_coupled_network():
    rejections = 0
    runs = 50
    for s in range(runs):
        panel, _ = gen_glm_spiking({("a", "b"): [1.0]}, 10_000, seed=100 + s,
                                   labels=["a", "b"])
        res = generalized_llr(panel, GlmSpikingFamily(memory=1), [("b", "a")],
                              alpha=0.05)
        rejections += res.decision == "reject_H0"
    assert rejections >= 48


# ---------------------------------------------------------------------------
# Stein exponent
# ---------------------------------------------------------------------------

def test_stein_independent_model_flat():
    kernel = np.zeros((4, 4))
    for nxt in range(4):
        x, y = nxt >> 1, nxt & 1
        kernel[:, nxt] = (0.6 if x else 0.4) * (0.3 if y else 0.7)
    from dirinfo.discrete import DiscreteMarkovModel

    model = DiscreteMarkovModel(alphabet_sizes=(2, 2), order=1, kernel=kernel,
                                initial=kernel[0])
    report = stein_exponent_check(model, (0,), (1,), T_grid=(200, 500),
                                  trials=2000, seed=9)
    assert report.di_rate == pytest.approx(0.0, abs=1e-12)
    for T, p_fa, exponent, censored, _ in report.points:
        assert not censored
        assert exponent < 0.01


def test_stein_exponent_tracks_di_rate_at_moderate_coupling():
    rep = stein_exponent_check(delay_channel(0.2), (0,), (1,), T_grid=(10, 15, 25),
                               trials=5000, miss_level=0.2, seed=31)
    T, p_fa, exponent, censored, _ = rep.points[-1]
    assert not censored
    assert abs(exponent - rep.di_rate) / rep.di_rate < 0.20


def test_stein_exponent_monotone_in_coupling():
    exps = []
    for flip in (0.45, 0.40, 0.35):
        rep = stein_exponent_check(delay_channel(flip), (0,), (1,), T_grid=(100,),
                                   trials=4000, miss_level=0.2, seed=5)
        _, _, exponent, censored, _ = rep.points[0]
        assert not censored
        exps.append(exponent)
    assert exps[0] < exps[1] < exps[2]


def test_stein_reports_rate_convergence():
    # the DI increments at n = 1, 2 are 0 and 0.193; from n = 2 on they are constant
    with pytest.warns(RateNotConverged, match="horizon 2"):
        rep = stein_exponent_check(delay_channel(0.2), (0,), (1,), T_grid=(20,),
                                   trials=1000, seed=3, rate_horizon=2)
    want = rate("di", delay_channel(0.2), (0,), (1,), n_max=2)
    assert not rep.rate_converged and rep.rate_gap == want.gap > 1e-6
    doc = rep.to_json()
    assert (doc["rate_gap"], doc["rate_converged"]) == (rep.rate_gap, False)
    # i.i.d. nodes: every increment is zero, so the rate has converged
    kernel = np.full((4, 4), 0.25)
    from dirinfo.discrete import DiscreteMarkovModel

    model = DiscreteMarkovModel(alphabet_sizes=(2, 2), order=1, kernel=kernel,
                                initial=kernel[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RateNotConverged)
        rep = stein_exponent_check(model, (0,), (1,), T_grid=(20,), trials=1000,
                                   seed=3, rate_horizon=3)
    assert rep.rate_converged and rep.rate_gap < 1e-12


def test_stein_rejects_degenerate_models():
    with pytest.raises(ParamError):
        stein_exponent_check(delay_channel(0.0), (0,), (1,), (100,), trials=1000)
    with pytest.raises(ParamError):
        stein_exponent_check(delay_channel(0.2), (0,), (1,), (100,), trials=10)


STEIN_ORACLE_MODELS = {
    "delay": (delay_channel(0.2), (0,), (1,)),
    "lag2": (lag2_channel(0.2), (0,), (1,)),
    "alphabet3_order2": (random_markov_model(7, nodes=2, alphabet=3, order=2), (0,), (1,)),
    "three_nodes": (random_markov_model(8, nodes=3), (0, 2), (1,)),
}


def _stein_oracle(model, a_nodes, b_nodes):
    """Every trajectory of length k + 2 as joint codes, with its log law
    under p and under the influence-free q = p(a^T || b^{T-1}) p(b^T),
    from the dict oracle."""
    T = model.order + 2
    law = oracle_law(model, T)
    marginals = {}

    def log_prob(traj, a_last, b_last):
        """log p of the trajectory's a-cells at 1..a_last and b-cells at 1..b_last."""
        cells = oracle.upto(a_nodes, a_last) | oracle.upto(b_nodes, b_last)
        if (a_last, b_last) not in marginals:
            marginals[a_last, b_last] = oracle.marg(law, cells)
        ordered = sorted(cells, key=lambda c: (c[1], c[0]))
        return math.log(marginals[a_last, b_last][tuple(traj[t - 1][a] for a, t in ordered)])

    trajs = sorted(law)
    log_p = np.array([math.log(law[x]) for x in trajs])
    log_q = np.array([log_prob(x, 0, T) + sum(log_prob(x, t, t - 1) - log_prob(x, t - 1, t - 1)
                                              for t in range(1, T + 1))
                      for x in trajs])
    codes = np.stack([model.encode_states(np.array(x)) for x in trajs])
    return codes, log_p, log_q


@pytest.mark.parametrize("name", sorted(STEIN_ORACLE_MODELS))
def test_stein_llr_and_samplers_match_oracle(name):
    model, a_nodes, b_nodes = STEIN_ORACLE_MODELS[name]
    codes, log_p, log_q = _stein_oracle(model, a_nodes, b_nodes)
    flt = inference._BivariateFilter(model, a_nodes, b_nodes)
    assert np.max(np.abs(inference._stein_llr(flt, codes) - (log_p - log_q))) < 1e-12
    # sampled trajectory frequencies against p and q: chi-square goodness
    # of fit, pooling the cells expected fewer than 5 times
    T = codes.shape[1]
    index = {tuple(c): i for i, c in enumerate(codes.tolist())}
    n = 30_000
    rng = np.random.default_rng(2024)
    for draws, log_law in ((sample_codes(model, T, n, rng), log_p),
                           (inference._sample_h0(flt, T, n, rng), log_q)):
        observed = np.bincount([index[tuple(c)] for c in draws.tolist()],
                               minlength=len(codes))
        expected = n * np.exp(log_law)
        small = expected < 5
        if small.any():
            observed = np.append(observed[~small], observed[small].sum())
            expected = np.append(expected[~small], expected[small].sum())
        assert stats.chisquare(observed, expected).pvalue > 1e-3


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def test_bonferroni_count():
    assert bonferroni_count(3) == 12
    assert bonferroni_count(4) == 24


@pytest.mark.parametrize("family", [DiscreteMarkovFamily(), VarFamily()],
                         ids=["discrete", "var"])
def test_graph_bivariate_reduces_to_direct_tests(family):
    panel = sample_panel(delay_channel(0.2), 5000, seed=12)
    graph = infer_graph(panel, family, alpha=0.05, correction="none")
    direct = llr_causality(panel, ["x"], ["y"], [], family=family, alpha=0.05)
    assert graph.directed[("x", "y")] == direct
    coupling = llr_coupling(panel, ["x"], ["y"], [], family=family, alpha=0.05)
    assert graph.undirected[frozenset(("x", "y"))] == coupling


def test_graph_deterministic():
    panel, _ = gen_chain_example(3000, seed=13)
    sym = symbolize(panel, bins=4, scheme="equal_frequency")
    kwargs = dict(calibration="surrogate", correction="none", surrogates=30, seed=77)
    one = infer_graph(sym, DiscreteMarkovFamily(), **kwargs)
    two = infer_graph(sym, DiscreteMarkovFamily(), **kwargs)
    doc = one.to_json()
    assert all(math.isfinite(e["threshold"]) for e in doc["directed"] + doc["undirected"])
    assert json.dumps(doc, sort_keys=True) == json.dumps(two.to_json(), sort_keys=True)


def test_graph_threads_match_serial():
    panel, _ = gen_chain_example(3000, seed=14)
    serial = infer_graph(panel, VarFamily(order=1), seed=5)
    threaded = infer_graph(panel, VarFamily(order=1), seed=5, threads=4)
    assert json.dumps(serial.to_json(), sort_keys=True) == json.dumps(threaded.to_json(), sort_keys=True)


def test_graph_solves_each_regression_once(monkeypatch):
    """On an 8-node VAR graph every edge a -> b shares b's full fit and
    a's projection with the other edges: 8 full fits, 56 restricted fits,
    8 projections and 28 coupling fits.  Two threads give the same graph."""
    panel = _var_panel(6, nodes=8, order=2, T=3000)
    factorizations = []
    cholesky = inference._cholesky

    def counted(gram):
        factorizations.append(gram.shape)
        return cholesky(gram)

    monkeypatch.setattr(inference, "_cholesky", counted)
    serial = infer_graph(panel, VarFamily(order=2), seed=5)
    assert len(factorizations) <= 100
    threaded = infer_graph(panel, VarFamily(order=2), seed=5, threads=2)
    assert json.dumps(serial.to_json(), sort_keys=True) == json.dumps(threaded.to_json(),
                                                                      sort_keys=True)


def test_graph_builds_each_target_meat_once(monkeypatch):
    """The 56 causality edges of an 8-node VAR graph share one weighted
    Gram per target: 8 passes over the panel."""
    passes = []
    rows = inference._LaggedGram.rows

    def counted(self, idx):
        passes.append(len(idx))
        return rows(self, idx)

    monkeypatch.setattr(inference._LaggedGram, "rows", counted)
    graph = infer_graph(_var_panel(6, nodes=8, order=2, T=3000), VarFamily(order=2))
    assert len(graph.directed) == 56
    assert passes == [2 * 8 + 1] * 8


def test_graph_surrogate_default_count_covers_corrected_level():
    panel, _ = gen_chain_example(600, seed=3)
    graph = infer_graph(panel, VarFamily(), calibration="surrogate", seed=1)
    need = inference.min_surrogates(0.05 / bonferroni_count(3))
    assert need > inference.DEFAULT_SURROGATES
    assert graph.config["surrogates"] == need and not graph.errors
    uncorrected = infer_graph(panel, VarFamily(), correction="none",
                              calibration="surrogate", seed=1)
    assert uncorrected.config["surrogates"] == inference.DEFAULT_SURROGATES
    with pytest.raises(CalibrationError, match=f"at least {need} surrogates, got {need - 1}"):
        infer_graph(panel, VarFamily(), calibration="surrogate", surrogates=need - 1, seed=1)


def test_graph_records_per_edge_failures():
    rng = np.random.default_rng(15)
    values = np.column_stack([rng.standard_normal(200),
                              np.zeros(200),
                              rng.standard_normal(200)])
    panel = TimeSeriesPanel(values=values, labels=("a", "c", "b"))
    graph = infer_graph(panel, VarFamily(order=1))
    assert graph.errors, "constant column should break some regressions"
    for key, message in graph.errors.items():
        assert "SingularDesign" in message


def test_graph_chain_recovery_and_dot():
    panel, truth = gen_chain_example(10_000, seed=16)
    graph = infer_graph(panel, VarFamily(order=1), alpha=0.05,
                        correction="bonferroni")
    assert graph.directed_edges() == {("x", "y"), ("y", "z")}
    dot = graph.to_dot()
    assert '"x" -> "y";' in dot
    assert dot.startswith("digraph")
    doc = graph.to_json()
    assert {e["decision"] for e in doc["directed"]} <= {"reject_H0", "keep_H0"}


def test_graph_invariant_edges_match_decisions():
    panel = iid_panel(4000, 17, nodes=3)
    graph = infer_graph(panel, DiscreteMarkovFamily(), alpha=0.2, correction="none")
    for pair, res in graph.directed.items():
        assert (pair in graph.directed_edges()) == (res.decision == "reject_H0")
    for pair, res in graph.undirected.items():
        assert (pair in graph.undirected_edges()) == (res.decision == "reject_H0")


# ---------------------------------------------------------------------------
# relativity to the observation set
# ---------------------------------------------------------------------------

def test_chain_relativity_bivariate_vs_conditional():
    bivariate_rejects = 0
    conditional_keeps = 0
    runs = 200
    for s in range(runs):
        panel, _ = gen_chain_example(10_000, seed=s)
        biv = llr_causality(panel, ["x"], ["z"], [], family=VarFamily(order=2))
        cond = llr_causality(panel, ["x"], ["z"], ["y"], family=VarFamily(order=1))
        bivariate_rejects += biv.decision == "reject_H0"
        conditional_keeps += cond.decision == "keep_H0"
    assert bivariate_rejects >= 0.95 * runs
    assert conditional_keeps >= 0.90 * runs
