import collections
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

import oracle
import reference
from conftest import oracle_law
from dirinfo import calibration, gaussian, inference, stein
from dirinfo.core import (
    SequenceDistribution,
    TimeSeriesPanel,
    make_partition,
    symbolize,
    write_panel,
)
from dirinfo.errors import (
    CalibrationError,
    DirinfoError,
    ParamError,
    PartitionError,
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
from dirinfo.measures import (
    ConditioningMode,
    decompose,
    directed_information,
    mutual_information,
    rate,
)
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
from dirinfo.discrete import enumerate_joint, sample_codes, sample_panel, with_stationary_initial


def iid_panel(T, seed, nodes=2):
    rng = np.random.default_rng(seed)
    labels = tuple(f"x{i}" for i in range(nodes))
    return TimeSeriesPanel(values=rng.integers(0, 2, size=(T, nodes)), labels=labels)


# ---------------------------------------------------------------------------
# result plumbing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("df", [0.0, 0.5, 1.0, 1.7, 2.0, 3.3, 7.0, 12.45, 40.0])
def test_chi_square_sf_matches_scipy(df):
    """The p-value matches ``stats.chi2.sf`` to 1e-12 relative for the
    integer Wilks and non-integer Satterthwaite dof, and exactly outside
    the support: 1 for x <= 0, 0 for x = inf, NaN for NaN and df = 0."""
    xs = [-1e-17, -1.0, 0.0, 1e-300, 1e-8, 0.3, 1.0, 2.5, 9.9, 31.4, 250.0, np.inf, np.nan]
    got = [calibration._chi_square_sf(x, df) for x in xs]
    want = stats.chi2.sf(xs, df)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    edge = [i for i, x in enumerate(xs) if df == 0 or not 0 < x < np.inf]
    np.testing.assert_array_equal(np.take(got, edge), want[edge])


# Wilks dof, Satterthwaite dof (non-integer) and the large dof of sparse
# discrete tests; the x grid reaches upper tails of 1e-300
SF_DFS = [0.5, 1.0, 1.7, 2.0, 3.3, 7.0, 12.45, 29.9, 61.3, 150.0, 599.5, 1000.0, 2304.0,
          4217.3, 12345.6, 33333.3, 1e5]


@pytest.mark.parametrize("df", SF_DFS)
def test_chi_square_sf_accuracy_to_1e_300(df):
    """Within 1e-12 relative of a 50-digit reference where the tail is at
    least 1e-100, and 1e-10 from 1e-300 to 1e-100.  The reference agrees
    with scipy's ``chdtrc`` to ten times those bounds: for df above 1,000
    and x above 1.45 df scipy is off by up to about 5.5e-12 (1e-11 below
    1e-100), against 50-digit mpmath."""
    quantiles = special.chdtri(df, np.concatenate([np.logspace(-300, -1, 24), [0.3, 0.5, 0.9]]))
    for x in np.concatenate([quantiles, 0.97 * quantiles, 1.03 * quantiles]):
        want = reference.chi_square_sf(x, df)
        if want < 1e-300:
            continue
        got = calibration._chi_square_sf(x, df)
        assert abs(got - want) <= (1e-12 if want >= 1e-100 else 1e-10) * want, (x, got, want)
        assert abs(special.chdtrc(df, x) - want) <= (1e-11 if want >= 1e-100 else 1e-9) * want


@pytest.mark.parametrize("df", [1.0, 1.7, 2.0, 3.3, 12.45, 61.3, 599.5, 2304.0, 12345.6, 1e5])
def test_chi_square_threshold_matches_chdtri(df):
    """The chi-square quantile agrees with ``special.chdtri`` to 1e-13
    relative at levels 1e-300..0.5 and to 1e-12 up to 0.99, and the
    p-value at that quantile gives the level back."""
    levels = np.concatenate([np.logspace(-300, np.log10(0.5), 40), np.linspace(0.5, 0.99, 12)[1:]])
    got = np.array([inference.chi_square_threshold(p, 1.0, df, 0.5) for p in levels])
    rel = np.abs(got - special.chdtri(df, levels)) / special.chdtri(df, levels)
    assert rel[levels <= 0.5].max() <= 1e-13
    assert rel[levels > 0.5].max() <= 1e-12
    back = np.array([calibration._chi_square_sf(x, df) for x in got])
    bound = np.where(levels >= 1e-100, 1e-12, 1e-10)
    assert np.all(np.abs(back - levels) <= bound * levels)
    assert inference.chi_square_threshold(0.01, 1.3, df, 250) == pytest.approx(
        1.3 * special.chdtri(df, 0.01) / 500, rel=1e-13)


def test_chi_square_threshold_outside_the_support():
    """Level 0 gives inf and level 1 gives 0; a level outside [0, 1], a
    NaN, or df <= 0 gives NaN, as ``chdtri`` does."""
    cases = [(0.0, 3.0), (1.0, 3.0), (0.0, 0.7), (1.0, 0.7), (-0.1, 3.0), (1.1, 3.0),
             (np.nan, 3.0), (0.05, 0.0), (0.05, -1.0), (0.05, np.nan), (1.0, -2.0)]
    got = [inference.chi_square_threshold(p, 1.0, df, 0.5) for p, df in cases]
    np.testing.assert_array_equal(got, [special.chdtri(df, p) for p, df in cases])


def test_chi_square_threshold_with_subnormal_quantiles():
    """Far below one degree of freedom quantiles reach subnormal floats
    (2e-314 at df = 0.01 and level 0.973) or zero; they follow ``chdtri``
    to the precision that subnormals hold."""
    cases = [(0.5, 0.01), (0.973, 0.01), (1 - 1e-16, 0.1), (0.99, 0.01), (0.5, 0.2)]
    got = [inference.chi_square_threshold(p, 1.0, df, 0.5) for p, df in cases]
    np.testing.assert_allclose(got, [special.chdtri(df, p) for p, df in cases], rtol=1e-4)


def test_decision_matches_threshold_rule():
    res = llr_causality(iid_panel(2000, 0), ["x0"], ["x1"],
                        family=DiscreteMarkovFamily())
    assert (res.decision == "reject_H0") == (res.statistic > res.threshold)
    assert res.p_value is not None and 0.0 <= res.p_value <= 1.0
    assert res.dof == 2 and res.calibration == "chi_square"


@pytest.mark.parametrize("test", [llr_causality, llr_coupling])
def test_chi_square_refuses_zero_dof(test):
    # a source that takes a single symbol adds no parameter to the fit
    panel = iid_panel(500, 4, nodes=3)
    values = panel.values.copy()
    values[:, 0] = 0
    panel = TimeSeriesPanel(values=values, labels=panel.labels)
    with pytest.raises(CalibrationError, match="needs dof > 0, the test has 0"):
        test(panel, ["x0"], ["x1"], ["x2"], family=DiscreteMarkovFamily())


def _pseudo_count_loglik(cells, contexts, m):
    """sum n ln(n + 1/2) over the observed cells minus sum N ln(N + m/2)
    over the observed contexts, for m target symbols."""
    return (sum(n * math.log(n + 0.5) for n in cells)
            - sum(n * math.log(n + 0.5 * m) for n in contexts))


def test_discrete_statistics_match_hand_counts():
    # x: 0 1 1 0 1 0 0 1 1;  y: 0 0 1 1 0 1 0 0 0;  order 1, 8 transitions
    panel = TimeSeriesPanel(values=np.array([[0, 1, 1, 0, 1, 0, 0, 1, 1],
                                             [0, 0, 1, 1, 0, 1, 0, 0, 0]]).T,
                            labels=("x", "y"))
    # y(t) given (y, x)(t-1): (0,0) -> 0,0; (0,1) -> 1,1,0; (1,1) -> 1;
    # (1,0) -> 0,0.  Given y(t-1) alone: 0 -> 0,1,1,0,0; 1 -> 1,0,0
    full = _pseudo_count_loglik([2, 2, 1, 1, 2], [2, 3, 1, 2], 2)
    restricted = _pseudo_count_loglik([3, 2, 2, 1], [5, 3], 2)
    res = llr_causality(panel, ["x"], ["y"], family=DiscreteMarkovFamily())
    assert res.statistic == pytest.approx((full - restricted) / 8, rel=1e-14)
    assert res.dof == 2
    # (x, y)(t) given (x, y)(t-1): (0,0) -> 10,10; (1,0) -> 11,01,10;
    # (1,1) -> 01; (0,1) -> 10,00
    contexts = [2, 3, 1, 2]
    joint = _pseudo_count_loglik([2, 1, 1, 1, 1, 1, 1], contexts, 4)
    x_fit = _pseudo_count_loglik([2, 2, 1, 1, 1, 1], contexts, 2)
    y_fit = _pseudo_count_loglik([2, 2, 1, 1, 2], contexts, 2)
    for mode in ConditioningMode:
        res = llr_coupling(panel, ["x"], ["y"], family=DiscreteMarkovFamily(), mode=mode)
        assert res.statistic == pytest.approx((joint - x_fit - y_fit) / 8, rel=1e-14)
        assert res.dof == 4


def test_family_spec_parsing():
    assert isinstance(family_from_spec("discrete", order=2), DiscreteMarkovFamily)
    assert isinstance(family_from_spec("var", order=3), VarFamily)
    assert isinstance(family_from_spec("glm", order=2), GlmSpikingFamily)
    with pytest.raises(ParamError):
        family_from_spec("kernel")


@pytest.mark.parametrize("make", [
    lambda: VarFamily(order=0),
    lambda: DiscreteMarkovFamily(order=0),
    lambda: GlmSpikingFamily(memory=0),
    lambda: family_from_spec("var", order=0),
], ids=["var_order", "discrete_order", "glm_memory", "spec_order"])
def test_family_parameters_checked_at_construction(make):
    with pytest.raises(ParamError, match=r"must be >= 1, got"):
        make()


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, math.nan])
@pytest.mark.parametrize("call", [
    lambda panel, alpha: llr_causality(panel, ["x"], ["y"], ["z"], family=VarFamily(),
                                       alpha=alpha),
    lambda panel, alpha: llr_coupling(panel, ["x"], ["y"], ["z"], family=VarFamily(),
                                      alpha=alpha),
    lambda panel, alpha: infer_graph(panel, VarFamily(), alpha=alpha),
    lambda panel, alpha: generalized_llr(panel, VarFamily(), [("y", "x")], alpha=alpha),
], ids=["llr_causality", "llr_coupling", "infer_graph", "generalized_llr"])
def test_chi_square_level_outside_unit_interval_is_param_error(call, alpha):
    panel, _ = gen_chain_example(500, seed=4)
    with pytest.raises(ParamError, match=r"alpha must lie in \(0, 1\)"):
        call(panel, alpha)


def test_groups_must_be_disjoint():
    with pytest.raises(PartitionError):
        llr_causality(iid_panel(500, 1), ["x0"], ["x0"], family=VarFamily())


def _chain_panel(bins=None):
    panel, _ = gen_chain_example(500, seed=4)
    return panel if bins is None else symbolize(panel, bins, "equal_frequency")


@pytest.mark.parametrize("call", [
    lambda: directed_information(enumerate_joint(delay_channel(0.1), 4), (), (1,)),
    lambda: mutual_information(enumerate_joint(delay_channel(0.1), 4), (0,), ()),
    lambda: rate("te", delay_channel(0.1), (), (1,)),
    lambda: llr_causality(_chain_panel(2), [], ["y"], calibration="surrogate", seed=1),
    lambda: llr_causality(_chain_panel(), [], ["y"], family=VarFamily(),
                          calibration="surrogate", seed=1),
    lambda: llr_causality(_chain_panel(2), [], ["y"]),
    lambda: llr_coupling(_chain_panel(), ["x"], [], family=VarFamily()),
], ids=["di", "mi", "rate", "discrete_surrogate", "var_surrogate", "discrete_chi_square",
        "var_coupling"])
def test_empty_a_or_b_is_a_partition_error(call):
    # nothing is tested without a source or a target, whatever the calibration
    with pytest.raises(PartitionError, match="A and B must be nonempty"):
        call()


def test_discrete_table_past_int64_cell_codes_is_refused():
    # 16 symbols per column at order 5 give 2**84 (context, target) cells:
    # int64 cell codes would wrap and merge distinct cells
    rng = np.random.default_rng(1)
    T = 20_000
    values = rng.integers(0, 2, (T, 4))
    flips = rng.random(T) < 0.05
    for t in range(5, T):
        values[t, 1] = values[t - 5, 1] ^ flips[t]
    values[0] = 15
    panel = TimeSeriesPanel(values=values, labels=("a", "b", "c", "d"))
    family = DiscreteMarkovFamily(5)
    with pytest.raises(ParamError, match=f"order 5 needs {2**84} "):
        llr_causality(panel, ["a"], ["b"], ["c", "d"], family=family)
    with pytest.raises(ParamError, match="int64"):
        llr_coupling(panel, ["a"], ["b"], ["c", "d"], family=family)
    # the graph records each edge as failed, so no edge is decided
    graph = infer_graph(panel, family)
    assert graph.errors[("a", "b")].startswith("ParamError: order 5 needs")
    assert not graph.directed and not graph.undirected


@pytest.mark.parametrize("family", [GlmSpikingFamily(), "var"], ids=["glm", "string"])
@pytest.mark.parametrize("call", [
    lambda panel, family: llr_causality(panel, ["x"], ["y"], family=family),
    lambda panel, family: llr_coupling(panel, ["x"], ["y"], family=family),
    lambda panel, family: infer_graph(panel, family),
], ids=["llr_causality", "llr_coupling", "infer_graph"])
def test_unsupported_family_is_param_error(call, family):
    panel, _ = gen_chain_example(500, seed=4)
    with pytest.raises(ParamError, match="unsupported family"):
        call(panel, family)


def test_generalized_llr_unsupported_family_is_param_error():
    with pytest.raises(ParamError, match="unsupported family .* for generalized_llr"):
        generalized_llr(iid_panel(500, 0), DiscreteMarkovFamily(), [("x1", "x0")])


@pytest.mark.parametrize("mode", list(ConditioningMode))
def test_mode_value_gives_the_member_results(mode):
    panel, _ = gen_chain_example(1000, seed=4)
    by_member = llr_coupling(panel, ["x"], ["y"], ["z"], family=VarFamily(), mode=mode)
    assert llr_coupling(panel, ["x"], ["y"], ["z"], family=VarFamily(),
                        mode=mode.value) == by_member
    graph = infer_graph(panel, VarFamily(), mode=mode)
    assert infer_graph(panel, VarFamily(), mode=mode.value).to_json() == graph.to_json()


def test_unknown_mode_is_param_error():
    panel, _ = gen_chain_example(500, seed=4)
    with pytest.raises(ParamError, match="unknown mode 'bogus'"):
        llr_coupling(panel, ["x"], ["y"], family=VarFamily(), mode="bogus")
    with pytest.raises(ParamError, match="unknown mode 'bogus'"):
        infer_graph(panel, VarFamily(), mode="bogus")


@pytest.mark.parametrize("seed", range(5))
def test_nested_llr_nonnegative(seed):
    rng = np.random.default_rng(seed)
    panel = TimeSeriesPanel(values=rng.standard_normal((400, 3)),
                            labels=("x0", "x1", "x2"))
    res = llr_causality(panel, ["x0"], ["x1"], ["x2"], family=VarFamily())
    assert res.statistic >= -1e-10
    resc = llr_coupling(panel, ["x0"], ["x1"], ["x2"], family=VarFamily())
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


@pytest.mark.parametrize("kwargs, error, message", [
    (dict(calibration="surrogate", surrogates=10, seed=0), CalibrationError,
     "need at least 20 surrogates, got 10"),
    (dict(calibration="bootstrap"), ParamError, "unknown calibration 'bootstrap'"),
], ids=["surrogate_count", "calibration"])
@pytest.mark.parametrize("test", [llr_causality, llr_coupling])
def test_calibration_and_count_are_read_before_the_panel(test, kwargs, error, message):
    # a float panel, which the discrete family cannot prepare
    panel = TimeSeriesPanel(np.linspace(0.0, 1.0, 100).reshape(50, 2), ("x0", "x1"))
    with pytest.raises(DirinfoError) as caught:
        test(panel, ["x0"], ["x1"], family=DiscreteMarkovFamily(), **kwargs)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("level", [0.3, 0.05, 0.01, 0.001, 0.05 / 12, 0.05 / 84,
                                   0.05 / 112, 1e-4 / 84, 1e-4 / 112])
def test_surrogate_count_rule_is_the_quantile_rank(level):
    # a count calibrates a level iff it reaches MIN_SURROGATES and the
    # (1 - level) quantile of it plus the observed value has a rank within it
    need = inference.min_surrogates(level)
    for n in [*range(0, 60), *range(need - 5, need + 6), 2 * need]:
        fits = (n >= inference.MIN_SURROGATES
                and calibration._quantile_rank(level, n) <= n)
        if fits:
            assert calibration.surrogate_count(n, level) == n
            continue
        least = inference.MIN_SURROGATES if n < inference.MIN_SURROGATES else need
        with pytest.raises(CalibrationError, match=f"at least {least} surrogates, got {n}$"):
            calibration.surrogate_count(n, level)


def test_graph_surrogate_level_checked_before_any_edge(monkeypatch):
    def edge(*args, **kwargs):
        raise AssertionError("an edge ran")

    monkeypatch.setattr(inference, "_edge_test", edge)
    panel, _ = gen_chain_example(500, seed=3)
    with pytest.raises(CalibrationError, match="got 200"):
        infer_graph(panel, VarFamily(), calibration="surrogate", surrogates=200, seed=1)


def _surrogate_case(family, kind, a_idx, c_idx, mode, order):
    """Package statistic function, panel data, the package's statistic of
    one panel's values, and the ``tests/reference.py`` statistic (None for
    VAR) for one test of x1 on the 3-node chain."""
    b_idx = (1,)
    panel, _ = gen_chain_example(3000, seed=31)
    if family == "discrete":
        data = DiscreteMarkovFamily(order=order)._prepare(
            symbolize(panel, 3, "equal_frequency"))

        def build(d):
            if kind == "causality":
                return inference._discrete_causality(d, a_idx, b_idx, c_idx, order)[0]
            return inference._discrete_coupling(d, a_idx, b_idx, c_idx, order, mode)[0]

        def ref(values):
            # a permuted column keeps its alphabet
            return build(inference._Symbols(values, data.sizes))(None)[0]

        if kind == "causality":
            oracle_of = lambda v: reference.discrete_causality_stat(  # noqa: E731
                v, data.sizes, a_idx, b_idx, c_idx, order, 0.5)
        else:
            oracle_of = lambda v: reference.discrete_coupling_stat(  # noqa: E731
                v, data.sizes, a_idx, b_idx, c_idx, order, 0.5,
                mode is ConditioningMode.CONTEMPORANEOUS)
        return build(data), data, ref, oracle_of
    data = VarFamily(order=order)._prepare(panel)

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
    return stat_of, data, ref, None


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
    permuted panel at a time with the package (T = 3000, so 201 surrogates
    span ``ceil(201 / (_CHUNK_ENTRIES // 3000))`` chunks), and the same
    threshold, p-value and generator state afterwards.  Each chunk's
    statistics equal ``stat_of`` run on one row order at a time, bit for
    bit.  Discrete statistics equal the loop's bit for bit and match the
    independent ``np.unique`` counts of ``tests/reference.py`` to 1e-12
    relative, which sum the log likelihood terms in another order.  VAR
    statistics match a Gram built from scratch for each permuted panel to
    1e-12 relative or 1e-15 absolute: each is a difference of O(1)
    log-dets, so it carries about eps of absolute rounding, and a
    surrogate Gram sums its A entries in another order than the panel's
    block products."""
    stat_of, data, ref, oracle_of = _surrogate_case(family, kind, a_idx, c_idx, mode, order)
    stat = stat_of(None)[0]
    block_len, alpha, seed = 5 * order, 0.05, 1234
    chunks, orders = [], []

    def recorded(perms):
        orders.append(perms)
        chunks.append(stat_of(perms))
        return chunks[-1]

    rng = np.random.default_rng(seed)
    res = calibration._surrogate_result(recorded, data.values.shape[0], block_len,
                                        n_surrogates, alpha, rng, 3000 - order, stat)
    got = np.concatenate(chunks)
    want, ref_rng = reference.surrogate_stats(ref, data.values, a_idx, block_len,
                                              n_surrogates, seed)
    assert len(chunks) == math.ceil(n_surrogates / (calibration._CHUNK_ENTRIES // 3000))
    one_at_a_time = [stat_of(perm[None])[0] for perms in orders for perm in perms]
    np.testing.assert_array_equal(got, one_at_a_time)
    assert rng.random() == ref_rng.random()
    assert ref(data.values) == stat
    exact = family == "discrete"
    if exact:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    rank = math.ceil((1 - alpha) * (n_surrogates + 1))
    assert res.threshold == pytest.approx(np.sort(want)[rank - 1], rel=0 if exact else 1e-12,
                                          abs=0 if exact else 1e-15)
    assert res.p_value == (1 + np.sum(want >= stat)) / (n_surrogates + 1)
    if oracle_of is not None:
        assert oracle_of(data.values) == pytest.approx(stat, rel=1e-12, abs=0)
        independent = reference.surrogate_stats(oracle_of, data.values, a_idx, block_len,
                                                n_surrogates, seed)[0]
        np.testing.assert_allclose(got, independent, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", ["causality", "coupling"])
def test_counts_over_state_budget_fall_back_to_unique_contexts(kind, monkeypatch):
    """Above the state budget each row order is counted on its own over
    the contexts it holds (``np.unique``).  With the budget at 0 before the
    statistic is built, the restricted causality fit falls back too; the
    statistics match the dense build's to 1e-12 relative (the dense sums
    also add the zero terms of unseen cells)."""
    mode = ConditioningMode.CONTEMPORANEOUS if kind == "coupling" else None
    stat_of = _surrogate_case("discrete", kind, (0,), (2,), mode, 2)[0]
    perms = calibration._block_permutations(3000, 10, np.random.default_rng(3), 12)
    dense = np.concatenate([stat_of(None), stat_of(perms)])
    counted = []
    real_counts = inference._count_cells

    def counts(cells, *args):
        counted.append(cells.shape[0])
        return real_counts(cells, *args)

    monkeypatch.setattr(inference, "DEFAULT_STATE_BUDGET", 0)
    monkeypatch.setattr(inference, "_count_cells", counts)
    stat_of = _surrogate_case("discrete", kind, (0,), (2,), mode, 2)[0]
    fallback = np.concatenate([stat_of(None), stat_of(perms)])
    # one table per row order, and one for the restricted causality fit
    assert counted == [1] * (13 + (kind == "causality"))
    np.testing.assert_allclose(fallback, dense, rtol=1e-12, atol=0)


@pytest.mark.parametrize("family, discrete", [
    (VarFamily(order=1), False), (VarFamily(order=2), False),
    (DiscreteMarkovFamily(order=1), True), (DiscreteMarkovFamily(order=2), True),
], ids=["var1", "var2", "discrete1", "discrete2"])
def test_surrogate_results_do_not_depend_on_chunking(family, discrete, monkeypatch):
    """One row order per chunk, seven per chunk and all in one chunk give
    byte-identical results, for one- and two-node sources and in both
    conditioning modes."""
    panel, _ = gen_chain_example(600, seed=8)
    if discrete:
        panel = symbolize(panel, 3, "equal_frequency")
    T = panel.n_samples
    kwargs = dict(family=family, calibration="surrogate", surrogates=40, seed=5)
    runs = []
    for entries in (T, 7 * T, 2**30):
        monkeypatch.setattr(calibration, "_CHUNK_ENTRIES", entries)
        results = [llr_causality(panel, ["x"], ["y"], ["z"], **kwargs),
                   llr_causality(panel, ["x", "z"], ["y"], **kwargs),
                   llr_coupling(panel, ["z", "x"], ["y"], **kwargs)]
        results += [llr_coupling(panel, ["x"], ["y"], ["z"], mode=mode, **kwargs)
                    for mode in ConditioningMode]
        runs.append(json.dumps([res.to_json() for res in results]))
    assert runs[0] == runs[1] == runs[2]


def _traced_peak(fn):
    """Peak bytes traced by ``tracemalloc`` while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_var_surrogate_chunk_memory():
    """A VAR surrogate chunk allocates at most four (S, T) float stacks:
    A's gathered column and its lag windows, but no copy of the panel.
    Measured on one causality chunk of an 8-node VAR(2) panel (T = 5000,
    S = 52 row orders) after a first chunk has gathered the test's fixed
    rows; a copy of the panel per row order would take nine."""
    T, S = 5000, 52
    g = VarFamily(order=2)._prepare(_var_panel(6, nodes=8, order=2, T=T))
    stat_of = inference._var_causality(g, (0,), (1,), tuple(range(2, 8)))[0]
    perms = calibration._block_permutations(T, 10, np.random.default_rng(0), S)
    stat_of(perms)
    assert _traced_peak(lambda: stat_of(perms)) <= 4 * S * T * 8


def test_block_permutation_chunk_memory():
    """One chunk of row orders (T = 5000, block length 5, S = 13, the
    surrogate chunk at that T) holds its (S, T) int64 index and wraps it in
    place: a second (S, T) index array, such as a wrap through a lookup
    table, takes the traced peak past 2.5 of them."""
    T, S = 5000, 13

    def chunk():
        return calibration._block_permutations(T, 5, np.random.default_rng(0), S)

    chunk()  # numpy's first calls allocate caches of their own
    assert _traced_peak(chunk) <= 2.5 * S * T * 8


@pytest.mark.parametrize("T", [4000, 40000])
def test_panel_loops_take_fixed_block_memory(T, tmp_path):
    """Writing a panel and summing a target's sandwich meats hold a fixed
    number of rows at a time: the traced peak is one bound, independent of
    T, at T = 4,000 and at T = 40,000 (where the 8-node panel's text or its
    (n, 17) order-2 design stack alone would pass it)."""
    panel = _var_panel(6, nodes=8, order=2, T=T)
    bound = 2**21
    assert _traced_peak(lambda: write_panel(panel, tmp_path / "x.csv")) <= bound
    g = VarFamily(order=2)._prepare(panel)
    design, target = g.lags(range(8)), g.present([1])
    g.fit(design, target)
    assert _traced_peak(lambda: g.meats(design, target)) <= bound


@pytest.mark.parametrize("block_len", [5, 10])
@pytest.mark.parametrize("T", [7, 4000, 4001, 10007])
def test_block_permutation_matches_array_split_reference(T, block_len):
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = calibration._block_permutations(T, block_len, rng, 3)
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
        want = calibration._chi_square_result(stat, dof, n_obs, 0.05, weights=weights)
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
        g = VarFamily(order=order)._prepare(panel)
        got = inference._sandwich_weights(g, a_idx, b_idx, c_idx)
        want = reference.var_causality_stat(panel.values, a_idx, b_idx, c_idx, order)[3]
        per_target = (len(b_idx), -1)
        np.testing.assert_allclose(np.sort(np.reshape(got, per_target)),
                                   np.sort(np.reshape(want, per_target)),
                                   rtol=1e-12, atol=0, err_msg=name)


def test_sandwich_weights_match_lstsq_reference_in_small_blocks(monkeypatch):
    """The same with blocks of 1,000 gathered entries: each meat sums many
    blocks (58 rows each at 17 regressors) and a ragged last one."""
    monkeypatch.setattr(calibration, "_CHUNK_ENTRIES", 1000)
    test_sandwich_weights_match_lstsq_reference()


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


def test_generalized_llr_rejects_unknown_labels():
    panel, _ = gen_chain_example(1000, seed=1)
    for restriction in ([("y", "nosuch")], [("nosuch", "x")]):
        with pytest.raises(PartitionError, match="unknown node label 'nosuch'"):
            generalized_llr(panel, VarFamily(), restriction)


def test_generalized_llr_counts_a_repeated_link_once():
    panel, _ = gen_chain_example(2000, seed=1)
    once = generalized_llr(panel, VarFamily(), [("y", "x")])
    assert generalized_llr(panel, VarFamily(), [("y", "x"), ("y", "x")]) == once
    assert once.dof == 1


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


@pytest.mark.parametrize("memory", [1, 2, 3])
def test_glm_generalized_llr_matches_bfgs_reference(memory):
    """The logistic statistic against BFGS fits of stacked lag designs with
    an intercept (``tests/reference.py``): six seeded three-node networks,
    two masked links."""
    weights = {("a", "b"): [1.5, -0.5], ("b", "c"): [1.0], ("c", "a"): [-0.8, 0.4, 0.3]}
    for seed in range(6):
        panel, _ = gen_glm_spiking(weights, 2000, seed, bias={"a": -0.5, "b": -0.3, "c": 0.2})
        got = generalized_llr(panel, GlmSpikingFamily(memory), [("b", "a"), ("a", "c")])
        want = reference.glm_generalized_llr_stat(panel.values, memory, {1: [0], 0: [2]})
        assert abs(got.statistic - want) <= 1e-9, (seed, got.statistic, want)


@pytest.mark.parametrize("T", [1, 2])
def test_glm_panel_not_longer_than_memory_is_singular_design(T):
    with pytest.raises(SingularDesign, match=f"T={T} too short for order 2"):
        generalized_llr(iid_panel(T, 0), GlmSpikingFamily(2), [("x1", "x0")])


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
    # the DI increments at n = 1, 2 are 0 and 0.193, so the bracket at
    # horizon 2 is [0, 0.193]; from horizon 3 on it closes on the increment
    rep = stein_exponent_check(delay_channel(0.2), (0,), (1,), T_grid=(20,),
                               trials=1000, seed=3, rate_horizon=2)
    want = rate("di", delay_channel(0.2), (0,), (1,), n_max=2)
    assert (rep.di_rate, rep.rate_lower, rep.rate_upper) == (want.value, want.lower, want.upper)
    assert rep.rate_lower < 1e-12 and rep.rate_upper - rep.rate_lower > 0.19
    doc = rep.to_json()
    assert (doc["rate_lower"], doc["rate_upper"]) == (rep.rate_lower, rep.rate_upper)
    rep = stein_exponent_check(delay_channel(0.2), (0,), (1,), T_grid=(20,),
                               trials=1000, seed=3, rate_horizon=3)
    assert rep.rate_lower - 1e-12 <= rep.di_rate <= rep.rate_upper + 1e-12
    assert rep.rate_upper - rep.rate_lower <= 1e-12


def test_stein_rejects_degenerate_models():
    with pytest.raises(ParamError):
        stein_exponent_check(delay_channel(0.0), (0,), (1,), (100,), trials=1000)
    with pytest.raises(ParamError):
        stein_exponent_check(delay_channel(0.2), (0,), (1,), (100,), trials=10)


@pytest.mark.parametrize("miss_level", [0.0, 1.0, 1.5, -0.2, math.nan])
def test_stein_refuses_a_miss_level_outside_0_1(miss_level):
    with pytest.raises(ParamError, match=r"miss_level must lie in \(0, 1\)"):
        stein_exponent_check(delay_channel(0.1), (0,), (1,), (20,), trials=1000,
                             miss_level=miss_level)


STEIN_ORACLE_MODELS = {
    "delay": (delay_channel(0.2), (0,), (1,)),
    "lag2": (lag2_channel(0.2), (0,), (1,)),
    "alphabet3_order2": (random_markov_model(7, nodes=2, alphabet=3, order=2), (0,), (1,)),
    "three_nodes": (random_markov_model(8, nodes=3), (0, 2), (1,)),
    "order3": (random_markov_model(9, nodes=2, order=3), (0,), (1,)),
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
    flt = stein._BivariateFilter(model, a_nodes, b_nodes)
    assert np.max(np.abs(stein._stein_llr(flt, codes) - (log_p - log_q))) < 1e-12
    # sampled trajectory frequencies against p and q: chi-square goodness
    # of fit, pooling the cells expected fewer than 5 times
    T = codes.shape[1]
    index = {tuple(c): i for i, c in enumerate(codes.tolist())}
    n = 30_000
    rng = np.random.default_rng(2024)
    h1 = sample_codes(model, T, n, rng)
    h0, llr_h0 = stein._sample_h0(flt, T, n, rng)
    # the sampler's own LLR is the filter's, bit for bit
    assert np.array_equal(llr_h0, stein._stein_llr(flt, h0))
    for draws, log_law in ((h1, log_p), (h0, log_q)):
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
    cholesky = gaussian._cholesky

    def counted(gram):
        factorizations.append(gram.shape)
        return cholesky(gram)

    monkeypatch.setattr(gaussian, "_cholesky", counted)
    serial = infer_graph(panel, VarFamily(order=2), seed=5)
    assert 0 < len(factorizations) <= 100
    threaded = infer_graph(panel, VarFamily(order=2), seed=5, threads=2)
    assert json.dumps(serial.to_json(), sort_keys=True) == json.dumps(threaded.to_json(),
                                                                      sort_keys=True)


def test_graph_builds_each_target_meat_once(monkeypatch):
    """The 56 causality edges of an 8-node VAR graph share one weighted
    Gram per target: 8 passes over the panel, each gathering the n rows of
    its design and target once."""
    gathered = collections.Counter()
    rows = inference._LaggedGram.rows

    def counted(self, idx, start=0, stop=None):
        got = rows(self, idx, start, stop)
        gathered[tuple(idx)] += got.shape[0]
        return got

    monkeypatch.setattr(inference._LaggedGram, "rows", counted)
    graph = infer_graph(_var_panel(6, nodes=8, order=2, T=3000), VarFamily(order=2))
    assert len(graph.directed) == 56
    assert [len(idx) for idx in gathered] == [2 * 8 + 1] * 8
    assert list(gathered.values()) == [3000 - 2] * 8


@pytest.mark.parametrize("mode, entropies, steps",
                         [("strict_past", 108, 120), ("contemporaneous", 115, 127)])
@pytest.mark.parametrize("seed", [1, 1009])
def test_decompose_contracts_each_marginal_once(monkeypatch, seed, mode, entropies, steps):
    """The exact decomposition of the benchmark's 3-node binary model at
    n = 7 evaluates each distinct entropy and each kernel step once."""
    calls = {"_entropy": 0, "_step": 0}
    for name in calls:
        method = getattr(SequenceDistribution, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(SequenceDistribution, name, counted)
    model = random_markov_model(seed, nodes=3, alphabet=2, order=1)
    decompose(enumerate_joint(model, 7), make_partition(["x0", "x1", "x2"], ["x0"], ["x1"]),
              7, mode=mode)
    assert calls["_entropy"] <= entropies
    assert calls["_step"] <= steps


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
