import math

import numpy as np
import pytest

import oracle
from conftest import oracle_law, sticky_chain
from dirinfo.core import CellMask, make_partition
from dirinfo.discrete import enumerate_joint
from dirinfo.errors import (
    BudgetError,
    DivergenceInfinite,
    ParamError,
    PartitionError,
    SelectionError,
)
from dirinfo.measures import (
    ConditioningMode,
    causal_mutual_information,
    decompose,
    delayed_directed_information,
    delta_instantaneous,
    directed_information,
    entropy,
    instantaneous_exchange,
    kl_directed_information,
    lautum_transfer_rate,
    mutual_information,
    rate,
    schreiber_transfer_entropy,
)
from dirinfo.simulate import (
    chain_markov_model,
    common_driver_model,
    copy_channel,
    delay_channel,
    lag2_channel,
    random_feedback_free_model,
    random_markov_model,
    random_var_model,
)

LN2 = math.log(2.0)
CONTEMP = ConditioningMode.CONTEMPORANEOUS
STRICT = ConditioningMode.STRICT_PAST


def independent_pair():
    # two independent biased i.i.d. binary nodes
    kernel = np.zeros((4, 4))
    for nxt in range(4):
        x, y = nxt >> 1, nxt & 1
        kernel[:, nxt] = (0.3 if x else 0.7) * (0.6 if y else 0.4)
    from dirinfo.discrete import DiscreteMarkovModel

    return DiscreteMarkovModel(alphabet_sizes=(2, 2), order=1, kernel=kernel,
                               initial=kernel[0])


# ---------------------------------------------------------------------------
# entropy and mutual information
# ---------------------------------------------------------------------------

def test_entropy_uniform_binary():
    dist = enumerate_joint(delay_channel(), 3)
    assert entropy(dist, [0], [1]).value == pytest.approx(LN2)
    assert entropy(dist, [0], [1, 2, 3]).value == pytest.approx(3 * LN2)


def test_entropy_deterministic_zero():
    dist = enumerate_joint(copy_channel(), 2)
    # y(1) given nothing is a fair coin, but the pair (x, y) at one time
    # carries a single bit: H(x1, y1) = ln 2, so H(y1 | x1) = 0
    h_joint = entropy(dist, [0, 1], [1]).value
    assert h_joint == pytest.approx(LN2)


def test_mutual_information_independent_zero():
    dist = enumerate_joint(independent_pair(), 3)
    assert abs(mutual_information(dist, (0,), (1,), 3).value) < 1e-12


def test_mutual_information_copy_channel():
    dist = enumerate_joint(copy_channel(), 3)
    assert mutual_information(dist, (0,), (1,), 3).value == pytest.approx(3 * LN2)


def test_mutual_information_delay_channel_oracle():
    model = delay_channel()
    law = oracle_law(model, 3)
    want = oracle.mutual_information(law, (0,), (1,), 3)
    assert want == pytest.approx(2 * LN2)
    dist = enumerate_joint(model, 3)
    assert mutual_information(dist, (0,), (1,), 3).value == pytest.approx(want)


def test_mutual_information_rejects_overlap():
    dist = enumerate_joint(independent_pair(), 2)
    with pytest.raises(PartitionError):
        mutual_information(dist, (0,), (0,), 2)


@pytest.mark.parametrize("measure", [
    lambda m: entropy(m, [0], [1]),
    lambda m: mutual_information(m, (0,), (1,), 3),
    lambda m: directed_information(m, (0,), (1,), 3),
    lambda m: delayed_directed_information(m, (0,), (1,), 3),
    lambda m: instantaneous_exchange(m, (0,), (1,), 3),
    lambda m: delta_instantaneous(m, (0,), (1,), (2,), 3),
    lambda m: causal_mutual_information(m, (0,), (1,), 3),
    lambda m: schreiber_transfer_entropy(m, (0,), (1,), 1, 1, 3),
    lambda m: kl_directed_information(m, (0,), (1,), 3),
    lambda m: lautum_transfer_rate(m, (0,), (1,), 3),
], ids=["entropy", "mi", "di", "te", "iie", "delta", "causal_mi", "schreiber", "kl_di",
        "lautum"])
def test_finite_horizon_measures_refuse_a_var_model(measure):
    # a VAR model has exact rates only: rate and decompose take it
    with pytest.raises(ParamError, match="rate or decompose"):
        measure(random_var_model(3, nodes=3, order=2))


# ---------------------------------------------------------------------------
# directed information
# ---------------------------------------------------------------------------

def test_directed_information_independent_zero():
    dist = enumerate_joint(independent_pair(), 3)
    assert abs(directed_information(dist, (0,), (1,), 3).value) < 1e-12


def test_directed_information_equals_mi_without_feedback():
    # copy channel has no feedback, so DI(x -> y) = I(x; y)
    dist = enumerate_joint(copy_channel(), 3)
    di = directed_information(dist, (0,), (1,), 3).value
    mi = mutual_information(dist, (0,), (1,), 3).value
    assert di == pytest.approx(mi, abs=1e-12)
    assert di == pytest.approx(3 * LN2)


def test_conditional_di_on_chain_below_bivariate():
    model = chain_markov_model(0.1)
    law = oracle_law(model, 4)
    dist = enumerate_joint(model, 4)
    want_cond = oracle.directed_information(law, (0,), (2,), 4, (1,), "contemporaneous")
    want_bare = oracle.directed_information(law, (0,), (2,), 4)
    got_cond = directed_information(dist, (0,), (2,), 4, (1,), CONTEMP).value
    got_bare = directed_information(dist, (0,), (2,), 4).value
    assert got_cond == pytest.approx(want_cond, abs=1e-11)
    assert got_bare == pytest.approx(want_bare, abs=1e-11)
    assert got_cond < got_bare


@pytest.mark.parametrize("seed", range(50))
def test_kl_form_equals_chain_rule(seed):
    model = random_markov_model(seed, nodes=2)
    dist = enumerate_joint(model, 4)
    chain = directed_information(dist, (0,), (1,), 4).value
    kl = kl_directed_information(dist, (0,), (1,), 4).value
    assert abs(chain - kl) < 1e-10


def test_kl_form_delay_channel():
    dist = enumerate_joint(delay_channel(), 3)
    assert kl_directed_information(dist, (0,), (1,), 3).value == pytest.approx(2 * LN2)


# ---------------------------------------------------------------------------
# transfer entropy (delayed directed information)
# ---------------------------------------------------------------------------

def test_delayed_di_copy_channel_zero():
    dist = enumerate_joint(copy_channel(), 3)
    assert abs(delayed_directed_information(dist, (0,), (1,), 3).value) < 1e-12


def test_delayed_di_delay_channel():
    dist = enumerate_joint(delay_channel(), 3)
    assert delayed_directed_information(dist, (0,), (1,), 3).value == pytest.approx(2 * LN2)


def test_delayed_di_chain_fully_relayed():
    dist = enumerate_joint(chain_markov_model(0.1), 5)
    te = delayed_directed_information(dist, (0,), (2,), 5, (1,), STRICT).value
    assert abs(te) < 1e-10


# ---------------------------------------------------------------------------
# instantaneous exchange and the delta term
# ---------------------------------------------------------------------------

def test_iie_delay_channel_zero():
    dist = enumerate_joint(delay_channel(), 3)
    assert abs(instantaneous_exchange(dist, (0,), (1,), 3).value) < 1e-12


def test_iie_copy_channel():
    dist = enumerate_joint(copy_channel(), 3)
    assert instantaneous_exchange(dist, (0,), (1,), 3).value == pytest.approx(3 * LN2)


def test_iie_common_driver_intrinsic_vs_extrinsic():
    model = common_driver_model(0.1)
    law = oracle_law(model, 3)
    dist = enumerate_joint(model, 3)
    bare = instantaneous_exchange(dist, (0,), (1,), 3).value
    conditioned = instantaneous_exchange(dist, (0,), (1,), 3, (2,), CONTEMP).value
    assert bare == pytest.approx(oracle.instantaneous_exchange(law, (0,), (1,), 3), abs=1e-11)
    assert bare > 0.1
    assert abs(conditioned) < 1e-10


@pytest.mark.parametrize("mode", [CONTEMP, STRICT])
def test_mode_value_gives_the_member_results(mode):
    dist = enumerate_joint(random_markov_model(3, nodes=3), 4)
    for measure in (directed_information, instantaneous_exchange):
        by_member = measure(dist, (0,), (1,), 4, (2,), mode).value
        assert measure(dist, (0,), (1,), 4, (2,), mode.value).value == by_member


def test_unknown_mode_is_param_error():
    dist = enumerate_joint(delay_channel(), 3)
    with pytest.raises(ParamError, match="unknown mode 'bogus'"):
        directed_information(dist, (0,), (1,), mode="bogus")


@pytest.mark.parametrize("mode", [CONTEMP, STRICT])
def test_iie_symmetry(mode):
    model = random_markov_model(3, nodes=3)
    dist = enumerate_joint(model, 4)
    ab = instantaneous_exchange(dist, (0,), (1,), 4, (2,), mode).value
    ba = instantaneous_exchange(dist, (1,), (0,), 4, (2,), mode).value
    assert abs(ab - ba) < 1e-12


def test_definition3_vs_definition4_genuinely_differ():
    model = random_markov_model(0, nodes=3)
    dist = enumerate_joint(model, 4)
    v3 = instantaneous_exchange(dist, (0,), (1,), 4, (2,), CONTEMP).value
    v4 = instantaneous_exchange(dist, (0,), (1,), 4, (2,), STRICT).value
    assert abs(v3 - v4) > 1e-3


def test_delta_independent_side_zero():
    model = random_markov_model(5, nodes=2)
    # append an independent third node by a product construction
    from dirinfo.discrete import DiscreteMarkovModel

    base = model.kernel  # (4, 4) over (x, y)
    kernel = np.zeros((8, 8))
    for row in range(8):
        for nxt in range(8):
            kernel[row, nxt] = base[row >> 1, nxt >> 1] * 0.5
    initial = np.repeat(model.initial, 2) * 0.5
    model3 = DiscreteMarkovModel(alphabet_sizes=(2, 2, 2), order=1, kernel=kernel,
                                 initial=initial)
    dist = enumerate_joint(model3, 4)
    assert abs(delta_instantaneous(dist, (0,), (1,), (2,), 4).value) < 1e-10


def test_delta_requires_side_set():
    dist = enumerate_joint(independent_pair(), 3)
    with pytest.raises(PartitionError):
        delta_instantaneous(dist, (0,), (1,), (), 3)


def test_delta_common_driver_matches_oracle():
    model = common_driver_model(0.1)
    law = oracle_law(model, 3)
    dist = enumerate_joint(model, 3)
    # roles permuted: the sticky driver w supplies the extra past, the
    # noisy copies x and y are the coupled pair
    want = oracle.delta_instantaneous(law, (2,), (1,), (0,), 3)
    got = delta_instantaneous(dist, (2,), (1,), (0,), 3).value
    assert got == pytest.approx(want, abs=1e-11)
    assert abs(got) > 1e-3


# ---------------------------------------------------------------------------
# Schreiber transfer entropy
# ---------------------------------------------------------------------------

def test_schreiber_delay_channel_oracle():
    model = delay_channel()
    law = oracle_law(model, 4)
    want = oracle.cmi(law, oracle.cells((0,), [3]), oracle.cells((1,), [4]),
                      oracle.cells((1,), [3]))
    assert want == pytest.approx(LN2)
    dist = enumerate_joint(model, 4)
    got = schreiber_transfer_entropy(dist, (0,), (1,), k=1, l=1, n=4).value
    assert got == pytest.approx(want, abs=1e-12)


def test_schreiber_independent_zero():
    dist = enumerate_joint(independent_pair(), 4)
    assert abs(schreiber_transfer_entropy(dist, (0,), (1,), 2, 2, 4).value) < 1e-12


def test_schreiber_needs_long_enough_source_memory():
    dist = enumerate_joint(lag2_channel(0.1), 5)
    short = schreiber_transfer_entropy(dist, (0,), (1,), k=2, l=1, n=5).value
    long = schreiber_transfer_entropy(dist, (0,), (1,), k=2, l=2, n=5).value
    assert abs(short) < 1e-10
    assert long > 0.3


def test_schreiber_full_memory_is_last_summand():
    model = random_markov_model(8, nodes=2)
    dist = enumerate_joint(model, 4)
    full = schreiber_transfer_entropy(dist, (0,), (1,), k=3, l=3, n=4).value
    ddi_4 = delayed_directed_information(dist, (0,), (1,), 4).value
    ddi_3 = delayed_directed_information(dist, (0,), (1,), 3).value
    assert full == pytest.approx(ddi_4 - ddi_3, abs=1e-12)


def test_schreiber_param_errors():
    dist = enumerate_joint(independent_pair(), 4)
    with pytest.raises(ParamError):
        schreiber_transfer_entropy(dist, (0,), (1,), k=4, l=1, n=4)
    with pytest.raises(ParamError):
        schreiber_transfer_entropy(dist, (0,), (1,), k=1, l=0, n=4)


# ---------------------------------------------------------------------------
# lautum transfer rate
# ---------------------------------------------------------------------------

def test_lautum_independent_zero():
    assert lautum_transfer_rate(independent_pair(), (0,), (1,), n=4).value < 1e-12


def test_lautum_noisy_lagged_channel_matches_oracle():
    model = delay_channel(0.1)
    law = oracle_law(model, 4)
    want = oracle.lautum_transfer(law, (0,), (1,), 4)
    got = lautum_transfer_rate(model, (0,), (1,), n=4).value
    assert math.isfinite(want) and want > 0.01
    assert got == pytest.approx(want, abs=1e-11)


def test_lautum_support_mismatch_flagged():
    with pytest.warns(DivergenceInfinite):
        value = lautum_transfer_rate(delay_channel(0.0), (0,), (1,), n=4).value
    assert math.isinf(value)


def test_lautum_differs_from_directed_information():
    model = random_markov_model(0, nodes=2, concentration=2.0)
    lt = lautum_transfer_rate(model, (0,), (1,), n=5).value
    di = rate("di", model, (0,), (1,), n_max=5).value
    assert abs(lt - di) > 1e-3


# ---------------------------------------------------------------------------
# decomposition bundle
# ---------------------------------------------------------------------------

def test_decompose_independent_trivariate_all_zero():
    from dirinfo.discrete import DiscreteMarkovModel

    kernel = np.full((8, 8), 1 / 8)
    model = DiscreteMarkovModel(alphabet_sizes=(2, 2, 2), order=1, kernel=kernel,
                                initial=np.full(8, 1 / 8))
    part = make_partition(["x", "y", "z"], ["x"], ["y"])
    dec = decompose(enumerate_joint(model, 4), part, 4)
    for name in ("di_ab", "di_ba", "te_ab", "te_ba", "iie", "mi", "delta_cb"):
        assert abs(getattr(dec, name)) < 1e-12
    assert dec.max_residual() < 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_decompose_residuals_random_models(seed):
    model = random_markov_model(seed, nodes=3)
    part = make_partition(["x0", "x1", "x2"], ["x0"], ["x1"])
    dec = decompose(enumerate_joint(model, 4), part, 4)
    assert dec.max_residual() < 1e-9


def test_decompose_common_driver_identity5_with_nonzero_delta():
    # side set C = {x}, so the delta term couples x with y given w's past
    part = make_partition(["x", "y", "w"], ["w"], ["y"])
    dec = decompose(enumerate_joint(common_driver_model(0.1), 4), part, 4)
    assert abs(dec.delta_cb) > 1e-3
    assert abs(dec.residuals["id5"]) < 1e-9


def test_decompose_matches_oracle_terms():
    model = random_markov_model(13, nodes=3)
    law = oracle_law(model, 3)
    part = make_partition(["a", "b", "c"], ["a"], ["b"])
    dec = decompose(enumerate_joint(model, 3), part, 3, mode=STRICT)
    assert dec.te_ab == pytest.approx(
        oracle.delayed_directed_information(law, (0,), (1,), 3, (2,), "strict_past"), abs=1e-11)
    assert dec.iie == pytest.approx(
        oracle.instantaneous_exchange(law, (0,), (1,), 3, (2,), "strict_past"), abs=1e-11)
    assert dec.mi == pytest.approx(
        oracle.causal_mutual_information(law, (0,), (1,), 3, (2,)), abs=1e-11)


class _FreshPerEntropy:
    """The law of ``model`` up to ``n``, enumerated anew for each entropy,
    so no two marginals share a contraction step."""

    def __init__(self, model, n):
        self.model, self.horizon, self.n_nodes = model, n, model.n_nodes

    def entropy_of_cells(self, cells):
        return enumerate_joint(self.model, self.horizon).entropy_of_cells(cells)


@pytest.mark.parametrize("mode", list(ConditioningMode))
@pytest.mark.parametrize("seed, order", [(1, 1), (4, 2)])
def test_decompose_with_shared_steps_equals_fresh_contractions(seed, order, mode):
    model = random_markov_model(seed, nodes=3, order=order)
    part = make_partition(["x0", "x1", "x2"], ["x0"], ["x1"])
    shared = decompose(enumerate_joint(model, 6), part, 6, mode=mode)
    assert decompose(_FreshPerEntropy(model, 6), part, 6, mode=mode) == shared


def test_decompose_budget_error_same_when_repeated():
    # the second call finds the entropies and steps of the first memoized
    dist = enumerate_joint(random_markov_model(1, nodes=3), 5, budget=1023)
    part = make_partition(["x0", "x1", "x2"], ["x0"], ["x1"])
    required = []
    for _ in range(2):
        with pytest.raises(BudgetError) as err:
            decompose(dist, part, 5)
        required.append(err.value.required)
    assert dist._step_memo
    assert required == [1024, 1024]


@pytest.mark.parametrize("mode", list(ConditioningMode))
@pytest.mark.parametrize("seed", [1, 2, 1009])
def test_decompose_caches_oracle_entropies(seed, mode):
    model = random_markov_model(seed, nodes=3)
    law = oracle_law(model, 4)
    dist = enumerate_joint(model, 4)
    decompose(dist, make_partition(["x0", "x1", "x2"], ["x0"], ["x1"]), 4, mode=mode)
    assert len(dist._entropy_cache) > 50
    for mask, h in dist._entropy_cache.items():
        cells = [(b % 3, b // 3 + 1) for b in range(12) if mask >> b & 1]
        assert h == pytest.approx(oracle.H(law, cells), abs=1e-12)


def test_entropy_of_cells_takes_masks_and_cells_alike():
    dist = enumerate_joint(random_markov_model(3, nodes=3), 4)
    cells = {(0, 1), (2, 2), (1, 4)}
    mask = CellMask(1 << 0 | 1 << 5 | 1 << 10)
    assert sorted(mask) == [0, 5, 10]
    assert dist.entropy_of_cells(mask) == dist.entropy_of_cells(cells)
    np.testing.assert_array_equal(dist.cell_marginal(mask), dist.cell_marginal(cells))
    assert dist.entropy_of_cells(CellMask(0)) == 0.0
    with pytest.raises(SelectionError):
        dist.entropy_of_cells(CellMask(1 << 12))
    with pytest.raises(SelectionError):
        dist.cell_marginal([(0, 5)])


def test_decompose_json_fields():
    part = make_partition(["x", "y"], ["x"], ["y"])
    dec = decompose(enumerate_joint(copy_channel(0.2), 3), part, 3)
    doc = dec.to_json()
    assert set(doc) == {"di_ab", "di_ba", "te_ab", "te_ba", "iie", "mi",
                        "delta_cb", "residuals", "horizon", "mode"}
    assert set(doc["residuals"]) == {f"id{i}" for i in range(1, 7)}


# ---------------------------------------------------------------------------
# nonnegativity and feedback properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_nonnegativity_and_feedback_direction(seed):
    model = random_markov_model(seed, nodes=2)
    dist = enumerate_joint(model, 4)
    mi = mutual_information(dist, (0,), (1,), 4).value
    di = directed_information(dist, (0,), (1,), 4).value
    te = delayed_directed_information(dist, (0,), (1,), 4).value
    iie = instantaneous_exchange(dist, (0,), (1,), 4).value
    h = entropy(dist, [0], [1, 2]).value
    for val in (mi, di, te, iie, h):
        assert val >= -1e-9
    # MI - DI equals the feedback flow, itself a directed information
    assert mi - di >= -1e-9


@pytest.mark.parametrize("seed", range(5))
def test_no_feedback_theorem(seed):
    model = random_feedback_free_model(seed)
    dist = enumerate_joint(model, 5)
    mi = mutual_information(dist, (0,), (1,), 5).value
    di = directed_information(dist, (0,), (1,), 5).value
    assert abs(mi - di) < 1e-10


# ---------------------------------------------------------------------------
# causal mutual information and rates
# ---------------------------------------------------------------------------

def test_causal_mi_reduces_to_mi_without_side_set():
    model = random_markov_model(21, nodes=2)
    dist = enumerate_joint(model, 4)
    plain = mutual_information(dist, (0,), (1,), 4).value
    causal = causal_mutual_information(dist, (0,), (1,), 4).value
    assert causal == pytest.approx(plain, abs=1e-12)


def test_rate_independent_zero():
    est = rate("di", independent_pair(), (0,), (1,), n_max=5)
    assert abs(est.value) < 1e-12
    assert abs(est.lower) < 1e-12 and abs(est.upper) < 1e-12


def test_rate_delay_channel():
    model = delay_channel()
    di = rate("di", model, (0,), (1,), n_max=5)
    assert di.value == pytest.approx(LN2)
    # the increments are ln 2 from n = 2 on, and the bracket is exact
    assert (di.lower, di.upper) == pytest.approx((LN2, LN2), abs=1e-12)
    assert abs(rate("iie", model, (0,), (1,), n_max=5).value) < 1e-12


def test_rate_copy_channel():
    model = copy_channel()
    assert abs(rate("te", model, (0,), (1,), n_max=5).value) < 1e-12
    assert rate("iie", model, (0,), (1,), n_max=5).value == pytest.approx(LN2)


@pytest.mark.parametrize("measure, summed", [
    ("di", directed_information), ("te", delayed_directed_information),
    ("iie", instantaneous_exchange), ("mi", causal_mutual_information)])
def test_rate_reads_the_measures_own_terms(measure, summed):
    from dirinfo.discrete import with_stationary_initial

    model = random_markov_model(17, nodes=3)
    est = rate(measure, model, (0,), (1,), (2,), n_max=5)
    dist = enumerate_joint(with_stationary_initial(model), 5)
    kwargs = {} if measure == "mi" else {"mode": STRICT}
    total = summed(dist, (0,), (1,), 5, (2,), **kwargs).value
    shorter = summed(dist, (0,), (1,), 4, (2,), **kwargs).value
    assert est.value == pytest.approx(total - shorter, abs=1e-12)


def test_rate_of_slowly_mixing_chain_starts_from_exact_law():
    # the power iteration raised FitError on this chain
    model = sticky_chain(3e-5)
    est = rate("di", model, (0,), (1,), n_max=5)
    exact = [float(p) for p in oracle.stationary_law(model.kernel, 4, 1)]
    from dirinfo.discrete import DiscreteMarkovModel

    law = oracle_law(DiscreteMarkovModel((2, 2), 1, model.kernel, exact), 5)
    increment = (oracle.directed_information(law, [0], [1], 5)
                 - oracle.directed_information(law, [0], [1], 4))
    assert est.value == pytest.approx(increment, abs=1e-12)


def test_rate_charges_the_stationary_law_to_the_budget():
    model = random_markov_model(4, nodes=3)
    with pytest.raises(BudgetError) as err:
        rate("di", model, (0,), (1,), n_max=2, budget=63)
    assert err.value.required == 64


def test_rate_rejects_unknown_measure():
    with pytest.raises(ParamError):
        rate("entropy", delay_channel(), (0,), (1,), n_max=4)


RATE_SUMS = {"di": directed_information, "te": delayed_directed_information,
             "iie": instantaneous_exchange, "mi": causal_mutual_information}


@pytest.mark.parametrize("order, far", [(1, 9), (2, 7)])
def test_rate_bracket_holds_the_limit(order, far):
    # Birch's bracket at n = 4 holds its own increment and the one at n = far,
    # and the bracket at n = 5 nests inside it
    from dirinfo.discrete import with_stationary_initial

    for seed in range(1, 21):
        model = random_markov_model(seed, nodes=3, order=order)
        dist = enumerate_joint(with_stationary_initial(model), far)
        for measure, summed in RATE_SUMS.items():
            for c in ((), (2,)):
                for mode in ((STRICT,) if measure == "mi" else (STRICT, CONTEMP)):
                    kwargs = {} if measure == "mi" else {"mode": mode}
                    ref = (summed(dist, (0,), (1,), far, c, **kwargs).value
                           - summed(dist, (0,), (1,), far - 1, c, **kwargs).value)
                    at4, at5 = (rate(measure, model, (0,), (1,), c, mode, n_max=n)
                                for n in (4, 5))
                    for value in (at4.value, ref):
                        assert at4.lower - 1e-12 <= value <= at4.upper + 1e-12
                    assert at4.lower - 1e-12 <= at5.lower
                    assert at5.upper <= at4.upper + 1e-12


def test_rate_bracket_of_the_delay_channel_is_exact():
    # DI increments are 0 at n = 1 and ln 2 - h(0.2) from n = 2 on
    h = -(0.2 * math.log(0.2) + 0.8 * math.log(0.8))
    at2 = rate("di", delay_channel(0.2), (0,), (1,), n_max=2)
    assert (at2.lower, at2.upper) == pytest.approx((0.0, LN2 - h), abs=1e-12)
    at3 = rate("di", delay_channel(0.2), (0,), (1,), n_max=3)
    assert at3.upper - at3.lower <= 1e-12
    assert at3.value == pytest.approx(LN2 - h, abs=1e-12)


def test_rate_bracket_below_the_model_order():
    # the initial cells are capped at the horizon: n_max = 1 < order = 2
    model = random_markov_model(7, nodes=2, alphabet=3, order=2)
    est = rate("di", model, (0,), (1,), n_max=1)
    ref = rate("di", model, (0,), (1,), n_max=8).value
    assert est.lower <= min(est.value, ref) and max(est.value, ref) <= est.upper
