
import math

import numpy as np
import pytest

import oracle
import reference
from conftest import oracle_law, sticky_chain
from dirinfo import inference
from dirinfo.core import DEFAULT_STATE_BUDGET, SequenceDistribution, TimeSeriesPanel, cells_of
from dirinfo.discrete import (
    DiscreteMarkovModel,
    enumerate_joint,
    fit_plugin,
    marginal,
    model_from_json,
    model_to_json,
    draw_symbols,
    draw_window,
    sample_panel,
    sample_panels,
    stationary_window_distribution,
    with_stationary_initial,
)
from dirinfo.errors import BudgetError, InsufficientData, InvalidModel, SelectionError
from dirinfo.simulate import delay_channel, random_markov_model


def iid_uniform(nodes=1, m=2):
    M = m**nodes
    return DiscreteMarkovModel(alphabet_sizes=(m,) * nodes, order=1,
                               kernel=np.full((M, M), 1.0 / M),
                               initial=np.full(M, 1.0 / M))


def test_enumerate_iid_uniform():
    dist = enumerate_joint(iid_uniform(), 3)
    assert dist.pmf.shape == (2, 2, 2)
    assert np.allclose(dist.pmf, 1 / 8)


def test_enumerate_deterministic_identity_kernel():
    kernel = np.eye(2)
    model = DiscreteMarkovModel(alphabet_sizes=(2,), order=1, kernel=kernel,
                                initial=np.array([0.5, 0.5]))
    dist = enumerate_joint(model, 4)
    assert dist.pmf[0, 0, 0, 0] == pytest.approx(0.5)
    assert dist.pmf[1, 1, 1, 1] == pytest.approx(0.5)
    assert np.sum(dist.pmf > 0) == 2


def test_delay_channel_output_marginal_uniform():
    # oracle check: summing the enumerated table over x-sequences leaves
    # y^n uniform
    model = delay_channel()
    law = oracle_law(model, 3)
    y_marg = oracle.marg(law, oracle.cells([1], [1, 2, 3]))
    assert all(p == pytest.approx(1 / 8) for p in y_marg.values())
    dist = enumerate_joint(model, 3)
    got = marginal(dist, [1], [1, 2, 3])
    assert np.allclose(got.pmf, 1 / 8)


@pytest.mark.parametrize("seed", range(4))
def test_kolmogorov_consistency(seed):
    model = random_markov_model(seed, nodes=2)
    longer = enumerate_joint(model, 4)
    shorter = enumerate_joint(model, 3)
    reduced = marginal(longer, [0, 1], [1, 2, 3])
    assert np.max(np.abs(reduced.pmf - shorter.pmf)) < 1e-12


@pytest.mark.parametrize("order", [1, 2])
def test_enumerate_reproduces_initial(order):
    model = random_markov_model(3, nodes=2, order=order)
    dist = enumerate_joint(model, order + 2)
    init = marginal(dist, [0, 1], range(1, order + 1))
    assert np.max(np.abs(init.pmf.ravel() - model.initial.reshape(init.pmf.shape).ravel())) < 1e-12


def test_budget_error_reports_requirement():
    # the chain itself is small; the dense table is charged when built
    dist = enumerate_joint(iid_uniform(nodes=2), 12, budget=2**20)
    with pytest.raises(BudgetError) as err:
        dist.pmf
    assert err.value.required == 4**12
    assert err.value.budget == 2**20


def test_enumerate_matches_oracle_order2():
    model = random_markov_model(9, nodes=2, order=2)
    dist = enumerate_joint(model, 4)
    law = oracle_law(model, 4)
    for traj, p in law.items():
        idx = tuple(s for step in traj for s in step)
        assert dist.pmf[idx] == pytest.approx(p, abs=1e-13)


# ---------------------------------------------------------------------------
# chain contraction
# ---------------------------------------------------------------------------

def mixed_alphabet_model(seed, order=1, sizes=(2, 3)):
    rng = np.random.default_rng(seed)
    M = int(np.prod(sizes))
    return DiscreteMarkovModel(alphabet_sizes=sizes, order=order,
                               kernel=rng.dirichlet(np.ones(M), size=M**order),
                               initial=rng.dirichlet(np.ones(M**order)))


CHAIN_CASES = {
    "order2": (random_markov_model(9, nodes=2, order=2), 5),
    "mixed_alphabet": (mixed_alphabet_model(1), 4),
    "mixed_alphabet_order2": (mixed_alphabet_model(2, order=2), 4),
    "three_nodes": (random_markov_model(4, nodes=3), 4),
    # steps whose two-sample window is partly kept, over three nodes
    "three_nodes_order2": (random_markov_model(10, nodes=3, order=2), 5),
    "three_nodes_mixed_alphabet": (mixed_alphabet_model(3, sizes=(2, 3, 2)), 4),
}


def contraction_cell_sets(d, n, seed=0):
    """Cell sets of past/now form and of every other shape the contraction
    must handle: random subsets, time gaps, sets ending before the horizon,
    Schreiber windows and a full past followed by a gap."""
    every = [(a, t) for t in range(1, n + 1) for a in range(d)]
    rng = np.random.default_rng(seed)
    sets = [frozenset(c for c in every if rng.random() < 0.4) for _ in range(12)]
    sets += [cells_of(range(d), range(1, i)) | cells_of([0], [i]) for i in range(1, n + 1)]
    sets += [cells_of(range(d), range(1, n + 1)),
             frozenset({(0, 1), (d - 1, n)}),
             cells_of([0], [1, 3]) | cells_of([1], [2]),
             cells_of(range(d), [1, 2]) | cells_of([1], [n])]
    sets += [cells_of([0], range(n - l, n)) | cells_of([1], range(n - k, n + 1))
             for k, l in ((1, 1), (2, 1), (1, 3))]
    return [cells for cells in sets if cells]


def dense_oracle_marginal(law, cells, sizes):
    ordered = sorted(cells, key=lambda c: (c[1], c[0]))
    table = np.zeros(tuple(sizes[a] for a, _ in ordered))
    for key, p in oracle.marg(law, cells).items():
        table[key] = p
    return table


@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
def test_contracted_marginals_match_oracle(case):
    model, n = CHAIN_CASES[case]
    law = oracle_law(model, n)
    chain = enumerate_joint(model, n)
    table = SequenceDistribution(model.alphabet_sizes, n, pmf=reference.chained_table(model, n))
    for cells in contraction_cell_sets(model.n_nodes, n):
        want = dense_oracle_marginal(law, cells, model.alphabet_sizes)
        assert np.max(np.abs(chain.cell_marginal(cells) - want)) < 1e-12
        h = oracle.H(law, cells)
        assert abs(chain.entropy_of_cells(cells) - h) < 1e-12
        assert abs(table.entropy_of_cells(cells) - h) < 1e-12


@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
def test_schreiber_windows_match_oracle(case):
    from dirinfo.measures import schreiber_transfer_entropy

    model, n = CHAIN_CASES[case]
    law = oracle_law(model, n)
    dist = enumerate_joint(model, n)
    for k, l in ((1, 1), (2, 1), (1, 2), (n - 1, n - 1)):
        for m in range(max(k, l) + 1, n + 1):
            want = oracle.cmi(law, oracle.cells((0,), range(m - l, m)), oracle.cells((1,), [m]),
                              oracle.cells((1,), range(m - k, m)))
            got = schreiber_transfer_entropy(dist, (0,), (1,), k=k, l=l, n=m).value
            assert abs(got - want) < 1e-12


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_pmf_equals_chained_product(order, n):
    for model in (random_markov_model(3, nodes=3, order=order),
                  mixed_alphabet_model(5, order=order)):
        assert np.array_equal(enumerate_joint(model, n).pmf, reference.chained_table(model, n))


def test_budget_charges_largest_intermediate():
    # node 0 over six samples, node 1 carried through the window: the last
    # two steps each allocate 2**6 entries
    model = random_markov_model(7, nodes=2)
    cells = cells_of([0], range(1, 7))
    dist = enumerate_joint(model, 6, budget=2**6 - 1)
    with pytest.raises(BudgetError) as err:
        dist.entropy_of_cells(cells)
    assert (err.value.required, err.value.budget) == (2**6, 2**6 - 1)
    assert "64 entries" in str(err.value)
    # the whole past of V is split off by the chain rule and never laid out
    full = cells_of([0, 1], range(1, 6)) | cells_of([0], [6])
    assert dist.entropy_of_cells(full) == pytest.approx(
        enumerate_joint(model, 6).entropy_of_cells(full), abs=1e-12)
    assert enumerate_joint(model, 6, budget=2**6).entropy_of_cells(cells) == pytest.approx(
        oracle.H(oracle_law(model, 6), cells), abs=1e-12)


def test_budget_error_same_with_step_memo_cold_and_warm():
    # node 0 over 1..4 runs the first steps of node 0 over 1..6, whose plan
    # needs 2**6 entries
    model = random_markov_model(7, nodes=2)
    cells = cells_of([0], range(1, 7))
    cold = enumerate_joint(model, 6, budget=2**6 - 1)
    with pytest.raises(BudgetError) as err_cold:
        cold.entropy_of_cells(cells)
    warm = enumerate_joint(model, 6, budget=2**6 - 1)
    warm.entropy_of_cells(cells_of([0], range(1, 5)))
    memo = dict(warm._step_memo)
    assert memo
    with pytest.raises(BudgetError) as err_warm:
        warm.entropy_of_cells(cells)
    assert err_cold.value.required == err_warm.value.required == 2**6
    assert warm._step_memo == memo  # the check runs before any step


@pytest.mark.parametrize("seed", range(8))
def test_step_memo_keeps_passes_from_different_starts_apart(seed):
    # both passes reach time 4 carrying every node at times 3 and 4: one
    # starts from the window law at time 3, the other from the initial law
    model = random_markov_model(seed, nodes=3)
    sets = (cells_of(range(3), range(1, 4)) | cells_of([0], [5]),
            cells_of(range(3), [3]) | cells_of([0], [5]))
    dist = enumerate_joint(model, 5)
    assert [dist.entropy_of_cells(c) for c in sets] == \
        [enumerate_joint(model, 5).entropy_of_cells(c) for c in sets]


def test_dense_builds_leave_step_memo_unchanged():
    # reading the dense table or a cell marginal runs steps that no
    # entropy pass shares; they must not stay in the memo
    model = random_markov_model(1, nodes=3, alphabet=2, order=1)
    dist = enumerate_joint(model, 6)
    dist.entropy_of_cells(cells_of([0, 1], range(1, 6)))
    memo = dict(dist._step_memo)
    assert memo
    dist.pmf
    dist.cell_marginal(cells_of([0, 2], range(1, 7)))
    marginal(dist, [1], range(2, 7))
    assert dist._step_memo == memo


def test_horizon_past_dense_budget():
    # a stationary order-1 chain has H(x^n) = H(x_1) + (n - 1) H(x_2 | x_1)
    model = with_stationary_initial(random_markov_model(2, nodes=3))
    assert 8**10 > DEFAULT_STATE_BUDGET
    dist = enumerate_joint(model, 10)
    short = enumerate_joint(model, 2)
    h1, h2 = (short.entropy_of_cells(cells_of(range(3), range(1, t + 1))) for t in (1, 2))
    h10 = dist.entropy_of_cells(cells_of(range(3), range(1, 11)))
    assert abs(h10 - (h1 + 9 * (h2 - h1))) < 1e-10
    with pytest.raises(BudgetError) as err:
        dist.pmf
    assert err.value.required == 8**10


# ---------------------------------------------------------------------------
# plug-in fitting
# ---------------------------------------------------------------------------

# linear de Bruijn walk over the 4 joint symbols: every transition once
DEBRUIJN_4 = [0, 0, 1, 0, 2, 0, 3, 1, 1, 2, 1, 3, 2, 2, 3, 3, 0]


def test_fit_plugin_uniform_on_balanced_transitions():
    rows = np.array([[s >> 1, s & 1] for s in DEBRUIJN_4])
    panel = TimeSeriesPanel(values=rows, labels=("a", "b"))
    model = fit_plugin(panel, order=1, smoothing=0.0)
    assert np.allclose(model.kernel, 0.25)


def test_fit_plugin_heavy_smoothing_tends_uniform():
    rows = np.array([[0, 0]] * 50 + [[1, 1]] * 3)
    panel = TimeSeriesPanel(values=rows, labels=("a", "b"))
    model = fit_plugin(panel, order=1, smoothing=1e9)
    assert np.max(np.abs(model.kernel - 0.25)) < 1e-6


def test_fit_plugin_counts_match_hand_tally():
    rows = np.array([[0, 0], [0, 1], [0, 0], [1, 0], [0, 0], [0, 1]])
    panel = TimeSeriesPanel(values=rows, labels=("a", "b"))
    model = fit_plugin(panel, order=1, smoothing=0.0)
    # joint symbols: 0,1,0,2,0,1 -> transitions 0->1, 1->0, 0->2, 2->0, 0->1
    assert model.kernel[0, 1] == pytest.approx(2 / 3)
    assert model.kernel[0, 2] == pytest.approx(1 / 3)
    assert model.kernel[1, 0] == pytest.approx(1.0)
    assert model.kernel[2, 0] == pytest.approx(1.0)


def test_fit_plugin_converges_on_sampled_data():
    model = random_markov_model(17, nodes=2)
    model = with_stationary_initial(model)
    panel = sample_panel(model, 100_000, seed=5)
    fitted = fit_plugin(panel, order=1, smoothing=0.0, alphabet_sizes=(2, 2))
    err = np.abs(fitted.kernel - model.kernel)
    assert err.max() < 0.02
    # within three standard errors per cell
    pi = stationary_window_distribution(model)
    row_counts = pi * (panel.n_samples - 1)
    se = np.sqrt(model.kernel * (1 - model.kernel) / row_counts[:, None])
    assert np.all(err <= 3.0 * se + 1e-9)


def test_fit_plugin_insufficient_data():
    panel = TimeSeriesPanel(values=np.array([[0, 1], [1, 0]]), labels=("a", "b"))
    with pytest.raises(InsufficientData):
        fit_plugin(panel, order=2)


@pytest.mark.parametrize("kwargs, message", [
    (dict(smoothing=-0.5), "smoothing must be finite and >= 0"),
    (dict(smoothing=float("nan")), "smoothing must be finite and >= 0"),
    (dict(smoothing=float("inf")), "smoothing must be finite and >= 0"),
    (dict(order=0), "order must be >= 1"),
], ids=["negative_smoothing", "nan_smoothing", "inf_smoothing", "order_0"])
def test_fit_plugin_refuses_bad_parameters(kwargs, message):
    panel = TimeSeriesPanel(values=np.array([[0, 1], [1, 0], [1, 1]]), labels=("a", "b"))
    with pytest.raises(InvalidModel, match=message):
        fit_plugin(panel, **{"order": 1, **kwargs})


def test_fit_plugin_rejects_float_panel():
    panel = TimeSeriesPanel(values=np.zeros((10, 2)), labels=("a", "b"))
    with pytest.raises(InvalidModel):
        fit_plugin(panel, order=1)


@pytest.mark.parametrize("nodes, m", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_fit_plugin_matches_dictionary_tally(nodes, m):
    """Every kernel and initial law equals the dictionary tally's bytes,
    with the observed alphabets and with a larger one for the last column.
    The tests' log likelihood of the (window, next) table is the count-
    weighted log of the kernel at the pseudo-count 1/2, so the discrete
    tests fit ``fit_plugin``'s law.  A kernel past the state budget is
    refused."""
    labels = ("a", "b", "c")[:nodes]
    for seed in range(2):
        values = np.random.default_rng(seed).integers(0, m, (300, nodes))
        values[0] = m - 1  # every symbol of every column is in the alphabet
        panel = TimeSeriesPanel(values=values, labels=labels)
        for given in (None, (m,) * (nodes - 1) + (m + 1,)):
            sizes = given or (m,) * nodes
            M = int(np.prod(sizes))
            for k in (1, 2, 3):
                if M ** (k + 1) > DEFAULT_STATE_BUDGET:
                    with pytest.raises(BudgetError) as err:
                        fit_plugin(panel, order=k, alphabet_sizes=given)
                    assert err.value.required == M ** (k + 1)
                    continue
                fits = {}
                for smoothing in (0.0, 0.5, 1.0):
                    fits[smoothing] = fit_plugin(panel, order=k, smoothing=smoothing,
                                                 alphabet_sizes=given)
                    kernel, initial = reference.plugin_kernel(values, sizes, k, smoothing)
                    assert fits[smoothing].kernel.tobytes() == kernel.tobytes()
                    assert fits[smoothing].initial.tobytes() == initial.tobytes()
                counts, _ = reference.plugin_counts(values, sizes, k)
                table = np.zeros((1, M**k, M), dtype=np.int64)
                for (w, s), n in counts.items():
                    table[0, w, s] = n
                kernel = fits[0.5].kernel
                expected = math.fsum(n * math.log(kernel[key]) for key, n in counts.items())
                assert inference._loglik(table)[0] == pytest.approx(expected, rel=1e-12)


def test_fit_plugin_refuses_a_too_small_alphabet():
    panel = TimeSeriesPanel(values=np.array([[0, 1], [1, 2], [1, 0]]), labels=("a", "b"))
    with pytest.raises(InvalidModel, match="column 'b' exceeds alphabet size 2"):
        fit_plugin(panel, order=1, alphabet_sizes=(2, 2))


@pytest.mark.parametrize("rows, message", [
    ([[0, 2]], "column 'y' exceeds alphabet size 2"),
    ([[0, -1]], "symbol values must be nonnegative"),
    ([[0.5, 1]], "discrete models need an integer"),
    ([0, 1], r"samples of shape \(2,\), expected \(T, 2\)"),
], ids=["past_alphabet", "negative", "fractional", "one_dimensional"])
def test_encode_states_refuses_symbols_outside_the_alphabet(rows, message):
    with pytest.raises(InvalidModel, match=message):
        delay_channel(0.1).encode_states(np.array(rows))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_fit_plugin_refuses_a_kernel_past_the_state_budget(k, monkeypatch):
    """Four columns of 16 symbols make M = 65,536; the kernel is refused by
    name before any joint symbol is coded or counted."""
    values = np.random.default_rng(1).integers(0, 2, (2000, 4))
    values[0] = 15
    panel = TimeSeriesPanel(values=values, labels=("a", "b", "c", "d"))

    def never(*args, **kwargs):
        raise AssertionError("the table was coded or counted")

    monkeypatch.setattr(np, "ravel_multi_index", never)
    monkeypatch.setattr(np, "bincount", never)
    with pytest.raises(BudgetError) as err:
        fit_plugin(panel, order=k)
    assert err.value.required == 65536 ** (k + 1)


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------

def test_marginal_product_law_factorizes():
    # two independent biased i.i.d. nodes
    px, py = 0.3, 0.7
    kernel = np.zeros((4, 4))
    for nxt in range(4):
        x, y = nxt >> 1, nxt & 1
        kernel[:, nxt] = (px if x else 1 - px) * (py if y else 1 - py)
    model = DiscreteMarkovModel(alphabet_sizes=(2, 2), order=1, kernel=kernel,
                                initial=kernel[0])
    dist = enumerate_joint(model, 2)
    m_x = marginal(dist, [0], [1, 2])
    m_y = marginal(dist, [1], [1, 2])
    joint = marginal(dist, [0, 1], [1, 2])
    # joint axes are (x@1, y@1, x@2, y@2)
    outer = np.einsum("ab,cd->acbd", m_x.pmf, m_y.pmf)
    assert np.allclose(joint.pmf, outer)


def test_marginal_full_selection_is_identity():
    model = random_markov_model(2, nodes=2)
    dist = enumerate_joint(model, 3)
    same = marginal(dist, [0, 1], [1, 2, 3])
    assert np.array_equal(same.pmf, dist.pmf)


def test_marginal_copy_channel_diagonal():
    from dirinfo.simulate import copy_channel

    dist = enumerate_joint(copy_channel(), 2)
    m = marginal(dist, [0, 1], [1])
    assert m.pmf[0, 1] == 0.0 and m.pmf[1, 0] == 0.0
    assert m.pmf[0, 0] == pytest.approx(0.5)


def test_marginal_empty_selection():
    dist = enumerate_joint(iid_uniform(), 2)
    with pytest.raises(SelectionError):
        marginal(dist, [], [1])
    with pytest.raises(SelectionError):
        marginal(dist, [0], [])
    with pytest.raises(SelectionError, match="node 1 out of range"):
        marginal(dist, [0, 1], [1])
    with pytest.raises(SelectionError, match=r"time 3 out of range 1\.\.2"):
        marginal(dist, [0], [1, 3])


# ---------------------------------------------------------------------------
# stationary law, sampling, serialization
# ---------------------------------------------------------------------------

def test_stationary_law_is_fixed_point():
    model = random_markov_model(11, nodes=2, order=2)
    pi = stationary_window_distribution(model)
    M = model.joint_alphabet
    joint = pi[:, None] * model.kernel
    nxt = joint.reshape(M, M, M).sum(axis=0).reshape(M * M)
    assert np.max(np.abs(nxt - pi)) < 1e-10


def _oracle_error(model):
    exact = oracle.stationary_law(model.kernel, model.joint_alphabet, model.order)
    return np.max(np.abs(stationary_window_distribution(model) - np.array(exact, dtype=float)))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("e", [3e-5, 1e-4])
def test_stationary_law_of_slowly_mixing_chain_is_exact(e, order):
    # power iteration stopped on its step size: 1.1e-9 off at e = 1e-4,
    # and no convergence in 100,000 steps at e = 3e-5
    assert _oracle_error(sticky_chain(e, order)) <= 1e-12


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("seed", range(1, 6))
def test_stationary_law_matches_exact_oracle(seed, order):
    assert _oracle_error(random_markov_model(seed, order=order)) <= 1e-15


@pytest.mark.parametrize("order", [1, 2])
def test_stationary_law_with_transient_windows(order):
    # x0 = 1 absorbs, so every window that holds x0 = 0 is transient
    model = sticky_chain(1e-3, order)
    kernel = np.where((np.arange(len(model.kernel)) % 4 >= 2)[:, None],
                      [0.0, 0.0, 0.1, 0.9], model.kernel)
    model = DiscreteMarkovModel((2, 2), order, kernel, model.initial)
    pi = stationary_window_distribution(model)
    assert pi.min() >= 0.0 and _oracle_error(model) <= 1e-15


@pytest.mark.parametrize("order", [1, 2])
def test_stationary_law_refuses_two_closed_classes(order):
    # with e = 0, x0 never moves: the solve alone returns one class's law
    model = sticky_chain(0.0, order)
    with pytest.raises(ValueError):
        oracle.stationary_law(model.kernel, 4, order)
    with pytest.raises(InvalidModel, match="more than one closed class"):
        stationary_window_distribution(model)
    with pytest.raises(InvalidModel):
        with_stationary_initial(model)
    with pytest.raises(InvalidModel):  # identity kernel: every window is a class
        stationary_window_distribution(DiscreteMarkovModel((2,), 1, np.eye(2), [0.5, 0.5]))


def test_stationary_law_charges_its_matrix_to_the_budget():
    model = random_markov_model(3, nodes=2, order=2)
    W = 16
    for call in (stationary_window_distribution, with_stationary_initial):
        with pytest.raises(BudgetError) as err:
            call(model, budget=W * W - 1)
        assert err.value.required == W * W
    assert stationary_window_distribution(model, budget=W * W).shape == (W,)


def test_window_transition_follows_next_window():
    model = random_markov_model(8, nodes=2, alphabet=3, order=2)
    M, W = 9, 81
    trans = model.window_transition()
    assert trans.shape == (W, W) and np.allclose(trans.sum(axis=1), 1.0)
    for w in range(W):
        # window (s_1, s_2) -> (s_2, s): the oldest symbol drops out
        assert np.array_equal(trans[w, (w % M) * M + np.arange(M)], model.kernel[w])
        assert model.next_window(w, 5) == (w % M) * M + 5
    assert np.count_nonzero(trans) == W * M


def _sample_codes_by_shift(model, T, count, rng):
    """The sampler with the window successor written out, as it was before
    ``next_window``."""
    M, k = model.joint_alphabet, model.order
    codes = np.empty((count, T), dtype=np.int64)
    codes[:, :k] = draw_window(model.initial, M, k, count, rng)
    kern_cdf = np.cumsum(model.kernel, axis=1)
    window = np.ravel_multi_index(tuple(codes[:, :k].T), (M,) * k)
    shift = M ** (k - 1)
    for t in range(k, T):
        codes[:, t] = draw_symbols(kern_cdf[window], rng)
        window = (window % shift) * M + codes[:, t]
    return codes


@pytest.mark.parametrize("order", [1, 2, 3])
def test_sample_panels_unchanged_under_next_window(order):
    model = random_markov_model(5, nodes=2, alphabet=3, order=order)
    for seed in [*range(1, 11), 1009]:
        codes = _sample_codes_by_shift(model, 200, 4, np.random.default_rng(seed))
        panels = sample_panels(model, 200, 4, seed)
        assert all(np.array_equal(p.values, model.decode_states(c))
                   for p, c in zip(panels, codes))


def test_sampling_deterministic():
    model = random_markov_model(4, nodes=2)
    one = sample_panel(model, 500, seed=9)
    two = sample_panel(model, 500, seed=9)
    assert np.array_equal(one.values, two.values)


def test_model_json_roundtrip():
    model = random_markov_model(6, nodes=2, order=2)
    back = model_from_json(model_to_json(model))
    assert np.allclose(back.kernel, model.kernel)
    assert np.allclose(back.initial, model.initial)
    assert back.order == model.order and back.labels == model.labels


@pytest.mark.parametrize("field", ["kernel", "initial"])
def test_model_refuses_non_finite_entries(field):
    arrays = {"kernel": np.full((2, 2), 0.5), "initial": np.array([0.5, 0.5])}
    arrays[field][0] = np.nan
    with pytest.raises(InvalidModel, match=f"{field} has non-finite entries"):
        DiscreteMarkovModel(alphabet_sizes=(2,), order=1, **arrays)


@pytest.mark.parametrize("labels", [("x", "x"), ("x",), ("x", "y", "z")])
def test_model_refuses_labels_that_do_not_name_each_node_once(labels):
    with pytest.raises(InvalidModel, match="need 2 distinct labels"):
        DiscreteMarkovModel(alphabet_sizes=(2, 2), order=1, kernel=np.full((4, 4), 0.25),
                            initial=np.full(4, 0.25), labels=labels)


def test_kernel_validation():
    with pytest.raises(InvalidModel):
        DiscreteMarkovModel(alphabet_sizes=(2,), order=1,
                            kernel=np.array([[0.7, 0.7], [0.5, 0.5]]),
                            initial=np.array([0.5, 0.5]))
    with pytest.raises(InvalidModel):
        DiscreteMarkovModel(alphabet_sizes=(2,), order=1,
                            kernel=np.full((2, 2), 0.5),
                            initial=np.array([0.9, 0.3]))
