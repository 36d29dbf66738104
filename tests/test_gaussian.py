import dataclasses
import functools
import itertools

import numpy as np
import pytest

from dirinfo import gaussian
from dirinfo.cli import main
from dirinfo.core import TimeSeriesPanel, make_partition, symbolize
from dirinfo.discrete import enumerate_joint, fit_plugin
from dirinfo.errors import InvalidModel, ParamError, SingularDesign, UnstableModel
from dirinfo.gaussian import (
    GEWEKE_KINDS,
    VarModel,
    fit_var,
    gaussian_mi_rate,
    geweke_index,
    innovation_cov,
    load_var,
    save_var,
    var_from_json,
    var_to_json,
)
from dirinfo.measures import (
    EXACT_RESIDUAL_TOL,
    ConditioningMode,
    _birch,
    decompose,
    delayed_directed_information,
    instantaneous_exchange,
    rate,
)
from dirinfo.simulate import gen_var, random_var_model
from reference import (
    GaussianSequenceLaw,
    autocovariance,
    prediction_variance,
    riccati_innovation_cov,
)


def bivariate_var1(a_to_b=0.4, corr=0.0):
    coeffs = np.array([[[0.5, 0.0], [a_to_b, 0.3]]])
    noise = np.array([[1.0, corr], [corr, 1.0]])
    return VarModel(order=1, coeffs=coeffs, noise_cov=noise, labels=("a", "b"))


# ---------------------------------------------------------------------------
# model validation and autocovariance
# ---------------------------------------------------------------------------

def test_varmodel_validation():
    with pytest.raises(InvalidModel):
        VarModel(order=1, coeffs=np.zeros((1, 2, 2)),
                 noise_cov=np.array([[1.0, 0.5], [0.2, 1.0]]), labels=("a", "b"))
    with pytest.raises(InvalidModel):
        VarModel(order=1, coeffs=np.zeros((1, 2, 2)),
                 noise_cov=np.array([[1.0, 1.0], [1.0, 1.0]]), labels=("a", "b"))
    model = bivariate_var1()
    assert model.is_stable and model.spectral_radius < 1.0


@pytest.mark.parametrize("field", ["coeffs", "noise_cov"])
def test_varmodel_refuses_non_finite_entries(field):
    arrays = {"coeffs": np.zeros((1, 2, 2)), "noise_cov": np.eye(2)}
    if field == "coeffs":
        arrays["coeffs"][0, 1, 0] = np.nan
    else:
        arrays["noise_cov"][0, 1] = arrays["noise_cov"][1, 0] = np.nan
    with pytest.raises(InvalidModel, match=f"{field} ha(s|ve) non-finite entries"):
        VarModel(order=1, labels=("a", "b"), **arrays)


def test_autocovariance_matches_simulation():
    model = bivariate_var1(corr=0.3)
    gammas = autocovariance(model, 3)
    panel, _ = gen_var(model, 400_000, seed=3)
    x = panel.values - panel.values.mean(axis=0)
    for h in range(4):
        emp = x[h:].T @ x[:x.shape[0] - h] / (x.shape[0] - h)
        assert np.max(np.abs(emp - gammas[h])) < 0.02


def test_autocovariance_rejects_unstable():
    model = VarModel(order=1, coeffs=np.array([[[1.05, 0.0], [0.0, 0.2]]]),
                     noise_cov=np.eye(2), labels=("a", "b"))
    with pytest.raises(UnstableModel):
        autocovariance(model, 2)


# ---------------------------------------------------------------------------
# prediction risks
# ---------------------------------------------------------------------------

def test_full_information_set_recovers_noise_block():
    model = random_var_model(5, nodes=3, order=1, noise_corr=0.2)
    risk = prediction_variance(model, (1,), [((0, 1, 2), 16, False)])
    assert np.max(np.abs(risk.error_cov - model.noise_cov[1:2, 1:2])) < 1e-10
    assert np.array_equal(innovation_cov(model, (0, 1, 2)), model.noise_cov)


def count_riccati_solves(monkeypatch):
    calls = []
    solve = gaussian._solve_riccati

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(gaussian, "_solve_riccati", counted)
    return calls


def test_innovation_cov_any_order_is_the_sorted_solve_permuted(monkeypatch):
    model = random_var_model(6, nodes=4, order=2, noise_corr=0.3)
    sorted_cov = {nodes: innovation_cov(dataclasses.replace(model), nodes)
                  for nodes in ((0, 2, 3), (0, 1, 2, 3))}
    calls = count_riccati_solves(monkeypatch)
    for nodes, want in sorted_cov.items():
        for order in itertools.permutations(range(len(nodes))):
            got = innovation_cov(model, [nodes[i] for i in order])
            assert np.array_equal(got, want[np.ix_(order, order)])
    assert len(calls) == 1


def test_decompose_solves_each_past_set_once(tmp_path, monkeypatch):
    # past sets {A}, {B} and {A, B} of the bivariate identities, {A, C} and
    # {B, C}, and the full set, which needs no solve
    save_var(random_var_model(8, nodes=3, order=2, noise_corr=0.25), tmp_path / "var.json")
    calls = count_riccati_solves(monkeypatch)
    assert main(["decompose", "--model", str(tmp_path / "var.json"), "--A", "x0",
                 "--B", "x1", "--out", str(tmp_path / "gw")]) == 0
    assert len(calls) == 5


def test_models_start_with_empty_memos(tmp_path):
    model = random_var_model(4, nodes=3, order=2, noise_corr=0.2)
    innovation_cov(model, (0, 1))
    save_var(model, tmp_path / "var.json")
    loaded = load_var(tmp_path / "var.json")
    assert loaded._innovations == {}
    # a replaced model computes its own values, not the source model's
    coeffs = model.coeffs / 2
    replaced = dataclasses.replace(model, coeffs=coeffs)
    fresh = VarModel(order=2, coeffs=coeffs, noise_cov=model.noise_cov, labels=model.labels)
    assert np.array_equal(innovation_cov(replaced, (0, 1)), innovation_cov(fresh, (0, 1)))


def test_irrelevant_predictors_leave_risk_unchanged():
    # no coupling a -> b and independent noises: a's past is useless for b
    model = bivariate_var1(a_to_b=0.0, corr=0.0)
    with_a = prediction_variance(model, (1,), [((1,), 64, False), ((0,), 64, False)])
    without = prediction_variance(model, (1,), [((1,), 64, False)])
    assert abs(with_a.risk - without.risk) < 1e-8


def test_projection_against_monte_carlo_regression():
    # DERIVED oracle: long-sample OLS risks vs analytic projection
    model = bivariate_var1(a_to_b=0.4)
    panel, _ = gen_var(model, 1_000_000, seed=11)
    x = panel.values - panel.values.mean(axis=0)
    y = x[1:, 1]
    full_design = x[:-1]
    restricted_design = x[:-1, 1:]
    for design, spec in ((full_design, [((0, 1), 64, False)]),
                         (restricted_design, [((1,), 64, False)])):
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        mc_risk = np.log(np.mean((y - design @ beta) ** 2))
        analytic = prediction_variance(model, (1,), spec).risk
        assert abs(mc_risk - analytic) < 0.01


def test_risk_monotone_under_nesting():
    model = random_var_model(7, nodes=3, order=2, noise_corr=0.3)
    nested = [
        [((1,), 32, False)],
        [((1,), 32, False), ((0,), 32, False)],
        [((1,), 32, False), ((0,), 32, False), ((2,), 32, False)],
        [((1,), 32, False), ((0,), 32, True), ((2,), 32, True)],
    ]
    risks = [prediction_variance(model, (1,), spec).risk for spec in nested]
    for smaller, larger in zip(risks[1:], risks[:-1]):
        assert smaller <= larger + 1e-10


def test_target_cannot_be_its_own_contemporaneous_predictor():
    model = bivariate_var1()
    with pytest.raises(ParamError):
        prediction_variance(model, (1,), [((1,), 4, True)])


# ---------------------------------------------------------------------------
# Geweke indices
# ---------------------------------------------------------------------------

def test_geweke_zero_without_coupling():
    model = bivariate_var1(a_to_b=0.0, corr=0.0)
    part_ba = make_partition(("a", "b"), ["b"], ["a"])
    assert abs(geweke_index(model, part_ba, "directed").value) < 1e-8


def test_geweke_instantaneous_zero_for_diagonal_noise():
    model = bivariate_var1(a_to_b=0.4, corr=0.0)
    part = make_partition(("a", "b"), ["a"], ["b"])
    assert abs(geweke_index(model, part, "instantaneous").value) < 1e-8


def test_geweke_directed_against_monte_carlo():
    model = bivariate_var1(a_to_b=0.4)
    part = make_partition(("a", "b"), ["a"], ["b"])
    f_ab = geweke_index(model, part, "directed").value
    panel, _ = gen_var(model, 1_000_000, seed=13)
    x = panel.values - panel.values.mean(axis=0)
    y = x[1:, 1]
    resid_var = []
    for cols in ([1], [0, 1]):
        design = x[:-1][:, cols]
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid_var.append(np.mean((y - design @ beta) ** 2))
    mc = np.log(resid_var[0] / resid_var[1])
    assert abs(mc - f_ab) < 0.01 * max(1.0, abs(f_ab))


@pytest.mark.parametrize("kind", ["directed", "instantaneous",
                                  "directed_conditional", "instantaneous_conditional"])
def test_geweke_indices_nonnegative(kind):
    for seed in range(5):
        model = random_var_model(seed, nodes=3, order=1, noise_corr=0.25)
        part = make_partition(model.labels, ["x0"], ["x1"])
        assert geweke_index(model, part, kind).value >= -1e-8


WINDOW = 256


def _window_risk(model, target, groups):
    spec = [(nodes, WINDOW, contemp) for nodes, contemp in groups if nodes]
    return prediction_variance(model, target, spec).risk


def _window_geweke(model, part, kind, side_past_only):
    a, b, c = part.a, part.b, part.c
    side = (c, not side_past_only)
    num, den = {
        "directed": ([(b, False)], [(b, False), (a, False)]),
        "instantaneous": ([(b, False), (a, False)], [(b, False), (a, True)]),
        "directed_conditional": ([(b, False), side], [(b, False), (a, False), side]),
        "instantaneous_conditional": ([(b, False), (a, False), side],
                                      [(b, False), (a, True), side]),
    }[kind]
    return _window_risk(model, b, num) - _window_risk(model, b, den)


def _window_mi(model, a, b, conditional_on_past_c):
    c = tuple(i for i in range(model.n_nodes) if i not in a + b)
    side = (c if conditional_on_past_c else (), False)
    return (_window_risk(model, a, [(a, False), side])
            + _window_risk(model, b, [(b, False), side])
            - _window_risk(model, a + b, [(a, False), (b, False), side]))


@pytest.mark.parametrize("nodes, order, radius, a, b", [
    (2, 2, 0.9, ["x0"], ["x1"]),
    (3, 3, 0.8, ["x0"], ["x1"]),
    (4, 3, 0.8, ["x0"], ["x1"]),
    (4, 3, 0.8, ["x0", "x1"], ["x2"]),
    (4, 3, 0.8, ["x2"], ["x0", "x1"]),
], ids=["bivariate", "3-node", "4-node", "4-node-A-group", "4-node-B-group"])
def test_exact_rates_match_finite_window(nodes, order, radius, a, b):
    # DERIVED oracle: the exact Riccati rates against differences of
    # finite-window projection risks, independent of innovation_cov
    model = random_var_model(3, nodes=nodes, order=order, radius=radius, noise_corr=0.4)
    part = make_partition(model.labels, a, b)
    for kind in GEWEKE_KINDS:
        for side_past_only in (True, False):
            exact = geweke_index(model, part, kind, side_past_only=side_past_only)
            assert exact.horizon == 0
            window = _window_geweke(model, part, kind, side_past_only)
            assert abs(exact.value - window) < 1e-7, (kind, side_past_only)
    for conditional in (False, True):
        exact = gaussian_mi_rate(model, part.a, part.b, conditional_on_past_c=conditional)
        window = _window_mi(model, part.a, part.b, conditional)
        assert abs(exact.value - window) < 1e-7, conditional


def test_unstable_model_raises_before_riccati(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Riccati solver called on an unstable model")

    monkeypatch.setattr(gaussian, "_solve_riccati", refuse)
    model = VarModel(order=1, coeffs=np.array([[[1.05, 0.0], [0.3, 0.2]]]),
                     noise_cov=np.eye(2), labels=("a", "b"))
    part = make_partition(("a", "b"), ["a"], ["b"])
    for kind in GEWEKE_KINDS:
        with pytest.raises(UnstableModel):
            geweke_index(model, part, kind)
    with pytest.raises(UnstableModel):
        gaussian_mi_rate(model, (0,), (1,))


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("Singular matrix"),
                                   SingularDesign("Riccati doubling diverged")])
def test_riccati_failure_is_singular_design(monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(gaussian, "_solve_riccati", fail)
    part = make_partition(("a", "b"), ["a"], ["b"])
    with pytest.raises(SingularDesign):
        geweke_index(bivariate_var1(), part, "directed")


def _proper_node_sets(d):
    return [list(nodes) for k in range(1, d)
            for nodes in itertools.combinations(range(d), k)]


def test_doubling_matches_scipy_riccati():
    # ORACLE: scipy's Schur-method solve of the unfolded equation; order-1
    # models keep their rescaled spectral radius, the rest sit below it
    rng = np.random.default_rng(2015)
    radii = []
    for seed in range(24):
        order = 1 if seed % 2 else int(rng.integers(2, 4))
        model = random_var_model(seed, nodes=int(rng.integers(2, 5)), order=order,
                                 radius=(0.6, 0.9, 0.99, 0.999)[seed % 4],
                                 noise_corr=float(rng.uniform(-0.3, 0.6)))
        radii.append(model.spectral_radius)
        for nodes in _proper_node_sets(model.n_nodes):
            got = gaussian._riccati_innovation_cov(model, nodes)
            want = riccati_innovation_cov(model, nodes)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (seed, nodes)
    assert sum(r >= 0.99 for r in radii) >= 6


@pytest.mark.parametrize("A, match", [
    (np.array([[0.5, np.nan], [0.0, 0.5]]), "non-finite"),
    (np.array([[0.5, np.inf], [0.0, 0.5]]), "non-finite"),
    (2.0 * np.eye(2), "diverged"),
    (np.eye(2), "did not converge"),
], ids=["nan", "inf", "explosive", "unit-root"])
def test_riccati_solver_refuses_bad_equations(A, match):
    # without observations (G = 0) X = A' X A + H has no solution unless A
    # is stable: explosive A overflows, a unit root doubles H every step
    with pytest.raises(SingularDesign, match=match):
        gaussian._solve_riccati(A, np.zeros((2, 2)), np.eye(2))


def test_rate_law_refuses_a_present_without_its_past():
    # bit 0: the past of node 0; bit 3: the present of node 1
    with pytest.raises(ParamError, match="each present with its past"):
        bivariate_var1().rate_law.entropy_of_cells(0b1001)


def test_bivariate_geweke_decomposition():
    model = random_var_model(21, nodes=2, order=2, noise_corr=0.35)
    pab = make_partition(model.labels, ["x0"], ["x1"])
    pba = make_partition(model.labels, ["x1"], ["x0"])
    total = (geweke_index(model, pab, "directed").value
             + geweke_index(model, pba, "directed").value
             + geweke_index(model, pab, "instantaneous").value)
    mi = gaussian_mi_rate(model, (0,), (1,)).value
    assert abs(total - mi) < 1e-6


def test_conditional_geweke_decomposition():
    model = random_var_model(22, nodes=3, order=2, noise_corr=0.3)
    pab = make_partition(model.labels, ["x0"], ["x1"])
    pba = make_partition(model.labels, ["x1"], ["x0"])
    total = (geweke_index(model, pab, "directed_conditional").value
             + geweke_index(model, pba, "directed_conditional").value
             + geweke_index(model, pab, "instantaneous_conditional").value)
    mi = gaussian_mi_rate(model, (0,), (1,), conditional_on_past_c=True).value
    assert abs(total - mi) < 1e-6


def test_mi_rate_zero_for_block_independent_model():
    coeffs = np.array([[[0.5, 0.0], [0.0, 0.3]]])
    model = VarModel(order=1, coeffs=coeffs, noise_cov=np.eye(2), labels=("a", "b"))
    assert abs(gaussian_mi_rate(model, (0,), (1,)).value) < 1e-8


def test_sign_pattern_agrees_with_discrete_measures():
    """Zero/positive pattern of discrete TE and IIE (8-bin symbolization,
    plug-in fit, horizon-4 enumeration) matches the Geweke indices across
    20 seeded designs."""
    te_threshold, iie_threshold = 0.01, 0.03
    for seed in range(20):
        coupled = seed % 2 == 0
        corr = 0.5 if seed % 4 < 2 else 0.0
        model = bivariate_var1(a_to_b=0.45 if coupled else 0.0, corr=corr)
        part = make_partition(("a", "b"), ["a"], ["b"])
        f_dir = geweke_index(model, part, "directed").value
        f_inst = geweke_index(model, part, "instantaneous").value

        panel, _ = gen_var(model, 100_000, seed=seed)
        fitted = fit_plugin(symbolize(panel, bins=8, scheme="equal_frequency"),
                            order=1, smoothing=0.5)
        dist = enumerate_joint(fitted, 4, budget=2**25)
        te = delayed_directed_information(dist, (0,), (1,), 4).value / 3
        iie = instantaneous_exchange(dist, (0,), (1,), 4).value / 4
        assert (te > te_threshold) == (f_dir > 1e-6), f"seed {seed}: TE sign mismatch"
        assert (iie > iie_threshold) == (f_inst > 1e-6), f"seed {seed}: IIE sign mismatch"


# ---------------------------------------------------------------------------
# exact rates through the measures' own terms
# ---------------------------------------------------------------------------

def _scipy_risk(model, target, past, present=()):
    """log det of the error of ``target`` given the entire past of ``past``
    and the present of ``present``: a Schur complement of scipy's Riccati
    innovation covariance, or of the noise covariance for every node."""
    past = sorted(past)
    cov = (model.noise_cov if len(past) == model.n_nodes
           else riccati_innovation_cov(model, past))
    t = [past.index(b) for b in target]
    q = [past.index(a) for a in present]
    err = cov[np.ix_(t, t)]
    if q:
        err = err - cov[np.ix_(t, q)] @ np.linalg.solve(cov[np.ix_(q, q)], cov[np.ix_(q, t)])
    return np.linalg.slogdet(err)[1]


@pytest.mark.parametrize("mode", ["strict_past", "contemporaneous"])
def test_var_decomposition_is_half_the_scipy_geweke_values(mode):
    # ORACLE: Geweke's log variance ratios from scipy's Riccati solve, shared
    # with nothing in the package; the bundle's rates are half of them
    for seed in range(20):
        model = random_var_model(100 + seed, nodes=3, order=1 + seed % 3, noise_corr=0.25)
        part = make_partition(model.labels, ["x0"], ["x1"])
        dec = decompose(model, part, mode=mode)
        assert dec.horizon == 0 and dec.max_residual() <= EXACT_RESIDUAL_TOL
        a, b, c = part.a, part.b, part.c
        c_now = c if mode == "contemporaneous" else ()
        risk = functools.partial(_scipy_risk, model)
        want = {
            "te_ab": risk(b, b + c, c_now) - risk(b, a + b + c, c_now),
            "te_ba": risk(a, a + c, c_now) - risk(a, a + b + c, c_now),
            "iie": risk(b, a + b + c, c_now) - risk(b, a + b + c, a + c_now),
            "mi": risk(a, a + c) + risk(b, b + c) - risk(a + b, a + b + c),
        }
        for name, geweke in want.items():
            assert abs(getattr(dec, name) - geweke / 2) <= 1e-10, (seed, name)


def test_var_rate_is_exact():
    model = random_var_model(5, nodes=3, order=2, noise_corr=0.3)
    for measure in ("di", "te", "iie", "mi"):
        got = rate(measure, model, (0,), (1,), (2,))
        assert got.horizon == 0 and got.lower == got.value == got.upper
    with pytest.raises(ParamError, match="no horizon"):
        decompose(model, make_partition(model.labels, ["x0"], ["x1"]), n=4)


def test_finite_horizon_law_closes_the_identities():
    # ORACLE: block-Toeplitz entropies of x(1..6), read by decompose unchanged
    for seed in range(4):
        model = random_var_model(200 + seed, nodes=3, order=2, noise_corr=0.25)
        law = GaussianSequenceLaw(model, 6)
        for mode in ("strict_past", "contemporaneous"):
            dec = decompose(law, make_partition(model.labels, ["x0"], ["x1"]), mode=mode)
            assert dec.horizon == 6 and dec.max_residual() <= EXACT_RESIDUAL_TOL


@pytest.mark.parametrize("seed", [300, 301])
def test_birch_bracket_of_the_finite_law_holds_the_exact_rate(seed):
    # ORACLE: Birch's bracket of the increment at time n, from the same terms
    # on the finite-horizon law, holds every exact rate and narrows with n
    model = random_var_model(seed, nodes=3, order=2, noise_corr=0.25)
    law = GaussianSequenceLaw(model, 12)
    cases = [(m, c, mode) for m in ("di", "te", "iie") for c in ((), (2,))
             for mode in ("strict_past", "contemporaneous")]
    cases += [("mi", c, "strict_past") for c in ((), (2,))]
    for measure, c, mode in cases:
        exact = rate(measure, model, (0,), (1,), c, mode).value
        widths = []
        for n in range(3, 13):
            bracket = _birch(law, measure, (0,), (1,), c, ConditioningMode(mode), n,
                             model.order)
            assert bracket.lower - 1e-12 <= exact <= bracket.upper + 1e-12, (measure, c, mode, n)
            widths.append(bracket.upper - bracket.lower)
        assert all(w1 <= w0 + 1e-12 for w0, w1 in zip(widths, widths[1:])), (measure, c, mode)
        assert widths[-1] < widths[0] or widths[0] < 1e-12


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["ols", "yule_walker"])
def test_fit_var_recovers_coefficients(method):
    model = bivariate_var1(a_to_b=0.4, corr=0.3)
    panel, _ = gen_var(model, 100_000, seed=2)
    fitted = fit_var(panel, order=1, method=method)
    assert np.max(np.abs(fitted.coeffs - model.coeffs)) < 0.02
    assert np.max(np.abs(fitted.noise_cov - model.noise_cov)) < 0.02
    assert fitted.is_stable


def test_fit_var_white_noise():
    rng = np.random.default_rng(4)
    panel = TimeSeriesPanel(values=rng.standard_normal((20_000, 2)), labels=("a", "b"))
    fitted = fit_var(panel, order=1)
    # 3 standard errors, se ~ 1/sqrt(T)
    assert np.max(np.abs(fitted.coeffs)) < 3.5 / np.sqrt(20_000)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_fit_var_ols_matches_lstsq(seed, order):
    model = random_var_model(seed, nodes=3, order=order)
    panel, _ = gen_var(model, 2000, seed=seed)
    fitted = fit_var(panel, order=order)
    x = panel.values - panel.values.mean(axis=0)
    T = len(x)
    design = np.concatenate([x[order - j:T - j] for j in range(1, order + 1)], axis=1)
    beta, *_ = np.linalg.lstsq(design, x[order:], rcond=None)
    resid = x[order:] - design @ beta
    want = np.stack(np.split(beta.T, order, axis=1))
    assert np.max(np.abs(fitted.coeffs - want)) <= 1e-10 * np.max(np.abs(want))
    noise = resid.T @ resid / len(resid)
    assert np.max(np.abs(fitted.noise_cov - noise)) <= 1e-10 * np.max(np.abs(noise))


def test_fit_var_too_short_is_singular():
    panel = TimeSeriesPanel(values=np.random.default_rng(0).normal(size=(2, 2)),
                            labels=("a", "b"))
    with pytest.raises(SingularDesign):
        fit_var(panel, order=1)


def test_fit_var_rank_deficient():
    rng = np.random.default_rng(1)
    col = rng.standard_normal(100)
    panel = TimeSeriesPanel(values=np.column_stack([col, col]), labels=("a", "b"))
    with pytest.raises(SingularDesign):
        fit_var(panel, order=1)


def test_var_json_roundtrip():
    model = random_var_model(9, nodes=3, order=2, noise_corr=0.2)
    back = var_from_json(var_to_json(model))
    assert np.allclose(back.coeffs, model.coeffs)
    assert np.allclose(back.noise_cov, model.noise_cov)
    assert back.labels == model.labels
