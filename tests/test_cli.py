import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy import special

import dirinfo

from dirinfo.cli import build_parser, main
from dirinfo.discrete import save_model
from dirinfo.gaussian import save_var, var_to_json
from dirinfo.inference import bonferroni_count, min_surrogates
from dirinfo.core import DEFAULT_STATE_BUDGET, SequenceDistribution, TimeSeriesPanel, write_panel
from dirinfo.simulate import chain_markov_model, random_markov_model, random_var_model


def run(*argv):
    return main([str(a) for a in argv])


def test_simulate_writes_panel_truth_manifest(tmp_path):
    out = tmp_path / "chain"
    assert run("simulate", "chain", "--T", 500, "--seed", 7, "--out", out) == 0
    assert (tmp_path / "chain.csv").exists()
    truth = json.loads((tmp_path / "chain.truth.json").read_text())
    assert truth["directed"] == [["x", "y"], ["y", "z"]]
    manifest = json.loads((tmp_path / "chain.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["tool"]["name"] == "dirinfo"
    assert manifest["schema_version"] == 1


def test_simulate_byte_identical(tmp_path):
    run("simulate", "chain", "--T", 500, "--seed", 9, "--out", tmp_path / "a")
    run("simulate", "chain", "--T", 500, "--seed", 9, "--out", tmp_path / "b")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_simulate_requires_seed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("simulate", "chain", "--T", 100, "--out", tmp_path / "x")
    assert exc.value.code == 2


def test_simulate_refuses_a_negative_length(tmp_path, capsys):
    assert run("simulate", "chain", "--T", -5, "--seed", 1, "--out", tmp_path / "x") == 1
    assert "ParamError: T must be >= 1, got -5" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_estimate_refuses_a_kernel_past_the_state_budget(tmp_path, capsys):
    """Four columns of 16 symbols: the order-1 kernel has 65,536**2 entries."""
    values = np.random.default_rng(1).integers(0, 2, (2000, 4))
    values[0] = 15
    write_panel(TimeSeriesPanel(values=values, labels=("a", "b", "c", "d")),
                tmp_path / "p.csv")
    assert run("estimate", "--input", tmp_path / "p.csv", "--family", "discrete",
               "--out", tmp_path / "m") == 1
    assert f"BudgetError: needs an array of {65536 ** 2} entries" \
        in capsys.readouterr().err
    assert not (tmp_path / "m.model.json").exists()


def test_graph_end_to_end(tmp_path):
    out = tmp_path / "chain"
    run("simulate", "chain", "--T", 8000, "--seed", 7, "--out", out)
    assert run("graph", "--input", tmp_path / "chain.csv", "--family", "discrete",
               "--order", 1, "--bins", 4, "--alpha", 0.05, "--seed", 7,
               "--out", tmp_path / "g") == 0
    doc = json.loads((tmp_path / "g.json").read_text())
    present = {(e["from"], e["to"]) for e in doc["directed"]
               if e["decision"] == "reject_H0"}
    assert present == {("x", "y"), ("y", "z")}
    dot = (tmp_path / "g.dot").read_text()
    assert '"x" -> "y";' in dot
    assert run("check", tmp_path / "g.json") == 0


def test_decompose_discrete_model(tmp_path):
    save_model(chain_markov_model(0.1), tmp_path / "model.json")
    assert run("decompose", "--model", tmp_path / "model.json", "--A", "x",
               "--B", "y", "--n", 4, "--out", tmp_path / "dec") == 0
    doc = json.loads((tmp_path / "dec.json").read_text())
    assert doc["exact"] is True
    assert all(abs(v) < 1e-9 for v in doc["residuals"].values())
    assert run("check", tmp_path / "dec.json") == 0


def test_decompose_horizon_past_dense_table_at_default_budget(tmp_path):
    assert 8**10 > DEFAULT_STATE_BUDGET
    save_model(random_markov_model(1, nodes=3), tmp_path / "model.json")
    assert run("decompose", "--model", tmp_path / "model.json", "--A", "x0",
               "--B", "x1", "--n", 10, "--out", tmp_path / "dec") == 0
    doc = json.loads((tmp_path / "dec.json").read_text())
    assert doc["horizon"] == 10
    assert run("check", tmp_path / "dec.json") == 0


def test_decompose_runs_each_shared_kernel_step_once(tmp_path, monkeypatch):
    # the benchmark's discrete decompose: 3 binary nodes, order 1, n = 7.
    # Contracting each of its 95 passes from scratch takes 240 kernel steps;
    # 120 of them are distinct
    calls = []
    step = SequenceDistribution._step

    def counted(self, *args):
        calls.append(args[-1])
        return step(self, *args)

    monkeypatch.setattr(SequenceDistribution, "_step", counted)
    save_model(random_markov_model(1, nodes=3, alphabet=2, order=1), tmp_path / "model.json")
    assert run("decompose", "--model", tmp_path / "model.json", "--A", "x0",
               "--B", "x1", "--n", 7, "--out", tmp_path / "dec") == 0
    assert len(calls) == 120


def test_decompose_budget_too_small_exits_1(tmp_path, capsys):
    save_model(random_markov_model(1, nodes=3), tmp_path / "model.json")
    code = run("decompose", "--model", tmp_path / "model.json", "--A", "x0",
               "--B", "x1", "--n", 5, "--budget", 1023, "--out", tmp_path / "dec")
    assert code == 1
    assert not (tmp_path / "dec.json").exists()
    # the largest array is the joint law of x0 and x1 over five samples
    assert "BudgetError: needs an array of 1024 entries, " \
           "state budget is 1023" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["discrete", "var"])
def test_decompose_refuses_non_finite_model(tmp_path, capsys, family):
    if family == "discrete":
        save_model(chain_markov_model(0.1), tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        doc["kernel"][0] = math.nan
        a, b = "x", "y"
    else:
        save_var(random_var_model(3, nodes=2, order=1), tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        doc["noise_cov"][0][1] = doc["noise_cov"][1][0] = math.nan
        a, b = "x0", "x1"
    (tmp_path / "model.json").write_text(json.dumps(doc))
    assert run("decompose", "--model", tmp_path / "model.json", "--A", a, "--B", b,
               "--out", tmp_path / "dec") == 1
    assert "InvalidModel" in capsys.readouterr().err
    assert not (tmp_path / "dec.json").exists()


def test_check_flags_non_finite_numbers(tmp_path, capsys):
    # every comparison with NaN is False, so each tolerance check alone
    # passes these
    nan = float("nan")
    doc = {"exact": True, "residuals": {"id1": nan, "id2": nan},
           "di_ab": nan, "di_ba": 0.1, "te_ab": nan, "te_ba": 0.1, "iie": 0.0,
           "mi": 0.2,
           "directed": [{"from": "x", "to": "y", "statistic": nan, "threshold": 0.1,
                         "decision": "keep_H0", "calibration": "surrogate"},
                        {"from": "y", "to": "x", "statistic": 0.2,
                         "threshold": float("inf"), "decision": "keep_H0",
                         "calibration": "surrogate"}]}
    (tmp_path / "r.json").write_text(json.dumps(doc))
    assert run("check", tmp_path / "r.json") == 1
    err = capsys.readouterr().err
    for what in ("residual id1", "residual id2", "di_ab", "te_ab"):
        assert f"{what} = nan is not finite" in err
    assert "statistic nan is not finite" in err
    assert "threshold inf is not finite" in err


@pytest.mark.parametrize("field, value", [("statistic", "abc"), ("threshold", "abc"),
                                          ("statistic", None), ("threshold", None)])
def test_check_reports_non_numeric_decision_fields(tmp_path, capsys, field, value):
    entry = {"statistic": 0.2, "threshold": 0.1, "decision": "reject_H0",
             "calibration": "surrogate", field: value}
    if value is None:
        del entry[field]
    (tmp_path / "r.json").write_text(json.dumps(entry))
    assert run("check", tmp_path / "r.json") == 1
    assert "test has a missing or non-numeric field" in capsys.readouterr().err


def test_check_accepts_chi_square_thresholds_from_scipy(tmp_path):
    # results written with scipy's chdtri, as releases before the pure-Python
    # chi-square law wrote them, still pass check's 1e-12 recomputation:
    # Bonferroni levels and non-integer Satterthwaite dof
    run("simulate", "nonlinear", "--T", 3000, "--seed", 4, "--out", tmp_path / "nl")
    assert run("graph", "--input", tmp_path / "nl.csv", "--family", "var", "--order", 2,
               "--out", tmp_path / "g") == 0
    assert run("test", "--input", tmp_path / "nl.csv", "--family", "var", "--order", 2,
               "--kind", "causality", "--A", "x", "--B", "y", "--alpha", 0.01,
               "--out", tmp_path / "t") == 0
    graph = json.loads((tmp_path / "g.json").read_text())
    entries = graph["directed"] + graph["undirected"]
    assert graph["config"]["correction"] == "bonferroni"
    test = json.loads((tmp_path / "t.json").read_text())
    entries.append(test)
    assert any(e["chi2_df"] != round(e["chi2_df"]) for e in entries)
    for entry in entries:
        entry["threshold"] = float(entry["chi2_scale"] * special.chdtri(entry["chi2_df"],
                                                                        entry["level"])
                                   / (2.0 * entry["n_obs"]))
    (tmp_path / "g.json").write_text(json.dumps(graph))
    (tmp_path / "t.json").write_text(json.dumps(test))
    assert run("check", tmp_path / "g.json") == 0
    assert run("check", tmp_path / "t.json") == 0


def test_check_reports_missing_chi_square_fields(tmp_path, capsys):
    entry = {"statistic": 0.2, "threshold": 0.1, "decision": "reject_H0",
             "calibration": "chi_square", "level": 0.05, "chi2_scale": 1.0,
             "chi2_df": "1", "n_obs": 100}
    (tmp_path / "r.json").write_text(json.dumps(entry))
    assert run("check", tmp_path / "r.json") == 1
    assert "test has a missing or non-numeric field" in capsys.readouterr().err
    del entry["chi2_df"]
    (tmp_path / "r.json").write_text(json.dumps(entry))
    assert run("check", tmp_path / "r.json") == 1
    assert "KeyError('chi2_df')" in capsys.readouterr().err


def test_zero_dof_test_fails_and_graph_records_it(tmp_path, capsys):
    # x takes a single symbol: every chi-square test with x as source or
    # target has no degree of freedom
    values = np.random.default_rng(0).integers(0, 2, size=(500, 3))
    values[:, 0] = 0
    write_panel(TimeSeriesPanel(values=values, labels=("x", "y", "z")), tmp_path / "c.csv")
    assert run("test", "--input", tmp_path / "c.csv", "--kind", "causality", "--A", "x",
               "--B", "y", "--C", "z", "--out", tmp_path / "t") == 1
    assert "CalibrationError: chi-square calibration needs dof > 0" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()
    assert run("graph", "--input", tmp_path / "c.csv", "--out", tmp_path / "g") == 0
    errors = json.loads((tmp_path / "g.json").read_text())["errors"]
    assert sorted(errors) == ["x -- y", "x -- z", "x -> y", "x -> z", "y -> x", "z -> x"]
    assert all(e.startswith("CalibrationError") for e in errors.values())
    capsys.readouterr()
    # an edge that could not be tested leaves the graph unverified
    assert run("check", tmp_path / "g.json") == 1
    assert capsys.readouterr().err.splitlines() == [
        f"check failed: edge {key} untested: {errors[key]}" for key in sorted(errors)]


def test_check_reports_graph_edges_without_a_test(tmp_path, capsys):
    run("simulate", "chain", "--T", 1000, "--seed", 4, "--out", tmp_path / "c")
    assert run("graph", "--input", tmp_path / "c.csv", "--family", "var",
               "--out", tmp_path / "g") == 0
    assert run("check", tmp_path / "g.json") == 0
    clean = json.loads((tmp_path / "g.json").read_text())
    dropped = {**clean, "directed": clean["directed"][1:],
               "undirected": clean["undirected"][:-1]}
    (tmp_path / "g.json").write_text(json.dumps(dropped))
    capsys.readouterr()
    assert run("check", tmp_path / "g.json") == 1
    first, last = clean["directed"][0], clean["undirected"][-1]
    assert capsys.readouterr().err.splitlines() == [
        f"check failed: edge {first['from']} -> {first['to']} has neither a test "
        f"nor a recorded error",
        f"check failed: edge {' -- '.join(last['pair'])} has neither a test "
        f"nor a recorded error"]
    (tmp_path / "g.json").write_text(json.dumps({**clean, "errors": None}))
    assert run("check", tmp_path / "g.json") == 1
    assert "graph has a missing or malformed field" in capsys.readouterr().err


def _fresh_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(dirinfo.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_imports_stay_light():
    # a fresh interpreter: neither the package nor the CLI imports scipy
    code = ("import sys, dirinfo\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "import dirinfo.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], env=_fresh_env(), check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == ["[]", "[]"]


def test_cli_import_leaves_the_thread_pool_out():
    # only infer_graph(threads > 1) needs concurrent.futures
    code = "import sys, dirinfo.cli\nprint('concurrent.futures' in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", code], env=_fresh_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def scipy_modules_after(commands, cwd):
    """The scipy modules a fresh interpreter holds after running each CLI
    command line in ``commands``, all of which must succeed."""
    code = ("import json, sys\n"
            "from dirinfo.cli import main\n"
            f"for argv in {[[str(a) for a in c] for c in commands]!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    out = subprocess.run([sys.executable, "-c", code], env=_fresh_env(), cwd=cwd, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_model_commands_load_no_scipy(tmp_path):
    save_model(chain_markov_model(0.1), tmp_path / "markov.json")
    commands = [
        ("simulate", "nonlinear", "--T", 500, "--seed", 3, "--out", "nl"),
        ("estimate", "--input", "nl.csv", "--family", "var", "--out", "m"),
        ("decompose", "--model", "m.model.json", "--A", "x", "--B", "y", "--out", "d"),
        ("decompose", "--model", "markov.json", "--A", "x", "--B", "y", "--n", 3,
         "--out", "dd"),
        ("check", "d.json"),
        ("check", "dd.json"),
        ("replay", "d.manifest.json"),
    ]
    assert scipy_modules_after(commands, tmp_path) == []


def test_test_and_graph_commands_load_no_scipy(tmp_path):
    # chi-square laws are evaluated on the math module: the test layer
    # under both calibrations, and check and replay of its results, run on
    # numpy alone
    run("simulate", "chain", "--T", 500, "--seed", 3, "--out", tmp_path / "c")
    commands = []
    for calibration in ("chi_square", "surrogate"):
        extra = ("--calibration", calibration, "--seed", 5)
        commands += [
            ("test", "--input", "c.csv", "--family", "var", "--kind", "causality", "--A", "x",
             "--B", "y", "--C", "z", *extra, "--out", f"t_{calibration}"),
            ("graph", "--input", "c.csv", "--family", "discrete", "--bins", 3, *extra,
             "--out", f"g_{calibration}"),
        ]
        commands += [(verb, f"{name}_{calibration}.{suffix}")
                     for name in ("t", "g")
                     for verb, suffix in (("check", "json"), ("replay", "manifest.json"))]
    assert scipy_modules_after(commands, tmp_path) == []


def test_replay_of_gaussian_decompose_is_byte_identical(tmp_path):
    save_var(random_var_model(5, nodes=3, order=2, noise_corr=0.3), tmp_path / "var.json")
    out = tmp_path / "gw"
    assert run("decompose", "--model", tmp_path / "var.json", "--A", "x0", "--B", "x1",
               "--out", out) == 0
    first = (tmp_path / "gw.json").read_bytes()
    (tmp_path / "gw.json").write_text("{}")
    assert run("replay", tmp_path / "gw.manifest.json") == 0
    assert (tmp_path / "gw.json").read_bytes() == first


def test_check_flags_tampered_results(tmp_path, capsys):
    save_model(chain_markov_model(0.1), tmp_path / "model.json")
    run("decompose", "--model", tmp_path / "model.json", "--A", "x", "--B", "y",
        "--n", 3, "--out", tmp_path / "dec")
    assert run("check", tmp_path / "dec.json") == 0
    clean = json.loads((tmp_path / "dec.json").read_text())
    # a residual, two values whose sums no residual records, a value erased,
    # and delta_cb, which enters no sign check, not finite, mistyped or missing
    tampered = [{**clean, **tamper} for tamper in (
        {"residuals": {**clean["residuals"], "id3": 0.5}},
        {"di_ab": 7.0, "te_ab": -3.0}, {"te_ab": None},
        {"delta_cb": float("nan")}, {"delta_cb": "abc"}, {"delta_cb": None})]
    tampered.append({k: v for k, v in clean.items() if k != "delta_cb"})
    for doc in tampered:
        (tmp_path / "dec.json").write_text(json.dumps(doc))
        assert run("check", tmp_path / "dec.json") == 1
    # identities left out: each of the six is required
    for residuals in ({}, {"id1": 0.0}):
        (tmp_path / "dec.json").write_text(json.dumps({**clean, "residuals": residuals}))
        capsys.readouterr()
        assert run("check", tmp_path / "dec.json") == 1
        assert "residual id2 is missing" in capsys.readouterr().err


def test_graph_json_decisions_are_checked(tmp_path):
    run("simulate", "chain", "--T", 3000, "--seed", 4, "--out", tmp_path / "c")
    assert run("graph", "--input", tmp_path / "c.csv", "--family", "var",
               "--out", tmp_path / "g") == 0
    doc = json.loads((tmp_path / "g.json").read_text())
    for entry in doc["directed"] + doc["undirected"]:
        assert entry["calibration"] == "chi_square"
        assert entry["dof"] == 1 and entry["n_obs"] == 2999
        assert (entry["decision"] == "reject_H0") == (entry["stat"] > entry["threshold"])
    assert run("check", tmp_path / "g.json") == 0
    entry = doc["directed"][0]
    entry["decision"] = "keep_H0" if entry["decision"] == "reject_H0" else "reject_H0"
    (tmp_path / "g.json").write_text(json.dumps(doc))
    assert run("check", tmp_path / "g.json") == 1


def test_graph_decision_flipped_with_its_threshold_is_caught(tmp_path, capsys):
    run("simulate", "chain", "--T", 2000, "--seed", 4, "--out", tmp_path / "c")
    assert run("graph", "--input", tmp_path / "c.csv", "--family", "var",
               "--out", tmp_path / "g") == 0
    doc = json.loads((tmp_path / "g.json").read_text())
    (entry,) = [e for e in doc["directed"] if (e["from"], e["to"]) == ("x", "y")]
    assert entry["decision"] == "reject_H0"
    assert entry["level"] == 0.05 / bonferroni_count(3)
    entry["decision"] = "keep_H0"
    entry["threshold"] = 2 * entry["stat"]
    (tmp_path / "g.json").write_text(json.dumps(doc))
    assert run("check", tmp_path / "g.json") == 1
    err = capsys.readouterr().err
    assert "differs from the recomputed" in err and "inconsistent" in err


def test_check_recomputes_level_from_config(tmp_path):
    run("simulate", "chain", "--T", 2000, "--seed", 4, "--out", tmp_path / "c")
    run("graph", "--input", tmp_path / "c.csv", "--family", "var", "--out", tmp_path / "g")
    doc = json.loads((tmp_path / "g.json").read_text())
    doc["config"]["correction"] = "none"
    (tmp_path / "g.json").write_text(json.dumps(doc))
    assert run("check", tmp_path / "g.json") == 1


def test_graph_surrogate_too_few_for_corrected_level_exits_1(tmp_path, capsys):
    run("simulate", "chain", "--T", 500, "--seed", 5, "--out", tmp_path / "c")
    code = run("graph", "--input", tmp_path / "c.csv", "--family", "discrete",
               "--bins", 4, "--calibration", "surrogate", "--surrogates", 200,
               "--seed", 5, "--out", tmp_path / "g")
    assert code == 1
    assert not (tmp_path / "g.json").exists()
    err = capsys.readouterr().err
    found = re.search(r"CalibrationError: .* needs at least (\d+) surrogates, got 200", err)
    assert found, err
    need, level = int(found.group(1)), 0.05 / bonferroni_count(3)
    assert math.ceil((1 - level) * (need + 1)) <= need
    assert math.ceil((1 - level) * need) > need - 1


def test_graph_surrogate_default_count_exits_0(tmp_path):
    run("simulate", "chain", "--T", 2000, "--seed", 5, "--out", tmp_path / "c")
    assert run("graph", "--input", tmp_path / "c.csv", "--family", "discrete",
               "--bins", 4, "--calibration", "surrogate", "--seed", 5,
               "--out", tmp_path / "g") == 0
    doc = json.loads((tmp_path / "g.json").read_text())
    level = 0.05 / bonferroni_count(3)
    assert doc["config"]["surrogates"] == min_surrogates(level) > 200
    assert all(e["level"] == level for e in doc["directed"] + doc["undirected"])
    assert run("check", tmp_path / "g.json") == 0


@pytest.mark.parametrize("field, value", [("id5", 0.5), ("te_ab", 7.0)])
def test_check_flags_tampered_gaussian_decomposition(tmp_path, field, value):
    save_var(random_var_model(3, nodes=2, order=1, noise_corr=0.3),
             tmp_path / "var.json")
    run("decompose", "--model", tmp_path / "var.json", "--A", "x0", "--B", "x1",
        "--out", tmp_path / "gw")
    assert run("check", tmp_path / "gw.json") == 0
    doc = json.loads((tmp_path / "gw.json").read_text())
    if field in doc["residuals"]:
        doc["residuals"][field] = value
    else:
        doc[field] = value
    (tmp_path / "gw.json").write_text(json.dumps(doc))
    assert run("check", tmp_path / "gw.json") == 1


def test_decompose_var_model_emits_exact_bundle(tmp_path):
    save_var(random_var_model(3, nodes=2, order=1, noise_corr=0.3),
             tmp_path / "var.json")
    assert run("decompose", "--model", tmp_path / "var.json", "--A", "x0",
               "--B", "x1", "--out", tmp_path / "gw") == 0
    doc = json.loads((tmp_path / "gw.json").read_text())
    assert doc["exact"] is True and doc["horizon"] == 0 and "convention" not in doc
    assert sorted(doc["residuals"]) == [f"id{i}" for i in range(1, 7)]
    assert max(abs(v) for v in doc["residuals"].values()) < 1e-12
    # no side set: no coupling correction
    assert doc["delta_cb"] == 0.0
    assert doc["te_ab"] >= -1e-12 and doc["iie"] > 0.005


# random_var_model(3, nodes=3, order=2, noise_corr=0.25): older versions
# wrote a Geweke residual of -5.70e-02 in contemporaneous mode, which check
# refused, and a delta_cb of 0.0
@pytest.mark.parametrize("mode", ["strict_past", "contemporaneous"])
def test_var_decompose_checks_in_both_modes(tmp_path, mode):
    save_var(random_var_model(3, nodes=3, order=2, noise_corr=0.25), tmp_path / "var.json")
    assert run("decompose", "--model", tmp_path / "var.json", "--A", "x0", "--B", "x1",
               "--mode", mode, "--out", tmp_path / "gw") == 0
    assert run("check", tmp_path / "gw.json") == 0
    doc = json.loads((tmp_path / "gw.json").read_text())
    assert doc["mode"] == mode
    assert abs(doc["delta_cb"] - (-0.0176775)) < 1e-6


def test_var_decompose_prints_bits(tmp_path, capsys):
    save_var(random_var_model(3, nodes=3, order=2, noise_corr=0.25), tmp_path / "var.json")
    assert run("decompose", "--model", tmp_path / "var.json", "--A", "x0", "--B", "x1",
               "--units", "bits", "--out", tmp_path / "gw") == 0
    printed = dict(line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines()
                   if line.startswith(("di_", "te_", "iie", "mi ", "delta_cb")))
    doc = json.loads((tmp_path / "gw.json").read_text())
    assert len(printed) == 7
    for key, text in printed.items():
        assert float(text) == pytest.approx(doc[key.strip()] / math.log(2), rel=1e-8)


def test_check_refuses_geweke_convention_by_name(tmp_path, capsys):
    # a Gaussian decomposition as older versions wrote it: log variance
    # ratios, one residual, no delta_cb
    doc = {"di_ab": 0.1, "di_ba": 0.2, "te_ab": 0.05, "te_ba": 0.15, "iie": 0.05,
           "mi": 0.25, "delta_cb": 0.0, "residuals": {"geweke": 0.0}, "horizon": 0,
           "mode": "strict_past", "exact": False, "convention": "geweke-log-variance-ratio"}
    (tmp_path / "gw.json").write_text(json.dumps(doc))
    assert run("check", tmp_path / "gw.json") == 1
    assert capsys.readouterr().err == ("check failed: written in Geweke's convention by an "
                                       "older dirinfo; re-run decompose\n")


def test_estimate_then_decompose_roundtrip(tmp_path):
    run("simulate", "chain", "--T", 4000, "--seed", 5, "--out", tmp_path / "c")
    assert run("estimate", "--input", tmp_path / "c.csv", "--family", "discrete",
               "--order", 1, "--bins", 2, "--out", tmp_path / "fit") == 0
    assert run("decompose", "--model", tmp_path / "fit.model.json", "--A", "x",
               "--B", "z", "--n", 4, "--out", tmp_path / "d2") == 0
    doc = json.loads((tmp_path / "d2.json").read_text())
    assert all(abs(v) < 1e-9 for v in doc["residuals"].values())


@pytest.mark.parametrize("command", ["graph", "test"])
def test_order_zero_exits_1(tmp_path, capsys, command):
    run("simulate", "chain", "--T", 300, "--seed", 2, "--out", tmp_path / "c")
    argv = [command, "--input", tmp_path / "c.csv", "--family", "var", "--order", 0,
            "--out", tmp_path / "r"]
    if command == "test":
        argv += ["--kind", "causality", "--A", "x", "--B", "y"]
    assert run(*argv) == 1
    assert "ParamError: order must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_test_command_surrogate_requires_seed(tmp_path):
    run("simulate", "chain", "--T", 1000, "--seed", 2, "--out", tmp_path / "c")
    code = run("test", "--input", tmp_path / "c.csv", "--kind", "causality",
               "--A", "x", "--B", "y", "--family", "var",
               "--calibration", "surrogate", "--out", tmp_path / "t")
    assert code == 2


def test_test_command_writes_result(tmp_path):
    run("simulate", "chain", "--T", 5000, "--seed", 2, "--out", tmp_path / "c")
    assert run("test", "--input", tmp_path / "c.csv", "--kind", "causality",
               "--A", "x", "--B", "y", "--C", "z", "--family", "var",
               "--out", tmp_path / "t") == 0
    doc = json.loads((tmp_path / "t.json").read_text())
    assert doc["decision"] == "reject_H0"
    assert run("check", tmp_path / "t.json") == 0


def test_test_command_surrogate_default_count_covers_alpha(tmp_path, capsys):
    run("simulate", "chain", "--T", 1000, "--seed", 2, "--out", tmp_path / "c")
    argv = ("test", "--input", tmp_path / "c.csv", "--kind", "causality",
            "--A", "x", "--B", "y", "--C", "z", "--family", "var", "--alpha", 0.001,
            "--calibration", "surrogate", "--seed", 3, "--out", tmp_path / "t")
    assert run(*argv) == 0
    doc = json.loads((tmp_path / "t.json").read_text())
    assert doc["p_value"] == 1 / (min_surrogates(0.001) + 1)
    manifest = json.loads((tmp_path / "t.manifest.json").read_text())
    assert manifest["config"]["surrogates"] == min_surrogates(0.001)
    assert run("check", tmp_path / "t.json") == 0
    assert run(*argv, "--surrogates", 200) == 1
    assert "CalibrationError: surrogate calibration at level 0.001 needs at least 999 " \
           "surrogates, got 200" in capsys.readouterr().err


def test_parser_reused_across_calls_leaks_no_state(tmp_path):
    """``main`` builds its parser once per process: a command run after
    another one writes the same result and configuration as on a fresh
    parser."""
    run("simulate", "chain", "--T", 1000, "--seed", 4, "--out", tmp_path / "c")
    commands = {
        "test": ("test", "--input", tmp_path / "c.csv", "--kind", "coupling",
                 "--A", "x", "--B", "y", "--family", "var", "--out", tmp_path / "t"),
        "graph": ("graph", "--input", tmp_path / "c.csv", "--family", "var",
                  "--out", tmp_path / "g"),
    }
    written = {name: [] for name in commands}
    for order in (("test", "graph"), ("graph", "test")):
        build_parser.cache_clear()
        for name in order:
            assert run(*commands[name]) == 0
            prefix = commands[name][-1]
            manifest = json.loads(prefix.with_suffix(".manifest.json").read_text())
            written[name].append((prefix.with_suffix(".json").read_text(),
                                  manifest["config"]))
    assert build_parser() is build_parser()
    for name, (fresh, reused) in written.items():
        assert fresh == reused, name


def test_computation_error_exits_1(tmp_path):
    run("simulate", "chain", "--T", 1000, "--seed", 2, "--out", tmp_path / "c")
    code = run("test", "--input", tmp_path / "c.csv", "--kind", "causality",
               "--A", "x", "--B", "x", "--family", "var", "--out", tmp_path / "t")
    assert code == 1


@pytest.mark.parametrize("doc", [{"x": 1}, {}, [1, 2]])
def test_check_refuses_what_is_not_a_result(tmp_path, capsys, doc):
    (tmp_path / "r.json").write_text(json.dumps(doc))
    assert run("check", tmp_path / "r.json") == 1
    captured = capsys.readouterr()
    assert "ok" not in captured.out
    assert ("check failed: not a result" if isinstance(doc, dict) else "error: ParseError") \
        in captured.err


FILE, OUT = object(), object()
_DECOMPOSE = ("decompose", "--model", FILE, "--A", "x0", "--B", "x1", "--out", OUT)
_GRAPH = ("graph", "--input", FILE, "--format", "json", "--family", "var", "--out", OUT)
_GLM = ("simulate", "glm", "--params", FILE, "--T", 10, "--seed", 1, "--out", OUT)
_VAR_WITHOUT_LABELS = {key: value for key, value in var_to_json(random_var_model(3)).items()
                       if key != "labels"}
MALFORMED_INPUTS = {
    "decompose-scalar": ("7", _DECOMPOSE),
    "decompose-kernel-only": ('{"kernel": 5}', _DECOMPOSE),
    "decompose-coeffs-string": ('{"coeffs": "x"}', _DECOMPOSE),
    "decompose-var-without-labels": (json.dumps(_VAR_WITHOUT_LABELS), _DECOMPOSE),
    "check-text": ("not json", ("check", FILE)),
    "check-residuals-list": ('{"residuals": [1]}', ("check", FILE)),
    "check-directed-number": ('{"nodes": ["x"], "directed": 5}', ("check", FILE)),
    "check-config-number": ('{"decision": "keep_H0", "config": 5}', ("check", FILE)),
    "replay-text": ("not json", ("replay", FILE)),
    "replay-argv-number": ('{"inputs": {}, "outputs": {}, "argv": 5}', ("replay", FILE)),
    "replay-of-replay": ('{"inputs": {}, "outputs": {}, "argv": ["replay", "in.json"]}',
                         ("replay", FILE)),
    "replay-bad-argv": ('{"inputs": {}, "outputs": {}, "argv": ["graph", "--bogus"]}',
                        ("replay", FILE)),
    "panel-values-number": ('{"labels": ["x", "y"], "values": 7}', _GRAPH),
    "panel-values-flat": ('{"labels": ["x", "y"], "values": [1, 2]}', _GRAPH),
    "simulate-var-list": ("[1]", ("simulate", "var", "--model", FILE, "--T", 10,
                                  "--seed", 1, "--out", OUT)),
    "simulate-glm-weights": ('{"weights": 5}', _GLM),
    "simulate-glm-pair": ('{"weights": {"ab": [1]}}', _GLM),
    "simulate-glm-labels": ('{"weights": {"a->b": [1]}, "labels": 5}', _GLM),
    "simulate-glm-bias": ('{"weights": {"a->b": [1]}, "bias": "x"}', _GLM),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_1_with_an_error(tmp_path, capsys, name):
    text, argv = MALFORMED_INPUTS[name]
    (tmp_path / "in.json").write_text(text)
    argv = [tmp_path / "in.json" if a is FILE else tmp_path / "out" if a is OUT else a
            for a in argv]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("graph", "--frobnicate")
    assert exc.value.code == 2


def test_replay_reproduces_artifacts(tmp_path):
    out = tmp_path / "c"
    run("simulate", "chain", "--T", 1500, "--seed", 21, "--out", out)
    first = (tmp_path / "c.csv").read_bytes()
    (tmp_path / "c.csv").unlink()
    assert run("replay", tmp_path / "c.manifest.json") == 0
    assert (tmp_path / "c.csv").read_bytes() == first


def test_manifest_records_input_and_output_hashes(tmp_path):
    run("simulate", "chain", "--T", 800, "--seed", 3, "--out", tmp_path / "c")
    assert run("graph", "--input", tmp_path / "c.csv", "--family", "var",
               "--out", tmp_path / "g") == 0
    manifest = json.loads((tmp_path / "g.manifest.json").read_text())
    digest = hashlib.sha256((tmp_path / "c.csv").read_bytes()).hexdigest()
    assert manifest["inputs"] == {str(tmp_path / "c.csv"): digest}
    assert set(manifest["outputs"]) == {str(tmp_path / "g.json"), str(tmp_path / "g.dot")}
    assert run("replay", tmp_path / "g.manifest.json") == 0


def test_replay_refuses_changed_input(tmp_path, capsys):
    run("simulate", "chain", "--T", 800, "--seed", 3, "--out", tmp_path / "c")
    run("graph", "--input", tmp_path / "c.csv", "--family", "var", "--out", tmp_path / "g")
    first = (tmp_path / "g.json").read_bytes()
    csv = (tmp_path / "c.csv").read_text().splitlines()
    csv[1] = csv[2]
    (tmp_path / "c.csv").write_text("\n".join(csv) + "\n")
    capsys.readouterr()
    assert run("replay", tmp_path / "g.manifest.json") == 1
    assert str(tmp_path / "c.csv") in capsys.readouterr().err
    assert (tmp_path / "g.json").read_bytes() == first  # nothing was re-run


def test_replay_refuses_output_that_differs_from_record(tmp_path, capsys):
    run("simulate", "chain", "--T", 800, "--seed", 3, "--out", tmp_path / "c")
    manifest = json.loads((tmp_path / "c.manifest.json").read_text())
    manifest["outputs"][str(tmp_path / "c.csv")] = "0" * 64
    (tmp_path / "c.manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run("replay", tmp_path / "c.manifest.json") == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "c.csv") in err and "truth" not in err


def test_units_bits_only_affects_display(tmp_path, capsys):
    save_model(chain_markov_model(0.1), tmp_path / "model.json")
    run("decompose", "--model", tmp_path / "model.json", "--A", "x", "--B", "y",
        "--n", 3, "--units", "bits", "--out", tmp_path / "bits")
    run("decompose", "--model", tmp_path / "model.json", "--A", "x", "--B", "y",
        "--n", 3, "--units", "nats", "--out", tmp_path / "nats")
    bits = json.loads((tmp_path / "bits.json").read_text())
    nats = json.loads((tmp_path / "nats.json").read_text())
    assert bits["di_ab"] == nats["di_ab"]  # files always in nats


def test_simulate_glm_preset(tmp_path):
    params = {"weights": {"a->b": [1.0]}, "labels": ["a", "b"], "bias": {"b": -0.2}}
    (tmp_path / "glm.json").write_text(json.dumps(params))
    assert run("simulate", "glm", "--params", tmp_path / "glm.json", "--T", 500,
               "--seed", 3, "--out", tmp_path / "g") == 0
    truth = json.loads((tmp_path / "g.truth.json").read_text())
    assert truth["directed"] == [["a", "b"]]


def test_simulate_var_preset(tmp_path):
    save_var(random_var_model(4, nodes=2, order=1), tmp_path / "var.json")
    assert run("simulate", "var", "--model", tmp_path / "var.json", "--T", 300,
               "--seed", 4, "--out", tmp_path / "v") == 0
    assert (tmp_path / "v.csv").exists()
