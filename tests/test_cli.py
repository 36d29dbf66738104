import hashlib
import json
import math
import re

import pytest

from dirinfo.cli import build_parser, main
from dirinfo.discrete import save_model
from dirinfo.gaussian import save_var
from dirinfo.inference import bonferroni_count, min_surrogates
from dirinfo.core import DEFAULT_STATE_BUDGET
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


def test_decompose_budget_too_small_exits_1(tmp_path, capsys):
    save_model(random_markov_model(1, nodes=3), tmp_path / "model.json")
    code = run("decompose", "--model", tmp_path / "model.json", "--A", "x0",
               "--B", "x1", "--n", 5, "--budget", 1023, "--out", tmp_path / "dec")
    assert code == 1
    assert not (tmp_path / "dec.json").exists()
    # the largest array is the joint law of x0 and x1 over five samples
    assert "BudgetError: exact marginal needs an array of 1024 entries, " \
           "state budget is 1023" in capsys.readouterr().err


def test_check_flags_tampered_results(tmp_path):
    save_model(chain_markov_model(0.1), tmp_path / "model.json")
    run("decompose", "--model", tmp_path / "model.json", "--A", "x", "--B", "y",
        "--n", 3, "--out", tmp_path / "dec")
    assert run("check", tmp_path / "dec.json") == 0
    clean = json.loads((tmp_path / "dec.json").read_text())
    # a residual, two values whose sums no residual records, a value erased
    for tamper in ({"residuals": {**clean["residuals"], "id3": 0.5}},
                   {"di_ab": 7.0, "te_ab": -3.0}, {"te_ab": None}):
        (tmp_path / "dec.json").write_text(json.dumps({**clean, **tamper}))
        assert run("check", tmp_path / "dec.json") == 1


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


@pytest.mark.parametrize("field, value", [("geweke", 0.5), ("te_ab", 7.0)])
def test_check_flags_tampered_gaussian_decomposition(tmp_path, field, value):
    save_var(random_var_model(3, nodes=2, order=1, noise_corr=0.3),
             tmp_path / "var.json")
    run("decompose", "--model", tmp_path / "var.json", "--A", "x0", "--B", "x1",
        "--out", tmp_path / "gw")
    assert run("check", tmp_path / "gw.json") == 0
    doc = json.loads((tmp_path / "gw.json").read_text())
    if field == "geweke":
        doc["residuals"]["geweke"] = value
    else:
        doc[field] = value
    (tmp_path / "gw.json").write_text(json.dumps(doc))
    assert run("check", tmp_path / "gw.json") == 1


def test_decompose_var_model_emits_geweke_bundle(tmp_path):
    save_var(random_var_model(3, nodes=2, order=1, noise_corr=0.3),
             tmp_path / "var.json")
    assert run("decompose", "--model", tmp_path / "var.json", "--A", "x0",
               "--B", "x1", "--out", tmp_path / "gw") == 0
    doc = json.loads((tmp_path / "gw.json").read_text())
    assert doc["exact"] is False
    assert abs(doc["residuals"]["geweke"]) < 1e-6
    assert doc["te_ab"] >= -1e-8 and doc["iie"] > 0.01


def test_estimate_then_decompose_roundtrip(tmp_path):
    run("simulate", "chain", "--T", 4000, "--seed", 5, "--out", tmp_path / "c")
    assert run("estimate", "--input", tmp_path / "c.csv", "--family", "discrete",
               "--order", 1, "--bins", 2, "--out", tmp_path / "fit") == 0
    assert run("decompose", "--model", tmp_path / "fit.model.json", "--A", "x",
               "--B", "z", "--n", 4, "--out", tmp_path / "d2") == 0
    doc = json.loads((tmp_path / "d2.json").read_text())
    assert all(abs(v) < 1e-9 for v in doc["residuals"].values())


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
