import json
import math

import numpy as np
import pytest

from dirinfo import core
from dirinfo.cli import main
from dirinfo.core import (
    MeasureValue,
    NodePartition,
    SequenceDistribution,
    TimeSeriesPanel,
    load_panel,
    make_partition,
    symbolize,
    write_panel,
)
from dirinfo.errors import (
    CalibrationError,
    DegenerateColumn,
    DirinfoError,
    InsufficientData,
    InvalidModel,
    ParamError,
    ParseError,
    PartitionError,
    SchemaError,
    SelectionError,
)
from dirinfo.discrete import (
    DiscreteMarkovModel,
    enumerate_joint,
    fit_plugin,
    marginal,
    model_from_json,
    model_to_json,
    sample_panel,
    save_model,
)
from dirinfo.gaussian import (
    VarModel,
    fit_var,
    gaussian_mi_rate,
    innovation_cov,
    var_from_json,
    var_to_json,
)
from dirinfo.inference import (
    VarFamily,
    generalized_llr,
    infer_graph,
    llr_causality,
    llr_coupling,
    stein_exponent_check,
)
from dirinfo.measures import directed_information, entropy, rate, schreiber_transfer_entropy
from dirinfo.simulate import (
    delay_channel,
    gen_chain_example,
    gen_glm_spiking,
    random_markov_model,
    random_var_model,
)


def test_load_csv_basic(tmp_path, rng):
    path = tmp_path / "panel.csv"
    values = rng.normal(size=(100, 3))
    lines = ["x,y,z"] + [",".join(repr(float(v)) for v in row) for row in values]
    path.write_text("\n".join(lines) + "\n")
    panel = load_panel(path)
    assert panel.n_samples == 100
    assert panel.labels == ("x", "y", "z")
    assert np.allclose(panel.values, values)


def test_load_csv_non_numeric_names_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n3,oops\n")
    with pytest.raises(ParseError, match="row 3.*column y"):
        load_panel(path)


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("x,y\n1,2\n3\n")
    with pytest.raises(ParseError, match="row 3"):
        load_panel(path)


LOADER_CORPUS = {
    "floats": "x,y\n0.5,-1.25\n1e-3,7.0\n",
    "integers": "x,y\n1,0\n0,2\n",
    "blank_line_in_middle": "x,y\n1,2\n\n3,4\n",
    "trailing_blank_line": "x,y\n1,2\n3,4\n\n",
    "whitespace_only_row": "x,y\n1,2\n   \n3,4\n",
    "quoted_cell": 'x,y\n1,"2"\n3,4\n',
    "hash_cell": "x,y\n1,#\n3,4\n",
    "hash_after_value": "x,y\n1,2 # note\n3,4\n",
    "underscore_digits": "x,y\n1_0,2\n3,4\n",
    "nan_cell": "x,y\n1,nan\n3,4\n",
    "inf_cell": "x,y\n1,2\n-inf,4\n",
    "header_only": "x,y\n",
    "single_column": "x\n1\n2\n",
    "crlf": "x,y\r\n1.5,2\r\n3,4\r\n",
    "ragged_short_row": "x,y\n1,2\n3\n",
    "ragged_long_row": "x,y\n1,2,5\n3,4\n",
    "empty_cell": "x,y\n1,\n3,4\n",
    "cr_line_ends": "x,y\r1,2\r3,4\r",
    "blank_cr_line": "x,y\r\n1,2\r\n\r3,4\r\n",
    "no_final_newline": "x,y\n1,2\n3,4",
    "blank_first_row": "x,y\n\n1,2\n",
}


def _load_outcome(path):
    try:
        values = load_panel(path).values
    except DirinfoError as exc:
        return f"{type(exc).__name__}: {exc}"
    return values.dtype, values.tolist()


@pytest.mark.parametrize("name", sorted(LOADER_CORPUS))
def test_load_csv_fast_path_matches_per_cell_parser(tmp_path, monkeypatch, name):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(LOADER_CORPUS[name].encode())
    fast = _load_outcome(path)
    monkeypatch.setattr(core, "_fast_rows", lambda fh, width: None)
    assert fast == _load_outcome(path)


def test_load_csv_takes_fast_path_on_plain_numbers(tmp_path, monkeypatch):
    path = tmp_path / "plain.csv"
    path.write_bytes(LOADER_CORPUS["crlf"].encode())
    monkeypatch.setattr(core, "_parse_cell", None)  # the per-cell parser must not run
    assert load_panel(path).values.tolist() == [[1.5, 2.0], [3.0, 4.0]]


def test_load_json_duplicate_labels(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"labels": ["a", "a"], "values": [[1, 2]]}')
    with pytest.raises(SchemaError):
        load_panel(path, format="json")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_load_keeps_huge_integral_values_float(tmp_path, fmt):
    path = tmp_path / f"huge.{fmt}"
    if fmt == "csv":
        path.write_text("a,b\n1e300,1\n2,3\n")
    else:
        path.write_text('{"labels": ["a", "b"], "values": [[1e300, 1], [2, 3]]}')
    panel = load_panel(path, format=fmt)
    assert not panel.is_integer()
    assert panel.values[0, 0] == 1e300
    assert panel.values[1, 1] == 3.0


def test_csv_roundtrip_bit_exact(tmp_path, rng):
    panel = TimeSeriesPanel(values=rng.normal(size=(50, 2)), labels=("u", "v"))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_panel(panel, first)
    write_panel(load_panel(first), second)
    assert first.read_bytes() == second.read_bytes()


def _per_cell_csv(panel):
    """The CSV text of the per-cell rule: an integral value below 2**53 in
    magnitude as digits, anything else as the repr of its float."""
    def cell(x):
        return str(int(x)) if float(x) == int(x) and abs(float(x)) < 2**53 else repr(float(x))
    return "".join(",".join(map(cell, row)) + "\n" for row in panel.values)


@pytest.mark.parametrize("values", [
    np.array([[-0.0, 0.25], [1.5, -0.0]]),
    np.array([[0.1, 3.0], [-7.0, 2.5], [0.3, 0.7]]),
    np.array([[2.0**53, 0.5], [-2.0**60, 1e300], [2.0**53 - 1, 0.1]]),
    np.array([[1, -2], [2**53 + 1, 3], [-2**63, 2**63 - 1], [2**53 - 1, 0]], dtype=np.int64),
    np.array([[True, False], [False, True]]),
    np.array([[0.1, 2.0], [1.5, 3.25]], dtype=np.float32),
], ids=["negative_zero", "integral_floats", "beyond_2_53", "int64", "bool", "float32"])
def test_csv_rows_match_the_per_cell_rule(tmp_path, values):
    panel = TimeSeriesPanel(values=values, labels=("u", "v"))
    write_panel(panel, tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_text() == "u,v\n" + _per_cell_csv(panel)


def test_integer_panel_roundtrip(tmp_path):
    panel = TimeSeriesPanel(values=np.array([[0, 1], [2, 3]]), labels=("a", "b"))
    path = tmp_path / "ints.csv"
    write_panel(panel, path)
    back = load_panel(path)
    assert back.is_integer()
    assert np.array_equal(back.values, panel.values)


def test_json_roundtrip(tmp_path, rng):
    panel = TimeSeriesPanel(values=rng.normal(size=(10, 2)), labels=("a", "b"))
    path = tmp_path / "p.json"
    write_panel(panel, path, format="json")
    back = load_panel(path, format="json")
    assert np.allclose(back.values, panel.values)
    assert back.labels == panel.labels


def test_panel_invariants():
    with pytest.raises(SchemaError):
        TimeSeriesPanel(values=np.zeros((5, 1)), labels=("a",))
    with pytest.raises(SchemaError):
        TimeSeriesPanel(values=np.zeros((5, 2)), labels=("a", "a"))
    with pytest.raises(SchemaError):
        TimeSeriesPanel(values=np.array([[1.0, np.nan]]), labels=("a", "b"))


def test_make_partition_complement():
    part = make_partition(["x", "y", "z"], ["x"], ["z"])
    assert part.c_labels == ("y",)
    assert part.a_labels == ("x",) and part.b_labels == ("z",)


def test_make_partition_bivariate_empty_c():
    part = make_partition(["x", "y"], ["x"], ["y"])
    assert part.c == ()


def test_make_partition_errors():
    with pytest.raises(PartitionError):
        make_partition(["x", "y"], ["x"], ["x"])
    with pytest.raises(PartitionError):
        make_partition(["x", "y"], ["w"], ["y"])
    with pytest.raises(PartitionError):
        make_partition(["x", "y"], [], ["y"])


# one rule for node groups, checked once: every entry point that takes
# (A, B, C) raises the same error for the same mistake, and every entry
# point that names nodes reads each name the same way
_LABELS = ("x0", "x1", "x2")
_MODEL = random_markov_model(1, nodes=3)
_DISJOINT = "A, B, C must be pairwise disjoint, each node named once"
_MALFORMED_GROUPS = {  # (A, B, C) as node indices, the error class and its message
    "empty_a": ((), (1,), (2,), PartitionError, "A and B must be nonempty"),
    "empty_b": ((0,), (), (2,), PartitionError, "A and B must be nonempty"),
    "a_overlaps_b": ((0,), (0,), (2,), PartitionError, _DISJOINT),
    "a_overlaps_c": ((0,), (1,), (0, 2), PartitionError, _DISJOINT),
    "repeat_in_a": ((0, 0), (1,), (2,), PartitionError, _DISJOINT),
    "out_of_range": ((0,), (3,), (2,), SelectionError, "node 3 out of range"),
    "fractional_index": ((0.5,), (1,), (2,), SelectionError, "node 0.5 is not an integer"),
    "numeric_string": (("0",), (1,), (2,), SelectionError, "node '0' is not an integer"),
}
# the mistakes in naming one node; the others are mistakes in grouping nodes
_NAMING = ("out_of_range", "fractional_index", "numeric_string")


def _named(group):
    """Labels for node indices: an index i is "x{i}", and a non-integer is
    passed as it is, to be read as the label str(x)."""
    return [f"x{i}" if isinstance(i, int) else i for i in group]


def _panel():
    return sample_panel(_MODEL, 300, seed=1)


def _var_model():
    return random_var_model(1, nodes=3)


# name: (call, what it takes). "labels" and "indices" take the triple (A, B, C),
# or (A, B) when C is "none"; "one group" takes the node set A + B + C, and
# "label pairs" the pairs of a label of B and one of A
_ENTRY_POINTS = {
    "NodePartition": (lambda a, b, c: NodePartition(a, b, c, _LABELS), "indices"),
    "make_partition": (lambda a, b, c: make_partition(_LABELS, _named(a), _named(b)),
                       "labels, none"),
    "directed_information": (lambda a, b, c: directed_information(
        enumerate_joint(_MODEL, 2), a, b, c_nodes=c), "indices"),
    "rate": (lambda a, b, c: rate("di", _MODEL, a, b, c), "indices"),
    # its stationary law would need 64**4 entries, past the state budget
    "rate_past_budget": (lambda a, b, c: rate(
        "di", random_markov_model(1, nodes=3, alphabet=4, order=2), a, b, c), "indices"),
    "llr_causality": (lambda a, b, c: llr_causality(
        _panel(), _named(a), _named(b), _named(c)), "labels"),
    "llr_coupling": (lambda a, b, c: llr_coupling(
        _panel(), _named(a), _named(b), _named(c)), "labels"),
    "gaussian_mi_rate": (lambda a, b, c: gaussian_mi_rate(_var_model(), a, b), "indices, none"),
    "stein_exponent_check": (lambda a, b, c: stein_exponent_check(_MODEL, a, b, (50,)),
                             "indices, none"),
    "entropy": (lambda a, b, c: entropy(enumerate_joint(_MODEL, 2), a + b + c, (1,)),
                "one group"),
    "marginal": (lambda a, b, c: marginal(enumerate_joint(_MODEL, 2), a + b + c, (1,)),
                 "one group"),
    "innovation_cov": (lambda a, b, c: innovation_cov(_var_model(), a + b + c), "one group"),
    "generalized_llr": (lambda a, b, c: generalized_llr(
        _panel(), VarFamily(),
        [(t, s) for t in _named(b) for s in _named(a)]), "label pairs"),
    "gen_glm_spiking": (lambda a, b, c: gen_glm_spiking(
        {(s, t): [1.0] for s in _named(a) for t in _named(b)}, 10, 1, labels=_LABELS),
        "label pairs"),
}


def _applies(entry, case):
    takes = _ENTRY_POINTS[entry][1]
    if takes in ("one group", "label pairs"):
        return case in _NAMING
    return not (takes.endswith("none") and case == "a_overlaps_c")


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry in _ENTRY_POINTS for case in _MALFORMED_GROUPS
    if _applies(entry, case)])
def test_malformed_node_groups_raise_one_error_everywhere(entry, case):
    a, b, c, error, message = _MALFORMED_GROUPS[case]
    call, takes = _ENTRY_POINTS[entry]
    if takes.startswith("label") and case in _NAMING:  # the bad node is an unknown label
        bad = next(x for x in _named(a + b + c) if x not in _LABELS)
        error, message = PartitionError, f"unknown node label {str(bad)!r}"
    with pytest.raises(DirinfoError) as caught:
        call(a, b, c)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("argv", [
    ["test", "--kind", "causality", "--A", "x0", "--B", "x0"],
    ["test", "--kind", "causality", "--A", "x0", "--B", "x1", "--C", "x0"],
    ["test", "--kind", "coupling", "--A", "x0", "x0", "--B", "x1"],
    ["decompose", "--A", "x0", "--B", "x0"],
    ["decompose", "--A", "x0", "x0", "--B", "x1"],
    ["test", "--kind", "causality", "--A", "w", "--B", "x1"],
    ["decompose", "--A", "w", "--B", "x1"],
], ids=["test_a_overlaps_b", "test_a_overlaps_c", "test_repeat_in_a",
        "decompose_a_overlaps_b", "decompose_repeat_in_a",
        "test_unknown_label", "decompose_unknown_label"])
def test_cli_reports_malformed_node_groups_as_one_partition_error(tmp_path, capsys, argv):
    write_panel(_panel(), tmp_path / "p.csv")
    save_model(_MODEL, tmp_path / "m.json")
    source = (["--input", tmp_path / "p.csv"] if argv[0] == "test"
              else ["--model", tmp_path / "m.json"])
    assert main([str(x) for x in argv + source + ["--out", tmp_path / "r"]]) == 1
    message = "unknown node label 'w'" if "w" in argv else _DISJOINT
    assert capsys.readouterr().err == f"error: PartitionError: {message}\n"


def _model_of(sizes, order=1):
    return DiscreteMarkovModel(sizes, order, np.full((2, 2), 0.5), np.full(2, 0.5))


def _doc(to_json, model, **fields):
    return {**to_json(model), **fields}


_HUGE = (2**32, 2**32)  # a joint alphabet of 2**64 symbols
_PAST_INT64 = ("alphabet sizes [4294967296, 4294967296] give 18446744073709551616 joint "
               "symbols, past the int64 range of symbol codes")
_PMF = np.full(2, 0.5)


# a count is read as an integer, never truncated or parsed, and each site
# keeps the error class it raises for a count out of range
@pytest.mark.parametrize("call, error, message", [
    (lambda: enumerate_joint(_MODEL, 2.5), SelectionError, "horizon 2.5 is not an integer"),
    (lambda: directed_information(enumerate_joint(_MODEL, 3), (0,), (1,), n=2.5),
     SelectionError, "horizon 2.5 is not an integer"),
    (lambda: fit_plugin(_panel(), 1.5), InvalidModel, "order 1.5 is not an integer"),
    (lambda: fit_var(_panel(), 1.5), ParamError, "order 1.5 is not an integer"),
    (lambda: VarFamily(order=1.5), ParamError, "order 1.5 is not an integer"),
    (lambda: symbolize(_panel(), 2.5), ParamError, "bins 2.5 is not an integer"),
    (lambda: _model_of((2,), 1.5), InvalidModel, "order 1.5 is not an integer"),
    (lambda: _model_of((2,), "1"), InvalidModel, "order '1' is not an integer"),
    (lambda: _model_of((2.5,)), InvalidModel, "alphabet size 2.5 is not an integer"),
    (lambda: _model_of(("2",)), InvalidModel, "alphabet size '2' is not an integer"),
    (lambda: DiscreteMarkovModel(_HUGE, 1, np.zeros((0, 0)), np.zeros(0)),
     InvalidModel, _PAST_INT64),
    (lambda: VarModel(1.5, np.zeros((1, 2, 2)), np.eye(2), ("a", "b")),
     InvalidModel, "order 1.5 is not an integer"),
    (lambda: VarModel("1", np.zeros((1, 2, 2)), np.eye(2), ("a", "b")),
     InvalidModel, "order '1' is not an integer"),
    (lambda: model_from_json(_doc(model_to_json, _MODEL, order=1.5)),
     InvalidModel, "order 1.5 is not an integer"),
    (lambda: model_from_json(_doc(model_to_json, _MODEL, order="1")),
     InvalidModel, "order '1' is not an integer"),
    (lambda: model_from_json(_doc(model_to_json, _MODEL, alphabet_sizes=[2.5, 2, 2])),
     InvalidModel, "alphabet size 2.5 is not an integer"),
    (lambda: model_from_json(_doc(model_to_json, _MODEL, alphabet_sizes=list(_HUGE))),
     InvalidModel, _PAST_INT64),
    (lambda: var_from_json(_doc(var_to_json, _var_model(), order=1.5)),
     InvalidModel, "order 1.5 is not an integer"),
    (lambda: var_from_json(_doc(var_to_json, _var_model(), order="1")),
     InvalidModel, "order '1' is not an integer"),
    (lambda: SequenceDistribution((2.5,), 1, _PMF), InvalidModel,
     "alphabet size 2.5 is not an integer"),
    (lambda: SequenceDistribution(("2",), 1, _PMF), InvalidModel,
     "alphabet size '2' is not an integer"),
    (lambda: SequenceDistribution(_HUGE, 1, _PMF), InvalidModel, _PAST_INT64),
    (lambda: SequenceDistribution((2,), 1, _PMF, budget=2.5), ParamError,
     "budget 2.5 is not an integer"),
    (lambda: SequenceDistribution((2,), 1, _PMF, budget="2"), ParamError,
     "budget '2' is not an integer"),
    (lambda: SequenceDistribution((3,), 1, [0.5 + 1e-13, 0.5, -1e-13]), InvalidModel,
     "pmf has negative entries"),
    (lambda: fit_plugin(_panel(), 1, alphabet_sizes=(2.5, 2, 2)), InvalidModel,
     "alphabet size 2.5 is not an integer"),
    (lambda: fit_plugin(_panel(), 1, alphabet_sizes=("2", 2, 2)), InvalidModel,
     "alphabet size '2' is not an integer"),
    (lambda: gen_chain_example(20.5, seed=1), ParamError, "T 20.5 is not an integer"),
    (lambda: gen_chain_example("20", seed=1), ParamError, "T '20' is not an integer"),
    (lambda: sample_panel(_MODEL, 20.5, 1), InsufficientData, "T 20.5 is not an integer"),
    (lambda: sample_panel(_MODEL, "20", 1), InsufficientData, "T '20' is not an integer"),
    (lambda: stein_exponent_check(delay_channel(0.1), (0,), (1,), (20,), trials=1000.5),
     ParamError, "trials 1000.5 is not an integer"),
    (lambda: stein_exponent_check(delay_channel(0.1), (0,), (1,), (20,), trials="1000"),
     ParamError, "trials '1000' is not an integer"),
    (lambda: stein_exponent_check(delay_channel(0.1), (0,), (1,), (20.7,), trials=1000),
     ParamError, "T 20.7 is not an integer"),
    (lambda: stein_exponent_check(delay_channel(0.1), (0,), (1,), ("20",), trials=1000),
     ParamError, "T '20' is not an integer"),
    (lambda: llr_causality(_panel(), ("x0",), ("x1",), calibration="surrogate", surrogates=200.5),
     CalibrationError, "surrogates 200.5 is not an integer"),
    (lambda: llr_causality(_panel(), ("x0",), ("x1",), calibration="surrogate", surrogates="200"),
     CalibrationError, "surrogates '200' is not an integer"),
    (lambda: schreiber_transfer_entropy(enumerate_joint(_MODEL, 3), (0,), (1,), 1.5, 1),
     ParamError, "k 1.5 is not an integer"),
    (lambda: schreiber_transfer_entropy(enumerate_joint(_MODEL, 3), (0,), (1,), 1, "1"),
     ParamError, "l '1' is not an integer"),
], ids=["enumerate_joint", "directed_information", "fit_plugin", "fit_var", "VarFamily",
        "symbolize", "model_order", "model_order_string", "model_size", "model_size_string",
        "model_past_int64", "var_order", "var_order_string", "model_json_order",
        "model_json_order_string", "model_json_size", "model_json_past_int64",
        "var_json_order", "var_json_order_string", "law_size", "law_size_string",
        "law_past_int64", "law_budget", "law_budget_string", "law_negative_entry",
        "fit_plugin_size", "fit_plugin_size_string", "generator_T", "generator_T_string",
        "sample_panel_T", "sample_panel_T_string", "stein_trials", "stein_trials_string",
        "stein_T", "stein_T_string", "surrogates", "surrogates_string", "schreiber_k",
        "schreiber_l_string"])
def test_fractional_counts_are_refused(call, error, message):
    with pytest.raises(DirinfoError) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("to_json, model", [(model_to_json, _MODEL),
                                            (var_to_json, _var_model())],
                         ids=["discrete", "var"])
def test_cli_refuses_a_fractional_model_order(tmp_path, capsys, to_json, model):
    (tmp_path / "m.json").write_text(json.dumps(_doc(to_json, model, order=1.5)))
    argv = ["decompose", "--model", tmp_path / "m.json", "--A", "x0", "--B", "x1",
            "--out", tmp_path / "d"]
    assert main([str(x) for x in argv]) == 1
    assert capsys.readouterr().err == "error: InvalidModel: order 1.5 is not an integer\n"


# a law that sums to 1 + 9.99978e-13, within PMF_ATOL, though its sum rounded
# to float64 reads 1.000000000001; and the same law two ulps further out, at
# 1 + 1.000006e-12, though its float64 sum is within
_EDGE_LAW = np.array([float.fromhex(h) for h in ("0x1.57bc4498df899p-3", "0x1.7776059593505p-3",
                                                 "0x1.1c7cfc4c4f6afp-1", "0x1.7db38940b08c4p-4")])
_OVER_LAW = np.array([*_EDGE_LAW[:3], float.fromhex("0x1.7db38940b08c6p-4")])
_UNIFORM = np.full((4, 4), 0.25)


def _law_doc(initial):
    return {"alphabet_sizes": [2, 2], "order": 1, "kernel": _UNIFORM.ravel().tolist(),
            "initial": list(initial)}


def _two_nodes(labels):
    return DiscreteMarkovModel((2, 2), 1, _UNIFORM, _EDGE_LAW, labels=labels)


# a law, a label set and a model array are each checked by one rule in core:
# a model and the law built from it get one verdict, and every site keeps its
# error class (None: accepted); an array is read as real numbers before numpy
# parses a string or a ragged nesting
@pytest.mark.parametrize("call, error, message", [
    (lambda: enumerate_joint(DiscreteMarkovModel((2, 2), 1, _UNIFORM, _EDGE_LAW), 2), None, None),
    (lambda: enumerate_joint(model_from_json(_law_doc(_EDGE_LAW)), 2), None, None),
    (lambda: SequenceDistribution((2, 2), 1, initial=_EDGE_LAW.reshape(2, 2)), None, None),
    (lambda: SequenceDistribution((2, 2), 1, _EDGE_LAW.reshape(2, 2)), None, None),
    (lambda: DiscreteMarkovModel((2, 2), 1, _UNIFORM, _OVER_LAW), InvalidModel,
     "initial sums to 1.000000000001, not 1"),
    (lambda: model_from_json(_law_doc(_OVER_LAW)), InvalidModel,
     "initial sums to 1.000000000001, not 1"),
    (lambda: TimeSeriesPanel(np.zeros((3, 2)), ("a", "a")), SchemaError,
     "need 2 distinct labels, got ['a', 'a']"),
    (lambda: TimeSeriesPanel(np.zeros((3, 2)), ("a",)), SchemaError,
     "need 2 distinct labels, got ['a']"),
    (lambda: _two_nodes(("a", "a")), InvalidModel, "need 2 distinct labels, got ['a', 'a']"),
    (lambda: _two_nodes(("a", "b", "c")), InvalidModel,
     "need 2 distinct labels, got ['a', 'b', 'c']"),
    (lambda: VarModel(1, np.zeros((1, 2, 2)), np.eye(2), ("a", "a")), InvalidModel,
     "need 2 distinct labels, got ['a', 'a']"),
    (lambda: VarModel(1, np.zeros((1, 2, 2)), np.eye(2), ("a",)), InvalidModel,
     "need 2 distinct labels, got ['a']"),
    (lambda: make_partition(("a", "b", "a"), ("a",), ("b",)), PartitionError,
     "need 3 distinct labels, got ['a', 'b', 'a']"),
    (lambda: gen_glm_spiking({("a", "b"): [1.0]}, 20, 1, labels=("a", "b", "a")), ParamError,
     "need 3 distinct labels, got ['a', 'b', 'a']"),
    (lambda: TimeSeriesPanel(np.array([["1", "2"]]), ("a", "b")), SchemaError,
     "panel values must be real numbers, got dtype <U1"),
    (lambda: TimeSeriesPanel(np.ones((3, 2), dtype=complex), ("a", "b")), SchemaError,
     "panel values must be real numbers, got dtype complex128"),
    (lambda: VarModel(1, np.zeros((1, 2, 3)), np.eye(3), ("a", "b", "c")), InvalidModel,
     "coeffs shape (1, 2, 3) != expected (1, 3, 3)"),
    (lambda: VarModel(2, np.zeros((2, 2)), np.eye(2), ("a", "b")), InvalidModel,
     "coeffs shape (1, 2, 2) != expected (2, 2, 2)"),
    (lambda: llr_causality(_panel(), ("x0",), ("x1",), alpha="0.05"), ParamError,
     "alpha must lie in (0, 1), got '0.05'"),
    (lambda: infer_graph(_panel(), VarFamily(), alpha="0.05"), ParamError,
     "alpha must lie in (0, 1), got '0.05'"),
    (lambda: stein_exponent_check(delay_channel(0.1), (0,), (1,), (20,), trials=1000,
                                  miss_level="0.2"),
     ParamError, "miss_level must lie in (0, 1), got '0.2'"),
    (lambda: random_markov_model(1, nodes=2.5), ParamError, "nodes 2.5 is not an integer"),
    (lambda: random_markov_model(1, alphabet=2.5), ParamError, "alphabet 2.5 is not an integer"),
    (lambda: random_markov_model(1, order=1.5), ParamError, "order 1.5 is not an integer"),
    (lambda: random_var_model(1, nodes=2.5), ParamError, "nodes 2.5 is not an integer"),
    (lambda: random_var_model(1, order=1.5), ParamError, "order 1.5 is not an integer"),
    (lambda: VarModel(1, [[["a", "b"], ["c", "d"]]], np.eye(2), ("a", "b")), InvalidModel,
     "coeffs must be real numbers, got dtype <U1"),
    (lambda: DiscreteMarkovModel((2,), 1, [["a", "b"], ["c", "d"]], [.5, .5]), InvalidModel,
     "kernel must be real numbers, got dtype <U1"),
    (lambda: SequenceDistribution((2,), 1, ["a", "b"]), InvalidModel,
     "pmf must be real numbers, got dtype <U1"),
    (lambda: SequenceDistribution((2,), 2, [[.25, .25], [.5]]), InvalidModel,
     "pmf must be real numbers, got dtype object"),
    (lambda: SequenceDistribution((2,), 2, initial=[[.5], [.25, .25]], kernel=np.full((2, 2), .5)),
     InvalidModel, "initial law must be real numbers, got dtype object"),
    (lambda: VarModel(1, np.zeros((1, 0, 0)), np.zeros((0, 0)), ()), InvalidModel,
     "nodes must be >= 1, got 0"),
], ids=["law_model", "law_model_json", "law_initial", "law_pmf", "over_law_model",
        "over_law_model_json", "panel_duplicate_label", "panel_missing_label",
        "model_duplicate_label", "model_extra_label", "var_duplicate_label",
        "var_missing_label", "partition_duplicate_label", "glm_duplicate_label",
        "string_panel", "complex_panel", "var_coeffs_shape", "var_coeffs_order",
        "llr_string_alpha", "graph_string_alpha", "stein_string_miss_level",
        "markov_nodes", "markov_alphabet", "markov_order", "var_nodes", "var_order",
        "string_var_coeffs", "string_markov_kernel", "string_pmf", "ragged_pmf",
        "ragged_initial_law", "var_zero_nodes"])
def test_laws_labels_and_model_arrays_are_checked_once(call, error, message):
    if error is None:
        call()
        return
    with pytest.raises(DirinfoError) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_symbolize_equal_width():
    panel = TimeSeriesPanel(values=np.array([[0.1, 5.0], [0.9, 5.0], [0.5, 5.0]]),
                            labels=("a", "b"))
    out = symbolize(panel, bins=2, scheme="equal_width")
    assert out.values[:, 0].tolist() == [0, 1, 0]
    # constant column occupies a single bin
    assert out.values[:, 1].tolist() == [0, 0, 0]
    assert "bin_edges" in out.meta


def test_symbolize_equal_frequency_rejects_constant():
    panel = TimeSeriesPanel(values=np.array([[0.1, 5.0], [0.9, 5.0], [0.5, 5.0]]),
                            labels=("a", "b"))
    with pytest.raises(DegenerateColumn, match="b"):
        symbolize(panel, bins=2, scheme="equal_frequency")


def test_symbolize_monotone_equal_width(rng):
    values = rng.normal(size=(200, 2))
    panel = TimeSeriesPanel(values=values, labels=("a", "b"))
    out = symbolize(panel, bins=5, scheme="equal_width")
    for j in range(2):
        order = np.argsort(values[:, j])
        symbols = out.values[order, j]
        assert np.all(np.diff(symbols) >= 0)
    assert out.values.min() >= 0 and out.values.max() <= 4


def test_symbolize_param_errors():
    panel = TimeSeriesPanel(values=np.zeros((3, 2)), labels=("a", "b"))
    with pytest.raises(ParamError):
        symbolize(panel, bins=1)
    with pytest.raises(ParamError):
        symbolize(panel, bins=4, scheme="nope")


def test_sequence_distribution_validation():
    good = np.full((2, 2), 0.25)
    SequenceDistribution(alphabet_sizes=(2,), horizon=2, pmf=good)
    with pytest.raises(InvalidModel):
        SequenceDistribution(alphabet_sizes=(2,), horizon=2, pmf=np.full((2, 2), 0.3))
    with pytest.raises(InvalidModel):
        SequenceDistribution(alphabet_sizes=(2,), horizon=1, pmf=good)


@pytest.mark.parametrize("what", ["pmf", "initial law", "kernel"])
def test_sequence_distribution_refuses_non_finite_entries(what):
    laws = {"initial": np.full(2, 0.5), "kernel": np.full((2, 2), 0.5)}
    if what == "pmf":
        laws = {"pmf": np.full((2, 2), 0.25)}
    arr = laws["initial" if what == "initial law" else what]
    arr.flat[-1] = np.nan
    with pytest.raises(InvalidModel, match=f"{what} has non-finite entries"):
        SequenceDistribution((2,), 2, **laws)


def test_chain_distribution_validation():
    initial = np.full(2, 0.5)
    kernel = np.full((2, 2), 0.5)
    SequenceDistribution((2,), 3, initial=initial, kernel=kernel)
    with pytest.raises(InvalidModel):  # no kernel to reach the horizon
        SequenceDistribution((2,), 3, initial=initial)
    with pytest.raises(InvalidModel):  # kernel with nothing left to predict
        SequenceDistribution((2,), 1, initial=initial, kernel=kernel)
    with pytest.raises(InvalidModel):  # initial law longer than the horizon
        SequenceDistribution((2,), 1, initial=np.full((2, 2), 0.25))
    with pytest.raises(InvalidModel):  # kernel rows must be distributions
        SequenceDistribution((2,), 3, initial=initial, kernel=np.full((2, 2), 0.6))
    with pytest.raises(InvalidModel):  # a table or a chain, not both
        SequenceDistribution((2,), 1, pmf=initial, initial=initial)


def _xlogx_fsum(p):
    """Oracle of ``core._xlogx_sum``: exactly rounded sum of float64 terms."""
    return math.fsum(x * math.log(x) for x in np.ravel(p).tolist() if x > 0.0)


@pytest.mark.parametrize("density", [1.0, 0.05], ids=["dense", "sparse"])
@pytest.mark.parametrize("size", [3, 4096, 2**16])
def test_xlogx_sum_matches_fsum_oracle(size, density):
    rng = np.random.default_rng(size)
    p = rng.random(size) * (rng.random(size) < density)
    p[0] = 0.5
    p[1::7] *= 1e-250  # masses far below the rest
    want = _xlogx_fsum(p)
    assert want < 0.0
    assert abs(core._xlogx_sum(p.reshape(-1, 1)) - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("size", [1, 7, 129, 2047, 2048, 2049, 4104, 10_001, 2**16 + 3])
def test_xlogx_blocks_keep_numpys_pairwise_sum(size):
    # the blockwise sum groups the terms exactly as one np.sum over all of them
    x = np.random.default_rng(size).random(size) ** 3
    terms = (x * np.log(x)).astype(np.longdouble)
    assert core._xlogx_pairwise(x) == np.sum(terms)


def test_xlogx_sum_of_point_masses_is_zero():
    assert core._xlogx_sum(np.zeros((2, 2))) == 0.0
    assert core._xlogx_sum(np.array([0.0, 1.0])) == 0.0


def test_measure_value_units():
    mv = MeasureValue(value=math.log(2.0), horizon=1, kind="entropy")
    assert mv.in_bits() == pytest.approx(1.0)
    with pytest.raises(ParamError):
        MeasureValue(value=0.0, horizon=1, kind="bogus")
