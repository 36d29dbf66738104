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
    DegenerateColumn,
    DirinfoError,
    InvalidModel,
    ParamError,
    ParseError,
    PartitionError,
    SchemaError,
    SelectionError,
)
from dirinfo.discrete import enumerate_joint, fit_plugin, marginal, sample_panel, save_model
from dirinfo.gaussian import fit_var, gaussian_mi_rate, innovation_cov
from dirinfo.inference import (
    VarFamily,
    generalized_llr,
    llr_causality,
    llr_coupling,
    stein_exponent_check,
)
from dirinfo.measures import directed_information, entropy, rate
from dirinfo.simulate import gen_glm_spiking, random_markov_model, random_var_model


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


# a count is read as an integer, never truncated: each call keeps the error
# class its site raises for a count out of range
@pytest.mark.parametrize("call, error", [
    (lambda: enumerate_joint(_MODEL, 2.5), SelectionError),
    (lambda: directed_information(enumerate_joint(_MODEL, 3), (0,), (1,), n=2.5),
     SelectionError),
    (lambda: fit_plugin(_panel(), 1.5), InvalidModel),
    (lambda: fit_var(_panel(), 1.5), ParamError),
    (lambda: VarFamily(order=1.5), ParamError),
    (lambda: symbolize(_panel(), 2.5), ParamError),
], ids=["enumerate_joint", "directed_information", "fit_plugin", "fit_var", "VarFamily",
        "symbolize"])
def test_fractional_counts_are_refused(call, error):
    with pytest.raises(DirinfoError, match="is not an integer") as caught:
        call()
    assert type(caught.value) is error


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
