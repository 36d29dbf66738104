"""Batch command-line surface: simulate, estimate, decompose, test, graph.

Every run writes its results as JSON next to a manifest that echoes the
resolved configuration and tool version; replaying a manifest reproduces
the artifacts bit-exactly.  Values are always stored in nats, for discrete
and VAR models alike; ``--units bits`` only changes the printed table.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .calibration import bonferroni_count, chi_square_threshold, surrogate_count
from .core import DEFAULT_STATE_BUDGET, load_panel, make_partition, read_json, symbolize, write_panel
from .discrete import enumerate_joint, fit_plugin, model_from_json, model_to_json
from .errors import DirinfoError, SchemaError
from .gaussian import fit_var, load_var, var_from_json, var_to_json
from .inference import family_from_spec, infer_graph, llr_causality, llr_coupling
from .measures import EXACT_RESIDUAL_TOL, decompose
from .simulate import gen_chain_example, gen_glm_spiking, gen_nonlinear_example, gen_var

SCHEMA_VERSION = 1


def _die(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_json(path, doc) -> None:
    doc = dict(doc)
    doc.setdefault("schema_version", SCHEMA_VERSION)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# the options that name a file a command reads
INPUT_OPTIONS = ("input", "model", "params")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(prefix, command, args, outputs) -> None:
    """Record the resolved configuration and the sha256 of every input and
    output file, which ``replay`` verifies."""
    resolved = {k: v for k, v in vars(args).items() if k not in ("func",)}
    inputs = [getattr(args, name, None) for name in INPUT_OPTIONS]
    _write_json(f"{prefix}.manifest.json", {
        "tool": {"name": "dirinfo", "version": __version__},
        "command": command,
        "config": resolved,
        "argv": args._argv,
        "inputs": {path: _sha256(path) for path in inputs if path},
        "outputs": {path: _sha256(path) for path in outputs},
    })


def _scaled(value, units):
    if value is None or isinstance(value, str):
        return value
    return value / math.log(2.0) if units == "bits" else value


def _print_table(rows, units):
    width = max(len(k) for k, _ in rows)
    for key, val in rows:
        if isinstance(val, float):
            print(f"{key:<{width}}  {val: .9g}")
        else:
            print(f"{key:<{width}}  {val}")
    print(f"(values in {units})")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    if args.preset == "chain":
        panel, truth = gen_chain_example(args.T, args.seed,
                                         noise_scales=(args.noise, args.noise))
    elif args.preset == "nonlinear":
        panel, truth = gen_nonlinear_example(args.alpha_coeff, args.beta_coeff,
                                             args.T, args.seed)
    elif args.preset == "var":
        if not args.model:
            return _die("simulate var needs --model")
        panel, truth = gen_var(load_var(args.model), args.T, args.seed)
    else:  # glm
        if not args.params:
            return _die("simulate glm needs --params")
        panel, truth = read_json(args.params, lambda spec: gen_glm_spiking(
            {tuple(key.split("->")): np.asarray(w, dtype=float)
             for key, w in spec["weights"].items()},
            args.T, args.seed, labels=spec.get("labels"), bias=spec.get("bias")))
    csv_path = f"{args.out}.csv"
    truth_path = f"{args.out}.truth.json"
    write_panel(panel, csv_path)
    _write_json(truth_path, truth.to_json())
    _write_manifest(args.out, "simulate", args, [csv_path, truth_path])
    print(f"wrote {csv_path} ({panel.n_samples} rows, {panel.n_nodes} nodes) and {truth_path}")
    return 0


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def _input_panel(args):
    """The --input panel, symbolized with --bins for the discrete family."""
    panel = load_panel(args.input, format=args.format)
    if args.family == "discrete" and not panel.is_integer():
        if not args.bins:
            raise DirinfoError("continuous panel: the discrete family needs --bins")
        return symbolize(panel, args.bins, args.scheme)
    return panel


def _cmd_estimate(args) -> int:
    panel = _input_panel(args)
    outputs = []
    if args.family == "discrete":
        model = fit_plugin(panel, order=args.order, smoothing=args.smoothing)
        doc = model_to_json(model)
        rows = [("family", "discrete_markov"), ("order", args.order),
                ("joint alphabet", model.joint_alphabet),
                ("kernel entries", int(model.kernel.size))]
    else:  # var
        model = fit_var(panel, order=args.order, method=args.method)
        doc = var_to_json(model)
        rows = [("family", "var"), ("order", args.order),
                ("spectral radius", model.spectral_radius),
                ("stable", model.is_stable)]
    path = f"{args.out}.model.json"
    _write_json(path, doc)
    outputs.append(path)
    _write_manifest(args.out, "estimate", args, outputs)
    _print_table(rows, "nats")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def _any_model(doc):
    """The family and the model of a model document."""
    if "kernel" in doc:
        return "discrete", model_from_json(doc)
    if "coeffs" in doc:
        return "var", var_from_json(doc)
    raise KeyError("neither 'kernel' (a discrete model) nor 'coeffs' (a VAR model)")


def _cmd_decompose(args) -> int:
    kind, model = read_json(args.model, _any_model)
    labels = model.labels or tuple(f"x{i}" for i in range(model.n_nodes))
    part = make_partition(labels, args.A, args.B)
    law = model if kind == "var" else enumerate_joint(model, args.n, args.budget)
    result = decompose(law, part, mode=args.mode).to_json()
    result["exact"] = True
    rows = [(k, _scaled(v, args.units)) for k, v in result.items() if isinstance(v, float)]
    rows += [(f"residual {k}", v) for k, v in sorted(result["residuals"].items())]
    path = f"{args.out}.json"
    _write_json(path, result)
    _write_manifest(args.out, "decompose", args, [path])
    _print_table(rows, args.units)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# test and graph
# ---------------------------------------------------------------------------

def _on_panel(command):
    """``test`` or ``graph``: once a surrogate run has its seed, ``command``
    runs on the (symbolized) input panel and the family."""
    @functools.wraps(command)
    def run(args) -> int:
        if args.calibration == "surrogate" and args.seed is None:
            return _die("surrogate calibration is stochastic: --seed is required")
        return command(args, _input_panel(args), family_from_spec(args.family, order=args.order))
    return run


@_on_panel
def _cmd_test(args, panel, family) -> int:
    if args.calibration == "surrogate":  # the manifest records the count drawn
        args.surrogates = surrogate_count(args.surrogates, args.alpha)
    common = dict(family=family, alpha=args.alpha, calibration=args.calibration,
                  surrogates=args.surrogates, seed=args.seed)
    if args.kind == "causality":
        res = llr_causality(panel, args.A, args.B, args.C, **common)
    else:
        res = llr_coupling(panel, args.A, args.B, args.C, mode=args.mode, **common)
    doc = res.to_json()
    doc.update({"kind": args.kind, "A": args.A, "B": args.B, "C": args.C,
                "family": family.name})
    path = f"{args.out}.json"
    _write_json(path, doc)
    _write_manifest(args.out, "test", args, [path])
    _print_table([
        ("kind", args.kind),
        ("statistic", _scaled(res.statistic, args.units)),
        ("threshold", _scaled(res.threshold, args.units)),
        ("p_value", res.p_value),
        ("decision", res.decision),
    ], args.units)
    print(f"wrote {path}")
    return 0


@_on_panel
def _cmd_graph(args, panel, family) -> int:
    graph = infer_graph(panel, family, alpha=args.alpha,
                        mode=args.mode, correction=args.correction,
                        calibration=args.calibration, surrogates=args.surrogates,
                        seed=args.seed, threads=args.threads)
    json_path = f"{args.out}.json"
    dot_path = f"{args.out}.dot"
    _write_json(json_path, graph.to_json())
    with open(dot_path, "w") as fh:
        fh.write(graph.to_dot())
    _write_manifest(args.out, "graph", args, [json_path, dot_path])
    rows = [("nodes", ", ".join(graph.nodes))]
    rows += [(f"{a} -> {b}", "present") for a, b in sorted(graph.directed_edges())]
    rows += [(" -- ".join(sorted(p)), "present") for p in graph.undirected_edges()]
    if graph.errors:
        rows += [("failed edges", len(graph.errors))]
    _print_table(rows, args.units)
    print(f"wrote {json_path} and {dot_path}")
    return 0


# ---------------------------------------------------------------------------
# check and replay
# ---------------------------------------------------------------------------

_MEASURES = ("di_ab", "di_ba", "te_ab", "te_ba", "iie", "mi")
_IDENTITIES = ("id1", "id2", "id3", "id4", "id5", "id6")


def _decomposition_problems(doc) -> list[str]:
    """A decomposition, of either family, holds all six identities'
    residuals to ``EXACT_RESIDUAL_TOL`` and splits each DI into its TE and
    IIE terms, and every reported measure but ``delta_cb`` is nonnegative.
    Missing, non-numeric and non-finite fields are problems.  A Gaussian
    file in Geweke's convention, which older versions wrote, is refused by name."""
    if doc.get("convention") == "geweke-log-variance-ratio":
        return ["written in Geweke's convention by an older dirinfo; re-run decompose"]
    problems = []
    try:
        numbers = [(f"residual {name}", value) for name, value in doc["residuals"].items()]
        problems += [f"residual {name} is missing" for name in _IDENTITIES
                     if name not in doc["residuals"]]
        problems += [f"{name} is missing" for name in _MEASURES + ("delta_cb",) if name not in doc]
        numbers += [(name, doc[name]) for name in _MEASURES + ("delta_cb",) if name in doc]
        problems += [f"{what} = {value!r} is not finite"
                     for what, value in numbers if not math.isfinite(value)]
        for name, value in doc["residuals"].items():
            if abs(value) > EXACT_RESIDUAL_TOL:
                problems.append(f"residual {name} = {value:.3e} exceeds {EXACT_RESIDUAL_TOL}")
        te_ab, te_ba, iie = doc["te_ab"], doc["te_ba"], doc["iie"]
        for name, recorded, value in (("di_ab", doc["di_ab"], te_ab + iie),
                                      ("di_ba", doc["di_ba"], te_ba + iie)):
            if abs(recorded - value) > EXACT_RESIDUAL_TOL:
                problems.append(f"{name} = {recorded!r} differs from its terms' sum {value!r}")
        for name in _MEASURES:
            if doc[name] < -EXACT_RESIDUAL_TOL:
                problems.append(f"{name} = {doc[name]!r} is negative")
    except (KeyError, TypeError) as exc:
        problems.append(f"decomposition has a missing or non-numeric field ({exc!r})")
    return problems


def _config_level(doc):
    """The per-test level a graph's config implies, or None without one."""
    config = doc.get("config", {})
    if "alpha" not in config:
        return None
    if config.get("correction") == "bonferroni":
        return config["alpha"] / bonferroni_count(len(doc["nodes"]))
    return config["alpha"]


def _decision_problems(entry, level) -> list[str]:
    """A test's decision must follow from its statistic and threshold, both
    finite; a chi-square threshold is recomputed from the level (the
    config's, when known), the Satterthwaite scale and dof, and ``n_obs``."""
    stat = entry.get("stat", entry.get("statistic"))
    threshold = entry.get("threshold")
    problems = []
    try:
        problems += [f"{what} {value!r} is not finite"
                     for what, value in (("statistic", stat), ("threshold", threshold))
                     if not math.isfinite(value)]
        if level is not None and entry.get("level") != level:
            problems.append(f"level {entry.get('level')!r} differs from {level!r} "
                            f"set by the config")
        if entry.get("calibration") == "chi_square":
            recomputed = chi_square_threshold(entry["level"] if level is None else level,
                                              entry["chi2_scale"], entry["chi2_df"],
                                              entry["n_obs"])
            if not math.isclose(threshold, recomputed, rel_tol=1e-12):
                problems.append(f"threshold {threshold!r} differs from the recomputed {recomputed!r}")
            threshold = recomputed
        expected = "reject_H0" if stat > threshold else "keep_H0"
        if entry["decision"] != expected:
            problems.append(f"decision {entry['decision']} inconsistent with "
                            f"statistic {stat} vs threshold {threshold}")
    except (KeyError, TypeError) as exc:
        problems.append(f"test has a missing or non-numeric field ({exc!r})")
    return problems


def _coverage_problems(doc) -> list[str]:
    """A graph tests each ordered node pair for a directed edge and each
    unordered pair for coupling.  An edge whose test failed, or that has
    neither a test nor a recorded failure, leaves the graph unverified."""
    try:
        nodes = doc["nodes"]
        errors = doc["errors"]
        tested = {f"{e['from']} -> {e['to']}" for e in doc["directed"]}
        tested |= {" -- ".join(sorted(e["pair"])) for e in doc["undirected"]}
        problems = [f"edge {key} untested: {message}" for key, message in sorted(errors.items())]
        names = sorted(nodes)
        keys = [f"{a} -> {b}" for a in nodes for b in nodes if a != b]
        keys += [f"{a} -- {b}" for i, a in enumerate(names) for b in names[i + 1:]]
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"graph has a missing or malformed field ({exc!r})"]
    return problems + [f"edge {key} has neither a test nor a recorded error"
                       for key in keys if key not in tested and key not in errors]


def _result_problems(doc) -> list[str]:
    """What a result fails to verify; a field of a type no result has raises."""
    problems = []
    if not {"residuals", "nodes", "decision"} & doc.keys():
        problems.append("not a result: none of residuals, nodes or decision")
    if "residuals" in doc:
        problems.extend(_decomposition_problems(doc))
    if "nodes" in doc:
        problems.extend(_coverage_problems(doc))
    entries = []
    if "decision" in doc:
        entries.append(doc)
    for key in ("directed", "undirected"):
        entries.extend(doc.get(key, []))
    level = _config_level(doc)
    for entry in entries:
        if "decision" in entry:
            problems.extend(_decision_problems(entry, level))
    return problems


def _cmd_check(args) -> int:
    problems = read_json(args.result, _result_problems)
    if problems:
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        return 1
    print(f"{args.result}: ok")
    return 0


def _changed(recorded) -> list[str]:
    """The files whose sha256 is not the one ``recorded`` for them."""
    return [path for path, digest in sorted(recorded.items())
            if not os.path.isfile(path) or _sha256(path) != digest]


def _cmd_replay(args) -> int:
    """Re-run a manifest's command after checking that its inputs are the
    ones recorded, then check that it re-wrote every output bit for bit."""
    doc = read_json(args.manifest)
    if not isinstance(doc.get("inputs"), dict) or not isinstance(doc.get("outputs"), dict):
        return _die(f"{args.manifest}: no recorded input and output hashes to verify", 1)
    if not isinstance(argv := doc.get("argv"), list) or argv[:1] in (["check"], ["replay"]) \
            or not all(isinstance(a, str) for a in argv):  # a replay of a replay never ends
        return _die(f"{args.manifest}: argv is not the command line of a run with outputs", 1)
    usage = io.StringIO()
    try:  # argparse reports a bad argv on stderr and exits 2
        with contextlib.redirect_stderr(usage):
            build_parser().parse_args(argv)
    except SystemExit:
        reason = usage.getvalue().strip().rpartition("\n")[2]
        raise SchemaError(f"{args.manifest}: argv is not a dirinfo command line: "
                          f"{reason}") from None
    changed = _changed(doc["inputs"])
    if changed:
        return _die(f"replay: input changed since the manifest was written: "
                    f"{', '.join(changed)}", 1)
    code = main(argv)
    if code != 0:
        return code
    changed = _changed(doc["outputs"])
    if changed:
        return _die(f"replay: output differs from the recorded one: {', '.join(changed)}", 1)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common_io(p, units=True):
    p.add_argument("--out", required=True, help="output path prefix")
    if units:
        p.add_argument("--units", choices=("nats", "bits"), default="nats",
                       help="display units for the printed table (files stay in nats)")


def _add_panel_options(p):
    """The input panel and the family that reads it."""
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--family", choices=("discrete", "var"), default="discrete",
                   help="discrete tests read every log likelihood from one count table "
                        "of (context, target) cells, pseudo-count 1/2 per cell")
    p.add_argument("--order", type=int, default=1, help="model memory (lags)")
    p.add_argument("--bins", type=int, help="symbolization bins for continuous input")
    p.add_argument("--scheme", choices=("equal_width", "equal_frequency"),
                   default="equal_frequency")


def _add_test_options(p):
    """The options ``test`` and ``graph`` share: the panel, the family, the
    level and its calibration, and the conditioning mode."""
    _add_panel_options(p)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--calibration", choices=("chi_square", "surrogate"),
                   default="chi_square")
    p.add_argument("--surrogates", type=int,
                   help="surrogates per test (default: 200, or the fewest that "
                        "calibrate the per-test level when that is more)")
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=("contemporaneous", "strict_past"),
                   default="contemporaneous")
    _add_common_io(p)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="dirinfo",
        description="directed information measures and causality-graph inference")
    parser.add_argument("--version", action="version", version=f"dirinfo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a panel with ground truth")
    p.add_argument("preset", choices=("chain", "nonlinear", "var", "glm"))
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="mandatory for reproducibility")
    p.add_argument("--noise", type=float, default=1.0, help="chain noise scale")
    p.add_argument("--alpha-coeff", type=float, default=0.5,
                   help="nonlinear example AR coefficient")
    p.add_argument("--beta-coeff", type=float, default=1.0,
                   help="nonlinear example quadratic coupling")
    p.add_argument("--model", help="VAR model JSON for the var preset")
    p.add_argument("--params", help="JSON parameters for the glm preset")
    _add_common_io(p, units=False)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="fit a model from a panel")
    _add_panel_options(p)
    p.add_argument("--smoothing", type=float, default=0.5,
                   help="additive smoothing of the discrete plug-in kernel (estimate only)")
    p.add_argument("--method", choices=("ols", "yule_walker"), default="ols",
                   help="VAR fitting method")
    _add_common_io(p, units=False)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("decompose", help="exact measures and identity residuals")
    p.add_argument("--model", required=True, help="model JSON (discrete or VAR)")
    p.add_argument("--A", nargs="+", required=True)
    p.add_argument("--B", nargs="+", required=True)
    p.add_argument("--n", type=int, default=4, help="horizon for discrete models")
    p.add_argument("--mode", choices=("contemporaneous", "strict_past"),
                   default="strict_past")
    p.add_argument("--budget", type=int, default=DEFAULT_STATE_BUDGET,
                   help="largest array (entries) an exact marginal may allocate "
                        "(default %(default)s)")
    _add_common_io(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("test", help="single causality or coupling test")
    _add_test_options(p)
    p.add_argument("--kind", choices=("causality", "coupling"), required=True)
    p.add_argument("--A", nargs="+", required=True)
    p.add_argument("--B", nargs="+", required=True)
    p.add_argument("--C", nargs="*", default=[])
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("graph", help="infer the mixed causality graph")
    _add_test_options(p)
    p.add_argument("--correction", choices=("bonferroni", "none"), default="bonferroni")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("check", help="re-verify a result JSON")
    p.add_argument("result")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("replay", help="re-run a manifest")
    p.add_argument("manifest")
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    try:
        return args.func(args)
    except DirinfoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
