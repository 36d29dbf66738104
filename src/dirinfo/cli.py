"""Batch command-line surface: simulate, estimate, decompose, test, graph.

Every run writes its results as JSON next to a manifest that echoes the
resolved configuration and tool version; replaying a manifest reproduces
the artifacts bit-exactly.  Values are always stored in nats; ``--units
bits`` only changes the printed table.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .core import DEFAULT_STATE_BUDGET, load_panel, make_partition, symbolize, write_panel
from .discrete import enumerate_joint, fit_plugin, model_to_json
from .errors import DirinfoError
from .gaussian import fit_var, geweke_index, gaussian_mi_rate, load_var, var_to_json
from .inference import (
    bonferroni_count,
    chi_square_threshold,
    family_from_spec,
    infer_graph,
    llr_causality,
    llr_coupling,
    surrogate_count,
)
from .measures import EXACT_RESIDUAL_TOL, ConditioningMode, decompose
from .simulate import gen_chain_example, gen_glm_spiking, gen_nonlinear_example, gen_var

SCHEMA_VERSION = 1
# bound on the Geweke identity te_ab + te_ba + iie - mi of a Gaussian
# decomposition (acceptance criterion 4)
GEWEKE_RESIDUAL_TOL = 1e-6


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
    elif args.preset == "glm":
        if not args.params:
            return _die("simulate glm needs --params")
        with open(args.params) as fh:
            spec = json.load(fh)
        weights = {tuple(key.split("->")): np.asarray(w, dtype=float)
                   for key, w in spec["weights"].items()}
        panel, truth = gen_glm_spiking(weights, args.T, args.seed,
                                       labels=spec.get("labels"),
                                       bias=spec.get("bias"))
    else:  # pragma: no cover - argparse restricts choices
        return _die(f"unknown preset {args.preset}")
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

def _maybe_symbolize(panel, args):
    if args.family == "discrete" and not panel.is_integer():
        if not args.bins:
            raise DirinfoError("continuous panel: the discrete family needs --bins")
        return symbolize(panel, args.bins, args.scheme)
    return panel


def _cmd_estimate(args) -> int:
    panel = load_panel(args.input, format=args.format)
    outputs = []
    if args.family == "discrete":
        panel = _maybe_symbolize(panel, args)
        model = fit_plugin(panel, order=args.order, smoothing=args.smoothing)
        doc = model_to_json(model)
        rows = [("family", "discrete_markov"), ("order", args.order),
                ("joint alphabet", model.joint_alphabet),
                ("kernel entries", int(model.kernel.size))]
    elif args.family == "var":
        model = fit_var(panel, order=args.order, method=args.method)
        doc = var_to_json(model)
        rows = [("family", "var"), ("order", args.order),
                ("spectral radius", model.spectral_radius),
                ("stable", model.is_stable)]
    else:
        return _die(f"estimate does not support family {args.family}")
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

def _load_any_model(path):
    with open(path) as fh:
        doc = json.load(fh)
    if "kernel" in doc:
        return "discrete", doc
    if "coeffs" in doc:
        return "var", doc
    raise DirinfoError(f"{path}: neither a discrete nor a VAR model")


def _labels_of(doc, n):
    labels = doc.get("labels")
    return tuple(labels) if labels else tuple(f"x{i}" for i in range(n))


def _cmd_decompose(args) -> int:
    kind, doc = _load_any_model(args.model)
    mode = ConditioningMode(args.mode)
    if kind == "discrete":
        from .discrete import model_from_json

        model = model_from_json(doc)
        labels = _labels_of(doc, model.n_nodes)
        part = make_partition(labels, args.A, args.B)
        budget = {} if args.budget is None else {"budget": args.budget}
        dist = enumerate_joint(model, args.n, **budget)
        dec = decompose(dist, part, args.n, mode=mode)
        result = dec.to_json()
        result["exact"] = True
        rows = [(k, _scaled(v, args.units)) for k, v in result.items()
                if isinstance(v, float)]
        rows += [(f"residual {k}", v) for k, v in sorted(result["residuals"].items())]
    else:
        from .gaussian import var_from_json

        model = var_from_json(doc)
        part = make_partition(model.labels, args.A, args.B)
        part_ba = make_partition(model.labels, args.B, args.A)
        side_past = mode is ConditioningMode.STRICT_PAST
        f_ab = geweke_index(model, part, "directed_conditional", side_past_only=side_past).value
        f_ba = geweke_index(model, part_ba, "directed_conditional", side_past_only=side_past).value
        f_inst = geweke_index(model, part, "instantaneous_conditional",
                              side_past_only=side_past).value
        mi = gaussian_mi_rate(model, part.a, part.b, conditional_on_past_c=bool(part.c)).value
        result = {
            "di_ab": f_ab + f_inst, "di_ba": f_ba + f_inst,
            "te_ab": f_ab, "te_ba": f_ba, "iie": f_inst, "mi": mi,
            "delta_cb": 0.0,
            "residuals": {"geweke": f_ab + f_ba + f_inst - mi},
            "horizon": 0, "mode": mode.value, "exact": False,
            "convention": "geweke-log-variance-ratio",
        }
        rows = [(k, _scaled(result[k], args.units))
                for k in ("te_ab", "te_ba", "iie", "mi")]
        rows.append(("geweke residual", result["residuals"]["geweke"]))
    path = f"{args.out}.json"
    _write_json(path, result)
    _write_manifest(args.out, "decompose", args, [path])
    _print_table(rows, args.units)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# test
# ---------------------------------------------------------------------------

def _cmd_test(args) -> int:
    if args.calibration == "surrogate" and args.seed is None:
        return _die("surrogate calibration is stochastic: --seed is required")
    panel = load_panel(args.input, format=args.format)
    panel = _maybe_symbolize(panel, args)
    family = family_from_spec(args.family, order=args.order, smoothing=args.smoothing)
    if args.calibration == "surrogate":  # the manifest records the count drawn
        args.surrogates = surrogate_count(args.surrogates, args.alpha)
    common = dict(family=family, alpha=args.alpha, calibration=args.calibration,
                  surrogates=args.surrogates, seed=args.seed)
    if args.kind == "causality":
        res = llr_causality(panel, args.A, args.B, args.C, **common)
    else:
        res = llr_coupling(panel, args.A, args.B, args.C,
                           mode=ConditioningMode(args.mode), **common)
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


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

def _cmd_graph(args) -> int:
    if args.calibration == "surrogate" and args.seed is None:
        return _die("surrogate calibration is stochastic: --seed is required")
    panel = load_panel(args.input, format=args.format)
    panel = _maybe_symbolize(panel, args)
    family = family_from_spec(args.family, order=args.order, smoothing=args.smoothing)
    graph = infer_graph(panel, family, alpha=args.alpha,
                        mode=ConditioningMode(args.mode), correction=args.correction,
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

def _decomposition_problems(doc) -> list[str]:
    """Either convention's decomposition splits each DI into its TE and
    IIE terms (the chain rule holds to rounding in both), and every
    reported measure but ``delta_cb`` is nonnegative."""
    problems = []
    te_ab, te_ba, iie = doc["te_ab"], doc["te_ba"], doc["iie"]
    for name, recorded, value in (("di_ab", doc["di_ab"], te_ab + iie),
                                  ("di_ba", doc["di_ba"], te_ba + iie)):
        if abs(recorded - value) > EXACT_RESIDUAL_TOL:
            problems.append(f"{name} = {recorded!r} differs from its terms' sum {value!r}")
    for name in ("di_ab", "di_ba", "te_ab", "te_ba", "iie", "mi"):
        if doc[name] < -EXACT_RESIDUAL_TOL:
            problems.append(f"{name} = {doc[name]!r} is negative")
    return problems


def _geweke_problems(doc) -> list[str]:
    """A Gaussian decomposition holds its Geweke residual to
    ``GEWEKE_RESIDUAL_TOL``, and that residual to the terms it was built from."""
    problems = []
    residual = doc["residuals"]["geweke"]
    if abs(residual) > GEWEKE_RESIDUAL_TOL:
        problems.append(f"residual geweke = {residual:.3e} exceeds {GEWEKE_RESIDUAL_TOL}")
    value = doc["te_ab"] + doc["te_ba"] + doc["iie"] - doc["mi"]
    if abs(residual - value) > EXACT_RESIDUAL_TOL:
        problems.append(f"residual geweke = {residual!r} differs from its terms' sum {value!r}")
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
    """A test's decision must follow from its statistic and threshold; a
    chi-square threshold is recomputed from the level (the config's, when
    known), the Satterthwaite scale and dof, and ``n_obs``."""
    stat = entry.get("stat", entry.get("statistic"))
    threshold = entry.get("threshold")
    if stat is None or threshold is None:
        return []
    problems = []
    if level is not None and entry.get("level") != level:
        problems.append(f"level {entry.get('level')!r} differs from {level!r} "
                        f"set by the config")
    if entry.get("calibration") == "chi_square":
        try:
            recomputed = chi_square_threshold(entry["level"] if level is None else level,
                                              entry["chi2_scale"], entry["chi2_df"],
                                              entry["n_obs"])
        except (KeyError, TypeError):
            return problems + ["chi-square entry lacks level, chi2_scale, chi2_df or n_obs"]
        if not math.isclose(threshold, recomputed, rel_tol=1e-12):
            problems.append(f"threshold {threshold!r} differs from the recomputed {recomputed!r}")
        threshold = recomputed
    expected = "reject_H0" if stat > threshold else "keep_H0"
    if entry["decision"] != expected:
        problems.append(f"decision {entry['decision']} inconsistent with "
                        f"statistic {stat} vs threshold {threshold}")
    return problems


def _cmd_check(args) -> int:
    with open(args.result) as fh:
        doc = json.load(fh)
    problems = []
    if "residuals" in doc:
        try:
            if doc.get("exact"):
                for name, value in doc["residuals"].items():
                    if abs(value) > EXACT_RESIDUAL_TOL:
                        problems.append(f"residual {name} = {value:.3e} exceeds "
                                        f"{EXACT_RESIDUAL_TOL}")
            elif doc.get("convention") == "geweke-log-variance-ratio":
                problems.extend(_geweke_problems(doc))
            problems.extend(_decomposition_problems(doc))
        except (KeyError, TypeError) as exc:
            problems.append(f"decomposition has a missing or non-numeric field ({exc!r})")
    entries = []
    if "decision" in doc:
        entries.append(doc)
    for key in ("directed", "undirected"):
        entries.extend(doc.get(key, []))
    level = _config_level(doc)
    for entry in entries:
        if "decision" in entry:
            problems.extend(_decision_problems(entry, level))
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
    with open(args.manifest) as fh:
        doc = json.load(fh)
    if not isinstance(doc.get("inputs"), dict) or not isinstance(doc.get("outputs"), dict):
        return _die(f"{args.manifest}: no recorded input and output hashes to verify", 1)
    changed = _changed(doc["inputs"])
    if changed:
        return _die(f"replay: input changed since the manifest was written: "
                    f"{', '.join(changed)}", 1)
    code = main(doc["argv"])
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


def _add_family_options(p):
    p.add_argument("--family", choices=("discrete", "var"), default="discrete")
    p.add_argument("--order", type=int, default=1, help="model memory (lags)")
    p.add_argument("--bins", type=int, help="symbolization bins for continuous input")
    p.add_argument("--scheme", choices=("equal_width", "equal_frequency"),
                   default="equal_frequency")
    p.add_argument("--smoothing", type=float, default=0.5,
                   help="additive smoothing for discrete fits")


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
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_family_options(p)
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
    p.add_argument("--budget", type=int,
                   help="largest array (entries) an exact marginal may allocate "
                        f"(default {DEFAULT_STATE_BUDGET})")
    _add_common_io(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("test", help="single causality or coupling test")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--kind", choices=("causality", "coupling"), required=True)
    p.add_argument("--A", nargs="+", required=True)
    p.add_argument("--B", nargs="+", required=True)
    p.add_argument("--C", nargs="*", default=[])
    _add_family_options(p)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--calibration", choices=("chi_square", "surrogate"),
                   default="chi_square")
    p.add_argument("--surrogates", type=int,
                   help="default: 200, or the fewest that calibrate --alpha if more")
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=("contemporaneous", "strict_past"),
                   default="contemporaneous")
    _add_common_io(p)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("graph", help="infer the mixed causality graph")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_family_options(p)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--correction", choices=("bonferroni", "none"), default="bonferroni")
    p.add_argument("--calibration", choices=("chi_square", "surrogate"),
                   default="chi_square")
    p.add_argument("--surrogates", type=int,
                   help="surrogates per test (default: 200, or the fewest that "
                        "calibrate the corrected level when that is more)")
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=("contemporaneous", "strict_past"),
                   default="contemporaneous")
    p.add_argument("--threads", type=int, default=1)
    _add_common_io(p)
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
