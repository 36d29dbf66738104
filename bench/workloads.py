"""Seeded inputs, job lists and reference checks for the two workloads.

A job is one user-visible CLI pipeline of steps; each step is a main
command (``graph``, ``test`` or ``decompose``) followed by ``dirinfo check`` on its
result JSON.  The program sees only the files written here; the reference
each result is compared against comes from the generator, never from the
program's own output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dirinfo import cli, discrete, gaussian, simulate
from dirinfo import core

# Tolerances of the reference checks: criterion 1 (exact identities) and
# criterion 4 (Geweke decomposition) of the acceptance suite.
DISCRETE_RESIDUAL_TOL = 1e-9
GEWEKE_RESIDUAL_TOL = 1e-6

# Family-wise level of the 8-node VAR graph.  Bonferroni bounds the chance
# that a seed's panel shows a false edge by this level; at the default 0.05
# up to one seed in twenty could fail its reference check by chance.  The
# true links are detected at any level down to far below this one.
GRAPH_ALPHA = "1e-4"

# Sizes the benchmark measures, and toy sizes for the runner's self-test.
FULL = {
    "infer": {"T": 20_000, "chain_T": 5_000},
    "decompose": {"n": 7},
}
WORKLOADS = tuple(FULL)
TINY = {
    "infer": {"T": 3_000, "chain_T": 300},
    "decompose": {"n": 3},
}


@dataclass(frozen=True)
class Step:
    """``argv``, then ``check`` on ``result``; ``verify`` compares the
    result JSON with the generator's reference."""

    argv: tuple[str, ...]
    result: str
    verify: Callable[[dict], bool]


@dataclass(frozen=True)
class Job:
    kind: str
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class Outcome:
    kind: str
    seconds: float
    failed: bool
    correct: bool
    error: str = ""


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------

def sparse_var_model(seed, nodes: int = 8, order: int = 2, links: int = 16,
                     noise_corr: float = 0.3) -> gaussian.VarModel:
    """Stable VAR(order) with ``links`` directed cross links at random lags
    and one correlated-noise pair, so the truth has present and absent
    edges of both kinds."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((order, nodes, nodes))
    for i in range(nodes):
        coeffs[0, i, i] = rng.uniform(0.2, 0.5)
    pairs = [(a, b) for a in range(nodes) for b in range(nodes) if a != b]
    for k in rng.choice(len(pairs), size=links, replace=False):
        a, b = pairs[k]
        coeffs[rng.integers(order), b, a] = rng.choice((-1.0, 1.0)) * rng.uniform(0.15, 0.3)
    noise = np.eye(nodes)
    i, j = rng.choice(nodes, size=2, replace=False)
    noise[i, j] = noise[j, i] = noise_corr
    labels = tuple(f"v{i}" for i in range(nodes))
    model = gaussian.VarModel(order=order, coeffs=coeffs, noise_cov=noise, labels=labels)
    while model.spectral_radius >= 0.9:
        coeffs = coeffs * 0.9
        model = gaussian.VarModel(order=order, coeffs=coeffs, noise_cov=noise, labels=labels)
    return model


def _write_truth(truth, path) -> dict:
    doc = truth.to_json()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return doc


def _graph_matches(truth: dict) -> Callable[[dict], bool]:
    directed = {tuple(e) for e in truth["directed"]}
    undirected = {frozenset(p) for p in truth["instantaneous"]}

    def verify(doc: dict) -> bool:
        got_directed = {(e["from"], e["to"]) for e in doc["directed"]
                        if e["decision"] == "reject_H0"}
        got_undirected = {frozenset(e["pair"]) for e in doc["undirected"]
                          if e["decision"] == "reject_H0"}
        return not doc["errors"] and got_directed == directed and got_undirected == undirected
    return verify


def _rejects_h0(doc: dict) -> bool:
    return doc["decision"] == "reject_H0"


def _residuals_below(tol: float) -> Callable[[dict], bool]:
    def verify(doc: dict) -> bool:
        return all(abs(r) < tol for r in doc["residuals"].values())
    return verify


def graph_var_panel(seed, T):
    """The 8-node VAR model, panel and ground truth for ``seed``."""
    model_seed, panel_seed = np.random.SeedSequence(seed).spawn(2)
    model = sparse_var_model(model_seed)
    panel, truth = simulate.gen_var(model, T, panel_seed)
    return model, panel, truth


def _graph_var_steps(seed, workdir, T):
    model, panel, truth = graph_var_panel(seed, T)
    gaussian.save_var(model, os.path.join(workdir, "var8.model.json"))
    csv = os.path.join(workdir, "var8.csv")
    core.write_panel(panel, csv)
    verify = _graph_matches(_write_truth(truth, os.path.join(workdir, "var8.truth.json")))
    out = os.path.join(workdir, "graph_var")
    argv = ("graph", "--input", csv, "--family", "var", "--order", "2",
            "--alpha", GRAPH_ALPHA, "--out", out)
    return [Step(argv, out + ".json", verify)]


def _surrogate_steps(seed, workdir, T):
    """Surrogate-calibrated single tests of the chain's two true links,
    each conditioned on the third node, in both families, at the CLI
    defaults (200 surrogates, alpha 0.05).  Absent links are not tested:
    at alpha 0.05 one seed in twenty would reject them by chance."""
    panel, truth = simulate.gen_chain_example(T, seed)
    csv = os.path.join(workdir, "chain.csv")
    core.write_panel(panel, csv)
    _write_truth(truth, os.path.join(workdir, "chain.truth.json"))
    labels = set(panel.labels)
    families = {"discrete": ("--family", "discrete", "--bins", "4"),
                "var": ("--family", "var")}
    steps = []
    for name, flags in families.items():
        for a, b in sorted(truth.directed):
            (c,) = labels - {a, b}
            out = os.path.join(workdir, f"test_{name}_{a}{b}")
            argv = ("test", "--input", csv, "--kind", "causality", "--A", a, "--B", b,
                    "--C", c, "--calibration", "surrogate", "--seed", str(seed))
            steps.append(Step(argv + flags + ("--out", out), out + ".json", _rejects_h0))
    return steps


def _infer_jobs(seed, workdir, T, chain_T):
    """One job: the 8-node VAR graph (regression path of the test layer),
    then the surrogate tests of the chain (its resampling path)."""
    steps = _graph_var_steps(seed, workdir, T) + _surrogate_steps(seed, workdir, chain_T)
    return [Job("infer", tuple(steps))]


def _decompose_jobs(seed, workdir, n):
    markov = simulate.random_markov_model(seed, nodes=3, alphabet=2, order=1)
    markov_path = os.path.join(workdir, "markov3.model.json")
    discrete.save_model(markov, markov_path)
    var = simulate.random_var_model(seed, nodes=3, order=2, noise_corr=0.25)
    var_path = os.path.join(workdir, "var3.model.json")
    gaussian.save_var(var, var_path)
    out_d = os.path.join(workdir, "decompose_discrete")
    out_g = os.path.join(workdir, "decompose_gaussian")
    return [Job("decompose", (
        Step(("decompose", "--model", markov_path, "--A", "x0", "--B", "x1",
              "--n", str(n), "--out", out_d),
             out_d + ".json", _residuals_below(DISCRETE_RESIDUAL_TOL)),
        Step(("decompose", "--model", var_path, "--A", "x0", "--B", "x1", "--out", out_g),
             out_g + ".json", _residuals_below(GEWEKE_RESIDUAL_TOL)),
    ))]


def make_jobs(workload: str, seed: int, workdir: str, sizes: dict) -> list[Job]:
    """Write the workload's inputs for ``seed`` into ``workdir`` and return
    its fixed job list."""
    builders = {"infer": _infer_jobs, "decompose": _decompose_jobs}
    return builders[workload](seed, workdir, **sizes)


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

def run_job(job: Job) -> Outcome:
    """Run one pipeline in-process and judge it.  Only the CLI calls are
    timed; the comparisons with the references are not."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for step in job.steps:
                code = cli.main(list(step.argv))
                if code == 0:
                    code = cli.main(["check", step.result])
                if code != 0:
                    break
    except (Exception, SystemExit):  # a crashing job is counted, not fatal
        return Outcome(job.kind, time.perf_counter() - start, True, False,
                       traceback.format_exc(limit=3))
    seconds = time.perf_counter() - start
    if code != 0:
        return Outcome(job.kind, seconds, True, False, sink.getvalue()[-500:])
    correct = True
    for step in job.steps:
        with open(step.result) as fh:
            correct = step.verify(json.load(fh)) and correct
    return Outcome(job.kind, seconds, False, correct)


def closed_loop(jobs: list[Job], seconds: float, on_job=None) -> tuple[list[Outcome], float]:
    """One client, one job at a time: cycle over the whole job list until
    ``seconds`` have passed, so every kind appears equally often."""
    outcomes = []
    start = time.perf_counter()
    while True:
        for job in jobs:
            if on_job is not None:
                on_job(len(outcomes))
            outcomes.append(run_job(job))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return outcomes, elapsed
