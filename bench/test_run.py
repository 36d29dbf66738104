"""Self-test of the benchmark runner at toy sizes.

    python3 -m pytest -q bench/test_run.py

Checks the result line against BENCHMARK.json, that inputs depend only on
the seed, that the tracer leaves the package as it found it, and that the
runner refuses to report without the program's sources.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], capture_output=True,
                          text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_matches_spec(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert result["correct"]


def test_inputs_depend_only_on_seed(tmp_path):
    for name in workloads.WORKLOADS:
        first, second = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        first.mkdir()
        second.mkdir()
        workloads.make_jobs(name, 5, str(first), workloads.TINY[name])
        workloads.make_jobs(name, 5, str(second), workloads.TINY[name])
        files = sorted(os.listdir(first))
        assert files == sorted(os.listdir(second))
        _, mismatch, errors = filecmp.cmpfiles(first, second, files, shallow=False)
        assert not mismatch and not errors


def test_tracer_spans_and_restore(tmp_path):
    from dirinfo import cli, core

    original_main = cli.main
    original_entropy = core.SequenceDistribution.entropy_of_cells
    jobs = workloads.make_jobs("decompose", 2, str(tmp_path), workloads.TINY["decompose"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_job(0)
        outcome = workloads.run_job(jobs[0])
    finally:
        tracer.uninstall()
    assert cli.main is original_main
    assert core.SequenceDistribution.entropy_of_cells is original_entropy
    assert outcome.correct and not outcome.failed
    own = tracer.self_times()
    assert min(own) > -1e-6
    top = [s.end - s.start for s in tracer.spans if s.parent < 0]
    assert sum(own) == pytest.approx(sum(top), rel=1e-9, abs=1e-9)
    metrics = tracer.layer_metrics(1)
    assert metrics["cli.calls"] == 2 * len(jobs[0].steps)
    assert metrics["discrete.table_entries"] == 8 ** workloads.TINY["decompose"]["n"]
    assert 0 < metrics["core.entropy_cache_hit_ratio"] < 1


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "infer", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
