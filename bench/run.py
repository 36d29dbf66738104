"""dirinfo benchmark runner.

    python3 bench/run.py --workload infer --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop (one process, one job at a time) of
in-process CLI pipelines built from ``src/`` of the checkout this file sits
in, checks every result against the generator's reference, and prints the
result as one JSON object on the last line of standard output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a separate traced pass.  See bench/README.md.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import os  # noqa: E402

# BLAS threads are pinned before numpy loads: the loop is single-client.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
PROBE_REPEATS = 2


def _import_program():
    """Import the package from this checkout's ``src``; never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "dirinfo", "__init__.py")):
        raise SystemExit(f"error: no dirinfo sources under {SRC}")
    sys.path.insert(0, SRC)
    import workloads
    return workloads


def _environment(workload, seed, jobs, sizes):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    kinds = {}
    for job in jobs:
        kinds[job.kind] = kinds.get(job.kind, 0) + 1
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "workload": workload,
        "seed": seed,
        "sizes": sizes,
        "jobs_in_list": kinds,
    }


def _set_up(workloads, workload, seed, sizes, workdir, tracer=None):
    """Write the inputs into ``workdir`` and run the first job once,
    untimed, so lazy first-call costs land in set-up.  With a tracer,
    input generation is traced."""
    if tracer is not None:
        tracer.install()
    try:
        jobs = workloads.make_jobs(workload, seed, workdir, sizes)
    finally:
        if tracer is not None:
            tracer.uninstall()
    workloads.run_job(jobs[0])
    return jobs


def _setup_children(args):
    """Set-up times of fresh processes, each measured as this one is."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-1000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _threads_probe(workloads, seed, sizes):
    """Wall time of infer_graph with threads=1 over threads=2 on one
    8-node VAR panel of the infer workload, untraced, alternating, best of
    PROBE_REPEATS each."""
    from dirinfo import inference

    _, panel, _ = workloads.graph_var_panel(seed, sizes["T"])
    family = inference.family_from_spec("var", order=2)
    best = {1: float("inf"), 2: float("inf")}
    for _ in range(PROBE_REPEATS):
        for threads in (1, 2):
            start = time.perf_counter()
            inference.infer_graph(panel, family, threads=threads)
            best[threads] = min(best[threads], time.perf_counter() - start)
    return best[1] / best[2]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    workloads = _import_program()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy input sizes, for the runner's self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _on_sigterm)  # so the work directory is removed
    scale = workloads.TINY if args.tiny else workloads.FULL
    sizes = scale[args.workload]
    import_s = time.perf_counter() - _START

    tracer = None
    children = []
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    elif not args.setup_only:
        children = _setup_children(args)
    start = time.perf_counter()
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        jobs = _set_up(workloads, args.workload, args.seed, sizes, workdir, tracer)
        setup_s = import_s + time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        outcomes, elapsed = workloads.closed_loop(jobs, args.seconds)
        if tracer is not None:
            tracer.install()
            try:
                traced, traced_elapsed = workloads.closed_loop(jobs, args.seconds,
                                                               on_job=tracer.begin_job)
            finally:
                tracer.uninstall()
            speedup = _threads_probe(workloads, args.seed, scale["infer"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = outcomes + (traced if tracer is not None else [])
    for o in everything:
        if o.failed:
            print(f"job {o.kind} failed: {o.error.strip()}", file=sys.stderr)
    attempted = len(everything)
    failed = sum(o.failed for o in everything)
    correct = sum(o.correct for o in everything)
    jobs_per_s = len(outcomes) / elapsed
    times = [o.seconds for o in outcomes]
    print("environment: " + json.dumps(_environment(args.workload, args.seed, jobs, sizes),
                                       sort_keys=True))
    print(f"jobs: {len(outcomes)} timed in {elapsed:.3f} s"
          f" ({', '.join(sorted({o.kind for o in outcomes}))})")
    print(f"failed_frac: {failed / attempted:.4f} ratio")
    print(f"correct_frac: {correct / attempted:.4f} ratio")

    if tracer is None:
        metrics = {
            "jobs_per_s": _metric(jobs_per_s, "jobs/s"),
            "job_p50_s": _metric(statistics.median(times), "s"),
            "setup_s": _metric(statistics.median([setup_s] + children), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                   "MB"),
        }
        print(f"job_p50_s samples: {len(times)}; setup_s samples: {1 + len(children)}")
    else:
        traced_rate = len(traced) / traced_elapsed
        layer = tracer.layer_metrics(len(traced))
        layer["inference.infer_graph_threads2_speedup"] = speedup
        layer["trace.untraced_jobs_per_s"] = jobs_per_s
        layer["trace.traced_jobs_per_s"] = traced_rate
        layer["trace.overhead_frac"] = jobs_per_s / traced_rate - 1.0
        metrics = {name: _metric(layer[name], unit)
                   for name, unit in tracing.LAYER_UNITS.items()}
    for name, m in metrics.items():
        print(f"{name}: {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": correct == attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
