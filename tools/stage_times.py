"""Per-stage CPU time of one seed-0 benchmark run, before and after a change.

    python tools/stage_times.py PARENT CHANGE --out BENCH_<n>.json

PARENT and CHANGE are two checkouts of this repository.  Each run is a fresh
interpreter that imports ``tapgen`` from one checkout's ``src``, wraps the
names ``run_benchmark`` calls in the ``tapgen.bench`` namespace with
process-CPU timers, and runs ``run_benchmark(BenchmarkConfig(seed=0),
out_dir)`` once.  The checkouts alternate, ``PAIRS`` runs each; the side
that runs first swaps from pair to pair, so that an order effect falls on
both sides alike.  What no stage claims (sampling, the outside test,
aggregation) is reported as ``unattributed``, so a run's stages add up to
its CPU time.
BLAS runs one thread unless the environment says otherwise.  Needs only
numpy and the standard library.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

# stage -> the tapgen.bench names whose calls it owns
STAGES = {
    "m_training": ("train_classifier", "fit_temperature"),
    "v_training": ("build_pair_dataset", "train_verifier"),
    "calibration": ("calibrate_gamma",),
    "frontier": ("frontier_sweep_batch",),
    "repair": ("repair_on_rejection_batch",),
    "wachter": ("wachter_counterfactual_batch",),
    "cw": ("cw_l2_batch",),
    "verdicts": ("_verified",),
    "artifacts": ("write_artifacts",),
}
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PAIRS = 3


def run_once() -> dict:
    """Time one seed-0 run of the tapgen on sys.path, stage by stage."""
    from tapgen import bench

    spent = dict.fromkeys(STAGES, 0.0)

    def timed(stage, f):
        def call(*args, **kwargs):
            start = time.process_time()
            try:
                return f(*args, **kwargs)
            finally:
                spent[stage] += time.process_time() - start
        return call

    for stage, names in STAGES.items():
        for name in names:
            setattr(bench, name, timed(stage, getattr(bench, name)))
    with tempfile.TemporaryDirectory() as out_dir:
        wall, cpu = time.perf_counter(), time.process_time()
        bench.run_benchmark(bench.BenchmarkConfig(seed=0), out_dir)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return {"wall_s": wall, "cpu_s": cpu, "stages_cpu_s": spent,
            "unattributed_cpu_s": cpu - sum(spent.values())}


def _git(checkout: str, *args: str) -> str:
    try:
        return subprocess.run(["git", "-C", checkout, *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def _revision(checkout: str) -> str:
    """The checkout's commit, marked when its tree has uncommitted edits."""
    commit = _git(checkout, "rev-parse", "--short", "HEAD") or "unknown"
    return commit + (" + uncommitted changes"
                     if _git(checkout, "status", "--porcelain", "--", "src")
                     else "")


def _environment(env: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "cpu": cpu,
            "cpu_count": os.cpu_count(),
            "threads": {name: env.get(name) for name in THREADS}}


def _child(checkout: str, env: dict) -> dict:
    code = ("import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import stage_times; print(json.dumps(stage_times.run_once()))")
    out = subprocess.run(
        [sys.executable, "-c", code, os.path.join(checkout, "src"),
         os.path.dirname(os.path.abspath(__file__))],
        check=True, capture_output=True, text=True, env=env)
    return json.loads(out.stdout.splitlines()[-1])


def _summary(runs: list[dict]) -> dict:
    keys = ("wall_s", "cpu_s", "unattributed_cpu_s")
    out = {k: statistics.median(r[k] for r in runs) for k in keys}
    out["stages_cpu_s"] = {s: statistics.median(r["stages_cpu_s"][s]
                                                for r in runs)
                           for s in STAGES}
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    env = dict(os.environ)
    for name in THREADS:
        env.setdefault(name, "1")
    checkouts = {"parent": args.parent, "change": args.change}
    runs = {label: [] for label in checkouts}
    for pair in range(PAIRS):
        order = list(checkouts) if pair % 2 == 0 else list(checkouts)[::-1]
        for label in order:
            runs[label].append(_child(checkouts[label], env))
            print(f"pair {pair + 1}/{PAIRS} {label}: "
                  f"{runs[label][-1]['cpu_s']:.2f} s CPU", file=sys.stderr)
    medians = {label: _summary(r) for label, r in runs.items()}
    report = {
        "what": "seed-0 run_benchmark, process CPU seconds per stage; "
                "parent and change alternate, parent first in odd pairs",
        "environment": _environment(env),
        "revisions": {label: _revision(c) for label, c in checkouts.items()},
        "runs": runs,
        "median": medians,
        "change_over_parent": {
            s: medians["change"]["stages_cpu_s"][s]
            / medians["parent"]["stages_cpu_s"][s]
            for s in STAGES if medians["parent"]["stages_cpu_s"][s] > 0},
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
