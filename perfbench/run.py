"""tapgen benchmark: one workload, one seed, printed as one JSON line.

    python3 perfbench/run.py --workload synthetic-bench --seed 0 \
        --seconds 5 --trace 0

Run from the repository root; tapgen is imported from ``src/``.  The run

1. sets up M, V and gamma ``SETUP_REPEATS`` times (median = ``setup_s``);
2. serves the workload's seeded request list once, one request at a time,
   and keeps serving it again until ``--seconds`` have passed;
3. recomputes every output of the first pass with tapgen's public
   functions (``correct`` is false and the exit code 1 if any disagrees).

With ``--trace 1`` it serves one untraced pass and then one pass with the
span recorder installed, and reports per-layer figures instead.  The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}`` with the
metrics listed in BENCHMARK.json; the line before it is the full report:
the environment and every figure the workload has, including those that
exist on only some workloads (see README.md beside this file).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BLAS_THREADS = 1        # descent is single-row work; more threads only add noise
SETUP_REPEATS = 3
OUT_DIR = Path(".perfbench_out")


def _pin_blas_threads() -> int:
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    return int(threads)


def environment(root: Path, seed: int, blas_threads: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:               # show_config layout differs by version
        pass
    try:
        # the ceiling keeps git from looking above the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                env=env, capture_output=True, text=True,
                                timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "blas_threads": blas_threads, "seed": seed, "commit": commit}


def _median(values) -> float:
    return float(statistics.median(values))


def tail(latencies) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond
    it, and that percentile; (nan, nan) with fewer than eleven samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return float("nan"), float("nan")
    k = n - 11                      # ten samples lie above ordered[k]
    return ordered[k], 100.0 * k / (n - 1)


def serve_pass(work, state, requests, tracer=None):
    outputs, latencies = [], []
    for req in requests:
        t0 = time.perf_counter()
        if tracer is None:
            out = work.serve(state, req)
        else:
            with tracer.span("harness.request"):
                out = work.serve(state, req)
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return outputs, latencies


def measure(work, seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = work.setup(seed)
        setups.append(time.perf_counter() - t0)
    requests = work.requests(state)
    first, latencies, passes = None, [], []
    start = time.perf_counter()
    while first is None or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        outputs, lat = serve_pass(work, state, requests)
        passes.append(time.perf_counter() - t0)
        latencies.extend(lat)
        first = outputs if first is None else first
    return {"state": state, "requests": requests, "outputs": first,
            "setups": setups, "passes": passes, "latencies": latencies}


def verify_outputs(work, state, requests, outputs) -> tuple[list[str], int]:
    """All problems, and how many requests had at least one."""
    problems, bad = [], 0
    if hasattr(work, "check_setup"):
        found = work.check_setup(state)
        problems.extend(found)
        bad += bool(found)
    for req, out in zip(requests, outputs):
        found = work.check(state, req, out)
        problems.extend(found)
        bad += bool(found)
    return problems, bad


def end_to_end(work, run: dict) -> tuple[dict, dict]:
    """(gated metrics, which every workload has; the full report)."""
    setup_s = _median(run["setups"])
    pass_s = _median(run["passes"])
    items = work.items(run["outputs"])
    serve_s = pass_s - setup_s if work.setup_inside_request else pass_s
    wall_s = pass_s if work.setup_inside_request else setup_s + pass_s
    quality = work.quality(run["state"], run["outputs"])
    gated = {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (items / serve_s, "1/s"),
        "verifier_pair_accuracy": quality["verifier_pair_accuracy"],
    }
    lat = run["latencies"]
    tail_s, tail_pct = tail(lat)
    report = {
        "wall_s": (wall_s, "s"),
        f"{work.item}_per_s": (items / serve_s, "1/s"),
        f"{work.request}_p50_s": (_median(lat), "s"),
        f"{work.request}_tail_s": (tail_s, "s"),
        f"{work.request}_tail_percentile": tail_pct,
        f"{work.request}_samples": len(lat),
        "setup_runs_s": run["setups"], "passes": len(run["passes"]),
        "items_per_pass": items,
        **quality,
    }
    return gated, report


def per_layer(work, seed: int) -> tuple[dict, dict, dict]:
    """One untraced and one traced run of set-up plus a pass: per-layer
    figures, the report, and the traced run for the output checks."""
    import layers
    import workloads
    from spans import Tracer

    # run_benchmark trains inside the request, so its set-up replica is
    # only needed for the gamma check and stays outside both timings
    shared = work.setup(seed) if work.setup_inside_request else None

    def timed(tracer=None):
        phase = tracer.span if tracer is not None else _no_span
        t0 = time.perf_counter()
        with phase("harness.setup"):
            state = shared if shared is not None else work.setup(seed)
            requests = work.requests(state)
        outputs, _ = serve_pass(work, state, requests, tracer)
        return state, requests, outputs, time.perf_counter() - t0

    state, _, plain_out, plain_wall = timed()
    plain_quality = work.quality(state, plain_out)
    tracer = Tracer()
    with tracer.installed([workloads]):
        state, requests, outputs, traced_wall = timed(tracer)
    tracer.dump(OUT_DIR / f"trace-{work.name}")
    metrics = layers.layer_metrics(tracer, work, outputs)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    covered = sum(d for _, d in tracer.top_level())
    metrics["trace.coverage_share"] = (covered / traced_wall, "share")
    report = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "spans": len(tracer.start), "quality_untraced": plain_quality,
              "quality_traced": work.quality(state, outputs)}
    return metrics, report, {"state": state, "requests": requests,
                             "outputs": outputs}


@contextmanager
def _no_span(name):
    yield


def same_quality(a: dict, b: dict) -> bool:
    """Equal figures, NaN matching NaN."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes, for the self-tests")
    args = parser.parse_args(argv)

    blas_threads = _pin_blas_threads()
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "tapgen" / "__init__.py").is_file():
        print(f"error: tapgen sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(here)]

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = workloads.make(args.workload, tiny=args.tiny)
    report = {"workload": work.name,
              "environment": environment(here.parent, args.seed,
                                         blas_threads)}

    problems = []
    if args.trace:
        metrics, extra, run = per_layer(work, args.seed)
        if not same_quality(extra["quality_untraced"], extra["quality_traced"]):
            problems.append("traced and untraced runs differ in quality")
    else:
        run = measure(work, args.seed, args.seconds)
        metrics, extra = end_to_end(work, run)
    report.update(extra)
    found, bad = verify_outputs(work, run["state"], run["requests"],
                                run["outputs"])
    attempted, failed = work.operations(run["outputs"])
    failed += bad + len(problems)
    problems.extend(found)
    report["failed_share"] = failed / max(attempted, 1)
    report["problems"] = problems[:20]

    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
