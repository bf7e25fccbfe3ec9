"""Self-tests of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py            # plain runner
    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default pytest collection;
name it explicitly to run it.
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import run as runner                 # noqa: E402
import workloads                     # noqa: E402
from inputs import adult_rows       # noqa: E402
from spans import Tracer             # noqa: E402
from tapgen import netcore, perturb, presets  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_every_workload_untraced_and_traced():
    for w in SPEC["workloads"]:
        for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run("--workload", w["name"], "--seed", "3", "--seconds",
                        "0.5", "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr[-2000:]
            res = _result(proc)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] is True and res["failed"] == 0
            assert res["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[listed]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (w["name"], trace)
            assert all(math.isfinite(v["value"])
                       for v in res["metrics"].values())


def test_traced_and_untraced_quality_identical():
    for name in workloads.WORKLOADS:
        work = workloads.make(name, tiny=True)
        _, report, _ = runner.per_layer(work, seed=5)
        assert runner.same_quality(report["quality_untraced"],
                                   report["quality_traced"]), name
        plain = runner.measure(work, 5, 0.0)
        assert runner.same_quality(work.quality(plain["state"],
                                                plain["outputs"]),
                                   report["quality_untraced"]), name


def _mixed_request():
    work = workloads.make("mixed-schema-recourse", tiny=True)
    state = work.setup(1)
    req = work.requests(state)[0]
    return work, state, req, work.serve(state, req)


def test_checks_pass_on_honest_outputs():
    work, state, req, out = _mixed_request()
    assert work.check(state, req, out) == []


def test_checks_catch_flipped_verdict():
    work, state, req, out = _mixed_request()
    cand = out["candidates"][0]
    out["candidates"][0] = dataclasses.replace(cand, verified=not cand.verified)
    assert any("verdict" in p for p in work.check(state, req, out))


def test_checks_catch_incoherent_onehot():
    work, state, req, out = _mixed_request()
    schema = state["schema"]
    cand = out["candidates"][-1]
    bad = np.array(cand.x_tilde)
    bad[list(schema.onehot_groups["education"])] = 1.0   # every level active
    out["candidates"][-1] = dataclasses.replace(cand, x_tilde=bad)
    found = work.check(state, req, out)
    assert any("not coherent" in p for p in found)


def test_checks_catch_wrong_epsilon_and_unmet_budget():
    work, state, req, out = _mixed_request()
    cand = out["candidates"][0]
    out["candidates"][0] = dataclasses.replace(cand, epsilon=cand.epsilon + 1)
    budget = out["budget"]
    far = dataclasses.replace(budget.candidate, delta=req[1] + 1.0)
    out["budget"] = dataclasses.replace(budget, met=True, candidate=far)
    found = work.check(state, req, out)
    assert any("epsilon" in p for p in found)
    assert any("budget met at delta" in p for p in found)


def test_verifier_checks_catch_flipped_verdict_and_bad_gamma():
    work = workloads.make("verifier-refresh", tiny=True)
    state = work.setup(2)
    pair = work.requests(state)[0]
    verdict = work.serve(state, pair)
    assert work.check(state, pair, verdict) == []
    assert work.check_setup(state) == []
    flipped = dataclasses.replace(verdict, accepted=not verdict.accepted)
    assert work.check(state, pair, flipped)
    low = dataclasses.replace(state["cal"], gamma=0.0)
    assert work.check_setup({**state, "cal": low})


def test_tracer_wraps_every_namespace_and_restores():
    originals = (perturb.forward_cache, netcore.forward_cache,
                 perturb.generate_candidate)
    tracer = Tracer()
    with tracer.installed():
        assert perturb.forward_cache is not originals[0]
        assert netcore.forward_cache is perturb.forward_cache
        schema, cm = presets.adult_income_preset()
        x, y = adult_rows(schema, 300, 0)
        model = netcore.train_classifier(x, y, netcore.TrainConfig(
            max_epochs=2, seed=0))
        netcore.predict_proba(model, x[0])
    assert (perturb.forward_cache, netcore.forward_cache,
            perturb.generate_candidate) == originals
    names = tracer.by_name()
    # predict_proba's forward pass is a child span, so its self time is less
    pp = names["netcore.predict_proba"]
    assert names["netcore.forward_cache"]["count"] >= 1
    assert pp["self_s"] < pp["total_s"]
    assert names["netcore.train_classifier"]["rows"] == 300


def test_inputs_coherent_and_seeded():
    schema, _ = presets.adult_income_preset()
    x, y = adult_rows(schema, 500, 7)
    x2, y2 = adult_rows(schema, 500, 7)
    assert np.array_equal(x, x2) and np.array_equal(y, y2)
    assert all(schema.is_coherent(row) for row in x)
    assert np.all(x >= schema.lower_bounds) and np.all(x <= schema.upper_bounds)
    assert 0.1 < y.mean() < 0.9
    assert not np.array_equal(adult_rows(schema, 500, 8)[0], x)


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(Path(tmp) / HERE.name / "run.py"),
             "--workload", "verifier-refresh", "--seed", "0", "--seconds",
             "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_percentile():
    assert math.isnan(runner.tail([1.0] * 10)[0])
    value, pct = runner.tail(list(range(21)))
    assert value == 10 and pct == 50.0


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except Exception as err:          # report every test, then fail
            failed += 1
            print(f"FAIL {name}: {type(err).__name__}: {err}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    sys.exit(1 if failed else 0)
