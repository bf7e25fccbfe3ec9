"""The three benchmark workloads, their output checks and quality figures.

Every workload is a closed loop: one client in this process sends the next
request only after the previous one has returned.  A workload has

* ``setup(seed)``: the work until M, V and gamma are ready, timed on its own;
* ``requests(state)``: the fixed, seeded list of requests one pass serves;
* ``serve(state, request)``: one request, timed;
* ``check(state, request, output)``: problems found by recomputing the
  outputs from tapgen's public functions (an empty list means correct);
* ``quality(state, outputs)``: figures that are deterministic for a seed.

Workloads:

``synthetic-bench``
    ``bench.run_benchmark`` with an output directory, the code behind
    ``tapgen bench-synthetic``.  One request is one whole run; ``setup``
    repeats the run's own training prefix so set-up time can be read apart.
``mixed-schema-recourse``
    Recourse for one individual of the ``adult_income`` schema at a time:
    a frontier sweep, a verdict for every candidate, then a delta budget.
``verifier-refresh``
    Retrain M and V on a larger pair set, calibrate gamma on every
    different-class pair of a calibration slice, then screen held-out pairs
    one verdict at a time.
"""
from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from tapgen import bench, netcore, perturb, presets, verify
from tapgen.actionability import cost
from tapgen.netcore import TrainConfig, predict_proba, predict_proba_batch
from tapgen.probspace import TargetSet, kl_divergence, target_distance

from inputs import adult_rows

DELTA_OK = 0.1          # delta threshold of a successful TAP candidate
REL_TOL = 1e-9          # recomputed epsilon/delta must agree to this
GAMMA_TOL = 1e-12       # calibration discrepancies recomputed in batch
OUT_ROOT = Path(".perfbench_out")

# mixed-schema-recourse: the goal, and the delta budget of each request.  The
# budget asks to halve the individual's distance to the target, walking lam
# down from BUDGET_LAM for at most BUDGET_TRIALS descents, so that a request
# that cannot be met costs a bounded number of descents.
ADULT_TARGET = TargetSet(2, (1,), (0,), 0.7, 0.3)
BUDGET_SHARE = 0.5
BUDGET_LAM = 0.01
BUDGET_TRIALS = 5


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def train_models(x, y, seed: int, max_epochs: int, patience: int,
                 verifier_pairs: int):
    """M (temperature-fitted) and V on the train split, as run_benchmark
    trains them; returns (model, split indices, verifier)."""
    model = netcore.train_classifier(
        x, y, TrainConfig(max_epochs=max_epochs, patience=patience, seed=seed))
    split = model.metadata["split_indices"]
    model = netcore.fit_temperature(model, x[split["val"]], y[split["val"]])
    pairs = verify.build_pair_dataset(x[split["train"]], y[split["train"]],
                                      max_pairs=verifier_pairs, seed=seed)
    verifier = verify.train_verifier(
        pairs, TrainConfig(max_epochs=max_epochs, patience=patience,
                           seed=seed + 1))
    return model, split, verifier


def check_candidate(model, verifier, gamma, schema, cm, target, cand,
                    actionable: bool = True) -> list[str]:
    """Recompute epsilon, delta and the verdict of one candidate.

    With ``actionable`` the point must also be coherent, inside the
    individual's box and leave immutables unchanged.
    """
    x = np.asarray(cand.x, dtype=float)
    x_tilde = np.asarray(cand.x_tilde, dtype=float)
    problems = []
    eps = float(cost(x, x_tilde, cm, schema))
    if not _close(eps, cand.epsilon):
        problems.append(f"epsilon {cand.epsilon!r} recomputes to {eps!r}")
    delta = float(target_distance(predict_proba(model, x_tilde), target,
                                  kl_divergence()))
    if not _close(delta, cand.delta):
        problems.append(f"delta {cand.delta!r} recomputes to {delta!r}")
    if cand.verified is not None:
        d = verify.discrepancy(model, verifier, x, x_tilde)
        if (d < gamma) != cand.verified:
            problems.append(f"verdict {cand.verified} but discrepancy {d!r} "
                            f"vs gamma {gamma!r}")
        if cand.discrepancy is None or not _close(d, cand.discrepancy):
            problems.append(f"discrepancy {cand.discrepancy!r} recomputes "
                            f"to {d!r}")
    if actionable:
        lo, hi = schema.box_for(x)
        if not schema.is_coherent(x_tilde):
            problems.append("candidate is not coherent")
        if np.any(x_tilde < lo - 1e-9) or np.any(x_tilde > hi + 1e-9):
            problems.append("candidate leaves the actionable box")
        frozen = ~schema.mutable_mask
        if not np.array_equal(x_tilde[frozen], x[frozen]):
            problems.append("candidate changes an immutable feature")
    return problems


def _share(flags) -> float:
    flags = list(flags)
    return sum(flags) / len(flags) if flags else math.nan


def tap_success(candidates_by_individual) -> tuple[float, float]:
    """Share of individuals with a verified non-noop candidate at delta <=
    DELTA_OK, and the mean epsilon of the cheapest such candidate."""
    costs = []
    for cands in candidates_by_individual:
        ok = [c.epsilon for c in cands
              if c.verified and not c.is_noop and c.delta <= DELTA_OK]
        if ok:
            costs.append(min(ok))
    n = max(len(candidates_by_individual), 1)
    return len(costs) / n, (float(np.mean(costs)) if costs else math.nan)


# ---------------------------------------------------------------------------
# synthetic-bench


@dataclass(frozen=True)
class SyntheticBench:
    config: dict = field(default_factory=dict)   # BenchmarkConfig overrides

    name: ClassVar[str] = "synthetic-bench"
    item: ClassVar[str] = "individuals"
    request: ClassVar[str] = "bench_run"
    setup_inside_request: ClassVar[bool] = True

    def cfg(self, seed: int) -> bench.BenchmarkConfig:
        return bench.BenchmarkConfig(seed=seed, **self.config)

    def setup(self, seed: int):
        """The training prefix of ``run_benchmark``, step for step."""
        cfg = self.cfg(seed)
        x, y = bench.sample_synthetic(bench.canonical_benchmark_spec(),
                                      cfg.n_samples, cfg.seed)
        model, split, verifier = train_models(x, y, cfg.seed, cfg.max_epochs,
                                              cfg.patience, cfg.verifier_pairs)
        cal = verify.calibrate_gamma(model, verifier, x[split["test"]],
                                     y[split["test"]], rate=cfg.rejection_rate,
                                     num_pairs=cfg.calibration_pairs,
                                     seed=cfg.seed, source_split="test")
        return {"seed": seed, "gamma": cal.gamma}

    def requests(self, state):
        return [state["seed"]]

    def serve(self, state, seed):
        out_dir = OUT_ROOT / f"{self.name}-seed{seed}"
        shutil.rmtree(out_dir, ignore_errors=True)
        result = bench.run_benchmark(self.cfg(seed), out_dir)
        size = sum(p.stat().st_size for p in out_dir.iterdir())
        shutil.rmtree(out_dir, ignore_errors=True)
        return {"result": result, "artifact_bytes": size}

    def items(self, outputs) -> int:
        return len(outputs[0]["result"].individual_ids)

    def operations(self, outputs) -> tuple[int, int]:
        """(attempted, failed) method runs; a CW attack that finds no flip
        or refuses an already flipped point is an outcome, not a failure."""
        res = outputs[0]["result"]
        attempted = len(res.individual_ids) * len(res.config.methods)
        failed = sum(1 for _, method, _ in res.failures if method != "cw")
        return attempted, failed

    def check(self, state, seed, out) -> list[str]:
        res = out["result"]
        schema, cm, target = bench.benchmark_problem()
        problems = []
        if res.gamma != state["gamma"]:
            problems.append(f"run gamma {res.gamma!r} differs from the "
                            f"set-up replica's {state['gamma']!r}")
        for rec in res.records:
            found = check_candidate(res.model, res.verifier, res.gamma, schema,
                                    cm, target, rec.candidate,
                                    actionable=rec.method != "cw")
            problems.extend(f"individual {rec.individual_id} {rec.method}: {p}"
                            for p in found)
        by_ind = {i: [] for i in res.individual_ids}
        for rec in res.records:
            if rec.method == "tap":
                by_ind[rec.individual_id].append(rec.candidate)
        table = res.table.rate("tap", DELTA_OK, math.inf, post=True)
        hits = sum(any(c.verified and c.delta <= DELTA_OK for c in cands)
                   for cands in by_ind.values())
        if not _close(table, hits / max(len(by_ind), 1)):
            problems.append(f"success table says {table!r}, records say "
                            f"{hits}/{len(by_ind)}")
        if out["artifact_bytes"] <= 0:
            problems.append("no artifacts written")
        return problems

    def quality(self, state, outputs) -> dict[str, tuple[float, str]]:
        res = outputs[0]["result"]
        by_ind = {i: [] for i in res.individual_ids}
        for rec in res.records:
            if rec.method == "tap":
                by_ind[rec.individual_id].append(rec.candidate)
        success, cost_mean = tap_success(list(by_ind.values()))
        cw = [r.candidate for r in res.records if r.method == "cw"]
        tap = [c for cands in by_ind.values() for c in cands if not c.is_noop]
        return {
            "tap_verified_success": (success, "share"),
            "tap_accepted_cost_mean": (cost_mean, "epsilon"),
            "cw_rejected_share": (_share(not c.verified for c in cw), "share"),
            "verifier_pair_accuracy": (res.verifier_accuracy, "share"),
            "verified_share": (_share(bool(c.verified) for c in tap), "share"),
        }


# ---------------------------------------------------------------------------
# mixed-schema-recourse


@dataclass(frozen=True)
class MixedSchemaRecourse:
    n_rows: int = 4000
    individuals: int = 20
    verifier_pairs: int = 20_000
    calibration_pairs: int = 5000
    max_epochs: int = 60
    lambdas: tuple[float, ...] = (0.0, *np.logspace(-4, 2, 20))
    opt_iters: int = 500

    name: ClassVar[str] = "mixed-schema-recourse"
    item: ClassVar[str] = "individuals"
    request: ClassVar[str] = "recourse"
    setup_inside_request: ClassVar[bool] = False

    def setup(self, seed: int):
        schema, cm = presets.adult_income_preset()
        x, y = adult_rows(schema, self.n_rows, seed)
        model, split, verifier = train_models(x, y, seed, self.max_epochs, 10,
                                              self.verifier_pairs)
        cal = verify.calibrate_gamma(model, verifier, x[split["test"]],
                                     y[split["test"]], rate=0.1,
                                     num_pairs=self.calibration_pairs,
                                     seed=seed)
        return {"seed": seed, "schema": schema, "cm": cm, "x": x,
                "test": np.asarray(split["test"]), "model": model,
                "verifier": verifier, "cal": cal}

    def requests(self, state):
        test = state["test"]
        probs = predict_proba_batch(state["model"], state["x"][test])
        div = kl_divergence()
        return [(int(i), BUDGET_SHARE * target_distance(p, ADULT_TARGET, div))
                for i, p in zip(test, probs)
                if not ADULT_TARGET.contains(p)][:self.individuals]

    def serve(self, state, request):
        row, delta_max = request
        model, verifier, cal = state["model"], state["verifier"], state["cal"]
        schema, cm, x = state["schema"], state["cm"], state["x"][row]
        oc = perturb.OptConfig(lam=BUDGET_LAM, max_iters=self.opt_iters,
                               seed=state["seed"])
        sweep = perturb.frontier_sweep(model, schema, cm, ADULT_TARGET, x,
                                       self.lambdas, oc)
        cands = [c.with_verdict(verify.verify_pair(model, verifier, cal,
                                                   c.x, c.x_tilde))
                 for c in sweep.candidates]
        budget = perturb.meet_budget(model, schema, cm, ADULT_TARGET, x, oc,
                                     delta_max=delta_max, trials=BUDGET_TRIALS)
        return {"candidates": cands, "failures": sweep.failures,
                "budget": budget}

    def items(self, outputs) -> int:
        return len(outputs)

    def operations(self, outputs) -> tuple[int, int]:
        """(requests, requests with a diverged descent)."""
        return len(outputs), sum(bool(o["failures"]) for o in outputs)

    def check(self, state, request, out) -> list[str]:
        row, delta_max = request
        args = (state["model"], state["verifier"], state["cal"].gamma,
                state["schema"], state["cm"], ADULT_TARGET)
        problems = []
        for cand in out["candidates"]:
            problems.extend(check_candidate(*args, cand))
        budget = out["budget"]
        problems.extend(f"budget: {p}"
                        for p in check_candidate(*args, budget.candidate))
        if budget.met and budget.candidate.delta > delta_max:
            problems.append(f"budget met at delta {budget.candidate.delta!r} "
                            f"> {delta_max!r}")
        return [f"row {row}: {p}" for p in problems]

    def quality(self, state, outputs) -> dict[str, tuple[float, str]]:
        success, cost_mean = tap_success([o["candidates"] for o in outputs])
        moved = [c for o in outputs for c in o["candidates"] if not c.is_noop]
        return {
            "tap_verified_success": (success, "share"),
            "tap_accepted_cost_mean": (cost_mean, "epsilon"),
            "budget_met_share": (_share(o["budget"].met for o in outputs),
                                 "share"),
            "verifier_pair_accuracy": (
                state["verifier"].metadata["test_accuracy"], "share"),
            "verified_share": (_share(bool(c.verified) for c in moved), "share"),
        }


# ---------------------------------------------------------------------------
# verifier-refresh


@dataclass(frozen=True)
class VerifierRefresh:
    n_rows: int = 8000
    verifier_pairs: int = 40_000
    calibration_rows: int = 320
    screened_pairs: int = 4000
    max_epochs: int = 60

    name: ClassVar[str] = "verifier-refresh"
    item: ClassVar[str] = "verdicts"
    request: ClassVar[str] = "verdict"
    setup_inside_request: ClassVar[bool] = False

    def setup(self, seed: int):
        schema, _ = presets.adult_income_preset()
        x, y = adult_rows(schema, self.n_rows, seed)
        model, split, verifier = train_models(x, y, seed, self.max_epochs, 10,
                                              self.verifier_pairs)
        cal_rows = np.asarray(split["test"][:self.calibration_rows])
        n = cal_rows.size
        # asking for every ordered pair makes calibrate_gamma use all of the
        # different-class ones, so the check below can enumerate them
        cal = verify.calibrate_gamma(model, verifier, x[cal_rows], y[cal_rows],
                                     rate=0.1, num_pairs=n * (n - 1),
                                     seed=seed)
        return {"seed": seed, "x": x, "y": y, "cal_rows": cal_rows,
                "screen_rows": np.asarray(split["test"][self.calibration_rows:]),
                "model": model, "verifier": verifier, "cal": cal}

    def requests(self, state):
        rng = np.random.default_rng([state["seed"], 0x5C4EE7])
        rows = state["screen_rows"]
        a = rng.choice(rows, size=self.screened_pairs)
        b = rng.choice(rows, size=self.screened_pairs)
        keep = a != b
        return list(zip(a[keep].tolist(), b[keep].tolist()))

    def serve(self, state, pair):
        x = state["x"]
        return verify.verify_pair(state["model"], state["verifier"],
                                  state["cal"], x[pair[0]], x[pair[1]])

    def items(self, outputs) -> int:
        return len(outputs)

    def operations(self, outputs) -> tuple[int, int]:
        return len(outputs), 0

    def check(self, state, pair, verdict) -> list[str]:
        x = state["x"]
        d = verify.discrepancy(state["model"], state["verifier"],
                               x[pair[0]], x[pair[1]])
        gamma = state["cal"].gamma
        if (d < gamma) != verdict.accepted or not _close(d, verdict.discrepancy):
            return [f"pair {pair}: verdict {verdict.accepted} with discrepancy "
                    f"{verdict.discrepancy!r}, recomputed {d!r} vs {gamma!r}"]
        return []

    def check_setup(self, state) -> list[str]:
        """At most ceil(rate * N) calibration discrepancies above gamma."""
        rows = state["cal_rows"]
        x, y = state["x"][rows], state["y"][rows]
        # the same ordered pairs and batch shapes as calibrate_gamma, so the
        # products round alike; GAMMA_TOL only absorbs last-bit differences
        i, j = np.nonzero(y[:, None] != y[None, :])
        agree = np.sum(predict_proba_batch(state["model"], x[i])
                       * predict_proba_batch(state["model"], x[j]), axis=1)
        same = verify.same_class_prob_batch(state["verifier"], x[i], x[j])
        deltas = np.abs(same - agree)
        cal = state["cal"]
        above = int(np.sum(deltas > cal.gamma + GAMMA_TOL))
        allowed = math.ceil(cal.rate * deltas.size)
        problems = []
        if deltas.size != cal.sample_size:
            problems.append(f"calibration used {cal.sample_size} pairs, "
                            f"{deltas.size} exist")
        if above > allowed:
            problems.append(f"{above} calibration discrepancies above gamma, "
                            f"ceil(rate*N) allows {allowed}")
        if not np.any(np.isclose(deltas, cal.gamma, rtol=0, atol=GAMMA_TOL)):
            problems.append("gamma is not one of the calibration discrepancies")
        return problems

    def quality(self, state, outputs) -> dict[str, tuple[float, str]]:
        return {
            "verifier_pair_accuracy": (
                state["verifier"].metadata["test_accuracy"], "share"),
            "verified_share": (_share(v.accepted for v in outputs), "share"),
        }


WORKLOADS = {
    "synthetic-bench": SyntheticBench,
    "mixed-schema-recourse": MixedSchemaRecourse,
    "verifier-refresh": VerifierRefresh,
}

# Tiny sizes for the self-tests: same code paths, a second or two each.
TINY = {
    "synthetic-bench": dict(config=dict(
        n_samples=600, max_individuals=2, lambdas=(0.0, 0.01, 1.0),
        verifier_pairs=2000, calibration_pairs=500, max_epochs=4,
        opt_iters=40)),
    "mixed-schema-recourse": dict(n_rows=600, individuals=2,
                                  verifier_pairs=2000, calibration_pairs=500,
                                  max_epochs=4, lambdas=(0.0, 0.01, 1.0),
                                  opt_iters=40),
    "verifier-refresh": dict(n_rows=800, verifier_pairs=2000,
                             calibration_rows=40, screened_pairs=200,
                             max_epochs=4),
}


def make(name: str, tiny: bool = False):
    return WORKLOADS[name](**(TINY[name] if tiny else {}))
