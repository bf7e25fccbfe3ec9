"""Synthetic benchmark: run all methods, verify, and tabulate success.

The task is a Gaussian mixture whose exact posteriors are known, so every
candidate can be scored against ground truth as well as against the model;
the mixture, problem and settings come from one parsed config, by default
the bundled synthetic document.  For each test individual the model places
outside the target, the perturbation search sweeps lam, the counterfactual
baseline sweeps its own schedule, and the l2 attack contributes its
cheapest success; every candidate is then put through the pairwise
verifier.  Success rates are aggregated per (method, delta threshold,
epsilon budget) cell before and after verification.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .actionability import CostModel, FeatureSchema
from .baselines import cw_l2_batch, wachter_counterfactual_batch
from .config import (ExperimentConfig, VerificationConfig, _cost_weight,
                     default_synthetic_config, parse_config)
from .netcore import fit_temperature, predict_proba_batch, train_classifier
from .perturb import (
    CandidateRecord,
    TapCandidate,
    _fmt,
    _verified,
    frontier_sweep_batch,
    repair_on_rejection_batch,
    write_frontier_csv,
)
from .plots import grouped_bars_svg, scatter_svg
from .probspace import TargetSet
# unused canonical_benchmark_spec stays: perfbench/workloads.py samples the
# benchmark's data through this module
from .synthetic import (  # noqa: F401
    SyntheticSpec,
    canonical_benchmark_spec,
    sample_synthetic,
    true_posterior_batch,
)
from .verify import build_pair_dataset, calibrate_gamma, train_verifier

__all__ = [
    "BenchmarkConfig",
    "benchmark_problem",
    "SuccessRow",
    "SuccessTable",
    "aggregate_success",
    "BenchmarkResult",
    "run_benchmark",
    "ImprovementRow",
    "true_improvement_report",
    "write_success_csv",
    "write_improvement_csv",
    "emit_plots",
]

METHODS = ("tap", "wachter", "cw")

_DEFAULT = parse_config(default_synthetic_config())


def _setting(source: str):
    """A run setting that, left at None, reads ``experiment.<source>``."""
    return field(default=None, metadata={"source": source})


@dataclass(frozen=True)
class BenchmarkConfig:
    """How one benchmark run goes.  Everything comes from ``experiment``:
    the problem -- mixture, schema, cost, target, divergence -- the nets,
    training, penalty and descent settings, and each run setting below
    left at None; a setting given as a keyword overrides it."""

    seed: int | None = _setting("seed")
    n_samples: int | None = _setting("dataset.n_samples")
    max_individuals: int | None = _setting("max_individuals")
    methods: tuple[str, ...] = METHODS
    # lam 0 anchors the frontier: pure target chase, first point inside T
    lambdas: tuple[float, ...] | None = _setting("lambdas")
    delta_thresholds: tuple[float, ...] | None = _setting("delta_thresholds")
    epsilon_budgets: tuple[float, ...] | None = _setting("epsilon_budgets")
    rejection_rate: float | None = _setting("verification.rate")
    verifier_pairs: int | None = _setting("verification.verifier_pairs")
    calibration_pairs: int | None = _setting("verification.calibration_pairs")
    max_epochs: int | None = _setting("train.max_epochs")
    patience: int | None = _setting("train.patience")
    opt_iters: int | None = _setting("opt.max_iters")
    repair: bool = True
    experiment: ExperimentConfig = _DEFAULT

    def __post_init__(self) -> None:
        for f in fields(self):
            if "source" in f.metadata and getattr(self, f.name) is None:
                object.__setattr__(self, f.name, attrgetter(
                    f.metadata["source"])(self.experiment))
        if not self.experiment.dataset.is_synthetic:
            raise ValueError("a CSV dataset has no ground truth to score "
                             "against; the benchmark needs a synthetic one")
        if len(self.experiment.target.desirable) != 1:
            raise ValueError("the baselines need a target with exactly one "
                             "desirable class")
        unknown = set(self.methods) - set(METHODS)
        if unknown or not self.methods:
            raise ValueError(f"unknown methods: {sorted(unknown)}" if unknown
                             else "no methods to run")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.max_individuals < 0 or self.n_samples < 10:
            raise ValueError("bad benchmark sizes")
        if not (self.delta_thresholds and self.epsilon_budgets):
            raise ValueError("delta thresholds and budgets must be non-empty")
        if not (self.lambdas and all(map(_cost_weight, self.lambdas))):
            raise ValueError(
                "lambdas must be non-empty, finite and non-negative")
        # the sections check their own settings
        VerificationConfig(self.rejection_rate, self.calibration_pairs,
                           self.verifier_pairs)
        object.__setattr__(self, "_train", replace(
            self.experiment.train, max_epochs=self.max_epochs,
            patience=self.patience, seed=self.seed))
        object.__setattr__(self, "_opt", replace(
            self.experiment.opt, max_iters=self.opt_iters, seed=self.seed))


def benchmark_problem() -> tuple[FeatureSchema, CostModel, TargetSet]:
    """Schema, unit quadratic cost, and target for the synthetic task, as
    the bundled default config document declares them.

    The goal asks for 80% desirable-class probability, not a bare argmax
    flip, so distance-to-target rewards genuine movement past the decision
    boundary while margin-zero attack points still sit at a positive delta.
    """
    return _DEFAULT.schema, _DEFAULT.cost, _DEFAULT.target


@dataclass(frozen=True)
class SuccessRow:
    method: str
    delta_threshold: float
    epsilon_budget: float
    pre_rate: float
    post_rate: float


@dataclass(frozen=True)
class SuccessTable:
    rows: tuple[SuccessRow, ...]
    num_individuals: int

    def rate(self, method: str, delta_threshold: float,
             epsilon_budget: float, post: bool = False) -> float:
        for row in self.rows:
            if (row.method == method
                    and row.delta_threshold == delta_threshold
                    and row.epsilon_budget == epsilon_budget):
                return row.post_rate if post else row.pre_rate
        raise KeyError(
            f"no cell ({method}, {delta_threshold}, {epsilon_budget})")


def aggregate_success(records, methods, delta_thresholds, epsilon_budgets,
                      num_individuals: int) -> SuccessTable:
    """Fraction of individuals with any qualifying candidate, per cell."""
    by_method: dict[str, dict[int, list]] = {m: {} for m in methods}
    for rec in records:
        if rec.method in by_method:
            by_method[rec.method].setdefault(rec.individual_id, []).append(
                rec.candidate)
    rows = []
    for method in methods:
        for dt in delta_thresholds:
            for eb in epsilon_budgets:
                pre = post = 0
                for cands in by_method[method].values():
                    ok = [c for c in cands
                          if c.delta <= dt and c.epsilon <= eb]
                    if ok:
                        pre += 1
                    if any(c.verified for c in ok):
                        post += 1
                denom = max(num_individuals, 1)
                rows.append(SuccessRow(
                    method=method, delta_threshold=float(dt),
                    epsilon_budget=float(eb),
                    pre_rate=pre / denom, post_rate=post / denom,
                ))
    return SuccessTable(rows=tuple(rows), num_individuals=num_individuals)


@dataclass(frozen=True)
class ImprovementRow:
    method: str
    count: int
    mean_change: float


def true_improvement_report(records, spec: SyntheticSpec,
                            target: TargetSet) -> tuple[ImprovementRow, ...]:
    """Mean change in true desirable-class mass, grouped by method."""
    desirable = list(target.desirable)

    def mass(points) -> np.ndarray:
        rows = np.reshape(points, (len(records), spec.num_features))
        return true_posterior_batch(spec, rows)[:, desirable].sum(axis=1)

    moved = (mass([r.candidate.x_tilde for r in records])
             - mass([r.candidate.x for r in records]))
    changes: dict[str, list[float]] = {}
    for rec, change in zip(records, moved.tolist()):
        changes.setdefault(rec.method, []).append(change)
    return tuple(
        ImprovementRow(method=m, count=len(vals),
                       mean_change=float(np.mean(vals)))
        for m, vals in sorted(changes.items())
    )


@dataclass(frozen=True)
class BenchmarkResult:
    config: BenchmarkConfig
    table: SuccessTable
    records: tuple[CandidateRecord, ...]
    individual_ids: tuple[int, ...]
    gamma: float
    model_accuracy: float
    verifier_accuracy: float
    improvement: tuple[ImprovementRow, ...]
    failures: tuple[tuple[int, str, str], ...]
    model: object = field(repr=False)
    verifier: object = field(repr=False)
    calibration: object = field(repr=False)


def run_benchmark(cfg: BenchmarkConfig, out_dir=None) -> BenchmarkResult:
    """Train everything, run all configured methods, verify, aggregate."""
    exp = cfg.experiment
    spec, schema, cm, target = (exp.dataset.synthetic, exp.schema, exp.cost,
                                exp.target)
    div, penalty = exp.divergence(), exp.penalty
    x, y = sample_synthetic(spec, cfg.n_samples, cfg.seed)

    nets = {"hidden_dims": exp.hidden_dims, "dropout_rate": exp.dropout}
    model = train_classifier(x, y, cfg._train, num_classes=spec.num_classes,
                             **nets)
    val_idx = model.metadata["split_indices"]["val"]
    if len(val_idx):
        # uncalibrated confidence shows up as discrepancy on genuine pairs
        model = fit_temperature(model, x[val_idx], y[val_idx])
    train_idx = model.metadata["split_indices"]["train"]
    test_idx = model.metadata["split_indices"]["test"]
    pairs = build_pair_dataset(x[train_idx], y[train_idx],
                               max_pairs=cfg.verifier_pairs, seed=cfg.seed)
    verifier = train_verifier(pairs, replace(cfg._train, seed=cfg.seed + 1),
                              **nets)
    cal = calibrate_gamma(model, verifier, x[test_idx], y[test_idx],
                          rate=cfg.rejection_rate,
                          num_pairs=cfg.calibration_pairs, seed=cfg.seed,
                          source_split="test")

    probs = predict_proba_batch(model, x[test_idx])
    outside = [int(test_idx[i]) for i in range(len(test_idx))
               if not target.contains(probs[i])]
    individuals = outside[:cfg.max_individuals]

    origins = x[individuals]
    everyone = range(len(individuals))
    # each phase searches and verifies for all individuals in one batched
    # call each; records and failures land in their individual's log, so
    # the output keeps the order individual, then tap, wachter, cw
    log = {m: [[] for _ in individuals] for m in METHODS}

    def checked(method: str, owned: dict) -> dict:
        """Verify the candidates of every individual in one call and log
        them; returns individual -> verified candidates."""
        flat = iter(_verified(model, verifier, cal, [
            c for cands in owned.values() for c in cands]))
        done = {i: [next(flat) for _ in cands] for i, cands in owned.items()}
        for i, cands in done.items():
            log[method][i] += [CandidateRecord(individuals[i], method, c)
                               for c in cands]
        return done

    def succeeded(method: str, owners, results):
        """(i, result) per success; an exception is logged as a failure."""
        for i, result in zip(owners, results):
            if isinstance(result, Exception):
                log[method][i].append(str(result))
            else:
                yield i, result

    if "tap" in cfg.methods:
        sweeps = dict(succeeded("tap", everyone, frontier_sweep_batch(
            model, schema, cm, target, origins, cfg.lambdas, cfg._opt,
            div=div, penalty=penalty)))
        for i, sweep in sweeps.items():
            log["tap"][i].extend(f"lam={lam:g}: {message}"
                                 for lam, message in sweep.failures)
        rework: dict[int, TapCandidate] = {}
        for i, cands in checked("tap", {i: sweep.candidates for i, sweep
                                        in sweeps.items()}).items():
            reachers = [c for c in cands if c.delta <= 1e-9 and not c.is_noop]
            if (cfg.repair and reachers
                    and not any(c.verified for c in reachers)):
                # the sweep reached the target but nothing survived
                # verification: rework the closest miss
                rework[i] = min(reachers, key=lambda c: c.discrepancy)
        for i, outcome in succeeded("tap", rework, repair_on_rejection_batch(
                model, verifier, cal, schema, cm, target,
                list(rework.values()),
                [replace(cfg._opt, lam=c.lam) for c in rework.values()],
                attempts_per_strategy=3, div=div, penalty=penalty)):
            log["tap"][i].append(CandidateRecord(individuals[i], "tap",
                                                 outcome.candidate))
    if "wachter" in cfg.methods:
        checked("wachter", {i: result.trials for i, result in succeeded(
            "wachter", everyone, wachter_counterfactual_batch(
                model, schema, cm, target, origins, x[train_idx],
                div=div))})
    if "cw" in cfg.methods:
        flips = {}
        for i, result in succeeded("cw", everyone, cw_l2_batch(
                model, schema, cm, target, origins,
                attack_class=target.desirable[0], div=div)):
            if result.flipped:
                flips[i] = [result.candidate]
            else:
                log["cw"][i].append("no successful attack")
        checked("cw", flips)
    entries = [(ind_id, m, entry) for i, ind_id in enumerate(individuals)
               for m in METHODS for entry in log[m][i]]
    records = [entry for _, _, entry in entries if not isinstance(entry, str)]
    failures = [entry for entry in entries if isinstance(entry[2], str)]

    table = aggregate_success(records, cfg.methods, cfg.delta_thresholds,
                              cfg.epsilon_budgets, len(individuals))
    # tap/wachter rows cover verified movement; the cw row covers every
    # successful attack so the report shows what the flips actually did
    improve_pop = [r for r in records
                   if (r.method == "cw"
                       or (r.candidate.verified and not r.candidate.is_noop))]
    improvement = true_improvement_report(improve_pop, spec, target)

    result = BenchmarkResult(
        config=cfg, table=table, records=tuple(records),
        individual_ids=tuple(individuals), gamma=cal.gamma,
        model_accuracy=float(model.metadata["test_accuracy"]),
        verifier_accuracy=float(verifier.metadata["test_accuracy"]),
        improvement=improvement, failures=tuple(failures),
        model=model, verifier=verifier, calibration=cal,
    )
    if out_dir is not None:
        write_artifacts(result, out_dir)
    return result


# ---------------------------------------------------------------------------
# artifact emission


def write_success_csv(path, table: SuccessTable) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "delta_threshold", "epsilon_budget",
                         "pre_rate", "post_rate"])
        for row in table.rows:
            writer.writerow([row.method, _fmt(row.delta_threshold),
                             _fmt(row.epsilon_budget),
                             _fmt(row.pre_rate), _fmt(row.post_rate)])


def write_improvement_csv(path, rows) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "count", "mean_change"])
        for row in rows:
            writer.writerow([row.method, row.count, _fmt(row.mean_change)])


def emit_plots(result: BenchmarkResult, out_dir) -> list[str]:
    """Frontier scatter per individual plus one bar chart per threshold."""
    out_dir = Path(out_dir)
    written = []
    by_individual: dict[int, dict[str, list]] = {}
    for rec in result.records:
        series = by_individual.setdefault(rec.individual_id, {})
        c = rec.candidate
        if math.isfinite(c.epsilon) and math.isfinite(c.delta):
            series.setdefault(rec.method, []).append((c.epsilon, c.delta))
    for ind_id in sorted(by_individual):
        name = f"frontier_{ind_id}.svg"
        scatter_svg(out_dir / name, by_individual[ind_id],
                    title=f"individual {ind_id}: cost vs distance")
        written.append(name)

    budgets = list(result.config.epsilon_budgets)
    labels = ["inf" if math.isinf(b) else f"{b:g}" for b in budgets]
    for i, dt in enumerate(result.config.delta_thresholds):
        series = {}
        for method in result.config.methods:
            series[method] = [result.table.rate(method, dt, eb, post=True)
                              for eb in budgets]
        name = f"success_dt{i}.svg"
        grouped_bars_svg(out_dir / name, labels, series,
                         title=f"post-verification success, "
                               f"delta threshold {dt:g}")
        written.append(name)
    return written


def write_artifacts(result: BenchmarkResult, out_dir) -> list[str]:
    """All CSVs and SVGs for one run; returns the file names written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_success_csv(out_dir / "success_table.csv", result.table)
    write_frontier_csv(out_dir / "frontier.csv", result.records)
    write_improvement_csv(out_dir / "improvement.csv", result.improvement)
    written = ["success_table.csv", "frontier.csv", "improvement.csv"]
    written.extend(emit_plots(result, out_dir))
    return written
