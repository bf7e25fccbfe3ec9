"""Benchmark aggregation, truth-based reporting, and artifact emission."""
import csv
import math

import numpy as np
import pytest

from tapgen.actionability import CostModel, Feature, FeatureSchema, QuadraticTerm
from tapgen.bench import (
    BenchmarkConfig,
    aggregate_success,
    benchmark_problem,
    run_benchmark,
    true_improvement_report,
    write_artifacts,
    write_improvement_csv,
    write_success_csv,
    emit_plots,
)
from tapgen.config import default_synthetic_config, parse_config
from tapgen.netcore import predict_proba_batch
from tapgen.perturb import FRONTIER_COLUMNS, CandidateRecord, TapCandidate
from tapgen.probspace import TargetSet
from tapgen.synthetic import canonical_benchmark_spec

INF = math.inf


def stub(ind, method, eps, delta, verified=None, x=None, x_tilde=None):
    x = np.zeros(4) if x is None else np.asarray(x, float)
    x_tilde = x if x_tilde is None else np.asarray(x_tilde, float)
    cand = TapCandidate(x=x, x_tilde=x_tilde, lam=1.0, epsilon=float(eps),
                        delta=float(delta), objective=0.0, iterations=1,
                        verified=verified)
    return CandidateRecord(ind, method, cand)


class TestAggregateSuccess:
    def records(self):
        return [
            stub(0, "tap", eps=1.0, delta=0.0, verified=True),
            stub(1, "tap", eps=5.0, delta=0.2, verified=False),
        ]

    def test_hand_counted_cells(self):
        table = aggregate_success(self.records(), ("tap",), (0.0, 0.5),
                                  (2.0, INF), num_individuals=2)
        assert table.rate("tap", 0.0, 2.0) == 0.5
        assert table.rate("tap", 0.0, 2.0, post=True) == 0.5
        assert table.rate("tap", 0.5, 2.0) == 0.5
        assert table.rate("tap", 0.5, INF) == 1.0
        assert table.rate("tap", 0.5, INF, post=True) == 0.5

    def test_post_never_exceeds_pre(self):
        table = aggregate_success(self.records(), ("tap",), (0.0, 0.1, 0.5),
                                  (1.0, 2.0, INF), num_individuals=2)
        for row in table.rows:
            assert 0.0 <= row.post_rate <= row.pre_rate <= 1.0

    def test_order_invariant(self):
        recs = self.records()
        forward = aggregate_success(recs, ("tap",), (0.0, 0.5), (2.0, INF), 2)
        backward = aggregate_success(list(reversed(recs)), ("tap",),
                                     (0.0, 0.5), (2.0, INF), 2)
        assert forward == backward

    def test_empty_records_give_zero_rates(self):
        table = aggregate_success([], ("tap", "cw"), (0.5,), (INF,), 0)
        for row in table.rows:
            assert row.pre_rate == 0.0 and row.post_rate == 0.0

    def test_unknown_method_records_ignored(self):
        recs = self.records() + [stub(0, "mystery", 0.0, 0.0)]
        table = aggregate_success(recs, ("tap",), (0.5,), (INF,), 2)
        assert table.rate("tap", 0.5, INF) == 1.0

    def test_missing_cell_raises(self):
        table = aggregate_success([], ("tap",), (0.5,), (INF,), 1)
        with pytest.raises(KeyError):
            table.rate("tap", 0.25, INF)


class TestBenchmarkProblem:
    def test_is_the_default_documents_problem(self):
        cfg = parse_config(default_synthetic_config())
        schema, cm, target = benchmark_problem()
        assert (schema, cm, target) == (cfg.schema, cfg.cost, cfg.target)
        # four unit-cost numeric axes on [-8, 8]; 80% class-1 mass wanted
        feats = tuple(Feature(name=f"x{i}", kind="numeric", lower=-8.0,
                              upper=8.0) for i in range(4))
        assert schema == FeatureSchema(features=feats,
                                       class_labels=("class0", "class1"))
        assert cm == CostModel(quadratic=tuple(QuadraticTerm(f"x{i}", 1.0)
                                               for i in range(4)))
        assert target == TargetSet(2, (1,), (0,), 0.8, 0.2)


class TestTrueImprovement:
    def test_zero_perturbation_is_zero(self):
        spec = canonical_benchmark_spec()
        _, _, target = benchmark_problem()
        x = np.array([0.3, -0.7, 1.0, 0.2])
        rows = true_improvement_report([stub(0, "tap", 0.0, 0.1, x=x)],
                                       spec, target)
        assert len(rows) == 1
        assert rows[0].mean_change == 0.0
        assert rows[0].count == 1

    def test_signed_movement(self):
        spec = canonical_benchmark_spec()
        _, _, target = benchmark_problem()
        x = np.array([-1.5, -1.5, 0.0, 0.0])
        toward = np.array([1.5, 1.5, 0.0, 0.0])
        rows = true_improvement_report(
            [stub(0, "tap", 1.0, 0.0, x=x, x_tilde=toward),
             stub(1, "cw", 1.0, 0.0, x=toward, x_tilde=x)],
            spec, target)
        by_method = {r.method: r.mean_change for r in rows}
        assert by_method["tap"] > 0.5
        assert by_method["cw"] < -0.5


class TestBenchmarkConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown methods"):
            BenchmarkConfig(methods=("tap", "dice"))
        with pytest.raises(ValueError, match="no methods"):
            BenchmarkConfig(methods=())

    def test_rejects_bad_sizes_and_rate(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(n_samples=4)
        with pytest.raises(ValueError):
            BenchmarkConfig(rejection_rate=1.5)
        with pytest.raises(ValueError, match="non-negative"):
            BenchmarkConfig(seed=-1)
        for empty in ("delta_thresholds", "epsilon_budgets"):
            with pytest.raises(ValueError, match="non-empty"):
                BenchmarkConfig(**{empty: ()})
        # refused when constructed, before anything is trained
        for bad in ({"verifier_pairs": 0}, {"calibration_pairs": -3},
                    {"max_epochs": 0}, {"opt_iters": 0}, {"lambdas": (-1.0,)}):
            with pytest.raises(ValueError):
                BenchmarkConfig(**bad)

    def test_settings_come_from_the_experiment(self):
        doc = default_synthetic_config()
        doc["seed"] = 5
        doc["dataset"]["n_samples"] = 500
        doc["model"]["train"].update(max_epochs=12, patience=4)
        doc["opt"]["max_iters"] = 150
        doc["sweep"]["lambdas"] = [0.0, 0.02, 1.0]
        doc["verification"].update(rate=0.2, verifier_pairs=1500,
                                   calibration_pairs=400)
        doc["bench"] = {"delta_thresholds": [0.5],
                        "epsilon_budgets": [2.0, "inf"],
                        "max_individuals": 3}
        cfg = parse_config(doc)
        settings = dict(
            seed=5, n_samples=500, max_individuals=3,
            lambdas=(0.0, 0.02, 1.0), delta_thresholds=(0.5,),
            epsilon_budgets=(2.0, INF), rejection_rate=0.2,
            verifier_pairs=1500, calibration_pairs=400, max_epochs=12,
            patience=4, opt_iters=150)
        bundled, bcfg = BenchmarkConfig(), BenchmarkConfig(experiment=cfg)
        assert bcfg.experiment is cfg
        for name, value in settings.items():
            assert getattr(bcfg, name) == value, name
            assert getattr(bundled, name) != value, name
        # a keyword overrides the experiment, and only its own setting
        tuned = BenchmarkConfig(experiment=cfg, seed=9, lambdas=(0.0,))
        assert (tuned.seed, tuned.lambdas) == (9, (0.0,))
        assert tuned.n_samples == 500 and tuned.opt_iters == 150
        # the bundled document's seed is 0
        assert BenchmarkConfig(seed=11).seed == 11
        assert BenchmarkConfig().seed == 0

    def test_problem_definition(self):
        schema, cm, target = benchmark_problem()
        assert len(schema.features) == 4
        assert all(f.kind == "numeric" for f in schema.features)
        assert target.desirable == (1,) and target.p == 0.8


class TestSeededRun:
    def test_individuals_start_outside_target(self, bench_result_seed0):
        result = bench_result_seed0
        _, _, target = benchmark_problem()
        assert 0 < len(result.individual_ids) <= result.config.max_individuals
        spec = canonical_benchmark_spec()
        from tapgen.synthetic import sample_synthetic
        x, _ = sample_synthetic(spec, result.config.n_samples,
                                result.config.seed)
        probs = predict_proba_batch(result.model,
                                    x[list(result.individual_ids)])
        assert not any(target.contains(p) for p in probs)

    def test_quality_floor(self, bench_result_seed0):
        result = bench_result_seed0
        assert result.model_accuracy >= 0.90
        assert result.verifier_accuracy >= 0.85
        assert 0.0 < result.gamma < 1.0

    def test_post_never_exceeds_pre_on_real_data(self, bench_result_seed0):
        for row in bench_result_seed0.table.rows:
            assert 0.0 <= row.post_rate <= row.pre_rate <= 1.0

    def test_unbounded_budgets_make_tap_trivially_reachable(
            self, bench_result_seed0):
        result = bench_result_seed0
        table = aggregate_success(result.records, ("tap",), (INF,), (INF,),
                                  len(result.individual_ids))
        assert table.rate("tap", INF, INF) == 1.0

    def test_verified_tap_improves_truth(self, bench_result_seed0):
        rows = {r.method: r for r in bench_result_seed0.improvement}
        assert rows["tap"].count > 0
        assert rows["tap"].mean_change > 0.0

    def test_regression_baselines_delta_half(self, bench_result_seed0):
        # frozen from this seeded configuration; a drift here means the
        # pipeline changed, not that these numbers are targets in themselves
        table = bench_result_seed0.table
        assert table.rate("tap", 0.5, INF, post=True) == pytest.approx(0.800)
        assert table.rate("wachter", 0.5, INF, post=True) == pytest.approx(0.350)
        assert table.rate("cw", 0.5, INF, post=True) == pytest.approx(0.250)
        # the ordering is the durable claim: verified movement is dominated
        # by the method that optimizes for it
        assert (table.rate("tap", 0.5, INF, post=True)
                > table.rate("cw", 0.5, INF, post=True))

    def test_cheap_tap_beats_its_own_expensive_tail(self, bench_result_seed0):
        # pre-verification success can only grow with the budget
        table = bench_result_seed0.table
        rates = [table.rate("tap", 0.5, eb)
                 for eb in bench_result_seed0.config.epsilon_budgets]
        assert rates == sorted(rates)


class TestArtifacts:
    def test_write_artifacts_emits_everything(self, bench_result_seed0,
                                              tmp_path):
        written = write_artifacts(bench_result_seed0, tmp_path)
        assert "success_table.csv" in written
        assert "frontier.csv" in written
        assert "improvement.csv" in written
        assert any(name.endswith(".svg") for name in written)
        for name in written:
            assert (tmp_path / name).exists()

    def test_success_csv_round_trips(self, bench_result_seed0, tmp_path):
        path = tmp_path / "success.csv"
        write_success_csv(path, bench_result_seed0.table)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(bench_result_seed0.table.rows)
        for parsed, row in zip(rows, bench_result_seed0.table.rows):
            assert parsed["method"] == row.method
            assert float(parsed["pre_rate"]) == row.pre_rate
            assert float(parsed["post_rate"]) == row.post_rate

    def test_improvement_csv_layout(self, bench_result_seed0, tmp_path):
        path = tmp_path / "improvement.csv"
        write_improvement_csv(path, bench_result_seed0.improvement)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["method"] for r in rows} == {
            r.method for r in bench_result_seed0.improvement}

    def test_frontier_csv_has_method_column(self, bench_result_seed0,
                                            tmp_path):
        write_artifacts(bench_result_seed0, tmp_path)
        with (tmp_path / "frontier.csv").open() as fh:
            reader = csv.reader(fh)
            header = next(reader)
            methods = {row[1] for row in reader}
        assert tuple(header) == FRONTIER_COLUMNS
        assert methods <= {"tap", "wachter", "cw"}
        assert "tap" in methods and "cw" in methods

    def test_plots_deterministic(self, bench_result_seed0, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        wrote_a = emit_plots(bench_result_seed0, a)
        wrote_b = emit_plots(bench_result_seed0, b)
        assert wrote_a == wrote_b
        for name in wrote_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_one_bar_chart_per_threshold(self, bench_result_seed0, tmp_path):
        written = emit_plots(bench_result_seed0, tmp_path)
        charts = [n for n in written if n.startswith("success_")]
        assert len(charts) == len(bench_result_seed0.config.delta_thresholds)


class TestSmallRun:
    def test_tiny_benchmark_completes(self):
        cfg = BenchmarkConfig(seed=7, n_samples=400, max_individuals=2,
                              lambdas=(0.0, 0.05), max_epochs=8, patience=3,
                              opt_iters=120, verifier_pairs=1500,
                              calibration_pairs=400, repair=False)
        result = run_benchmark(cfg)
        assert len(result.individual_ids) <= 2
        assert result.table.rows
        for row in result.table.rows:
            assert row.post_rate <= row.pre_rate
