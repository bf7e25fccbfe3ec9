"""Descent, budget search, sweeps, repair, and frontier serialization."""
import dataclasses
import math

import numpy as np
import pytest

from oracles import same_bits, spy_descents
from tapgen import perturb
from tapgen.actionability import CostModel, Feature, FeatureSchema, QuadraticTerm
from tapgen.netcore import predict_proba
from tapgen.perturb import (
    CandidateRecord,
    DivergedError,
    FRONTIER_COLUMNS,
    OptConfig,
    frontier_sweep,
    frontier_sweep_batch,
    generate_candidate,
    meet_budget,
    repair_on_rejection,
    trivial_candidate,
    write_frontier_csv,
)
from tapgen.probspace import TargetSet, kl_divergence, target_distance
from tapgen.verify import verify_pair

FAST = dict(max_iters=160, lr=0.05)


class TestOptConfig:
    def test_defaults(self):
        oc = OptConfig()
        assert oc.lr == 0.05 and oc.max_iters == 500
        assert oc.tol == 1e-6 and oc.snap_tol == 1e-6

    @pytest.mark.parametrize("kwargs", [
        dict(lam=-1.0), dict(lam=math.inf), dict(lr=0.0),
        dict(max_iters=0), dict(patience=0), dict(tol=-1e-9),
        dict(snap_tol=-1.0), dict(seed=-1), dict(lr=math.nan),
        dict(lr=math.inf), dict(tol=math.nan), dict(snap_tol=math.nan),
    ])
    def test_rejects_bad_values(self, kwargs):
        # the message names the setting
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            OptConfig(**kwargs)


class TestTrivialCandidate:
    def test_fields(self, bench_model, bench_schema, bench_cost, bench_target,
                    mild_point):
        c = trivial_candidate(bench_model, bench_schema, bench_cost,
                              bench_target, mild_point)
        assert c.is_noop and c.lam == math.inf
        assert c.epsilon == 0.0 and c.iterations == 0
        want = target_distance(predict_proba(bench_model, mild_point),
                               bench_target, kl_divergence())
        assert c.delta == pytest.approx(want, abs=1e-15)
        assert c.objective == c.delta


class TestGenerateCandidate:
    def test_huge_lam_is_exact_noop(self, bench_model, bench_schema,
                                    bench_cost, bench_target, mild_point,
                                    saturated_point):
        for pt in (mild_point, saturated_point):
            c = generate_candidate(bench_model, bench_schema, bench_cost,
                                   bench_target, pt, OptConfig(lam=1e6, **FAST))
            assert np.array_equal(c.x_tilde, pt)
            assert c.epsilon == 0.0

    def test_small_lam_reaches_target(self, bench_model, bench_schema,
                                      bench_cost, bench_target, mild_point):
        c = generate_candidate(bench_model, bench_schema, bench_cost,
                               bench_target, mild_point,
                               OptConfig(lam=0.01, **FAST))
        assert c.delta < 0.01
        assert c.epsilon > 0.0

    def test_saturated_point_crosses_at_small_lam(self, bench_model,
                                                  bench_schema, bench_cost,
                                                  bench_target,
                                                  saturated_point):
        c = generate_candidate(bench_model, bench_schema, bench_cost,
                               bench_target, saturated_point,
                               OptConfig(lam=0.01, max_iters=500))
        assert c.delta < 0.05
        assert c.epsilon > 1.0   # far point, real move needed

    def test_tradeoff_monotone_in_lam(self, bench_model, bench_schema,
                                      bench_cost, bench_target, mild_point):
        lams = (0.01, 0.1, 1.0, 10.0)
        cands = [generate_candidate(bench_model, bench_schema, bench_cost,
                                    bench_target, mild_point,
                                    OptConfig(lam=lam, **FAST))
                 for lam in lams]
        eps = [c.epsilon for c in cands]
        dl = [c.delta for c in cands]
        assert all(a >= b - 1e-9 for a, b in zip(eps, eps[1:]))
        assert all(a <= b + 1e-9 for a, b in zip(dl, dl[1:]))

    def test_objective_recomputed_consistently(self, bench_model, bench_schema,
                                               bench_cost, bench_target,
                                               mild_point):
        c = generate_candidate(bench_model, bench_schema, bench_cost,
                               bench_target, mild_point,
                               OptConfig(lam=0.5, **FAST))
        want = c.delta if c.epsilon == 0.0 else c.delta + 0.5 * c.epsilon
        assert c.objective == pytest.approx(want, rel=1e-12)
        want_eps = sum((a - b) ** 2 for a, b in zip(c.x_tilde, c.x))
        assert c.epsilon == pytest.approx(want_eps, rel=1e-12)

    def test_never_worse_than_staying(self, bench_model, bench_schema,
                                      bench_cost, bench_target, mild_point,
                                      saturated_point):
        for pt in (mild_point, saturated_point):
            base = trivial_candidate(bench_model, bench_schema, bench_cost,
                                     bench_target, pt)
            for lam in (0.01, 1.0, 100.0):
                c = generate_candidate(bench_model, bench_schema, bench_cost,
                                       bench_target, pt,
                                       OptConfig(lam=lam, **FAST))
                assert c.objective <= base.objective + 1e-4

    def test_deterministic(self, bench_model, bench_schema, bench_cost,
                           bench_target, mild_point):
        a = generate_candidate(bench_model, bench_schema, bench_cost,
                               bench_target, mild_point, OptConfig(lam=0.3, **FAST))
        b = generate_candidate(bench_model, bench_schema, bench_cost,
                               bench_target, mild_point, OptConfig(lam=0.3, **FAST))
        assert np.array_equal(a.x_tilde, b.x_tilde)
        assert a.objective == b.objective

    def test_output_in_box_and_coherent(self, bench_model, bench_target,
                                        mild_point):
        # tight box plus integer coordinate forces real rounding work
        feats = (
            Feature(name="x0", kind="integer", lower=-4, upper=4),
            Feature(name="x1", kind="numeric", lower=-1.0, upper=1.0),
            Feature(name="x2", kind="numeric", lower=-8.0, upper=8.0),
            Feature(name="x3", kind="numeric", lower=-8.0, upper=8.0),
        )
        schema = FeatureSchema(features=feats)
        cm = CostModel(quadratic=tuple(QuadraticTerm(f"x{i}", 1.0)
                                       for i in range(4)))
        x = np.array([-2.0, -0.5, 0.3, 0.9])
        c = generate_candidate(bench_model, schema, cm, bench_target, x,
                               OptConfig(lam=0.1, **FAST))
        assert schema.is_coherent(c.x_tilde)
        lo, hi = schema.box_for(x)
        assert np.all(c.x_tilde >= lo) and np.all(c.x_tilde <= hi)

    def test_immutable_features_pinned(self, bench_model, bench_cost,
                                       bench_target, mild_point):
        feats = tuple(
            Feature(name=f"x{i}", kind="numeric", lower=-8.0, upper=8.0,
                    mutable=(i != 1))
            for i in range(4)
        )
        schema = FeatureSchema(features=feats)
        c = generate_candidate(bench_model, schema, bench_cost, bench_target,
                               mild_point, OptConfig(lam=0.01, **FAST))
        assert c.x_tilde[1] == mild_point[1]
        assert not np.array_equal(c.x_tilde, mild_point)

    def test_start_override(self, bench_model, bench_schema, bench_cost,
                            bench_target, mild_point):
        start = mild_point + np.array([0.2, -0.1, 0.05, 0.0])
        c = generate_candidate(bench_model, bench_schema, bench_cost,
                               bench_target, mild_point,
                               OptConfig(lam=0.1, **FAST), x_start=start)
        assert np.array_equal(c.x, mild_point)
        assert bench_schema.is_coherent(c.x_tilde)

    def test_rejects_incoherent_origin(self, bench_model, bench_cost,
                                       bench_target):
        feats = (
            Feature(name="x0", kind="integer", lower=-4, upper=4),
            Feature(name="x1", kind="numeric", lower=-8.0, upper=8.0),
            Feature(name="x2", kind="numeric", lower=-8.0, upper=8.0),
            Feature(name="x3", kind="numeric", lower=-8.0, upper=8.0),
        )
        schema = FeatureSchema(features=feats)
        with pytest.raises(ValueError, match="coherent"):
            generate_candidate(bench_model, schema, bench_cost, bench_target,
                               np.array([0.5, 0.0, 0.0, 0.0]), OptConfig())

    def test_rejects_out_of_bounds_origin(self, bench_model, bench_cost,
                                          bench_target):
        feats = tuple(Feature(name=f"x{i}", kind="numeric", lower=-1.0,
                              upper=1.0) for i in range(4))
        schema = FeatureSchema(features=feats)
        with pytest.raises(ValueError, match="bounds"):
            generate_candidate(bench_model, schema, bench_cost, bench_target,
                               np.array([3.0, 0.0, 0.0, 0.0]), OptConfig())

    def test_rejects_immutable_origin_outside_bounds(self, bench_model,
                                                     bench_cost, bench_target):
        # the box pins an immutable feature to the origin's own value, but
        # the origin must still lie inside the feature's bounds
        feats = tuple(Feature(name=f"x{i}", kind="numeric", lower=-1.0,
                              upper=1.0, mutable=i > 0) for i in range(4))
        schema = FeatureSchema(features=feats)
        with pytest.raises(ValueError, match="bounds"):
            generate_candidate(bench_model, schema, bench_cost, bench_target,
                               np.array([3.0, 0.0, 0.0, 0.0]), OptConfig())

    def test_rejects_dimension_mismatch(self, bench_model, bench_cost,
                                        bench_target):
        feats = (Feature(name="a", kind="numeric", lower=-1, upper=1),
                 Feature(name="b", kind="numeric", lower=-1, upper=1))
        schema = FeatureSchema(features=feats)
        with pytest.raises(ValueError, match="features"):
            generate_candidate(bench_model, schema, CostModel(), bench_target,
                               np.zeros(2), OptConfig())

    def test_rejects_class_mismatch(self, bench_model, bench_schema,
                                    bench_cost, mild_point):
        target = TargetSet(3, (1,), (0,), 0.5, 0.3)
        with pytest.raises(ValueError, match="classes"):
            generate_candidate(bench_model, bench_schema, bench_cost, target,
                               mild_point, OptConfig())

    def test_diverged_error_carries_trace(self, bench_model, bench_schema,
                                          bench_cost, mild_point):
        # p = 1 makes the distance infinite off the boundary
        hard = TargetSet(2, (1,), (), 1.0, 1.0)
        with pytest.raises(DivergedError) as info:
            generate_candidate(bench_model, bench_schema, bench_cost, hard,
                               mild_point, OptConfig(lam=0.1, **FAST))
        assert len(info.value.trace) >= 1


class TestMeetBudget:
    def test_delta_budget_met(self, bench_model, bench_schema, bench_cost,
                              bench_target, mild_point):
        out = meet_budget(bench_model, bench_schema, bench_cost, bench_target,
                          mild_point, OptConfig(lam=1.0, **FAST),
                          delta_max=0.1)
        assert out.met and out.budget == "delta"
        assert out.candidate.delta <= 0.1

    def test_delta_budget_trivial_first(self, bench_data, bench_model,
                                        bench_schema, bench_cost,
                                        bench_target):
        from tapgen.netcore import predict_proba_batch
        _, x, _ = bench_data
        inside = x[predict_proba_batch(bench_model, x)[:, 1] > 0.9][0]
        out = meet_budget(bench_model, bench_schema, bench_cost, bench_target,
                          inside, OptConfig(lam=1.0, **FAST), delta_max=0.1)
        assert out.met and len(out.trials) == 1
        assert out.candidate.is_noop

    def test_delta_budget_unmet_when_frozen(self, bench_model, bench_cost,
                                            bench_target, mild_point):
        feats = tuple(Feature(name=f"x{i}", kind="numeric", lower=-8.0,
                              upper=8.0, mutable=False) for i in range(4))
        frozen = FeatureSchema(features=feats)
        out = meet_budget(bench_model, frozen, bench_cost, bench_target,
                          mild_point, OptConfig(lam=1.0, max_iters=40),
                          delta_max=1e-6, trials=4)
        assert not out.met
        assert len(out.trials) == 4
        assert out.candidate.is_noop

    def test_epsilon_budget_always_met(self, bench_model, bench_schema,
                                       bench_cost, bench_target, mild_point):
        out = meet_budget(bench_model, bench_schema, bench_cost, bench_target,
                          mild_point, OptConfig(lam=0.05, **FAST),
                          epsilon_max=1e-12, trials=3)
        assert out.met and out.candidate.epsilon <= 1e-12

    def test_epsilon_budget_prefers_real_move(self, bench_model, bench_schema,
                                              bench_cost, bench_target,
                                              mild_point):
        out = meet_budget(bench_model, bench_schema, bench_cost, bench_target,
                          mild_point, OptConfig(lam=0.05, **FAST),
                          epsilon_max=1.0)
        assert out.met
        assert not out.candidate.is_noop
        assert out.candidate.epsilon <= 1.0
        assert out.candidate.delta < 0.01

    def test_requires_exactly_one_budget(self, bench_model, bench_schema,
                                         bench_cost, bench_target, mild_point):
        with pytest.raises(ValueError):
            meet_budget(bench_model, bench_schema, bench_cost, bench_target,
                        mild_point, OptConfig())
        with pytest.raises(ValueError):
            meet_budget(bench_model, bench_schema, bench_cost, bench_target,
                        mild_point, OptConfig(), epsilon_max=1.0,
                        delta_max=0.1)
        # a NaN budget fails every comparison, so it is refused by name
        for budget in ({"delta_max": -0.5}, {"delta_max": math.nan},
                       {"epsilon_max": -1.0}, {"epsilon_max": math.nan}):
            with pytest.raises(ValueError, match=next(iter(budget))):
                meet_budget(bench_model, bench_schema, bench_cost,
                            bench_target, mild_point, OptConfig(), **budget)
        # an infinite distance ceiling is met by staying put
        out = meet_budget(bench_model, bench_schema, bench_cost, bench_target,
                          mild_point, OptConfig(), delta_max=math.inf)
        assert out.met and out.candidate.is_noop

    @pytest.mark.parametrize("factor", [1.0, 0.5, -2.0, math.nan, math.inf])
    def test_factor_must_be_finite_and_above_one(self, bench_model,
                                                 bench_schema, bench_cost,
                                                 bench_target, mild_point,
                                                 factor):
        with pytest.raises(ValueError, match="factor"):
            meet_budget(bench_model, bench_schema, bench_cost, bench_target,
                        mild_point, OptConfig(**FAST), delta_max=1e-6,
                        factor=factor)

    def test_walk_shares_its_muted_steps_exactly(self, bench_model,
                                                 bench_schema, bench_cost,
                                                 bench_target, mild_point,
                                                 monkeypatch):
        log = spy_descents(monkeypatch, perturb)
        out = meet_budget(bench_model, bench_schema, bench_cost, bench_target,
                          mild_point, OptConfig(lam=1.0, **FAST),
                          delta_max=1e-6, trials=4)
        assert len(out.trials) == 4
        [call] = log
        assert call["keys"] == 1
        assert same_bits(call["shared"], call["alone"])


class TestFrontierSweep:
    def test_sorted_with_noop(self, bench_model, bench_schema, bench_cost,
                              bench_target, mild_point):
        sweep = frontier_sweep(bench_model, bench_schema, bench_cost,
                               bench_target, mild_point,
                               np.logspace(-2, 2, 6), OptConfig(**FAST))
        assert len(sweep.candidates) == 7
        assert not sweep.failures
        eps = [c.epsilon for c in sweep.candidates]
        assert eps == sorted(eps)
        assert any(c.is_noop for c in sweep.candidates)

    def test_cheapest_below_threshold(self, bench_model, bench_schema,
                                      bench_cost, bench_target, mild_point):
        sweep = frontier_sweep(bench_model, bench_schema, bench_cost,
                               bench_target, mild_point,
                               np.logspace(-2, 2, 6), OptConfig(**FAST))
        pick = sweep.cheapest_with_delta_below(0.01)
        assert pick is not None and pick.delta <= 0.01
        others = [c for c in sweep.candidates if c.delta <= 0.01]
        assert pick.epsilon == min(c.epsilon for c in others)
        assert sweep.cheapest_with_delta_below(-1.0) is None

    def test_divergent_lams_logged(self, bench_model, bench_schema,
                                   bench_cost, mild_point):
        hard = TargetSet(2, (1,), (), 1.0, 1.0)
        sweep = frontier_sweep(bench_model, bench_schema, bench_cost, hard,
                               mild_point, [0.1, 1.0], OptConfig(max_iters=30))
        assert len(sweep.failures) == 2
        assert [lam for lam, _ in sweep.failures] == [0.1, 1.0]
        assert len(sweep.candidates) == 1   # the noop survives

    @pytest.mark.parametrize("lam", [-1.0, -1e-300, math.inf,
                                     -math.inf, math.nan])
    def test_rejects_bad_lambda(self, bench_model, bench_schema, bench_cost,
                                bench_target, mild_point, lam):
        for sweep in (frontier_sweep, frontier_sweep_batch):
            x = mild_point if sweep is frontier_sweep else mild_point[None, :]
            with pytest.raises(ValueError, match="lambdas"):
                sweep(bench_model, bench_schema, bench_cost, bench_target, x,
                      [0.5, lam], OptConfig(**FAST))


class TestSharedWarmup:
    """Rows whose keys match share their muted steps, bit for bit what each
    row does alone (``oracles.spy_descents`` reruns every descent with
    all-distinct keys)."""

    def test_frontier_matches_rows_alone(self, bench_data, bench_model,
                                         bench_schema, bench_cost,
                                         bench_target, mild_point,
                                         monkeypatch):
        _, x, _ = bench_data
        xs = np.vstack([mild_point, x[:2]])
        log = spy_descents(monkeypatch, perturb)
        frontier_sweep_batch(bench_model, bench_schema, bench_cost,
                             bench_target, xs, [0.0, *np.logspace(-2, 2, 5)],
                             OptConfig(**FAST))
        [call] = log
        assert call["keys"] == 3
        assert same_bits(call["shared"], call["alone"])

    def test_one_row_per_key_while_muted(self, bench_data, bench_model,
                                         bench_schema, bench_cost,
                                         bench_target, mild_point,
                                         monkeypatch):
        _, x, _ = bench_data
        log = spy_descents(monkeypatch, perturb)
        frontier_sweep_batch(bench_model, bench_schema, bench_cost,
                             bench_target, np.vstack([mild_point, x[:1]]),
                             np.logspace(-2, 2, 5), OptConfig(**FAST))
        [call] = log
        muted = [rows for rows, cost_on in call["calls"] if not cost_on]
        loud = [rows for rows, cost_on in call["calls"] if cost_on]
        assert len(muted) == call["warmup"] == FAST["max_iters"] // 2
        assert muted[0] == 2 and max(muted) == 2
        assert loud[0] == 10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_muted_divergence_of_one_member(self, bench_model, bench_schema,
                                            bench_cost, bench_target,
                                            mild_point, monkeypatch):
        # lam * price overflows once the shared point has moved, so the
        # huge-lam row stops in the muted phase, quietly, and its group
        # mates go on
        log = spy_descents(monkeypatch, perturb)
        sweep = frontier_sweep(bench_model, bench_schema, bench_cost,
                               bench_target, mild_point, [0.1, 1.0, 1e308],
                               OptConfig(**FAST))
        [call] = log
        assert same_bits(call["shared"], call["alone"])
        diverged = call["shared"][2]
        assert diverged[0] == diverged[1] == -1
        assert 1 <= diverged[2] <= call["warmup"]
        assert [lam for lam, _ in sweep.failures] == [1e308]
        assert len(sweep.candidates) == 3


class TestRepair:
    @pytest.fixture()
    def rejected(self, bench_model, bench_schema, bench_cost, bench_target,
                 bench_verifier, bench_calibration, mild_point):
        cand = generate_candidate(bench_model, bench_schema, bench_cost,
                                  bench_target, mild_point,
                                  OptConfig(lam=1.0, **FAST))
        verdict = verify_pair(bench_model, bench_verifier, bench_calibration,
                              mild_point, cand.x_tilde)
        return cand.with_verdict(verdict)

    def test_first_accept_wins(self, bench_model, bench_schema, bench_cost,
                               bench_target, bench_verifier,
                               bench_calibration, rejected):
        out = repair_on_rejection(bench_model, bench_verifier,
                                  bench_calibration, bench_schema, bench_cost,
                                  bench_target, rejected,
                                  OptConfig(lam=1.0, **FAST))
        if out.verified:
            assert out.candidate.verified
            assert out.strategy in ("decrease_lambda", "shrink_target",
                                    "random_restart")
            assert out.attempts[-1].candidate is out.candidate
        else:
            assert len(out.attempts) == 6

    def test_impossible_gamma_returns_best_failure(self, bench_model,
                                                   bench_schema, bench_cost,
                                                   bench_target,
                                                   bench_verifier,
                                                   bench_calibration,
                                                   rejected):
        never = dataclasses.replace(bench_calibration, gamma=0.0)
        out = repair_on_rejection(bench_model, bench_verifier, never,
                                  bench_schema, bench_cost, bench_target,
                                  rejected, OptConfig(lam=1.0, **FAST))
        assert not out.verified
        assert len(out.attempts) == 6
        pool = [a.candidate.discrepancy for a in out.attempts
                if a.candidate is not None]
        pool.append(rejected.discrepancy)
        assert out.candidate.discrepancy == min(pool)

    def test_shrunk_target_reports_original_delta(self, bench_model,
                                                  bench_schema, bench_cost,
                                                  bench_target,
                                                  bench_verifier,
                                                  bench_calibration,
                                                  rejected):
        never = dataclasses.replace(bench_calibration, gamma=0.0)
        out = repair_on_rejection(bench_model, bench_verifier, never,
                                  bench_schema, bench_cost, bench_target,
                                  rejected, OptConfig(lam=1.0, **FAST),
                                  strategies=("shrink_target",))
        for att in out.attempts:
            assert att.strategy == "shrink_target"
            c = att.candidate
            want = target_distance(predict_proba(bench_model, c.x_tilde),
                                   bench_target, kl_divergence())
            assert c.delta == pytest.approx(want, abs=1e-15)

    def test_random_restart_deterministic(self, bench_model, bench_schema,
                                          bench_cost, bench_target,
                                          bench_verifier, bench_calibration,
                                          rejected):
        never = dataclasses.replace(bench_calibration, gamma=0.0)
        runs = [
            repair_on_rejection(bench_model, bench_verifier, never,
                                bench_schema, bench_cost, bench_target,
                                rejected, OptConfig(lam=1.0, seed=5, **FAST),
                                strategies=("random_restart",))
            for _ in range(2)
        ]
        for a1, a2 in zip(runs[0].attempts, runs[1].attempts):
            assert np.array_equal(a1.candidate.x_tilde, a2.candidate.x_tilde)

    def test_strategies_share_muted_steps_exactly(self, bench_model,
                                                  bench_schema, bench_cost,
                                                  bench_target,
                                                  bench_verifier,
                                                  bench_calibration,
                                                  rejected, monkeypatch):
        log = spy_descents(monkeypatch, perturb)
        never = dataclasses.replace(bench_calibration, gamma=0.0)
        out = repair_on_rejection(bench_model, bench_verifier, never,
                                  bench_schema, bench_cost, bench_target,
                                  rejected, OptConfig(lam=1.0, **FAST))
        assert len(out.attempts) == 6
        [call] = log
        # the two decrease_lambda rows share a key; the shrunk targets and
        # the jittered starts each have their own
        assert call["keys"] == 5
        assert same_bits(call["shared"], call["alone"])

    def test_unknown_strategy(self, bench_model, bench_schema, bench_cost,
                              bench_target, bench_verifier, bench_calibration,
                              rejected):
        with pytest.raises(ValueError, match="strategy"):
            repair_on_rejection(bench_model, bench_verifier,
                                bench_calibration, bench_schema, bench_cost,
                                bench_target, rejected, OptConfig(),
                                strategies=("give_up",))


class TestFrontierCsv:
    def test_round_trip(self, bench_model, bench_schema, bench_cost,
                        bench_target, mild_point, tmp_path):
        cand = generate_candidate(bench_model, bench_schema, bench_cost,
                                  bench_target, mild_point,
                                  OptConfig(lam=0.25, **FAST))
        cand = dataclasses.replace(cand, verified=True, discrepancy=0.0125)
        noop = trivial_candidate(bench_model, bench_schema, bench_cost,
                                 bench_target, mild_point)
        path = tmp_path / "frontier.csv"
        write_frontier_csv(path, [
            CandidateRecord(0, "tap", cand),
            CandidateRecord(0, "tap", noop),
        ])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(FRONTIER_COLUMNS)
        row = lines[1].split(",")
        assert row[0] == "0" and row[1] == "tap"
        assert float(row[2]) == 0.25
        assert float(row[3]) == cand.epsilon       # repr round-trips
        assert float(row[4]) == cand.delta
        assert float(row[5]) == 0.0125
        assert row[6] == "true"
        assert int(row[7]) == cand.iterations
        noop_row = lines[2].split(",")
        assert noop_row[2] == "inf" and float(noop_row[2]) == math.inf
        assert noop_row[5] == "" and noop_row[6] == ""
