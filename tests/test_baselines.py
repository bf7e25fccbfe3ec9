"""Counterfactual baseline and l2 attack behavior."""
import numpy as np
import pytest

from oracles import same_bits, spy_descents
from tapgen import baselines
from tapgen.actionability import (
    CostModel,
    Feature,
    FeatureSchema,
    QuadraticTerm,
    cost,
)
from tapgen.baselines import (
    cw_l2,
    cw_l2_batch,
    mad_weights,
    wachter_counterfactual,
    wachter_counterfactual_batch,
)
from tapgen.netcore import (
    TrainConfig,
    forward_cache_batch,
    predict_proba,
    predict_proba_batch,
    train_classifier,
)
from tapgen.probspace import TargetSet, kl_divergence, target_distance
from tapgen.rng import substream
from tapgen.synthetic import canonical_benchmark_spec, true_posterior


def blob_data(seed=0, n=1500, separation=6.0):
    rng = substream(seed, "blob-data")
    labels = rng.integers(0, 2, n)
    means = np.array([[-separation / 2, 0.0], [separation / 2, 0.0]])
    x = means[labels] + rng.standard_normal((n, 2))
    return x, labels


@pytest.fixture(scope="module")
def blob():
    x, labels = blob_data(seed=0)
    model = train_classifier(
        x, labels, TrainConfig(seed=3, max_epochs=40, patience=8),
        hidden_dims=(20, 20))
    feats = (Feature("f0", "numeric", -8.0, 8.0),
             Feature("f1", "numeric", -8.0, 8.0))
    schema = FeatureSchema(features=feats, class_labels=("a", "b"))
    cm = CostModel(quadratic=(QuadraticTerm("f0", 1.0),
                              QuadraticTerm("f1", 1.0)))
    target = TargetSet(2, (1,), (0,), 0.8, 0.2)
    return model, x, labels, schema, cm, target


def wrong_side_points(model, x, count):
    p1 = predict_proba_batch(model, x)[:, 1]
    return x[np.where(p1 < 0.05)[0][:count]]


class TestMadWeights:
    def test_hand_case(self):
        train = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])
        assert np.allclose(mad_weights(train), [1.0, 2.0])

    def test_constant_feature_falls_back_to_one(self):
        train = np.array([[3.0, 1.0], [3.0, 5.0], [3.0, 9.0]])
        w = mad_weights(train)
        assert w[0] == 1.0 and w[1] == 4.0

    @pytest.mark.parametrize("bad", [np.zeros(4), np.zeros((1, 4))])
    def test_rejects_degenerate_input(self, bad):
        with pytest.raises(ValueError):
            mad_weights(bad)


class TestWachter:
    def test_already_desired_returns_unchanged(self, blob):
        model, x, labels, schema, cm, target = blob
        pt = x[labels == 1][0]
        assert int(np.argmax(predict_proba(model, pt))) == 1
        out = wachter_counterfactual(model, schema, cm, target, pt, x)
        assert out.flipped
        assert out.candidate.epsilon == 0.0
        assert np.array_equal(np.asarray(out.candidate.x_tilde), pt)
        assert len(out.trials) == 1

    def test_wrong_side_point_flips(self, blob):
        model, x, _, schema, cm, target = blob
        pt = wrong_side_points(model, x, 1)[0]
        out = wachter_counterfactual(model, schema, cm, target, pt, x)
        assert out.flipped
        probs = predict_proba(model, np.asarray(out.candidate.x_tilde))
        assert int(np.argmax(probs)) == 1

    def test_selects_cheapest_flip(self, blob):
        model, x, _, schema, cm, target = blob
        pt = wrong_side_points(model, x, 1)[0]
        out = wachter_counterfactual(model, schema, cm, target, pt, x)
        flips = [c for c in out.trials
                 if int(np.argmax(predict_proba(model,
                                                np.asarray(c.x_tilde)))) == 1]
        assert out.candidate.lam == max(c.lam for c in flips)

    def test_muted_steps_shared_exactly(self, blob, monkeypatch):
        model, x, _, schema, cm, target = blob
        pts = wrong_side_points(model, x, 3)
        log = spy_descents(monkeypatch, baselines)
        wachter_counterfactual_batch(model, schema, cm, target, pts, x,
                                     max_iters=120)
        [call] = log
        assert call["keys"] == 3
        muted = [rows for rows, cost_on in call["calls"] if not cost_on]
        assert len(muted) == call["warmup"] == 60 and max(muted) == 3
        assert same_bits(call["shared"], call["alone"])

    def test_trials_follow_ascending_schedule(self, blob):
        model, x, _, schema, cm, target = blob
        pt = wrong_side_points(model, x, 1)[0]
        out = wachter_counterfactual(model, schema, cm, target, pt, x,
                                     lambdas=(0.5, 0.01, 0.1))
        assert [c.lam for c in out.trials] == [0.01, 0.1, 0.5]

    def test_epsilon_delta_recomputable(self, blob):
        model, x, _, schema, cm, target = blob
        pt = wrong_side_points(model, x, 1)[0]
        out = wachter_counterfactual(model, schema, cm, target, pt, x)
        c = out.candidate
        x_tilde = np.asarray(c.x_tilde)
        assert c.epsilon == pytest.approx(cost(pt, x_tilde, cm, schema))
        probs = predict_proba(model, x_tilde)
        assert c.delta == pytest.approx(
            target_distance(probs, target, kl_divergence()))

    def test_output_coherent_and_boxed(self, blob):
        model, x, _, _, cm, target = blob
        feats = (Feature("f0", "integer", -8, 8),
                 Feature("f1", "numeric", -8.0, 8.0))
        schema = FeatureSchema(features=feats, class_labels=("a", "b"))
        pt = np.round(wrong_side_points(model, x, 1)[0])
        out = wachter_counterfactual(model, schema, cm, target, pt, x)
        x_tilde = np.asarray(out.candidate.x_tilde)
        assert schema.is_coherent(x_tilde)
        lo, hi = schema.box_for(pt)
        assert np.all(x_tilde >= lo - 1e-12) and np.all(x_tilde <= hi + 1e-12)

    def test_immutable_feature_never_moves(self, blob):
        model, x, _, _, cm, target = blob
        feats = (Feature("f0", "numeric", -8.0, 8.0),
                 Feature("f1", "numeric", -8.0, 8.0, mutable=False))
        schema = FeatureSchema(features=feats, class_labels=("a", "b"))
        pt = wrong_side_points(model, x, 1)[0]
        out = wachter_counterfactual(model, schema, cm, target, pt, x)
        for c in out.trials:
            assert np.asarray(c.x_tilde)[1] == pt[1]

    def test_deterministic(self, blob):
        model, x, _, schema, cm, target = blob
        pt = wrong_side_points(model, x, 1)[0]
        a = wachter_counterfactual(model, schema, cm, target, pt, x)
        b = wachter_counterfactual(model, schema, cm, target, pt, x)
        assert np.array_equal(np.asarray(a.candidate.x_tilde),
                              np.asarray(b.candidate.x_tilde))

    def test_ambiguous_target_needs_explicit_class(self, blob):
        model, x, _, schema, cm, _ = blob
        wide = TargetSet(2, (0, 1), (), 0.4, 1.0)
        pt = wrong_side_points(model, x, 1)[0]
        with pytest.raises(ValueError):
            wachter_counterfactual(model, schema, cm, wide, pt, x)

    def test_rejects_bad_arguments(self, blob):
        model, x, _, schema, cm, target = blob
        pt = wrong_side_points(model, x, 1)[0]
        with pytest.raises(ValueError):
            wachter_counterfactual(model, schema, cm, target, pt, x,
                                   desired_class=5)
        with pytest.raises(ValueError):
            wachter_counterfactual(model, schema, cm, target, pt, x,
                                   lambdas=())
        with pytest.raises(ValueError):
            wachter_counterfactual(model, schema, cm, target, pt, x,
                                   lambdas=(-0.1, 1.0))
        # a NaN or negative rate used to return the stay-put point silently
        for bad in (dict(lr=np.nan), dict(lr=-0.05), dict(lr=0.0),
                    dict(lr=np.inf), dict(max_iters=0)):
            with pytest.raises(ValueError):
                wachter_counterfactual(model, schema, cm, target, pt, x,
                                       **bad)


class TestCwL2:
    def test_rejects_attacking_current_class(self, blob):
        model, x, labels, schema, cm, target = blob
        pt = x[labels == 1][0]
        with pytest.raises(ValueError):
            cw_l2(model, schema, cm, target, pt, attack_class=1)

    def test_seeded_flip_rate(self, blob):
        model, x, _, schema, cm, target = blob
        pts = wrong_side_points(model, x, 20)
        flips = 0
        for pt in pts:
            out = cw_l2(model, schema, cm, target, pt, attack_class=1)
            if out.flipped:
                probs = predict_proba(model, np.asarray(out.candidate.x_tilde))
                assert int(np.argmax(probs)) == 1
                flips += 1
        assert flips / len(pts) >= 0.95

    def test_one_forward_pass_per_iteration(self, blob, monkeypatch):
        # one batched pass per iteration serves every individual at once
        import tapgen.baselines as tb
        model, x, _, schema, cm, target = blob
        pts = wrong_side_points(model, x, 3)
        calls = []

        def counting(model, x_now):
            calls.append(len(x_now))
            return forward_cache_batch(model, x_now)

        monkeypatch.setattr(tb, "forward_cache_batch", counting)
        cw_l2_batch(model, schema, cm, target, pts, attack_class=1,
                    bisection_steps=2, max_iters=25)
        assert calls == [3] * (2 * 25)

    def test_output_stays_inside_global_bounds(self, blob):
        model, x, _, schema, cm, target = blob
        pt = wrong_side_points(model, x, 1)[0]
        out = cw_l2(model, schema, cm, target, pt, attack_class=1)
        x_tilde = np.asarray(out.candidate.x_tilde)
        assert np.all(x_tilde > schema.lower_bounds)
        assert np.all(x_tilde < schema.upper_bounds)

    def test_keeps_smallest_l2_success(self, blob):
        model, x, _, schema, cm, target = blob
        pt = wrong_side_points(model, x, 1)[0]
        out = cw_l2(model, schema, cm, target, pt, attack_class=1)
        assert out.flipped and len(out.trials) == 9
        successes = [
            c for c in out.trials
            if int(np.argmax(predict_proba(model,
                                           np.asarray(c.x_tilde)))) == 1
        ]
        l2 = lambda c: float(np.sum((np.asarray(c.x_tilde) - pt) ** 2))
        assert l2(out.candidate) == pytest.approx(min(l2(c) for c in successes))

    def test_ignores_actionability_and_coherence(self, blob):
        model, x, _, _, cm, target = blob
        feats = (Feature("f0", "integer", -8, 8, mutable=False),
                 Feature("f1", "numeric", -8.0, 8.0))
        schema = FeatureSchema(features=feats, class_labels=("a", "b"))
        pt = np.round(wrong_side_points(model, x, 1)[0])
        out = cw_l2(model, schema, cm, target, pt, attack_class=1)
        x_tilde = np.asarray(out.candidate.x_tilde)
        assert out.flipped
        assert x_tilde[0] != pt[0]            # immutable feature moved
        assert not schema.is_coherent(x_tilde)

    def test_epsilon_priced_like_tap(self, blob):
        model, x, _, schema, cm, target = blob
        pt = wrong_side_points(model, x, 1)[0]
        out = cw_l2(model, schema, cm, target, pt, attack_class=1)
        c = out.candidate
        assert c.epsilon == pytest.approx(
            cost(pt, np.asarray(c.x_tilde), cm, schema))

    def test_rejects_bad_search_settings(self, blob):
        model, x, _, schema, cm, target = blob
        pt = wrong_side_points(model, x, 1)[0]
        with pytest.raises(ValueError):
            cw_l2(model, schema, cm, target, pt, attack_class=1,
                  bisection_steps=0)
        with pytest.raises(ValueError):
            cw_l2(model, schema, cm, target, pt, attack_class=1,
                  c_range=(1.0, 0.5))
        with pytest.raises(ValueError):
            cw_l2(model, schema, cm, target, pt, attack_class=5)
        # each of these used to run: a NaN point, an ascent, a NaN candidate
        for bad in (dict(lr=np.nan), dict(lr=-0.05), dict(lr=0.0),
                    dict(lr=np.inf), dict(max_iters=0),
                    dict(c_range=(1e-3, np.inf)), dict(c_range=(np.nan, 1.0)),
                    dict(kappa=-1.0), dict(kappa=np.nan),
                    dict(kappa=np.inf)):
            with pytest.raises(ValueError):
                cw_l2(model, schema, cm, target, pt, attack_class=1, **bad)

    def test_bisection_steps_run_through_the_kernel(self, blob, monkeypatch):
        model, x, _, schema, cm, target = blob
        log = spy_descents(monkeypatch, baselines)
        cw_l2_batch(model, schema, cm, target, wrong_side_points(model, x, 3),
                    attack_class=1, bisection_steps=3, max_iters=25)
        assert [call["warmup"] for call in log] == [0, 0, 0]
        assert all(same_bits(call["shared"], call["alone"]) for call in log)

    def test_step_without_a_flip_stays_put(self, blob):
        # a margin weight this small never flips: each step returns x itself
        model, x, _, schema, cm, target = blob
        pt = wrong_side_points(model, x, 1)[0]
        out = cw_l2(model, schema, cm, target, pt, attack_class=1,
                    c_range=(1e-9, 1e-8), bisection_steps=3, max_iters=50)
        assert out.flipped is False
        assert all(trial.is_noop for trial in out.trials)
        assert out.candidate.epsilon == 0.0

    def test_boundary_flip_moves_nothing_real(self, bench_data, bench_model,
                                              bench_schema, bench_cost,
                                              bench_target):
        # attack a point sitting just outside the decision boundary: the
        # flip crosses the model's line while the exact posterior barely
        # changes, which is what the pairwise verifier exists to catch
        spec, x, _ = bench_data
        p1 = predict_proba_batch(bench_model, x)[:, 1]
        pt = x[np.where((p1 > 0.40) & (p1 < 0.48))[0][0]]
        out = cw_l2(bench_model, bench_schema, bench_cost, bench_target, pt,
                    attack_class=1)
        assert out.flipped
        x_tilde = np.asarray(out.candidate.x_tilde)
        assert predict_proba(bench_model, x_tilde)[1] > 0.5
        before = float(true_posterior(spec, pt)[1])
        after = float(true_posterior(spec, x_tilde)[1])
        assert abs(after - before) < 0.1


def test_flipped_is_a_real_bool(blob):
    # the field is annotated bool; a numpy.bool_ is not one
    model, x, labels, schema, cm, target = blob
    pts = np.vstack([wrong_side_points(model, x, 2), x[labels == 1][:1]])
    problem = (model, schema, cm, target)
    attack = dict(attack_class=1, bisection_steps=2, max_iters=25)
    results = [cw_l2(*problem, pts[0], **attack),
               *cw_l2_batch(*problem, pts[:2], **attack),
               wachter_counterfactual(*problem, pts[0], x, max_iters=30),
               *wachter_counterfactual_batch(*problem, pts, x, max_iters=30)]
    assert [type(r.flipped) for r in results] == [bool] * 7
