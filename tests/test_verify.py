"""Pair construction, threshold calibration, and bound-term arithmetic."""
import json
import math

import numpy as np
import pytest

import tapgen.verify as tv
from oracles import row_forward
from tapgen.netcore import DenseClassifier, TrainConfig
from tapgen.synthetic import gap_experiment_spec, sample_synthetic
from tapgen.verify import (
    GammaCalibration,
    build_pair_dataset,
    calibrate_gamma,
    discrepancy,
    gamma_from_deltas,
    load_calibration,
    measure_generalization_gap,
    pac_gap_terms,
    pairwise_risk,
    same_class_prob,
    same_class_prob_batch,
    save_calibration,
    train_verifier,
    verify_pair,
    verify_pairs,
)

# frozen from a 40-digit computation of
#   12 k B / sqrt(n^2 - k^2 n) * sqrt(ln(2/delta) / 2)   and
#   (k / sqrt(n^2 - k^2 n))^(1/d)
EXPLICIT_1000_2_B1 = 0.03265982147132727
BASE_1000_2_1 = 0.002004012040140506
EXPLICIT_400_2_B10 = 0.8189660281681060
BASE_400_2_2 = 0.07088856802260898


def uniform_verifier(d):
    """Zero-weight net over pairs of d-dim points: outputs (0.5, 0.5)."""
    dims = (2 * d, 4, 2)
    return DenseClassifier(
        layer_dims=dims,
        weights=[np.zeros((b, a)) for a, b in zip(dims, dims[1:])],
        biases=[np.zeros(b) for b in dims[1:]],
        mean=np.zeros(2 * d),
        std=np.ones(2 * d),
    )


@pytest.fixture(scope="module")
def separated():
    x, y = sample_synthetic(gap_experiment_spec(), 300, 11)
    return x, y


@pytest.fixture(scope="module")
def trained_verifier(separated):
    x, y = separated
    pairs = build_pair_dataset(x, y, max_pairs=4000, seed=0)
    cfg = TrainConfig(max_epochs=60, patience=10, seed=0)
    return train_verifier(pairs, cfg, hidden_dims=(30, 30))


@pytest.fixture(scope="module")
def point_model(separated):
    from tapgen.netcore import train_classifier
    x, y = separated
    cfg = TrainConfig(max_epochs=60, patience=10, seed=0)
    return train_classifier(x, y, cfg, hidden_dims=(30, 30))


@pytest.fixture(scope="module")
def calibrated(point_model, trained_verifier, separated):
    x, y = separated
    return calibrate_gamma(point_model, trained_verifier, x, y,
                           rate=0.10, num_pairs=2000, seed=1)


class TestPairDataset:
    def test_exhaustive_small(self):
        x = np.arange(8.0).reshape(4, 2)
        y = np.array([0, 0, 1, 1])
        pairs = build_pair_dataset(x, y, max_pairs=100)
        assert len(pairs) == 12          # all ordered pairs of 4 points
        assert int(pairs.same.sum()) == 4
        codes = set(zip(map(tuple, pairs.first), map(tuple, pairs.second)))
        assert len(codes) == 12
        for a, b in zip(pairs.first, pairs.second):
            assert not np.array_equal(a, b)

    def test_same_flag_consistent(self):
        x = np.arange(8.0).reshape(4, 2)
        y = np.array([0, 1, 0, 1])
        pairs = build_pair_dataset(x, y, max_pairs=100)
        assert np.array_equal(pairs.same,
                              (pairs.label_first == pairs.label_second))

    def test_sampled_respects_cap_and_balance(self, separated):
        x, y = separated
        pairs = build_pair_dataset(x, y, max_pairs=1000, balance=0.3, seed=4)
        assert len(pairs) == 1000
        assert abs(pairs.same_fraction - 0.3) < 1e-9

    def test_sampled_pairs_are_distinct(self, separated):
        x, y = separated
        pairs = build_pair_dataset(x, y, max_pairs=500, seed=2)
        seen = set()
        for a, b in zip(pairs.first, pairs.second):
            seen.add((tuple(a), tuple(b)))
            assert not np.array_equal(a, b)
        assert len(seen) == 500

    def test_sampling_deterministic(self, separated):
        x, y = separated
        p1 = build_pair_dataset(x, y, max_pairs=400, seed=9)
        p2 = build_pair_dataset(x, y, max_pairs=400, seed=9)
        assert np.array_equal(p1.first, p2.first)
        assert np.array_equal(p1.second, p2.second)

    def test_balance_saturates_at_universe(self):
        # only 2 same-class ordered pairs exist; balance=0.9 cannot be met
        x = np.arange(8.0).reshape(4, 2)
        y = np.array([0, 0, 1, 2])
        pairs = build_pair_dataset(x, y, max_pairs=11, balance=0.9, seed=0)
        assert len(pairs) == 11
        assert int(pairs.same.sum()) == 2

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            build_pair_dataset(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_rejects_tiny_input(self):
        with pytest.raises(ValueError):
            build_pair_dataset(np.zeros((1, 2)), np.array([0]))

    def test_rejects_bad_balance(self):
        x = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ValueError):
            build_pair_dataset(x, np.array([0, 0, 1, 1]), balance=1.5)


class TestVerifierTraining:
    def test_learns_separated_clusters(self, trained_verifier, separated):
        x, y = separated
        acc = trained_verifier.metadata["test_accuracy"]
        assert acc >= 0.9
        same = same_class_prob(trained_verifier, x[y == 0][0], x[y == 0][1])
        diff = same_class_prob(trained_verifier, x[y == 0][0], x[y == 1][0])
        assert same > 0.5 > diff

    def test_batch_matches_single(self, trained_verifier, separated):
        x, _ = separated
        got = same_class_prob_batch(trained_verifier, x[:6], x[6:12])
        for i in range(6):
            pair = np.concatenate([x[i], x[6 + i]])
            assert got[i] == row_forward(trained_verifier, pair).probs[1]

    def test_comes_out_temperature_fitted(self, trained_verifier):
        # confidence skew in the pair net shifts every genuine-pair
        # discrepancy, so training must end with a calibrated softmax head
        fit = trained_verifier.metadata.get("temperature_fit")
        assert fit is not None
        assert fit["nll_after"] <= fit["nll_before"] + 1e-12
        assert trained_verifier.temperature > 0.0

    def test_rejects_single_class_pairs(self):
        x = np.arange(8.0).reshape(4, 2)
        pairs = build_pair_dataset(x, np.array([0, 0, 1, 1]), max_pairs=100)
        same_only = tv.PairDataset(
            first=pairs.first[pairs.same == 1],
            second=pairs.second[pairs.same == 1],
            same=pairs.same[pairs.same == 1],
            label_first=pairs.label_first[pairs.same == 1],
            label_second=pairs.label_second[pairs.same == 1],
            label_counts=pairs.label_counts,
        )
        with pytest.raises(ValueError):
            train_verifier(same_only, TrainConfig(max_epochs=2, seed=0))


class TestDiscrepancy:
    def test_uniform_nets_give_half_minus_agreement(self):
        d = 2
        verifier = uniform_verifier(d)
        model = DenseClassifier(
            layer_dims=(d, 3, 2),
            weights=[np.zeros((3, d)), np.zeros((2, 3))],
            biases=[np.zeros(3), np.zeros(2)],
            mean=np.zeros(d),
            std=np.ones(d),
        )
        # uniform model: agreement = sum 0.5 * 0.5 = 0.5 -> discrepancy 0
        value = discrepancy(model, verifier, np.zeros(d), np.ones(d))
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_bounded_and_symmetric_in_magnitude(self, trained_verifier,
                                                separated):
        x, _ = separated
        model = trained_verifier  # any classifier works for the bound check
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b = x[rng.integers(0, len(x), 2)]
            # model expects 2-dim input here? use verifier over its own pairs
            val = abs(same_class_prob(trained_verifier, a, b))
            assert 0.0 <= val <= 1.0


class TestGammaFromDeltas:
    def test_hand_case(self):
        deltas = np.arange(1.0, 11.0)           # 1..10
        assert gamma_from_deltas(deltas, 0.2) == 8.0   # above: {9, 10}
        assert gamma_from_deltas(deltas, 0.0) == 10.0  # nothing may exceed
        assert gamma_from_deltas(deltas, 1.0) == 1.0

    def test_rate_zero_is_max(self):
        rng = np.random.default_rng(3)
        d = rng.uniform(size=57)
        assert gamma_from_deltas(d, 0.0) == d.max()

    def test_strictly_above_never_exceeds_allowance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(5, 400))
            rate = float(rng.uniform(0, 0.5))
            d = rng.uniform(size=n)
            g = gamma_from_deltas(d, rate)
            assert int((d > g).sum()) <= math.ceil(rate * n)

    def test_is_smallest_feasible_sample_value(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(10, 200))
            rate = float(rng.uniform(0.01, 0.4))
            d = rng.uniform(size=n)
            g = gamma_from_deltas(d, rate)
            allowed = math.ceil(rate * n)
            smaller = d[d < g]
            if smaller.size:
                runner_up = smaller.max()
                assert int((d > runner_up).sum()) > allowed

    def test_empty_and_bad_rate(self):
        with pytest.raises(ValueError):
            gamma_from_deltas(np.array([]), 0.1)
        with pytest.raises(ValueError):
            gamma_from_deltas(np.array([0.1]), 1.5)


class TestCalibration:
    def test_threshold_in_unit_interval(self, calibrated):
        assert 0.0 <= calibrated.gamma <= 1.0
        assert calibrated.sample_size == 2000

    def test_requires_enough_pairs(self, trained_verifier):
        x = np.arange(12.0).reshape(6, 2)
        y = np.array([0, 0, 0, 0, 0, 1])
        with pytest.raises(ValueError, match="different-class"):
            calibrate_gamma(trained_verifier, trained_verifier, x, y)

    def test_save_load_round_trip(self, calibrated, tmp_path):
        path = tmp_path / "cal.json"
        save_calibration(calibrated, path)
        back = load_calibration(path)
        assert back == calibrated

    def test_load_missing_and_corrupt(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_calibration(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        for text, problem in ((b'{"kind": "something-else"}',
                               "has unknown kind"),
                              (b"{not json", "is not valid JSON"),
                              (b'{"kind": "\xff"}', "is not valid JSON")):
            bad.write_bytes(text)
            with pytest.raises(ValueError, match=f"bad.json {problem}"):
                load_calibration(bad)

    @pytest.mark.parametrize("key", ["gamma", "rate", "source_hash"])
    def test_load_missing_key(self, calibrated, tmp_path, key):
        path = tmp_path / "cal.json"
        save_calibration(calibrated, path)
        payload = json.loads(path.read_text())
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=key):
            load_calibration(path)

    def test_verify_pair_threshold_logic(self, point_model, trained_verifier,
                                         separated):
        x, y = separated
        a = x[y == 0][0]
        b = x[y == 0][1]
        value = discrepancy(point_model, trained_verifier, a, b)
        loose = GammaCalibration(gamma=value + 1e-6, rate=0.1, sample_size=1,
                                 seed=0, source_split="test", source_hash="x")
        tight = GammaCalibration(gamma=value, rate=0.1, sample_size=1,
                                 seed=0, source_split="test", source_hash="x")
        assert verify_pair(point_model, trained_verifier, loose, a, b).accepted
        assert not verify_pair(point_model, trained_verifier, tight, a, b).accepted

    def test_verify_pairs_checks_shapes(self, point_model, trained_verifier,
                                        calibrated, separated):
        x, _ = separated
        problem = (point_model, trained_verifier, calibrated)
        assert verify_pairs(*problem, [], []) == []
        # flat rows, a row of the wrong width, unequal pair counts
        for xs, x_tildes in ((x[:3].ravel(), x[:3].ravel()),
                             (x[:3, :-1], x[:3, :-1]), (x[:3], x[:2])):
            with pytest.raises(ValueError):
                verify_pairs(*problem, xs, x_tildes)


class TestOneDiscrepancyFormula:
    """Verdicts and the calibration share one discrepancy formula, whose
    value for a pair does not depend on the batch the pair sits in."""

    def test_verdict_does_not_depend_on_its_batch(self, bench_data,
                                                  bench_model, bench_verifier):
        _, x, y = bench_data
        test = np.asarray(bench_model.metadata["split_indices"]["test"])
        rng = np.random.default_rng(0)
        i, j = rng.choice(test, 600), rng.choice(test, 600)
        keep = y[i] != y[j]
        i, j = i[keep][:200], j[keep][:200]
        assert i.size == 200

        def batch(rows):
            return tv._discrepancy_batch(bench_model, bench_verifier,
                                         x[i[rows]], x[j[rows]])

        whole = batch(np.arange(200))
        perm = rng.permutation(200)
        assert np.array_equal(batch(perm), whole[perm])
        for k in range(200):
            one = discrepancy(bench_model, bench_verifier, x[i[k]], x[j[k]])
            assert one == whole[k] == batch([k])[0]

    def test_gamma_is_a_value_the_verdict_path_gives(self, bench_data,
                                                     bench_model,
                                                     bench_verifier):
        _, x, y = bench_data
        rows = np.asarray(bench_model.metadata["split_indices"]["test"][:40])
        xc, yc = x[rows], y[rows]
        n = rows.size
        cal = calibrate_gamma(bench_model, bench_verifier, xc, yc, rate=0.10,
                              num_pairs=n * (n - 1), seed=0)
        a, b = np.nonzero(yc[:, None] != yc[None, :])
        values = np.array([discrepancy(bench_model, bench_verifier, xc[p],
                                       xc[q]) for p, q in zip(a, b)])
        assert cal.sample_size == values.size >= 100
        assert np.any(values == cal.gamma)
        assert np.sum(values > cal.gamma) <= math.ceil(cal.rate * values.size)


class TestPacGapTerms:
    def test_frozen_values(self):
        t = pac_gap_terms(1000, 2, 1, 1.0, 0.05)
        assert t.explicit_term == pytest.approx(EXPLICIT_1000_2_B1, abs=1e-10)
        assert t.complexity_base == pytest.approx(BASE_1000_2_1, abs=1e-10)
        t2 = pac_gap_terms(400, 2, 2, 10.0, 0.05)
        assert t2.explicit_term == pytest.approx(EXPLICIT_400_2_B10, abs=1e-10)
        assert t2.complexity_base == pytest.approx(BASE_400_2_2, abs=1e-10)

    def test_loss_bound_scales_linearly(self):
        a = pac_gap_terms(1000, 2, 1, 1.0, 0.05).explicit_term
        b = pac_gap_terms(1000, 2, 1, 10.0, 0.05).explicit_term
        assert b == pytest.approx(10.0 * a, rel=1e-12)

    def test_domain_boundary(self):
        with pytest.raises(ValueError):
            pac_gap_terms(4, 2, 1, 1.0, 0.05)   # n == k^2
        with pytest.raises(ValueError):
            pac_gap_terms(3, 2, 1, 1.0, 0.05)
        pac_gap_terms(5, 2, 1, 1.0, 0.05)        # n = k^2 + 1 is fine

    def test_monotone_decreasing_in_n(self):
        values = [pac_gap_terms(n, 2, 2, 10.0, 0.05).explicit_term
                  for n in (10, 30, 100, 300, 1000, 3000)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            pac_gap_terms(100, 0, 1, 1.0, 0.05)
        with pytest.raises(ValueError):
            pac_gap_terms(100, 2, 1, 0.0, 0.05)
        with pytest.raises(ValueError):
            pac_gap_terms(100, 2, 1, 1.0, 1.5)


class TestPairwiseRisk:
    def test_uniform_verifier_gives_two_log_two(self):
        # constant 0.5 output: every pair costs ln 2; same part ln 2,
        # different part ln 2, total 2 ln 2 regardless of cell counts
        x = np.arange(12.0).reshape(6, 2)
        y = np.array([0, 0, 0, 1, 1, 1])
        pairs = build_pair_dataset(x, y, max_pairs=100)
        risk = pairwise_risk(uniform_verifier(2), pairs)
        assert risk == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_loss_clipping_kicks_in(self):
        x = np.arange(12.0).reshape(6, 2)
        y = np.array([0, 0, 0, 1, 1, 1])
        pairs = build_pair_dataset(x, y, max_pairs=100)
        risk = pairwise_risk(uniform_verifier(2), pairs, loss_bound=0.5)
        assert risk == pytest.approx(1.0, abs=1e-12)

    def test_good_verifier_beats_uniform(self, trained_verifier, separated):
        x, y = separated
        pairs = build_pair_dataset(x, y, max_pairs=2000, seed=5)
        good = pairwise_risk(trained_verifier, pairs)
        flat = pairwise_risk(uniform_verifier(2), pairs)
        assert good < flat


class TestGapExperiment:
    def test_small_sweep_structure(self):
        cfg = TrainConfig(max_epochs=15, patience=4, seed=0)
        rows = measure_generalization_gap(
            gap_experiment_spec(), [30, 60], cfg, hidden_dims=(10,),
            max_train_pairs=600, heldout_points=150, heldout_pairs=600,
            seed=0,
        )
        assert [r.n for r in rows] == [30, 60]
        for row in rows:
            assert np.isfinite(row.train_risk) and np.isfinite(row.test_risk)
            assert row.gap == pytest.approx(abs(row.test_risk - row.train_risk))
        assert rows[0].explicit_bound_term > rows[1].explicit_bound_term
