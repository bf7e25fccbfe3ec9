"""Dense classifier training, gradients, calibration error, persistence."""
import json

import numpy as np
import pytest

from oracles import central_diff_grad, row_forward
from tapgen.netcore import (
    DenseClassifier,
    TrainConfig,
    ece,
    ece_from_probs,
    fit_temperature,
    forward_cache,
    input_gradient,
    load_model,
    logit_input_gradient,
    predict_logits,
    predict_proba,
    predict_proba_batch,
    save_model,
    train_classifier,
)
from tapgen.probspace import ProbVector
from tapgen.rng import substream


def blob_data(seed=0, n=2000, separation=6.0):
    rng = substream(seed, "blob-data")
    labels = rng.integers(0, 2, n)
    means = np.array([[-separation / 2, 0.0], [separation / 2, 0.0]])
    x = means[labels] + rng.standard_normal((n, 2))
    return x, labels


@pytest.fixture(scope="module")
def blob_model():
    x, labels = blob_data(seed=0)
    cfg = TrainConfig(seed=3, max_epochs=60, patience=10)
    return train_classifier(x, labels, cfg), x, labels


def zero_model(d=3, k=2, hidden=(8,)):
    dims = (d, *hidden, k)
    weights = [np.zeros((o, i)) for i, o in zip(dims[:-1], dims[1:])]
    biases = [np.zeros(o) for o in dims[1:]]
    return DenseClassifier(dims, weights, biases, np.zeros(d), np.ones(d))


class TestTraining:
    def test_separable_blobs_reach_098(self, blob_model):
        model, _, _ = blob_model
        assert model.metadata["test_accuracy"] >= 0.98

    def test_seed_determinism(self):
        x, labels = blob_data(seed=1, n=600)
        cfg = TrainConfig(seed=9, max_epochs=15, patience=5)
        a = train_classifier(x, labels, cfg, hidden_dims=(20, 20))
        b = train_classifier(x, labels, cfg, hidden_dims=(20, 20))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_early_stopping_returns_best_checkpoint(self, blob_model):
        model, x, labels = blob_model
        history = model.metadata["val_loss_history"]
        assert history, "validation history missing"
        assert model.metadata["best_val_loss"] <= min(history) + 1e-15
        assert history[model.metadata["best_epoch"] - 1] == pytest.approx(
            model.metadata["best_val_loss"]
        )

    def test_missing_class_rejected(self):
        x = np.random.default_rng(0).standard_normal((50, 2))
        labels = np.zeros(50, dtype=int)
        with pytest.raises(ValueError, match="absent|two classes"):
            train_classifier(x, labels, TrainConfig(seed=0, max_epochs=2),
                             num_classes=2)

    def test_single_class_rejected(self):
        x = np.random.default_rng(0).standard_normal((50, 2))
        with pytest.raises(ValueError):
            train_classifier(x, np.zeros(50, dtype=int),
                             TrainConfig(seed=0, max_epochs=2))

    def test_dropout_model_trains(self):
        x, labels = blob_data(seed=2, n=800)
        cfg = TrainConfig(seed=4, max_epochs=20, patience=5)
        model = train_classifier(x, labels, cfg, hidden_dims=(30, 30),
                                 dropout_rate=0.2)
        assert model.metadata["test_accuracy"] >= 0.9
        assert model.dropout_rate == 0.2

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(split=(0.5, 0.2, 0.2))
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)


class TestPredictions:
    def test_outputs_are_probability_vectors(self, blob_model):
        model, x, _ = blob_model
        rng = substream(7, "probe")
        for _ in range(50):
            point = rng.uniform(-20, 20, size=2)
            ProbVector(predict_proba(model, point))  # validates on construction

    def test_zero_weight_network_is_uniform(self):
        model = zero_model(d=4, k=3)
        assert np.allclose(predict_proba(model, np.array([1.0, -2.0, 0.5, 3.0])),
                           [1 / 3] * 3, atol=0)

    def test_batch_matches_single(self, blob_model):
        # row-exact: each batch row is bit for bit the single-row pass
        model, x, _ = blob_model
        batch = predict_proba_batch(model, x[:10])
        for i in range(10):
            assert np.array_equal(batch[i], row_forward(model, x[i]).probs)

    def test_dimension_mismatch(self, blob_model):
        model, _, _ = blob_model
        with pytest.raises(ValueError):
            predict_proba(model, np.zeros(5))


class TestInputGradient:
    def test_matches_finite_differences(self, blob_model):
        # Probes are only kept where the FD oracle itself is valid: away from
        # ReLU kinks and with a gradient above the differencing noise floor.
        model, x, _ = blob_model
        rng = substream(13, "grad-probe")
        checked = 0
        while checked < 40:
            point = rng.uniform(-4, 4, size=2)
            upstream = rng.standard_normal(2)
            cache = forward_cache(model, point)
            if min(float(np.abs(p).min()) for p in cache.pre) < 1e-4:
                continue
            g = input_gradient(model, point, upstream)
            fd = central_diff_grad(
                lambda v: float(predict_proba(model, v) @ upstream), point, h=1e-5
            )
            if np.abs(fd).max() < 1e-6:
                continue
            scale = float(np.abs(fd).max())
            assert np.abs(g - fd).max() / scale < 1e-4
            checked += 1

    def test_logit_gradient_matches_finite_differences(self, blob_model):
        model, _, _ = blob_model
        rng = substream(14, "logit-probe")
        for _ in range(20):
            point = rng.uniform(-4, 4, size=2)
            upstream = rng.standard_normal(2)
            g = logit_input_gradient(model, point, upstream)
            fd = central_diff_grad(
                lambda v: float(predict_logits(model, v) @ upstream), point, h=1e-5
            )
            scale = max(np.abs(fd).max(), 1e-8)
            assert np.abs(g - fd).max() / scale < 1e-4

    def test_cache_reuse_identical(self, blob_model):
        model, x, _ = blob_model
        cache = forward_cache(model, x[0])
        u = np.array([1.0, -1.0])
        assert np.array_equal(input_gradient(model, x[0], u, cache=cache),
                              input_gradient(model, x[0], u))

    def test_upstream_shape_checked(self, blob_model):
        model, x, _ = blob_model
        with pytest.raises(ValueError):
            input_gradient(model, x[0], np.zeros(3))


class TestEce:
    def test_perfect_onehot_is_zero(self):
        probs = np.zeros((40, 3))
        labels = np.arange(40) % 3
        probs[np.arange(40), labels] = 1.0
        assert ece_from_probs(probs, labels) == 0.0

    def test_consistent_confidence_is_zero(self):
        # n chosen so the bin means are exact in IEEE arithmetic.
        probs = np.tile([0.7, 0.3], (10, 1))
        labels = np.array([0] * 7 + [1] * 3)
        assert ece_from_probs(probs, labels) == 0.0

    def test_overconfident_is_04(self):
        probs = np.tile([0.9, 0.1], (10, 1))
        labels = np.array([0] * 5 + [1] * 5)
        assert ece_from_probs(probs, labels) == 0.4

    def test_model_wrapper(self, blob_model):
        model, x, labels = blob_model
        value = ece(model, x, labels)
        assert 0.0 <= value <= 1.0

    def test_bin_count_respected(self):
        probs = np.tile([0.52, 0.48], (10, 1))
        labels = np.zeros(10, dtype=int)
        # one bin: |acc - conf| = |1 - 0.52|
        assert ece_from_probs(probs, labels, bins=1) == pytest.approx(0.48)


@pytest.fixture(scope="module")
def fitted(blob_model):
    model, x, labels = blob_model
    val = model.metadata["split_indices"]["val"]
    return fit_temperature(model, x[val], labels[val]), x, labels


class TestTemperature:
    def test_argmax_invariant(self, blob_model, fitted):
        model, x, _ = blob_model
        scaled, _, _ = fitted
        before = predict_proba_batch(model, x[:200]).argmax(axis=1)
        after = predict_proba_batch(scaled, x[:200]).argmax(axis=1)
        assert np.array_equal(before, after)

    def test_nll_never_worse(self, fitted):
        scaled, _, _ = fitted
        fit = scaled.metadata["temperature_fit"]
        assert fit["nll_after"] <= fit["nll_before"] + 1e-12

    def test_fit_is_a_local_minimum(self, fitted):
        scaled, x, labels = fitted
        val = scaled.metadata["split_indices"]["val"]

        def nll(tau):
            probs = predict_proba_batch(
                DenseClassifier(scaled.layer_dims, scaled.weights,
                                scaled.biases, scaled.mean, scaled.std,
                                temperature=tau), x[val])
            picked = probs[np.arange(len(val)), labels[val]]
            return -np.log(np.maximum(picked, 1e-300)).mean()

        best = nll(scaled.temperature)
        assert best <= nll(scaled.temperature * 1.1) + 1e-9
        assert best <= nll(scaled.temperature * 0.9) + 1e-9

    def test_raw_logits_untouched(self, blob_model, fitted):
        model, x, _ = blob_model
        scaled, _, _ = fitted
        assert np.array_equal(predict_logits(model, x[0]),
                              predict_logits(scaled, x[0]))

    def test_gradient_tracks_temperature(self, fitted):
        # the probability head divides by tau, so its input gradient must too
        scaled, x, _ = fitted
        assert scaled.temperature != 1.0
        rng = substream(15, "temp-grad-probe")
        checked = 0
        while checked < 10:
            point = rng.uniform(-4, 4, size=2)
            upstream = rng.standard_normal(2)
            cache = forward_cache(scaled, point)
            if min(float(np.abs(p).min()) for p in cache.pre) < 1e-4:
                continue
            g = input_gradient(scaled, point, upstream)
            fd = central_diff_grad(
                lambda v: float(predict_proba(scaled, v) @ upstream),
                point, h=1e-5)
            if np.abs(fd).max() < 1e-6:
                continue
            assert np.abs(g - fd).max() / float(np.abs(fd).max()) < 1e-4
            checked += 1

    def test_round_trip_keeps_temperature(self, fitted, tmp_path):
        scaled, x, _ = fitted
        path = tmp_path / "scaled.json"
        save_model(scaled, path)
        loaded = load_model(path)
        assert loaded.temperature == scaled.temperature
        assert np.array_equal(predict_proba_batch(scaled, x[:32]),
                              predict_proba_batch(loaded, x[:32]))

    def test_needs_labelled_points(self, blob_model):
        model, _, _ = blob_model
        with pytest.raises(ValueError):
            fit_temperature(model, np.empty((0, 2)), np.empty(0, dtype=int))


class TestPersistence:
    def test_round_trip_bit_identical(self, blob_model, tmp_path):
        model, x, _ = blob_model
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(predict_proba_batch(model, x[:64]),
                              predict_proba_batch(loaded, x[:64]))
        for a, b in zip(model.weights, loaded.weights):
            assert np.array_equal(a, b)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "nope.json")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            load_model(path)


class TestLoadValidation:
    """A malformed model file raises ValueError, never a bare KeyError or a
    model whose shapes disagree with its own layer_dims."""

    @pytest.fixture()
    def payload(self, blob_model, tmp_path):
        model, _, _ = blob_model
        path = tmp_path / "model.json"
        save_model(model, path)
        return json.loads(path.read_text())

    def load(self, payload, tmp_path):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(payload))
        return load_model(path)

    def test_weight_shape_mismatch(self, tmp_path):
        payload = {"kind": "dense-softmax-classifier", "layer_dims": [4, 2],
                   "dropout_rate": 0.0, "temperature": 1.0, "seed": 0,
                   "standardizer": {"mean": [0.0] * 4, "std": [1.0] * 4},
                   "weights": [[[0.5, -0.5]]], "biases": [[0.0, 0.0]],
                   "metadata": {}}
        with pytest.raises(ValueError, match="shapes do not match"):
            self.load(payload, tmp_path)

    @pytest.mark.parametrize("key", ["layer_dims", "weights", "standardizer",
                                     "seed"])
    def test_missing_key(self, payload, tmp_path, key):
        del payload[key]
        with pytest.raises(ValueError, match=key):
            self.load(payload, tmp_path)

    def test_bias_shape_mismatch(self, payload, tmp_path):
        payload["biases"][0] = payload["biases"][0][:-1]
        with pytest.raises(ValueError, match="shapes do not match"):
            self.load(payload, tmp_path)

    def test_standardizer_length(self, payload, tmp_path):
        payload["standardizer"]["mean"].append(0.0)
        with pytest.raises(ValueError, match="standardizer length"):
            self.load(payload, tmp_path)

    def test_non_finite_values(self, payload, tmp_path):
        payload["weights"][0][0][0] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            self.load(payload, tmp_path)

    def test_nonpositive_std(self, payload, tmp_path):
        payload["standardizer"]["std"][0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            self.load(payload, tmp_path)

    def test_ragged_weights(self, payload, tmp_path):
        payload["weights"][0][0] = payload["weights"][0][0][:-1]
        with pytest.raises(ValueError, match="malformed"):
            self.load(payload, tmp_path)

    def test_valid_payload_still_loads(self, payload, tmp_path):
        assert self.load(payload, tmp_path).layer_dims == tuple(
            payload["layer_dims"])
