"""Session-wide fixtures: one trained benchmark model and verifier."""
import time

import numpy as np
import pytest

from tapgen.actionability import CostModel, Feature, FeatureSchema, QuadraticTerm
from tapgen.bench import BenchmarkConfig, run_benchmark
from tapgen.netcore import TrainConfig, predict_proba_batch, train_classifier
from tapgen.probspace import TargetSet
from tapgen.synthetic import canonical_benchmark_spec, sample_synthetic
from tapgen.verify import build_pair_dataset, calibrate_gamma, train_verifier

# full end-to-end benchmark runs cost about a minute each, so they are
# memoized across every module that needs one
_BENCH_RUNS: dict[int, object] = {}
_BENCH_TIMES: dict[int, float] = {}


def bench_run(seed: int):
    if seed not in _BENCH_RUNS:
        start = time.perf_counter()
        _BENCH_RUNS[seed] = run_benchmark(BenchmarkConfig(seed=seed))
        _BENCH_TIMES[seed] = time.perf_counter() - start
    return _BENCH_RUNS[seed]


@pytest.fixture(scope="session")
def bench_result_seed0():
    return bench_run(0)


@pytest.fixture(scope="session")
def bench_results_two_seeds():
    return tuple(bench_run(seed) for seed in range(2))


@pytest.fixture(scope="session")
def bench_results_five_seeds():
    return tuple(bench_run(seed) for seed in range(5))


@pytest.fixture(scope="session")
def bench_timings():
    return _BENCH_TIMES


@pytest.fixture(scope="session")
def bench_data():
    spec = canonical_benchmark_spec()
    x, y = sample_synthetic(spec, 4000, 0)
    return spec, x, y


@pytest.fixture(scope="session")
def bench_model(bench_data):
    _, x, y = bench_data
    return train_classifier(x, y, TrainConfig(max_epochs=60, patience=10, seed=0))


@pytest.fixture(scope="session")
def bench_schema():
    feats = tuple(
        Feature(name=f"x{i}", kind="numeric", lower=-8.0, upper=8.0)
        for i in range(4)
    )
    return FeatureSchema(features=feats, class_labels=("class0", "class1"))


@pytest.fixture(scope="session")
def bench_cost():
    return CostModel(quadratic=tuple(QuadraticTerm(f"x{i}", 1.0)
                                     for i in range(4)))


@pytest.fixture(scope="session")
def bench_target():
    return TargetSet(2, (1,), (0,), 0.8, 0.2)


@pytest.fixture(scope="session")
def bench_verifier(bench_data, bench_model):
    _, x, y = bench_data
    idx = bench_model.metadata["split_indices"]["train"]
    pairs = build_pair_dataset(x[idx], y[idx], max_pairs=20_000, seed=0)
    return train_verifier(pairs, TrainConfig(max_epochs=40, patience=8, seed=1))


@pytest.fixture(scope="session")
def bench_calibration(bench_data, bench_model, bench_verifier):
    _, x, y = bench_data
    idx = bench_model.metadata["split_indices"]["test"]
    return calibrate_gamma(bench_model, bench_verifier, x[idx], y[idx],
                           rate=0.10, num_pairs=5000, seed=2)


@pytest.fixture(scope="session")
def mild_point(bench_data, bench_model):
    """An individual the model scores just below the class-1 threshold."""
    _, x, _ = bench_data
    p1 = predict_proba_batch(bench_model, x)[:, 1]
    return x[np.where((p1 > 0.2) & (p1 < 0.45))[0][0]].copy()


@pytest.fixture(scope="session")
def saturated_point(bench_data, bench_model):
    """An individual the model rejects with near-certainty."""
    _, x, _ = bench_data
    p1 = predict_proba_batch(bench_model, x)[:, 1]
    return x[np.where(p1 < 1e-4)[0][0]].copy()
