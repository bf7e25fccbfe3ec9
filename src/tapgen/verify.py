"""Pairwise verification: same-class probability nets and discrepancy tests.

A verifier V maps a concatenated pair (x_a, x_b) to the probability that the
two points share a class.  The model under scrutiny makes the same prediction
implicitly: sum_i M_i(x) M_i(x_tilde).  Their absolute disagreement

    discrepancy(x, x_tilde) = | V(x, x_tilde) - sum_i M_i(x) M_i(x_tilde) |

is small when both nets tell the same story and large when the perturbation
moved M's output without moving anything real.  A rejection threshold gamma
is calibrated on pairs of test points with different true classes so that a
chosen fraction of those honest pairs sits above it; candidates with
discrepancy >= gamma are rejected.

The generalization arithmetic for the verifier's pairwise risk lives here
too: the explicit (non-complexity) term of its deviation bound and a direct
measurement of the train/holdout risk gap on synthetic tasks.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .netcore import (
    DenseClassifier,
    TrainConfig,
    _numbers_only,
    _row,
    fit_temperature,
    predict_proba,
    predict_proba_batch,
    train_classifier,
)
from .rng import substream
from .synthetic import SyntheticSpec, sample_synthetic

__all__ = [
    "PairDataset",
    "build_pair_dataset",
    "train_verifier",
    "same_class_prob",
    "same_class_prob_batch",
    "discrepancy",
    "GammaCalibration",
    "gamma_from_deltas",
    "calibrate_gamma",
    "source_digest",
    "save_calibration",
    "load_calibration",
    "Verdict",
    "verify_pair",
    "PacGapTerms",
    "pac_gap_terms",
    "pairwise_risk",
    "GapRow",
    "measure_generalization_gap",
]

MIN_CALIBRATION_PAIRS = 100


@dataclass(frozen=True)
class PairDataset:
    """Ordered point pairs with a same-class flag and their source labels."""

    first: np.ndarray        # (m, d)
    second: np.ndarray       # (m, d)
    same: np.ndarray         # (m,) in {0, 1}
    label_first: np.ndarray  # (m,)
    label_second: np.ndarray
    label_counts: dict

    def __len__(self) -> int:
        return int(self.same.size)

    @property
    def same_fraction(self) -> float:
        return float(self.same.mean())


def _sample_codes(rng, n: int, count: int, accept) -> np.ndarray:
    """Distinct ordered-pair codes i*n + j (i != j) satisfying ``accept``."""
    chosen: set[int] = set()
    out = []
    while len(out) < count:
        need = max(count - len(out), 16)
        i = rng.integers(0, n, size=2 * need)
        j = rng.integers(0, n, size=2 * need)
        for a, b in zip(i, j):
            if a == b:
                continue
            code = int(a) * n + int(b)
            if code in chosen or not accept(int(a), int(b)):
                continue
            chosen.add(code)
            out.append(code)
            if len(out) == count:
                break
    return np.array(out, dtype=np.int64)


def build_pair_dataset(x: np.ndarray, labels: np.ndarray,
                       max_pairs: int = 200_000, balance: float = 0.5,
                       seed: int = 0) -> PairDataset:
    """All ordered pairs i != j, or a seeded balanced sample when too many.

    ``balance`` is the target same-class fraction of a sampled dataset; when
    the data cannot supply that many same-class pairs the remainder shifts
    to different-class pairs (and vice versa).
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    n = x.shape[0]
    if x.ndim != 2 or labels.shape != (n,):
        raise ValueError("expected (n, d) features with n labels")
    if n < 2:
        raise ValueError("need at least two points to form pairs")
    if np.unique(labels).size < 2:
        raise ValueError("pair data needs at least two classes")
    if not (0.0 <= balance <= 1.0):
        raise ValueError("balance must lie in [0, 1]")
    if max_pairs < 1:
        raise ValueError("max_pairs must be positive")

    counts = {int(c): int(v) for c, v in zip(*np.unique(labels, return_counts=True))}
    total = n * (n - 1)
    same_universe = sum(v * (v - 1) for v in counts.values())

    if total <= max_pairs:
        i, j = np.nonzero(~np.eye(n, dtype=bool))
    else:
        rng = substream(seed, "pair-sample")
        want_same = min(int(round(balance * max_pairs)), same_universe)
        want_diff = min(max_pairs - want_same, total - same_universe)
        want_same = min(max_pairs - want_diff, same_universe)
        same_codes = _sample_codes(
            rng, n, want_same, lambda a, b: labels[a] == labels[b]
        )
        diff_codes = _sample_codes(
            rng, n, want_diff, lambda a, b: labels[a] != labels[b]
        )
        codes = np.concatenate([same_codes, diff_codes])
        i, j = codes // n, codes % n

    return PairDataset(
        first=x[i],
        second=x[j],
        same=(labels[i] == labels[j]).astype(np.int64),
        label_first=labels[i].astype(np.int64),
        label_second=labels[j].astype(np.int64),
        label_counts=counts,
    )


def train_verifier(pairs: PairDataset, cfg: TrainConfig,
                   hidden_dims=(60, 60, 60), dropout_rate: float = 0.0
                   ) -> DenseClassifier:
    """Train the same-class net on concatenated pairs (class 1 = same).

    The returned net is temperature-calibrated on its validation pairs:
    the verification discrepancy compares V's probability against the
    classifier's pairwise agreement, so a systematic confidence skew in V
    would masquerade as adversarial signal on every genuine pair.
    """
    stacked = np.hstack([pairs.first, pairs.second])
    if np.unique(pairs.same).size < 2:
        raise ValueError("pair dataset is single-class; cannot train a verifier")
    net = train_classifier(stacked, pairs.same, cfg, hidden_dims=hidden_dims,
                           dropout_rate=dropout_rate, num_classes=2)
    val_rows = net.metadata["split_indices"]["val"]
    if val_rows:
        net = fit_temperature(net, stacked[val_rows], pairs.same[val_rows])
    return net


def same_class_prob(verifier: DenseClassifier, x_a: np.ndarray,
                    x_b: np.ndarray) -> float:
    """The net's same-class probability for the ordered pair (a, b); a
    one-pair view of :func:`same_class_prob_batch`."""
    pair = np.concatenate([np.asarray(x_a, float), np.asarray(x_b, float)])
    return float(predict_proba(verifier, pair)[1])


def same_class_prob_batch(verifier: DenseClassifier, x_a: np.ndarray,
                          x_b: np.ndarray) -> np.ndarray:
    stacked = np.hstack([np.asarray(x_a, float), np.asarray(x_b, float)])
    return predict_proba_batch(verifier, stacked)[:, 1]


def discrepancy(model: DenseClassifier, verifier: DenseClassifier,
                x: np.ndarray, x_tilde: np.ndarray) -> float:
    """|V(x, x_tilde) - sum_i M_i(x) M_i(x_tilde)|, in [0, 1]; a one-pair
    view of :func:`_discrepancy_batch`."""
    pair = np.stack([_row(model, x), _row(model, x_tilde)])
    return float(_discrepancy_batch(model, verifier, pair[:1], pair[1:])[0])


def _discrepancy_batch(model, verifier, x_a, x_b) -> np.ndarray:
    """The discrepancy of every pair (x_a[i], x_b[i]).  M runs once over the
    stacked [x_a; x_b] rows and the agreement is a per-row dot, so a pair's
    value is the same in any batch, a batch of one included."""
    n = len(x_a)
    probs = predict_proba_batch(model, np.vstack([x_a, x_b]))
    agreement = (probs[:n, None, :] @ probs[n:, :, None])[:, 0, 0]
    return np.abs(same_class_prob_batch(verifier, x_a, x_b) - agreement)


@dataclass(frozen=True)
class GammaCalibration:
    gamma: float
    rate: float
    sample_size: int
    seed: int
    source_split: str
    source_hash: str


def gamma_from_deltas(deltas: np.ndarray, rate: float) -> float:
    """Smallest sample value with at most ceil(rate * N) strictly above it."""
    deltas = np.asarray(deltas, dtype=float)
    if deltas.size == 0:
        raise ValueError("no discrepancy samples")
    if not (0.0 <= rate <= 1.0):
        raise ValueError("rate must lie in [0, 1]")
    ordered = np.sort(deltas)
    allowed_above = math.ceil(rate * deltas.size)
    idx = max(deltas.size - allowed_above - 1, 0)
    return float(ordered[idx])


def calibrate_gamma(model: DenseClassifier, verifier: DenseClassifier,
                    x: np.ndarray, labels: np.ndarray, rate: float = 0.10,
                    num_pairs: int = 5000, seed: int = 0,
                    source_split: str = "test") -> GammaCalibration:
    """Set the rejection threshold from different-class pair discrepancies.

    Ordered pairs with differing true labels are sampled without replacement
    from (x, labels); gamma lands so that the configured fraction of their
    discrepancies sits strictly above it.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    n = x.shape[0]
    if labels.shape != (n,):
        raise ValueError("labels must match the feature matrix")
    counts = {int(c): int(v) for c, v in zip(*np.unique(labels, return_counts=True))}
    diff_universe = n * (n - 1) - sum(v * (v - 1) for v in counts.values())
    available = min(num_pairs, diff_universe)
    if available < MIN_CALIBRATION_PAIRS:
        raise ValueError(
            f"only {available} different-class pairs available; "
            f"need at least {MIN_CALIBRATION_PAIRS}"
        )
    rng = substream(seed, "gamma-pairs")
    if available >= diff_universe:
        i, j = np.nonzero(labels[:, None] != labels[None, :])
    else:
        codes = _sample_codes(rng, n, available,
                              lambda a, b: labels[a] != labels[b])
        i, j = codes // n, codes % n
    deltas = _discrepancy_batch(model, verifier, x[i], x[j])
    return GammaCalibration(
        gamma=gamma_from_deltas(deltas, rate),
        rate=float(rate),
        sample_size=int(deltas.size),
        seed=int(seed),
        source_split=source_split,
        source_hash=source_digest(x, labels),
    )


def source_digest(x: np.ndarray, labels: np.ndarray) -> str:
    """sha256 of the rows and labels a calibration is drawn from."""
    digest = hashlib.sha256(np.ascontiguousarray(x, dtype=float).tobytes())
    digest.update(np.ascontiguousarray(labels).tobytes())
    return digest.hexdigest()


def save_calibration(cal: GammaCalibration, path) -> None:
    payload = {
        "kind": "discrepancy-calibration",
        "gamma": cal.gamma,
        "rate": cal.rate,
        "sample_size": cal.sample_size,
        "seed": cal.seed,
        "source_split": cal.source_split,
        "source_hash": cal.source_hash,
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def load_calibration(path) -> GammaCalibration:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"calibration file not found: {path}")
    payload = json.loads(path.read_text())
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind != "discrepancy-calibration":
        raise ValueError(f"calibration file {path} has unknown kind")
    try:
        numbers = [payload[k] for k in ("gamma", "rate", "sample_size", "seed")]
        cal = GammaCalibration(
            gamma=float(numbers[0]),
            rate=float(numbers[1]),
            sample_size=int(numbers[2]),
            seed=int(numbers[3]),
            source_split=str(payload["source_split"]),
            source_hash=str(payload["source_hash"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"calibration file {path} is malformed: {exc!r}"
                         ) from None
    problems = [text for bad, text in (
        (not _numbers_only(numbers), "a value that must be a number is not one"),
        (not math.isfinite(cal.gamma), "gamma is not finite"),
        (not 0.0 <= cal.rate <= 1.0, "rate lies outside [0, 1]"),
        (cal.sample_size < 1, "sample_size is not positive")) if bad]
    if problems:
        raise ValueError(f"calibration file {path} is malformed: {problems[0]}")
    return cal


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    discrepancy: float
    gamma: float


def verify_pair(model: DenseClassifier, verifier: DenseClassifier,
                cal: GammaCalibration, x: np.ndarray, x_tilde: np.ndarray
                ) -> Verdict:
    """Accept iff the discrepancy falls strictly below gamma."""
    value = discrepancy(model, verifier, x, x_tilde)
    return Verdict(accepted=value < cal.gamma, discrepancy=value, gamma=cal.gamma)


# ---------------------------------------------------------------------------
# generalization arithmetic


@dataclass(frozen=True)
class PacGapTerms:
    complexity_base: float
    explicit_term: float


def pac_gap_terms(n: int, k: int, d: int, loss_bound: float,
                  confidence_delta: float) -> PacGapTerms:
    """Pieces of the verifier's risk-deviation bound at sample size n.

    ``explicit_term`` is the fully numeric deviation term
    12 k B / sqrt(n^2 - k^2 n) * sqrt(ln(2/delta) / 2); ``complexity_base``
    is (k / sqrt(n^2 - k^2 n))^(1/d), the scaling inside the
    covering-complexity factor.  Defined only for n > k^2, where the
    effective pair count n^2 - k^2 n is positive.
    """
    n, k, d = int(n), int(k), int(d)
    if k < 1 or d < 1:
        raise ValueError("k and d must be positive integers")
    if n <= k * k:
        raise ValueError(f"bound undefined: need n > k^2 (got n={n}, k={k})")
    if loss_bound <= 0.0:
        raise ValueError("loss bound must be positive")
    if not (0.0 < confidence_delta < 1.0):
        raise ValueError("confidence level must lie in (0, 1)")
    effective = math.sqrt(float(n) * n - float(k) * k * n)
    explicit = 12.0 * k * loss_bound / effective * math.sqrt(
        math.log(2.0 / confidence_delta) / 2.0
    )
    base = (k / effective) ** (1.0 / d)
    return PacGapTerms(complexity_base=base, explicit_term=explicit)


def _clipped_ce(v: np.ndarray, z: np.ndarray, bound: float) -> np.ndarray:
    prob_of_truth = np.where(z == 1, v, 1.0 - v)
    return np.minimum(-np.log(np.maximum(prob_of_truth, 1e-300)), bound)


def pairwise_risk(verifier: DenseClassifier, pairs: PairDataset,
                  loss_bound: float = 10.0) -> float:
    """Two-part empirical risk: mean over class pairs of per-pair mean loss.

    Same-class cells average over the k diagonal class pairs, different-class
    cells over the k(k-1) ordered off-diagonal ones; cells with no sampled
    pairs are left out of their average.  Loss is cross-entropy clipped at
    ``loss_bound``.
    """
    v = same_class_prob_batch(verifier, pairs.first, pairs.second)
    losses = _clipped_ce(v, pairs.same, loss_bound)
    classes = sorted(pairs.label_counts)
    same_cells, diff_cells = [], []
    for a in classes:
        for b in classes:
            members = (pairs.label_first == a) & (pairs.label_second == b)
            if not members.any():
                continue
            cell = float(losses[members].mean())
            (same_cells if a == b else diff_cells).append(cell)
    parts = []
    if same_cells:
        parts.append(float(np.mean(same_cells)))
    if diff_cells:
        parts.append(float(np.mean(diff_cells)))
    if not parts:
        raise ValueError("pair dataset has no usable class cells")
    return float(sum(parts))


@dataclass(frozen=True)
class GapRow:
    n: int
    train_risk: float
    test_risk: float
    gap: float
    explicit_bound_term: float


def measure_generalization_gap(spec: SyntheticSpec, n_values, cfg: TrainConfig,
                               hidden_dims=(60, 60, 60),
                               loss_bound: float = 10.0,
                               confidence_delta: float = 0.05,
                               max_train_pairs: int = 20_000,
                               heldout_points: int = 2000,
                               heldout_pairs: int = 20_000,
                               seed: int = 0) -> list[GapRow]:
    """Train verifiers at several sample sizes and measure risk gaps.

    For each n a verifier is trained on pairs from n fresh points, then its
    two-part risk is evaluated on those training pairs and on pairs drawn
    from a large held-out sample; the row records |holdout - train| next to
    the explicit term of the deviation bound at that n.
    """
    k, d = spec.num_classes, spec.num_features
    rows = []
    for n in n_values:
        n = int(n)
        terms = pac_gap_terms(n, k, d, loss_bound, confidence_delta)
        x_train, y_train = sample_synthetic(
            spec, n, substream(seed, f"gap-train-{n}")
        )
        pairs = build_pair_dataset(x_train, y_train, max_pairs=max_train_pairs,
                                   balance=0.5, seed=seed)
        verifier = train_verifier(pairs, cfg, hidden_dims=hidden_dims)
        train_risk = pairwise_risk(verifier, pairs, loss_bound)
        x_held, y_held = sample_synthetic(
            spec, heldout_points, substream(seed, f"gap-holdout-{n}")
        )
        held_pairs = build_pair_dataset(x_held, y_held, max_pairs=heldout_pairs,
                                        balance=0.5, seed=seed + 1)
        test_risk = pairwise_risk(verifier, held_pairs, loss_bound)
        rows.append(GapRow(
            n=n,
            train_risk=train_risk,
            test_risk=test_risk,
            gap=abs(test_risk - train_risk),
            explicit_bound_term=terms.explicit_term,
        ))
    return rows
