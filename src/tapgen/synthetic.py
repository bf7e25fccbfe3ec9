"""Gaussian-mixture ground truth for benchmarking against known posteriors.

Each class is an axis-aligned Gaussian with its own prior; the exact
posterior P(class | x) then follows from the density ratio, which is what
lets the benchmark score perturbations against reality instead of against
the model under attack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import substream

__all__ = [
    "SyntheticSpec",
    "canonical_benchmark_spec",
    "gap_experiment_spec",
    "sample_synthetic",
    "true_posterior",
    "true_posterior_batch",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Mixture of k axis-aligned Gaussians in d dimensions."""

    means: np.ndarray       # (k, d)
    variances: np.ndarray   # (k, d), strictly positive
    priors: np.ndarray      # (k,), sums to 1

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=float)
        variances = np.asarray(self.variances, dtype=float)
        priors = np.asarray(self.priors, dtype=float)
        if means.ndim != 2:
            raise ValueError("means must be a (k, d) matrix")
        if variances.shape != means.shape:
            raise ValueError("variances must match the shape of means")
        if priors.shape != (means.shape[0],):
            raise ValueError("need one prior weight per class")
        if not all(np.isfinite(a).all() for a in (means, variances, priors)):
            raise ValueError("mixture parameters must be finite")
        if np.any(variances <= 0.0):
            raise ValueError("variances must be strictly positive")
        if np.any(priors < 0.0) or abs(float(priors.sum()) - 1.0) > 1e-9:
            raise ValueError("priors must be non-negative and sum to 1")
        for arr in (means, variances, priors):
            arr.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "priors", priors)

    @property
    def num_classes(self) -> int:
        return self.means.shape[0]

    @property
    def num_features(self) -> int:
        return self.means.shape[1]


def canonical_benchmark_spec() -> SyntheticSpec:
    """Two well-separated classes in d=4; the last two axes carry no signal."""
    return SyntheticSpec(
        means=np.array([[-1.5, -1.5, 0.0, 0.0], [1.5, 1.5, 0.0, 0.0]]),
        variances=np.ones((2, 4)),
        priors=np.array([0.5, 0.5]),
    )


def gap_experiment_spec() -> SyntheticSpec:
    """Smaller d=2 task used for the verifier generalization-gap sweeps."""
    return SyntheticSpec(
        means=np.array([[-1.5, -1.5], [1.5, 1.5]]),
        variances=np.ones((2, 2)),
        priors=np.array([0.5, 0.5]),
    )


def sample_synthetic(spec: SyntheticSpec, n: int,
                     rng: np.random.Generator | int = 0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Draw n labelled points; an int is treated as a seed."""
    if n < 1:
        raise ValueError("need at least one sample")
    if not isinstance(rng, np.random.Generator):
        rng = substream(int(rng), "synthetic-sample")
    labels = rng.choice(spec.num_classes, size=n, p=spec.priors)
    noise = rng.standard_normal((n, spec.num_features))
    x = spec.means[labels] + noise * np.sqrt(spec.variances[labels])
    return x, labels


def _log_weights(spec: SyntheticSpec, x: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - spec.means[None, :, :]
    log_density = -0.5 * np.sum(
        diff * diff / spec.variances[None, :, :]
        + np.log(2.0 * math.pi * spec.variances[None, :, :]),
        axis=2,
    )
    with np.errstate(divide="ignore"):
        return log_density + np.log(spec.priors)[None, :]


def true_posterior_batch(spec: SyntheticSpec, x: np.ndarray) -> np.ndarray:
    """Exact class posteriors P(class | x) for each row of x."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != spec.num_features:
        raise ValueError("expected an (n, d) matrix matching the spec")
    logw = _log_weights(spec, x)
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    return w / w.sum(axis=1, keepdims=True)


def true_posterior(spec: SyntheticSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.num_features,):
        raise ValueError("expected a single point matching the spec")
    return true_posterior_batch(spec, x[None, :])[0]
