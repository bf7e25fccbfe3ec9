"""Comparison methods: counterfactual search and an adversarial attack.

Both return the same record shape as the perturbation search so benchmark
tables can price them with one cost model.  The counterfactual baseline
chases a class flip under a median-absolute-deviation weighted l1 distance,
respects the individual's actionable box, and is rounded onto the coherent
set.  The l2 attack deliberately is not: it moves anywhere inside the data
bounds, immutables included, which is exactly the behavior the pairwise
verifier exists to catch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .actionability import CostModel, FeatureSchema, cond_batch
from .netcore import (
    DenseClassifier,
    forward_cache_batch,
    input_gradient_batch,
    logit_input_gradient_batch,
    predict_proba_batch,
)
from .perturb import (TapCandidate, _adam_step, _descend, _individuals, _one,
                      _price)
from .probspace import DivergenceSpec, TargetSet

__all__ = [
    "BaselineResult",
    "mad_weights",
    "wachter_counterfactual",
    "wachter_counterfactual_batch",
    "cw_l2",
    "cw_l2_batch",
]


@dataclass(frozen=True)
class BaselineResult:
    candidate: TapCandidate
    flipped: bool
    trials: tuple[TapCandidate, ...]


def mad_weights(train_x: np.ndarray) -> np.ndarray:
    """Per-feature median absolute deviation, with 1 where it degenerates."""
    train_x = np.asarray(train_x, dtype=float)
    if train_x.ndim != 2 or train_x.shape[0] < 2:
        raise ValueError("need a (n, d) training matrix with n >= 2")
    med = np.median(train_x, axis=0)
    mad = np.median(np.abs(train_x - med), axis=0)
    return np.where(mad > 0.0, mad, 1.0)


def wachter_counterfactual(model: DenseClassifier, schema: FeatureSchema,
                           cm: CostModel, target: TargetSet, x: np.ndarray,
                           train_x: np.ndarray,
                           desired_class: int | None = None,
                           lambdas=None, lr: float = 0.05,
                           max_iters: int = 300,
                           div: DivergenceSpec | None = None
                           ) -> BaselineResult:
    """Counterfactual search: drive the desired-class probability to one.

    Each lam in the ascending schedule weights the l1 distance (feature
    deviations scaled by training MAD) against (M_w(x_tilde) - 1)^2; the
    run is box-projected every step and rounded at the end.  Among trials
    whose rounded point the model classifies as the desired class, the
    largest lam (the cheapest flip) is returned; with no flip anywhere the
    closest-to-flipping trial comes back with flipped=False.  A point
    already classified as desired returns unchanged.
    """
    return _one(wachter_counterfactual_batch(
        model, schema, cm, target, schema.check_vector(x)[None, :], train_x,
        desired_class, lambdas, lr, max_iters, div))


def wachter_counterfactual_batch(model: DenseClassifier,
                                 schema: FeatureSchema, cm: CostModel,
                                 target: TargetSet, xs: np.ndarray,
                                 train_x: np.ndarray,
                                 desired_class: int | None = None,
                                 lambdas=None, lr: float = 0.05,
                                 max_iters: int = 300,
                                 div: DivergenceSpec | None = None) -> list:
    """:func:`wachter_counterfactual` for every row of an (m, d) matrix in
    one descent: one BaselineResult per individual, in order."""
    xs = _individuals(model, schema, target, xs)
    out: list = [None] * len(xs)
    if desired_class is None:
        if len(target.desirable) != 1:
            raise ValueError(
                "desired_class is required unless the target set has exactly "
                "one desirable class"
            )
        desired_class = target.desirable[0]
    if not 0 <= desired_class < model.num_classes:
        raise ValueError("desired_class out of range")
    if lambdas is None:
        lambdas = np.geomspace(1e-3, 10.0, 9)
    lambdas = sorted(float(v) for v in lambdas)
    if not lambdas or lambdas[0] <= 0.0:
        raise ValueError("lambdas must be positive")
    scale = mad_weights(train_x)

    labels = np.argmax(predict_proba_batch(model, xs), axis=1)
    stay = np.flatnonzero(labels == desired_class)
    live = np.flatnonzero(labels != desired_class)
    mean, std = model.mean, model.std
    x = xs[np.repeat(live, len(lambdas))]
    lo, hi = schema.box_for(x)
    lams = np.tile(lambdas, len(live))

    def evaluate(rows, u, cost_on):
        x_now = u * std + mean
        cache = forward_cache_batch(model, x_now)
        p_w = cache.probs[:, desired_class]
        upstream = np.zeros_like(cache.probs)
        upstream[:, desired_class] = 2.0 * (p_w - 1.0)
        lam = lams[rows]
        loss = (p_w - 1.0) ** 2 + lam * np.sum(np.abs(x_now - x[rows])
                                                / scale, axis=1)
        lam_eff = lam if cost_on else np.zeros_like(lam)
        grad = (input_gradient_batch(model, cache, upstream)
                + lam_eff[:, None] * np.sign(x_now - x[rows]) / scale)
        return loss, grad * std

    # the loss is tracked at each start-of-step point, so the last of the
    # max_iters steps would never be scored and is not taken
    u_best = _descend(evaluate, (x - mean) / std, max(max_iters - 1, 0), lr,
                      max_iters // 2,
                      bounds=((lo - mean) / std, (hi - mean) / std))[0]
    x_tilde = cond_batch(u_best * std + mean, schema, (lo, hi))

    # one pricing call for the phase: the stay-put points, then every trial
    priced, probs = _price(
        model, schema, cm, target, div, np.vstack([xs[stay], x]),
        np.vstack([xs[stay], x_tilde]),
        np.r_[np.full(len(stay), lambdas[0]), lams],
        np.r_[np.zeros(len(stay), int), np.full(len(x), max_iters)])
    for i, noop in zip(stay, priced):
        out[i] = BaselineResult(candidate=noop, flipped=True, trials=(noop,))
    # M's output at every trial point comes back from the pricing pass
    trials, probs = priced[len(stay):], probs[len(stay):]
    flipped = np.argmax(probs, axis=1) == desired_class
    for k, i in enumerate(live):
        rows = slice(k * len(lambdas), (k + 1) * len(lambdas))
        flips = [c for c, f in zip(trials[rows], flipped[rows]) if f]
        # the cheapest flip, else the trial closest to flipping
        chosen = (max(flips, key=lambda c: c.lam) if flips else trials[rows][
            int(np.argmax(probs[rows, desired_class]))])
        out[i] = BaselineResult(candidate=chosen, flipped=bool(flips),
                                trials=tuple(trials[rows]))
    return out


def cw_l2(model: DenseClassifier, schema: FeatureSchema, cm: CostModel,
          target: TargetSet, x: np.ndarray, attack_class: int,
          c_range: tuple[float, float] = (1e-3, 1e3),
          bisection_steps: int = 9, lr: float = 0.05, max_iters: int = 200,
          kappa: float = 0.0, div: DivergenceSpec | None = None
          ) -> BaselineResult:
    """l2-minimal logit-margin attack inside the raw data bounds.

    The point is reparameterized through tanh so it always stays inside the
    schema's global bounds, then each bisection step on the margin weight c
    runs an adaptive descent on ||x_tilde - x||^2 + c * hinge(margin).  The
    successful attack with the smallest l2 wins.  No rounding, no per-
    individual box: the output is generally incoherent and may move
    immutable features, which is the point of this baseline.
    """
    return _one(cw_l2_batch(model, schema, cm, target,
                            schema.check_vector(x)[None, :], attack_class,
                            c_range, bisection_steps, lr, max_iters, kappa,
                            div))


def cw_l2_batch(model: DenseClassifier, schema: FeatureSchema, cm: CostModel,
                target: TargetSet, xs: np.ndarray, attack_class: int,
                c_range: tuple[float, float] = (1e-3, 1e3),
                bisection_steps: int = 9, lr: float = 0.05,
                max_iters: int = 200, kappa: float = 0.0,
                div: DivergenceSpec | None = None) -> list:
    """:func:`cw_l2` for every row of an (m, d) matrix: each bisection step
    attacks all individuals as rows of one descent, each row with its own
    c bracket and best point.  One BaselineResult per individual, in order,
    or the ValueError for a point already in the attack class."""
    xs = _individuals(model, schema, target, xs)
    if not 0 <= attack_class < model.num_classes:
        raise ValueError("attack_class out of range")
    if bisection_steps < 1:
        raise ValueError("need at least one bisection step")
    if not (0.0 < float(c_range[0]) < float(c_range[1])):
        raise ValueError("c_range must satisfy 0 < lo < hi")
    labels = np.argmax(predict_proba_batch(model, xs), axis=1)
    out = [ValueError("point is already classified as the attack class")
           if label == attack_class else None for label in labels]
    live = np.flatnonzero(labels != attack_class)
    if live.size == 0:
        return out
    x = xs[live]
    c_lo, c_hi = (np.full(len(live), float(c)) for c in c_range)
    best_l2, best = np.full(len(live), math.inf), np.full(len(live), -1)
    trials = []
    for step in range(bisection_steps):
        c = np.sqrt(c_lo * c_hi)
        l2, x_adv = _cw_attack(model, schema, x, attack_class, c, lr,
                               max_iters, kappa)
        trials.append(_price(model, schema, cm, target, div, x, x_adv, c,
                             max_iters)[0])
        better = l2 < best_l2
        best_l2[better], best[better] = l2[better], step
        flipped = np.isfinite(l2)
        c_hi, c_lo = np.where(flipped, c, c_hi), np.where(flipped, c_lo, c)
    for r, i in enumerate(live):
        # every step failed without a flip, so the last one is the fallback
        steps = tuple(trial[r] for trial in trials)
        out[i] = BaselineResult(candidate=steps[best[r]],
                                flipped=bool(best[r] >= 0), trials=steps)
    return out


def _cw_attack(model: DenseClassifier, schema: FeatureSchema, x: np.ndarray,
               attack_class: int, c: np.ndarray, lr: float, max_iters: int,
               kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """One bisection step for every row: the smallest l2 that flipped the
    row (inf if none did) and that point, else the last iterate."""
    lo, hi = schema.lower_bounds, schema.upper_bounds
    half, center = (hi - lo) / 2.0, (lo + hi) / 2.0
    w = np.arctanh(np.clip((x - center) / half, -1.0 + 1e-8, 1.0 - 1e-8))
    m = v = np.zeros_like(w)
    n = len(x)
    best_l2, best_x = np.full(n, math.inf), np.zeros_like(x)
    for t in range(1, max_iters + 1):
        th = np.tanh(w)
        x_now = center + half * th
        cache = forward_cache_batch(model, x_now)
        # the strongest rival class: the first largest logit but the target's
        j = np.argmax(np.where(np.arange(model.num_classes) == attack_class,
                               -np.inf, cache.logits), axis=1)
        margin = cache.logits[np.arange(n), j] - cache.logits[:, attack_class]
        l2 = np.sum((x_now - x) ** 2, axis=1)
        better = (margin < 0.0) & (l2 < best_l2)   # strictly attacking
        best_l2[better], best_x[better] = l2[better], x_now[better]
        upstream = np.zeros_like(cache.logits)
        upstream[np.arange(n), j] = 1.0
        upstream[:, attack_class] = -1.0
        push = c[:, None] * logit_input_gradient_batch(model, cache, upstream)
        grad_x = 2.0 * (x_now - x)
        grad_x = np.where((margin > -kappa)[:, None], grad_x + push, grad_x)
        w, m, v = _adam_step(w, grad_x * half * (1.0 - th * th), m, v, t, lr)
    return best_l2, np.where(np.isfinite(best_l2)[:, None], best_x,
                             center + half * np.tanh(w))
