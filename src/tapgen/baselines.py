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

from .actionability import CostModel, FeatureSchema, cond
from .netcore import (
    DenseClassifier,
    forward_cache,
    forward_cache_batch,
    input_gradient_batch,
    logit_input_gradient,
    predict_proba,
)
from .perturb import (TapCandidate, _adam_step, _check_problem, _descend,
                      _package)
from .probspace import DivergenceSpec, TargetSet, kl_divergence

__all__ = [
    "BaselineResult",
    "mad_weights",
    "wachter_counterfactual",
    "cw_l2",
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
    div = div if div is not None else kl_divergence()
    _check_problem(model, schema, target)
    x = schema.check_vector(x)
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

    if int(np.argmax(predict_proba(model, x))) == desired_class:
        noop = _package(model, schema, cm, target, div, x, x, lambdas[0], 0)
        return BaselineResult(candidate=noop, flipped=True, trials=(noop,))

    mean, std = model.mean, model.std
    lo, hi = schema.box_for(x)
    scale = mad_weights(train_x)
    lams = np.array(lambdas)

    def evaluate(rows, u, cost_on):
        x_now = u * std + mean
        cache = forward_cache_batch(model, x_now)
        p_w = cache.probs[:, desired_class]
        upstream = np.zeros_like(cache.probs)
        upstream[:, desired_class] = 2.0 * (p_w - 1.0)
        lam = lams[rows]
        loss = (p_w - 1.0) ** 2 + lam * np.sum(np.abs(x_now - x) / scale,
                                                axis=1)
        lam_eff = lam if cost_on else np.zeros_like(lam)
        grad = (input_gradient_batch(model, cache, upstream)
                + lam_eff[:, None] * np.sign(x_now - x) / scale)
        return loss, grad * std

    # the loss is tracked at each start-of-step point, so the last of the
    # max_iters steps would never be scored and is not taken
    u_best = _descend(evaluate, np.tile((x - mean) / std, (lams.size, 1)),
                      max(max_iters - 1, 0), lr, max_iters // 2,
                      bounds=((lo - mean) / std, (hi - mean) / std))[0]

    trials: list[TapCandidate] = []
    flips: list[TapCandidate] = []
    for lam, u in zip(lambdas, u_best):
        x_tilde = cond(u * std + mean, schema, (lo, hi))
        cand = _package(model, schema, cm, target, div, x, x_tilde, lam,
                        max_iters)
        trials.append(cand)
        if int(np.argmax(predict_proba(model, x_tilde))) == desired_class:
            flips.append(cand)

    if flips:
        chosen = max(flips, key=lambda c: c.lam)
        return BaselineResult(candidate=chosen, flipped=True,
                              trials=tuple(trials))
    closest = max(trials, key=lambda c: float(
        predict_proba(model, c.x_tilde)[desired_class]))
    return BaselineResult(candidate=closest, flipped=False,
                          trials=tuple(trials))


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
    div = div if div is not None else kl_divergence()
    _check_problem(model, schema, target)
    x = schema.check_vector(x)
    if not 0 <= attack_class < model.num_classes:
        raise ValueError("attack_class out of range")
    if int(np.argmax(predict_proba(model, x))) == attack_class:
        raise ValueError("point is already classified as the attack class")
    if bisection_steps < 1:
        raise ValueError("need at least one bisection step")
    c_lo, c_hi = float(c_range[0]), float(c_range[1])
    if not (0.0 < c_lo < c_hi):
        raise ValueError("c_range must satisfy 0 < lo < hi")

    lo, hi = schema.lower_bounds, schema.upper_bounds
    half = (hi - lo) / 2.0
    center = (lo + hi) / 2.0
    z0 = np.clip((x - center) / half, -1.0 + 1e-8, 1.0 - 1e-8)
    w0 = np.arctanh(z0)
    others = [i for i in range(model.num_classes) if i != attack_class]

    def attack(c: float) -> tuple[bool, float, np.ndarray]:
        w = w0[None, :]
        m = v = np.zeros_like(w)
        best_l2, best_x = math.inf, None
        for t in range(1, max_iters + 1):
            th = np.tanh(w[0])
            x_now = center + half * th
            cache = forward_cache(model, x_now)
            j = others[int(np.argmax(cache.logits[others]))]
            margin = float(cache.logits[j] - cache.logits[attack_class])
            if margin < 0.0:   # strictly attacking: argmax is attack_class
                l2 = float(np.sum((x_now - x) ** 2))
                if l2 < best_l2:
                    best_l2, best_x = l2, x_now.copy()
            grad_x = 2.0 * (x_now - x)
            if margin > -kappa:
                upstream = np.zeros(model.num_classes)
                upstream[j] = 1.0
                upstream[attack_class] = -1.0
                grad_x = grad_x + c * logit_input_gradient(model, x_now,
                                                           upstream, cache)
            grad_w = grad_x * half * (1.0 - th * th)
            w, m, v = _adam_step(w, grad_w[None, :], m, v, t, lr)
        if best_x is None:
            return False, math.inf, center + half * np.tanh(w[0])
        return True, best_l2, best_x

    trials: list[TapCandidate] = []
    best: tuple[float, TapCandidate] | None = None
    fallback: TapCandidate | None = None
    for _ in range(bisection_steps):
        c = math.sqrt(c_lo * c_hi)
        ok, l2, x_adv = attack(c)
        cand = _package(model, schema, cm, target, div, x, x_adv, c, max_iters)
        trials.append(cand)
        if ok:
            if best is None or l2 < best[0]:
                best = (l2, cand)
            c_hi = c
        else:
            fallback = cand
            c_lo = c
    if best is not None:
        return BaselineResult(candidate=best[1], flipped=True,
                              trials=tuple(trials))
    return BaselineResult(candidate=fallback if fallback is not None
                          else trials[-1], flipped=False, trials=tuple(trials))
