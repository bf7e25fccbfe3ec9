"""Perturbation search: penalty-method descent toward the target region.

A candidate minimizes

    d_Y(M(x_tilde), T) + lam * cost(x, x_tilde) + box_penalty + group_penalty

over x_tilde, starting from the individual x.  Descent runs in the model's
standardized coordinates with adaptive moment estimation; immutable features
receive zero gradient, the best iterate by objective is kept (so the search
can never do worse than staying put), coordinates that barely moved are
snapped back exactly, and the final point is rounded onto the coherent set
inside the individual's actionable box.  The reported epsilon (cost) and
delta (distance of M's output from the target region) are recomputed at
that discrete point.

Every search here (a frontier over lam, a budget walk, the repair attempts)
and in ``baselines`` (the counterfactual lam schedule, each bisection step
of the l2 attack) runs as one call of ``_descend``, a batched descent over
an (n, d) matrix, one row per run; each row keeps its own origin, box, lam,
thresholds, start, moments, best iterate, patience counter and divergence
flag, so rows never influence each other.  While the cost is muted, rows
that differ only in lam share their steps, which are bit-identical to the
steps each would take alone.  A ``_batch`` twin runs many individuals in
that one descent and returns, in order, each one's result or the exception
it raised.

Budgets are met by walking lam geometrically: down for a delta ceiling
(spend more until close enough), up for an epsilon ceiling (spend less until
affordable, with the zero-change candidate as the always-affordable floor).
"""
from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .actionability import (
    CostModel,
    FeatureSchema,
    PenaltyConfig,
    _frozen,
    cond_batch,
    cost_batch,
    penalties_batch,
)
# unused forward_cache stays: perfbench/selftest.py traces it in this module
from .netcore import (  # noqa: F401
    DenseClassifier,
    forward_cache,
    forward_cache_batch,
    input_gradient_batch,
)
from .probspace import (
    DivergenceSpec,
    TargetSet,
    kl_divergence,
    target_distance_batch,
)
from .rng import substream
from .verify import verify_pairs

__all__ = [
    "OptConfig",
    "TapCandidate",
    "DivergedError",
    "trivial_candidate",
    "generate_candidate",
    "BudgetOutcome",
    "meet_budget",
    "SweepResult",
    "frontier_sweep",
    "frontier_sweep_batch",
    "RepairAttempt",
    "RepairOutcome",
    "repair_on_rejection",
    "repair_on_rejection_batch",
    "CandidateRecord",
    "write_frontier_csv",
    "FRONTIER_COLUMNS",
]


@dataclass(frozen=True)
class OptConfig:
    """Knobs for one descent run; ``lam`` prices cost against distance."""

    lam: float = 1.0
    lr: float = 0.05
    max_iters: int = 500
    tol: float = 1e-6
    patience: int = 10
    snap_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lam < 0.0 or not math.isfinite(self.lam):
            raise ValueError("lam must be finite and nonnegative")
        if self.lr <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.max_iters < 1 or self.patience < 1:
            raise ValueError("max_iters and patience must be positive")
        if self.tol < 0.0 or self.snap_tol < 0.0:
            raise ValueError("tolerances must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True, eq=False)
class TapCandidate:
    """A proposed move for one individual, priced and scored."""

    x: np.ndarray
    x_tilde: np.ndarray
    lam: float
    epsilon: float
    delta: float
    objective: float
    iterations: int
    verified: bool | None = None
    discrepancy: float | None = None

    @property
    def is_noop(self) -> bool:
        return bool(np.array_equal(self.x, self.x_tilde))

    def with_verdict(self, verdict) -> "TapCandidate":
        return dataclasses.replace(self, verified=verdict.accepted,
                                   discrepancy=verdict.discrepancy)


class DivergedError(RuntimeError):
    """Descent hit a non-finite objective or gradient."""

    def __init__(self, message: str, trace: list[float]):
        super().__init__(message)
        self.trace = trace


def _check_problem(model: DenseClassifier, schema: FeatureSchema,
                   target: TargetSet) -> None:
    if model.num_features != len(schema.features):
        raise ValueError(
            f"model expects {model.num_features} features, "
            f"schema has {len(schema.features)}"
        )
    if model.num_classes != target.num_classes:
        raise ValueError(
            f"model has {model.num_classes} classes, "
            f"target set expects {target.num_classes}"
        )
    if not np.all(model.std > 0):
        raise ValueError("model standardization has nonpositive scales")


def trivial_candidate(model: DenseClassifier, schema: FeatureSchema,
                      cm: CostModel, target: TargetSet, x: np.ndarray,
                      div: DivergenceSpec | None = None) -> TapCandidate:
    """The stay-put candidate: x_tilde = x, epsilon 0, lam infinite."""
    _check_problem(model, schema, target)
    x = schema.check_vector(x)[None, :]
    return _price(model, schema, cm, target, div, x, x, math.inf, 0)[0][0]


def _descend(evaluate, objective, u: np.ndarray, keys: np.ndarray,
             steps: int, lr: float, warmup: int, tol: float = 0.0,
             patience: float = math.inf, bounds=None):
    """Normalized-ADAM descent on every row of u at once.

    ``evaluate(reps, u_reps, cost_on)`` gives the lam-free parts of the
    objective (a tuple of arrays) and the step gradient at points u_reps,
    point j being row reps[j]'s; ``cost_on`` is False for the first
    ``warmup`` evaluations.  ``objective(rows, *parts)`` is the tracked
    objective of rows, each with its own lam.  ``keys`` holds, per row,
    all but lam that a step reads: while the cost is muted, the first row
    of each bit-identical key steps for all of them, and every row keeps
    its own objective, best iterate and divergence step.  A row stops
    after warmup once its objective moved less than ``tol`` for
    ``patience`` steps running, or at once when it turns non-finite.
    ``bounds`` (two (n, d) arrays, in the key) clips each row's steps.
    Returns the best rows, steps taken, the step each row diverged at
    (-1: never, 0: at the start) and the (steps + 1, n) objective history.
    """
    n = u.shape[0]
    # a huge lam can overflow the objective; the divergence flag reports it
    objective = np.errstate(over="ignore")(objective)
    # reps[j]: the row whose point j is; at[i]: the point row i sits at
    reps = at = every = np.arange(n)
    if warmup > 0:
        bits = np.ascontiguousarray(keys, dtype=float).view(np.int64)
        reps, at = (a.ravel() for a in np.unique(
            bits, axis=0, return_index=True, return_inverse=True)[1:])
    u = u[reps]
    parts, grad = evaluate(reps, u, warmup < 1)
    value = objective(every, *(part[at] for part in parts))
    history = np.full((steps + 1, n), np.nan)
    history[0] = value
    diverged = np.where(np.isfinite(value) & np.isfinite(grad).all(1)[at],
                        -1, 0)
    active = diverged < 0
    best_value, best_u = value.copy(), u[at]
    m, v = np.zeros_like(u), np.zeros_like(u)
    stall, iterations = np.zeros((2, n), dtype=int)
    for t in range(1, steps + 1):
        if t == warmup:   # the cost switches on: every row steps alone
            u, grad, m, v = u[at], grad[at], m[at], v[at]
            reps = at = every
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        # row rows[i] is at point pts[k[i]]; with the cost on, rows are points
        pts, k = ((rows, slice(None)) if at is every
                  else np.unique(at[rows], return_inverse=True))
        # unit-normalized, so steps survive a saturated softmax; the batched
        # dot product rounds exactly as np.linalg.norm does on one row
        g = grad[pts]
        norm = np.sqrt(g[:, None, :] @ g[:, :, None])[:, 0]
        g = g / np.where(norm > 0.0, norm, 1.0)
        m_pts = m[pts] = 0.9 * m[pts] + 0.1 * g
        v_pts = v[pts] = 0.999 * v[pts] + 0.001 * g * g
        u_pts = u[pts] - lr * (m_pts / (1.0 - 0.9 ** t)) / (
            np.sqrt(v_pts / (1.0 - 0.999 ** t)) + 1e-8)
        if bounds is not None:
            u_pts = np.clip(u_pts, bounds[0][reps[pts]], bounds[1][reps[pts]])
        u[pts] = u_pts
        parts, step = evaluate(reps[pts], u_pts, t + 1 > warmup)
        grad[pts] = step
        value = objective(rows, *(part[k] for part in parts))
        history[t, rows] = value
        iterations[rows] = t
        ok = np.isfinite(value) & np.isfinite(step).all(1)[k]
        diverged[rows[~ok]] = t
        better = ok & (value < best_value[rows])
        best_value[rows[better]] = value[better]
        best_u[rows[better]] = u_pts[k][better]
        if t > warmup:
            stall[rows] = np.where(np.abs(value - history[t - 1, rows]) < tol,
                                   stall[rows] + 1, 0)
        active[rows] = ok & (stall[rows] < patience)
    return best_u, iterations, diverged, history


def _price(model, schema, cm, target, div, x, x_tilde, lams, iterations
           ) -> tuple[list[TapCandidate], np.ndarray]:
    """Price the final points x_tilde[i], reached from the origins x[i]
    (both (n, d)), with one call per batched layer: epsilon, and delta of
    M's output (div None: KL).  lams and iterations: per row, or one.
    Returns the candidates and M's (n, k) probabilities at x_tilde."""
    div = div if div is not None else kl_divergence()
    probs = forward_cache_batch(model, x_tilde).probs
    delta = target_distance_batch(probs, target, div)[0]
    epsilon = cost_batch(x, x_tilde, cm, schema)[0]
    lams, iterations = np.broadcast_arrays(np.asarray(lams, dtype=float),
                                           iterations, delta)[:2]
    return [TapCandidate(
        x=_frozen(x[i]), x_tilde=_frozen(x_tilde[i]), lam=float(lams[i]),
        epsilon=float(eps), delta=float(dist), iterations=int(iterations[i]),
        objective=float(dist if eps == 0.0 else dist + lams[i] * eps))
        for i, (eps, dist) in enumerate(zip(epsilon, delta))], probs


def _verified(model, verifier, cal, results) -> list:
    """The TapCandidates among results with their verdicts, all pairs in
    one batched call; anything else (a DivergedError) passes through."""
    cands = [r for r in results if isinstance(r, TapCandidate)]
    verdicts = iter(verify_pairs(model, verifier, cal, [c.x for c in cands],
                                 [c.x_tilde for c in cands]))
    return [r.with_verdict(next(verdicts)) if isinstance(r, TapCandidate)
            else r for r in results]


def _origin_errors(schema: FeatureSchema, xs: np.ndarray) -> list:
    """Why a search cannot start from each row of the (m, d) matrix xs, or
    None where it can: an origin must be coherent and inside the feature
    bounds, immutable features included."""
    outside = np.any((xs < schema.lower_bounds - 1e-9)
                     | (xs > schema.upper_bounds + 1e-9), axis=1)
    return [None if ok and not out else ValueError(
                "origin point lies outside the feature bounds" if ok else
                "origin point is not coherent under the schema")
            for ok, out in zip(schema.coherent_rows(xs), outside)]


def _individuals(model: DenseClassifier, schema: FeatureSchema,
                 target: TargetSet, xs) -> np.ndarray:
    """Check the shared problem and the (m, d) matrix of individuals xs."""
    _check_problem(model, schema, target)
    return schema.check_vector(xs, rows=True)


def _one(results: list):
    """The result of a one-individual batch call; its exception is raised."""
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def _search(model: DenseClassifier, schema: FeatureSchema, cm: CostModel,
            target: TargetSet, xs: np.ndarray, lams, oc: OptConfig,
            div: DivergenceSpec | None = None,
            penalty: PenaltyConfig | None = None, starts=None, targets=None
            ) -> list:
    """One descent per lam, all rows at once, in the order given.

    xs is an (m, d) matrix of origins, checked by the caller with
    :func:`_origin_errors`, and the rows split into m equal runs, one per
    origin (and so per box).  Row i descends from
    starts[i] (default its origin) toward targets[i] (default target; same
    classes, own thresholds) and is priced against target from its origin.
    Each row yields a TapCandidate, or the DivergedError it ran into.
    """
    if len(lams) == 0:
        return []
    div = div if div is not None else kl_divergence()
    penalty = penalty if penalty is not None else PenaltyConfig()
    lams = np.asarray(lams, dtype=float)
    targets = [target] * lams.size if targets is None else targets
    p, q = np.array([(t.p, t.q) for t in targets]).T
    x = np.repeat(xs, lams.size // len(xs), axis=0)
    lo, hi = schema.box_for(x)
    mean, std = model.mean, model.std
    frozen = ~schema.mutable_mask
    u_origin = (x - mean) / std
    starts = x if starts is None else starts

    def evaluate(rows, u_now, cost_on):
        """Lam-free objective parts for tracking, muted-lam step gradient."""
        x_now = u_now * std + mean
        cache = forward_cache_batch(model, x_now)
        dist, up = target_distance_batch(cache.probs, target, div,
                                         p[rows], q[rows])
        price, price_grad = cost_batch(x[rows], x_now, cm, schema)
        pen, pen_grad = penalties_batch(x_now, schema, penalty,
                                        (lo[rows], hi[rows]))
        lam_eff = lams[rows] if cost_on else np.zeros(len(rows))
        step = (input_gradient_batch(model, cache, up)
                + lam_eff[:, None] * price_grad + pen_grad) * std
        step[:, frozen] = 0.0
        return (dist, price, pen), step

    # Two-phase schedule: the cost term is muted for the first half of the
    # run and switches on at full weight afterwards.  From the origin the
    # cost gradient vanishes while a saturated softmax pulls toward the
    # target only minusculely, so a constant weight traps the search at the
    # origin; chasing the target first and then letting the pull-back
    # retrace the trade-off curve covers both regimes, and the best
    # full-objective iterate is what gets returned either way.
    best_u, iterations, diverged, history = _descend(
        evaluate, lambda rows, dist, price, pen: dist + lams[rows] * price + pen,
        (starts - mean) / std, np.column_stack([starts, x, lo, hi, p, q]),
        oc.max_iters, oc.lr, oc.max_iters // 2, oc.tol, oc.patience)
    kept = np.flatnonzero(diverged < 0)
    # coordinates that barely moved snap back exactly before rounding
    moved = np.where(np.abs(best_u[kept] - u_origin[kept]) < oc.snap_tol,
                     u_origin[kept], best_u[kept])
    x_tilde = cond_batch(moved * std + mean, schema, (lo[kept], hi[kept]))
    priced = iter(_price(model, schema, cm, target, div, x[kept], x_tilde,
                         lams[kept], iterations[kept])[0])
    return [next(priced) if t < 0 else DivergedError(
                "objective not finite at the starting point" if t == 0
                else f"objective diverged at iteration {t} (lam={lam:g})",
                history[:t + 1, i].tolist())
            for i, (t, lam) in enumerate(zip(diverged, lams))]


def generate_candidate(model: DenseClassifier, schema: FeatureSchema,
                       cm: CostModel, target: TargetSet, x: np.ndarray,
                       oc: OptConfig, div: DivergenceSpec | None = None,
                       penalty: PenaltyConfig | None = None,
                       x_start: np.ndarray | None = None) -> TapCandidate:
    """Run one descent at oc.lam and return the discretized best point."""
    _check_problem(model, schema, target)
    x = schema.check_vector(x)[None, :]
    starts = None if x_start is None else schema.check_vector(x_start)[None, :]
    _one(_origin_errors(schema, x))   # raises the origin's error, if any
    return _one(_search(model, schema, cm, target, x, [oc.lam], oc, div,
                        penalty, starts=starts))


@dataclass(frozen=True)
class BudgetOutcome:
    candidate: TapCandidate
    met: bool
    budget: str
    limit: float
    trials: tuple[TapCandidate, ...]


def meet_budget(model: DenseClassifier, schema: FeatureSchema, cm: CostModel,
                target: TargetSet, x: np.ndarray, oc: OptConfig,
                epsilon_max: float | None = None,
                delta_max: float | None = None,
                trials: int = 20, factor: float = 2.0,
                div: DivergenceSpec | None = None,
                penalty: PenaltyConfig | None = None) -> BudgetOutcome:
    """Search lam geometrically until one ceiling holds.

    With ``delta_max`` the zero-change candidate is tried first, then lam
    walks down from oc.lam, returning the first candidate close enough to
    the target; an unmet budget returns the closest attempt with met=False.
    With ``epsilon_max`` lam walks up from oc.lam and the first affordable
    candidate wins; the zero-change candidate is the fallback, so an epsilon
    budget is always met.
    """
    if (epsilon_max is None) == (delta_max is None):
        raise ValueError("give exactly one of epsilon_max or delta_max")
    if trials < 1 or not 1.0 < factor < math.inf:   # NaN fails too
        raise ValueError("need trials >= 1 and a finite factor > 1")
    noop = trivial_candidate(model, schema, cm, target, x, div)
    if delta_max is not None:
        if not delta_max >= 0.0:   # NaN fails too
            raise ValueError("delta_max must be nonnegative")
        if noop.delta <= delta_max:
            return BudgetOutcome(noop, True, "delta", delta_max, (noop,))
    elif not epsilon_max >= 0.0:
        raise ValueError("epsilon_max must be nonnegative")
    _one(_origin_errors(schema, noop.x[None, :]))   # after the stay-put price
    lams = [oc.lam]
    for _ in range(trials - 1):
        lams.append(lams[-1] / factor if delta_max is not None
                    else lams[-1] * factor)
    tried: list[TapCandidate] = []
    for cand in _search(model, schema, cm, target, noop.x[None, :], lams, oc,
                        div, penalty):
        if isinstance(cand, DivergedError):
            raise cand
        tried.append(cand)
        if delta_max is not None and cand.delta <= delta_max:
            return BudgetOutcome(cand, True, "delta", delta_max, tuple(tried))
        if epsilon_max is not None and cand.epsilon <= epsilon_max:
            return BudgetOutcome(cand, True, "epsilon", epsilon_max,
                                 tuple(tried))
    if delta_max is not None:
        best = min(tried, key=lambda c: c.delta)
        return BudgetOutcome(best, False, "delta", delta_max, tuple(tried))
    tried.append(noop)
    return BudgetOutcome(noop, True, "epsilon", epsilon_max, tuple(tried))


@dataclass(frozen=True)
class SweepResult:
    candidates: tuple[TapCandidate, ...]
    failures: tuple[tuple[float, str], ...]

    def cheapest_with_delta_below(self, delta_max: float) -> TapCandidate | None:
        for cand in self.candidates:
            if cand.delta <= delta_max:
                return cand
        return None


def frontier_sweep(model: DenseClassifier, schema: FeatureSchema,
                   cm: CostModel, target: TargetSet, x: np.ndarray,
                   lambdas, oc: OptConfig, include_noop: bool = True,
                   div: DivergenceSpec | None = None,
                   penalty: PenaltyConfig | None = None) -> SweepResult:
    """One candidate per lam, sorted by epsilon; diverged runs are logged."""
    return _one(frontier_sweep_batch(
        model, schema, cm, target, schema.check_vector(x)[None, :], lambdas,
        oc, include_noop, div, penalty))


def frontier_sweep_batch(model: DenseClassifier, schema: FeatureSchema,
                         cm: CostModel, target: TargetSet, xs: np.ndarray,
                         lambdas, oc: OptConfig, include_noop: bool = True,
                         div: DivergenceSpec | None = None,
                         penalty: PenaltyConfig | None = None) -> list:
    """:func:`frontier_sweep` for every row of an (m, d) matrix in one
    descent: one SweepResult per individual, in order, or the ValueError
    its origin raised."""
    lams = [float(lam) for lam in lambdas]
    if not all(0.0 <= lam < math.inf for lam in lams):   # NaN fails too
        raise ValueError("lambdas must be finite and nonnegative")
    xs = _individuals(model, schema, target, xs)
    out = _origin_errors(schema, xs)
    good = [i for i, err in enumerate(out) if err is None]
    results = _search(model, schema, cm, target, xs[good], lams * len(good),
                      oc, div, penalty)
    # the stay-put candidates of every individual, priced in one call
    noops = (_price(model, schema, cm, target, div, xs[good], xs[good],
                    math.inf, 0)[0] if include_noop else [])
    for k, i in enumerate(good):
        chunk = results[k * len(lams):(k + 1) * len(lams)]
        candidates = sorted([r for r in chunk if isinstance(r, TapCandidate)]
                            + noops[k:k + 1], key=lambda c: (c.epsilon, c.delta))
        failures = [(lam, str(r)) for lam, r in zip(lams, chunk)
                    if isinstance(r, DivergedError)]
        out[i] = SweepResult(tuple(candidates), tuple(failures))
    return out


@dataclass(frozen=True)
class RepairAttempt:
    strategy: str
    attempt: int
    candidate: TapCandidate | None
    error: str | None = None


@dataclass(frozen=True)
class RepairOutcome:
    candidate: TapCandidate
    verified: bool
    strategy: str | None
    attempts: tuple[RepairAttempt, ...]


def _tightened(target: TargetSet, step: float) -> TargetSet:
    p = min(target.p + step, 1.0) if target.desirable else target.p
    q = max(target.q - step, 0.0) if target.undesirable else target.q
    return TargetSet(target.num_classes, target.desirable,
                     target.undesirable, p, q)


def repair_on_rejection(model: DenseClassifier, verifier, cal,
                        schema: FeatureSchema, cm: CostModel,
                        target: TargetSet, rejected: TapCandidate,
                        oc: OptConfig,
                        strategies=("decrease_lambda", "shrink_target",
                                    "random_restart"),
                        attempts_per_strategy: int = 2,
                        div: DivergenceSpec | None = None,
                        penalty: PenaltyConfig | None = None) -> RepairOutcome:
    """Re-search after a verifier rejection, stopping at the first accept.

    decrease_lambda halves lam per attempt to allow a larger move;
    shrink_target tightens the thresholds by 0.05 per attempt so descent
    aims deeper into the region (delta is still reported against the
    original target); random_restart reruns from a start jittered by half
    a standard deviation per attempt, enough to put descent into a
    different basin rather than retracing the rejected path.  If nothing
    passes, the smallest-discrepancy candidate seen (including the
    rejected one) is returned with verified=False.
    """
    return _one(repair_on_rejection_batch(
        model, verifier, cal, schema, cm, target, [rejected], [oc],
        strategies, attempts_per_strategy, div, penalty))


def repair_on_rejection_batch(model: DenseClassifier, verifier, cal,
                              schema: FeatureSchema, cm: CostModel,
                              target: TargetSet, rejected, ocs,
                              strategies=("decrease_lambda", "shrink_target",
                                          "random_restart"),
                              attempts_per_strategy: int = 2,
                              div: DivergenceSpec | None = None,
                              penalty: PenaltyConfig | None = None) -> list:
    """:func:`repair_on_rejection` for a sequence of rejected candidates in
    one descent, ocs[i] being candidate i's OptConfig (they may differ only
    in lam): one RepairOutcome per candidate, in order, or the ValueError
    its origin raised."""
    for strategy in strategies:
        if strategy not in ("decrease_lambda", "shrink_target", "random_restart"):
            raise ValueError(f"unknown repair strategy {strategy!r}")
    if len(ocs) != len(rejected):
        raise ValueError("need one OptConfig per rejected candidate")
    if len({dataclasses.replace(oc, lam=0.0) for oc in ocs}) > 1:
        raise ValueError("batched repairs may differ only in lam")
    plan = [(strategy, a) for strategy in strategies
            for a in range(1, attempts_per_strategy + 1)]
    aims = [_tightened(target, 0.05 * a) if strategy == "shrink_target"
            else target for strategy, a in plan]
    d = len(schema.features)
    xs = _individuals(model, schema, target, np.reshape(
        [schema.check_vector(c.x) for c in rejected], (len(rejected), d)))
    out = _origin_errors(schema, xs)
    good = [i for i, err in enumerate(out) if err is None]
    if not good:
        return out
    lams, starts = [], []
    for i in good:
        lo, hi = schema.box_for(xs[i])
        for strategy, a in plan:
            lams.append(ocs[i].lam / (2.0 ** a)
                        if strategy == "decrease_lambda" else ocs[i].lam)
            start = xs[i]
            if strategy == "random_restart":
                rng = substream(ocs[i].seed, f"repair-restart-{a}")
                jitter = 0.5 * a * model.std * rng.standard_normal(d)
                jitter[~schema.mutable_mask] = 0.0
                start = np.clip(xs[i] + jitter, lo, hi)
            starts.append(start)
    results = _search(model, schema, cm, target, xs[good], lams, ocs[0], div,
                      penalty, starts=np.array(starts), targets=aims * len(good))
    # every attempt is verified in one call; the walk below still stops at
    # the first accept in strategy order
    results = _verified(model, verifier, cal, results)
    for k, i in enumerate(good):
        attempts: list[RepairAttempt] = []
        for (strategy, a), cand in zip(
                plan, results[k * len(plan):(k + 1) * len(plan)]):
            if isinstance(cand, DivergedError):
                attempts.append(RepairAttempt(strategy, a, None, str(cand)))
                continue
            attempts.append(RepairAttempt(strategy, a, cand))
            if cand.verified:
                out[i] = RepairOutcome(cand, True, strategy, tuple(attempts))
                break
        else:   # nothing passed: the smallest discrepancy seen comes back
            pool = [(att.candidate.discrepancy, att.strategy, att.candidate)
                    for att in attempts if att.candidate is not None]
            if rejected[i].discrepancy is not None:
                pool.append((rejected[i].discrepancy, None, rejected[i]))
            _, strategy, best = min(pool, key=lambda item: item[0],
                                    default=(None, None, rejected[i]))
            out[i] = RepairOutcome(best, False, strategy, tuple(attempts))
    return out


# ---------------------------------------------------------------------------
# frontier serialization

FRONTIER_COLUMNS = ("individual_id", "method", "lambda", "epsilon", "delta",
                    "discrepancy", "verified", "iterations")


@dataclass(frozen=True)
class CandidateRecord:
    individual_id: int
    method: str
    candidate: TapCandidate


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_frontier_csv(path, records) -> None:
    """One row per candidate; floats use shortest round-trip formatting."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FRONTIER_COLUMNS)
        for rec in records:
            c = rec.candidate
            writer.writerow([
                _fmt(rec.individual_id), rec.method, _fmt(c.lam),
                _fmt(c.epsilon), _fmt(c.delta), _fmt(c.discrepancy),
                _fmt(c.verified), _fmt(c.iterations),
            ])
