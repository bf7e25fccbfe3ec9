"""Independent numerical oracles used to cross-check closed forms.

Nothing here reuses the region logic under test: the k=2 oracle is a dense
grid search over the one free coordinate, the k>=3 oracle hands the
constrained minimization to scipy's SLSQP, gradients come from central
differences, and the probability-bound arithmetic is redone in mpmath.
The per-row descent oracle is the one-vector-at-a-time search that the
batched kernel replaced; the per-row attack oracle is the
one-point-at-a-time l2 attack that the row-batched attack replaced.  Both
run the network through the single-row forward and backward passes below,
which the row-exact batched layers replaced, and price through the scalar
closed-form distance and cost model below.  The descent oracle also takes
its penalties and its final rounding from the scalar box and group
penalties, coherence test and ``row_cond`` below.  Every public single-row
name is now a one-row view of a batched layer, so the ``row_*`` functions
here are the deleted scalar bodies, kept as references: no batched layer
is checked against a view of itself.  ``per_param_train_classifier`` is
the training loop that one flat parameter buffer replaced: it keeps each
weight and bias in its own array and takes one ADAM update per array.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.optimize import minimize

from tapgen.actionability import (
    CostModel,
    FeatureSchema,
    PenaltyConfig,
    _resolve_group,
    cost_grad,
)
from tapgen.baselines import BaselineResult
from tapgen.netcore import (
    _ADAM_B1,
    _ADAM_B2,
    _ADAM_EPS,
    DenseClassifier,
    ForwardCache,
    TrainConfig,
    _accuracy,
    _cross_entropy,
    _forward_batch,
    _init_params,
    _softmax,
    _split_indices,
)
from tapgen.perturb import OptConfig, TapCandidate
from tapgen.probspace import (
    DivergenceSpec,
    TargetSet,
    classify_region,
    kl_divergence,
    target_distance_grad,
)
from tapgen.rng import substream

_Z_FLOOR = 1e-9


def divergence_value(y: np.ndarray, z: np.ndarray, div: DivergenceSpec) -> float:
    total = 0.0
    for yi, zi in zip(y, z):
        zi = max(zi, _Z_FLOOR)
        total += zi * div.f(yi / zi)
    return total


def grid_min_distance_k2(y: np.ndarray, t: TargetSet, div: DivergenceSpec,
                         step: float = 1e-4) -> float:
    """Brute-force distance for k=2: scan z0 over the feasible interval."""
    lo, hi = 0.0, 1.0
    for idx in t.desirable:
        if idx == 0:
            lo = max(lo, t.p)
        else:
            hi = min(hi, 1.0 - t.p)
    for idx in t.undesirable:
        if idx == 0:
            hi = min(hi, t.q)
        else:
            lo = max(lo, 1.0 - t.q)
    if lo > hi:
        raise ValueError("empty feasible interval")

    def value(v: float) -> float:
        return divergence_value(y, np.array([v, 1.0 - v]), div)

    grid = np.clip(np.arange(lo, hi + step / 2, step), lo, hi)
    grid = np.unique(np.concatenate([grid, [lo, hi]]))
    values = np.array([value(v) for v in grid])
    best_idx = int(values.argmin())
    best = float(values[best_idx])
    # One refinement pass around the coarse minimum.
    left = grid[max(best_idx - 1, 0)]
    right = grid[min(best_idx + 1, grid.size - 1)]
    fine = np.linspace(left, right, 2001)
    for v in fine:
        best = min(best, value(float(v)))
    return best


def _feasible_start(t: TargetSet, k: int) -> np.ndarray:
    z = np.full(k, 0.0)
    w = list(t.desirable)
    u = list(t.undesirable)
    n = [i for i in range(k) if i not in set(w) | set(u)]
    w_mass = t.p if w else 0.0
    u_mass = 0.0
    slack = 1.0 - w_mass - u_mass
    # Spread remaining mass to keep every coordinate interior where possible.
    groups = [g for g in (w, u, n) if g]
    for g in groups:
        z[g] += slack / len(groups) / len(g)
    if w:
        z[w] += w_mass / len(w)
    # Undesirable mass must stay within q.
    if u:
        over = z[u].sum() - t.q
        if over > 0:
            z[u] -= over / len(u)
            spill = [i for i in range(k) if i not in set(u)]
            z[spill] += over / len(spill)
    z = np.clip(z, _Z_FLOOR, None)
    return z / z.sum()


def slsqp_min_distance(y: np.ndarray, t: TargetSet, div: DivergenceSpec) -> float:
    """Constrained-minimizer oracle for the distance at any k."""
    k = y.size
    w = list(t.desirable)
    u = list(t.undesirable)

    def objective(z):
        return divergence_value(y, z, div)

    def jac(z):
        g = np.zeros(k)
        for i in range(k):
            zi = max(z[i], _Z_FLOOR)
            r = y[i] / zi
            g[i] = div.f(r) - r * div.f_prime(r)
        return g

    cons = [{"type": "eq", "fun": lambda z: z.sum() - 1.0,
             "jac": lambda z: np.ones(k)}]
    if w:
        cons.append({"type": "ineq", "fun": lambda z: z[w].sum() - t.p,
                     "jac": lambda z: np.isin(np.arange(k), w).astype(float)})
    if u:
        cons.append({"type": "ineq", "fun": lambda z: t.q - z[u].sum(),
                     "jac": lambda z: -np.isin(np.arange(k), u).astype(float)})
    best = math.inf
    starts = [_feasible_start(t, k)]
    mix = 0.5 * starts[0] + 0.5 * np.full(k, 1.0 / k)
    starts.append(np.clip(mix, _Z_FLOOR, None) / mix.sum())
    for z0 in starts:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = minimize(objective, z0, jac=jac, method="SLSQP",
                           bounds=[(_Z_FLOOR, 1.0)] * k, constraints=cons,
                           options={"maxiter": 400, "ftol": 1e-14})
        if res.fun is not None and np.isfinite(res.fun):
            z = np.clip(res.x, _Z_FLOOR, None)
            z = z / z.sum()
            if t.contains(z, tol=1e-7):
                best = min(best, divergence_value(y, z, div))
    return best


def central_diff_grad(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function at x."""
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += h
        lo[i] -= h
        g[i] = (fn(hi) - fn(lo)) / (2.0 * h)
    return g


def random_target_set(rng: np.random.Generator, k: int,
                      require_w: bool = False) -> TargetSet:
    """A valid random target set on k classes (never the degenerate cases)."""
    while True:
        n_w = int(rng.integers(0, k))
        n_u = int(rng.integers(0, k - n_w))
        if require_w and n_w == 0:
            continue
        if n_w == 0 and n_u == 0:
            continue
        if n_u == k:
            continue
        perm = rng.permutation(k)
        w = tuple(int(i) for i in perm[:n_w])
        u = tuple(int(i) for i in perm[n_w:n_w + n_u])
        n_neutral = k - n_w - n_u
        if n_w and n_u:
            if n_neutral:
                p = float(rng.uniform(0.05, 0.85))
                q = float(rng.uniform(0.02, max(0.03, 1.0 - p - 0.02)))
                if p + q > 1.0:
                    continue
            else:
                p = float(rng.uniform(0.05, 0.95))
                q = 1.0 - p
        elif n_w:
            p = float(rng.uniform(0.05, 0.95))
            q = 1.0
        else:
            p = 0.0
            q = float(rng.uniform(0.05, 0.9))
        return TargetSet(k, w, u, p, q)


def random_simplex_point(rng: np.random.Generator, k: int) -> np.ndarray:
    return rng.dirichlet(np.ones(k))


def row_forward(model, x: np.ndarray) -> ForwardCache:
    """One forward pass on one vector: a (1, d) product per layer."""
    x_std = (np.asarray(x, dtype=float) - model.mean) / model.std
    pre, act = [], [x_std]
    h = x_std[None, :]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = h @ w.T + b
        h = np.maximum(z, 0.0)
        pre.append(z[0])
        act.append(h[0])
    logits = (h @ model.weights[-1].T + model.biases[-1])[0]
    scaled = logits / model.temperature
    e = np.exp(scaled - scaled.max())
    return ForwardCache(x_std, pre, act, logits, e / e.sum())


def row_backward(model, cache: ForwardCache, g_logits: np.ndarray
                 ) -> np.ndarray:
    """J^T g_logits for the logits of one row, in raw feature units."""
    g = model.weights[-1].T @ g_logits
    for w, pre in zip(reversed(model.weights[:-1]), reversed(cache.pre)):
        g = g * (pre > 0.0)
        g = w.T @ g
    return g / model.std


def row_input_gradient(model, cache: ForwardCache, upstream: np.ndarray
                       ) -> np.ndarray:
    """J^T upstream for the probabilities of one row."""
    s = cache.probs
    return row_backward(model, cache,
                        s * (upstream - float(s @ upstream)) / model.temperature)


def _mass_term(div: DivergenceSpec, budget: float, mass: float) -> float:
    """budget * f(mass / budget) with the budget -> 0 limit convention."""
    if budget <= 0.0:
        # lim c->0 of c f(s/c) is s * lim f(t)/t, infinite for any strictly
        # convex f with superlinear growth (both built-ins) unless s = 0.
        return 0.0 if mass <= 0.0 else math.inf
    return budget * div.f(mass / budget)


def row_target_distance(y, t: TargetSet, div: DivergenceSpec) -> float:
    """min over z in t of D(y || z), by the four-region closed form."""
    s_w, s_u = t.masses(y)
    p, q = t.p, t.q
    region = classify_region(y, t)
    if region == "A":
        return 0.0
    if region == "B":
        return _mass_term(div, p, s_w) + _mass_term(div, 1.0 - p, 1.0 - s_w)
    if region == "C":
        return _mass_term(div, q, s_u) + _mass_term(div, 1.0 - q, 1.0 - s_u)
    return (
        _mass_term(div, p, s_w)
        + _mass_term(div, q, s_u)
        + _mass_term(div, 1.0 - p - q, 1.0 - s_w - s_u)
    )


def row_cost(x: np.ndarray, x_tilde: np.ndarray, cm: CostModel,
             schema: FeatureSchema) -> float:
    """Price of moving the individual from x to x_tilde, in raw units."""
    x = schema.check_vector(x)
    x_tilde = schema.check_vector(x_tilde)
    total = 0.0
    for term in cm.quadratic:
        i = schema.index(term.feature)
        total += term.weight * (x_tilde[i] - x[i]) ** 2
    for term in cm.linear:
        i = schema.index(term.feature)
        total += term.weight * (x_tilde[i] - x[i])
    for term in cm.transitions:
        idx = _resolve_group(schema, term)
        total += float(x[idx] @ term.matrix @ x_tilde[idx])
    for term in cm.triggers:
        i = schema.index(term.feature)
        total += term.cost_on * max(0.0, x_tilde[i] - x[i])
    return total


def row_penalty_actionable(x_tilde: np.ndarray, schema: FeatureSchema,
                           pc: PenaltyConfig,
                           box: tuple[np.ndarray, np.ndarray] | None = None
                           ) -> tuple[float, np.ndarray]:
    """Hinge penalty on leaving the actionable box; returns (value, gradient)."""
    x_tilde = schema.check_vector(x_tilde)
    lo, hi = box if box is not None else (schema.lower_bounds, schema.upper_bounds)
    over = np.maximum(0.0, x_tilde - hi)
    under = np.maximum(0.0, lo - x_tilde)
    value = pc.actionable_weight * float((over + under).sum())
    grad = pc.actionable_weight * (
        (x_tilde > hi).astype(float) - (x_tilde < lo).astype(float)
    )
    return value, grad


def row_penalty_coherence(x_tilde: np.ndarray, schema: FeatureSchema,
                          pc: PenaltyConfig) -> tuple[float, np.ndarray]:
    """Squared drift of each one-hot group's mass from 1; (value, gradient)."""
    x_tilde = schema.check_vector(x_tilde)
    value = 0.0
    grad = np.zeros_like(x_tilde)
    for idx in schema.onehot_groups.values():
        members = list(idx)
        drift = 1.0 - float(x_tilde[members].sum())
        value += pc.coherence_weight * drift * drift
        grad[members] += -2.0 * pc.coherence_weight * drift
    return value, grad


def row_is_coherent(schema: FeatureSchema, x: np.ndarray,
                    tol: float = 1e-9) -> bool:
    """Integral/boolean values where required, exactly one hot per group."""
    x = schema.check_vector(x)
    for i, f in enumerate(schema.features):
        if f.kind == "integer" and abs(x[i] - round(x[i])) > tol:
            return False
        if f.kind in ("boolean", "onehot") and (
            abs(x[i]) > tol and abs(x[i] - 1.0) > tol
        ):
            return False
    for idx in schema.onehot_groups.values():
        if abs(float(x[list(idx)].sum()) - 1.0) > tol:
            return False
    return True


def row_cond(x_tilde: np.ndarray, schema: FeatureSchema,
             box: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Snap a relaxed candidate onto the coherent set inside the box.

    Numerics clip, integers round half away from zero then clip, booleans
    round to the nearer admissible end, and each one-hot group activates its
    largest admissible member (ties to the lowest index).  Idempotent.
    """
    x_tilde = schema.check_vector(x_tilde).copy()
    lo, hi = box if box is not None else (schema.lower_bounds, schema.upper_bounds)
    for i, f in enumerate(schema.features):
        if f.kind == "onehot":
            continue
        v = x_tilde[i]
        if f.kind in ("integer", "boolean"):
            v = float(np.copysign(np.floor(abs(v) + 0.5), v))
        x_tilde[i] = min(max(v, lo[i]), hi[i])
    for idx in schema.onehot_groups.values():
        members = list(idx)
        forced = [i for i in members if lo[i] >= 1.0]
        eligible = [i for i in members if hi[i] >= 1.0]
        if forced:
            winner = forced[0]
        elif eligible:
            winner = eligible[int(np.argmax(x_tilde[eligible]))]
        else:
            winner = members[int(np.argmax(x_tilde[members]))]
        x_tilde[members] = 0.0
        x_tilde[winner] = 1.0
    return x_tilde


def per_row_candidate(model, schema, cm, target: TargetSet, x: np.ndarray,
                      oc: OptConfig, div: DivergenceSpec | None = None,
                      penalty: PenaltyConfig | None = None
                      ) -> TapCandidate | None:
    """One normalized-ADAM descent on one vector, scalar layers only.

    Same schedule as the batched search: cost muted for the first half,
    best full-objective iterate kept, patience stop after warmup, dust
    snapped back, rounded by row_cond.  A diverged run returns None.
    """
    div = div if div is not None else kl_divergence()
    penalty = penalty if penalty is not None else PenaltyConfig()
    x = np.asarray(x, dtype=float)
    lo, hi = schema.box_for(x)
    mean, std = model.mean, model.std
    mutable = schema.mutable_mask
    u_origin = (x - mean) / std
    u = u_origin.copy()

    def evaluate(u_now, lam_eff):
        x_now = u_now * std + mean
        cache = row_forward(model, x_now)
        dist = row_target_distance(cache.probs, target, div)
        grad_dist = row_input_gradient(model, cache, target_distance_grad(
            cache.probs, target, div))
        box_val, box_grad = row_penalty_actionable(x_now, schema, penalty,
                                                   (lo, hi))
        grp_val, grp_grad = row_penalty_coherence(x_now, schema, penalty)
        value = (dist + oc.lam * row_cost(x, x_now, cm, schema) + box_val
                 + grp_val)
        step_grad = (grad_dist + lam_eff * cost_grad(x, x_now, cm, schema)
                     + box_grad + grp_grad) * std
        step_grad[~mutable] = 0.0
        return value, step_grad

    warmup = oc.max_iters // 2
    value, grad = evaluate(u, oc.lam if 1 > warmup else 0.0)
    if not (math.isfinite(value) and np.all(np.isfinite(grad))):
        return None
    best_value, best_u, prev = value, u.copy(), value
    m = np.zeros_like(u)
    v = np.zeros_like(u)
    stall = iterations = 0
    for t in range(1, oc.max_iters + 1):
        norm = float(np.linalg.norm(grad))
        if norm > 0.0:
            grad = grad / norm
        m = 0.9 * m + 0.1 * grad
        v = 0.999 * v + 0.001 * grad * grad
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        u = u - oc.lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        value, grad = evaluate(u, oc.lam if t + 1 > warmup else 0.0)
        iterations = t
        if not (math.isfinite(value) and np.all(np.isfinite(grad))):
            return None
        if value < best_value:
            best_value, best_u = value, u.copy()
        if t > warmup:
            stall = stall + 1 if abs(value - prev) < oc.tol else 0
        prev = value
        if stall >= oc.patience:
            break

    moved = best_u.copy()
    dust = np.abs(moved - u_origin) < oc.snap_tol
    moved[dust] = u_origin[dust]
    x_tilde = row_cond(moved * std + mean, schema, (lo, hi))
    epsilon = float(row_cost(x, x_tilde, cm, schema))
    delta = float(row_target_distance(row_forward(model, x_tilde).probs,
                                      target, div))
    objective = delta if epsilon == 0.0 else delta + oc.lam * epsilon
    return TapCandidate(x=x.copy(), x_tilde=x_tilde, lam=oc.lam,
                        epsilon=epsilon, delta=delta, objective=objective,
                        iterations=iterations)


def _adam_row(u, grad, m, v, t, lr):
    """One normalized-ADAM step on one vector."""
    norm = float(np.linalg.norm(grad))
    if norm > 0.0:
        grad = grad / norm
    m = 0.9 * m + 0.1 * grad
    v = 0.999 * v + 0.001 * grad * grad
    m_hat = m / (1.0 - 0.9 ** t)
    v_hat = v / (1.0 - 0.999 ** t)
    return u - lr * m_hat / (np.sqrt(v_hat) + 1e-8), m, v


def _priced(model, schema, cm, target, div, x, x_tilde, lam, iterations):
    epsilon = float(row_cost(x, x_tilde, cm, schema))
    delta = float(row_target_distance(row_forward(model, x_tilde).probs,
                                      target, div))
    objective = delta if epsilon == 0.0 else delta + lam * epsilon
    return TapCandidate(x=x.copy(), x_tilde=np.array(x_tilde), lam=float(lam),
                        epsilon=epsilon, delta=delta, objective=objective,
                        iterations=iterations)


def per_row_cw(model, schema, cm, target: TargetSet, x: np.ndarray,
               attack_class: int, c_range=(1e-3, 1e3),
               bisection_steps: int = 9, lr: float = 0.05,
               max_iters: int = 200, kappa: float = 0.0,
               div: DivergenceSpec | None = None) -> BaselineResult:
    """The l2 attack on one point at a time, scalar layers only.

    Each bisection step on c runs its own tanh-space normalized-ADAM
    descent on ||x_tilde - x||^2 + c * hinge(margin); the smallest-l2
    strictly attacking iterate of a step is its result, and the smallest
    such result over all steps wins.
    """
    div = div if div is not None else kl_divergence()
    x = np.asarray(x, dtype=float)
    if int(np.argmax(row_forward(model, x).probs)) == attack_class:
        raise ValueError("point is already classified as the attack class")
    c_lo, c_hi = float(c_range[0]), float(c_range[1])
    lo, hi = schema.lower_bounds, schema.upper_bounds
    half = (hi - lo) / 2.0
    center = (lo + hi) / 2.0
    w0 = np.arctanh(np.clip((x - center) / half, -1.0 + 1e-8, 1.0 - 1e-8))
    others = [i for i in range(model.num_classes) if i != attack_class]

    def attack(c: float):
        w, m, v = w0.copy(), np.zeros_like(w0), np.zeros_like(w0)
        best_l2, best_x = math.inf, None
        for t in range(1, max_iters + 1):
            th = np.tanh(w)
            x_now = center + half * th
            cache = row_forward(model, x_now)
            j = others[int(np.argmax(cache.logits[others]))]
            margin = float(cache.logits[j] - cache.logits[attack_class])
            if margin < 0.0:
                l2 = float(np.sum((x_now - x) ** 2))
                if l2 < best_l2:
                    best_l2, best_x = l2, x_now.copy()
            grad_x = 2.0 * (x_now - x)
            if margin > -kappa:
                upstream = np.zeros(model.num_classes)
                upstream[j] = 1.0
                upstream[attack_class] = -1.0
                grad_x = grad_x + c * row_backward(model, cache, upstream)
            w, m, v = _adam_row(w, grad_x * half * (1.0 - th * th), m, v, t,
                                lr)
        if best_x is None:
            return False, math.inf, x.copy()
        return True, best_l2, best_x

    trials, best, fallback = [], None, None
    for _ in range(bisection_steps):
        c = math.sqrt(c_lo * c_hi)
        ok, l2, x_adv = attack(c)
        cand = _priced(model, schema, cm, target, div, x, x_adv, c, max_iters)
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


def spy_descents(monkeypatch, module) -> list[dict]:
    """Run each ``_descend`` call that ``module`` makes twice: with the keys
    it was given, and with all-distinct keys (``np.arange(n)[:, None]``), so
    that every row steps alone, as before rows shared their muted steps.
    Returns the log, one dict per call: both results, the number of distinct
    keys, the warmup, and (rows, cost_on) for each ``evaluate`` call of the
    shared run.  The shared result is what the caller gets back."""
    real, log = module._descend, []

    def spy(evaluate, objective, u, keys, steps, lr, warmup, *args, **kw):
        calls = []

        def counted(rows, u_rows, cost_on):
            # rows may be a slice: the points evaluated are the rows of u_rows
            calls.append((len(u_rows), cost_on))
            return evaluate(rows, u_rows, cost_on)

        shared = real(counted, objective, u, keys, steps, lr, warmup, *args,
                      **kw)
        alone = real(evaluate, objective, u, np.arange(len(u))[:, None],
                     steps, lr, warmup, *args, **kw)
        log.append({"shared": shared, "alone": alone, "calls": calls,
                    "keys": len(np.unique(keys, axis=0)), "warmup": warmup})
        return shared

    monkeypatch.setattr(module, "_descend", spy)
    return log


def same_bits(shared, alone) -> bool:
    """Whether two ``_descend`` results (best rows, iterations, divergence
    steps, history) agree bit for bit, NaN included."""
    return all(a.dtype == b.dtype and a.shape == b.shape
               and a.tobytes() == b.tobytes() for a, b in zip(shared, alone))


def per_param_train_classifier(x: np.ndarray, labels: np.ndarray,
                               cfg: TrainConfig, hidden_dims=(60, 60, 60),
                               dropout_rate: float = 0.0,
                               num_classes: int | None = None
                               ) -> DenseClassifier:
    """``netcore.train_classifier`` with one array, one gradient and one
    ADAM update per weight matrix and bias vector.

    Labels must be integers 0..k-1; every class must occur in the train split.
    Early stopping watches validation cross-entropy and the returned weights
    are the best validation snapshot, never a later, worse one.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    if x.ndim != 2 or labels.shape != (x.shape[0],):
        raise ValueError("expected (n, d) features with n labels")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be integers")
    k = int(num_classes) if num_classes is not None else int(labels.max()) + 1
    if k < 2:
        raise ValueError("need at least two classes")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("labels out of range")
    if not (0.0 <= dropout_rate < 1.0):
        raise ValueError("dropout rate must lie in [0, 1)")

    idx_train, idx_val, idx_test = _split_indices(
        x.shape[0], cfg.split, substream(cfg.seed, "split")
    )
    present = np.unique(labels[idx_train])
    if present.size != k:
        missing = sorted(set(range(k)) - set(int(c) for c in present))
        raise ValueError(f"classes {missing} are absent from the train split")

    x_train, y_train = x[idx_train], labels[idx_train]
    mean = x_train.mean(axis=0)
    std = x_train.std(axis=0)
    std = np.where(std <= 0.0, 1.0, std)

    splits = {"train": idx_train, "val": idx_val, "test": idx_test}
    xs = {name: (x[idx] - mean) / std for name, idx in splits.items()}

    layer_dims = (x.shape[1], *hidden_dims, k)
    weights, biases = _init_params(layer_dims, substream(cfg.seed, "init"))
    params = [*weights, *biases]        # updated in place
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    step = 0

    batch_rng = substream(cfg.seed, "batches")
    drop_rng = substream(cfg.seed, "dropout")
    n_train = x_train.shape[0]
    keep = 1.0 - dropout_rate
    depth = len(weights)

    best_val = math.inf
    best_snapshot = ([w.copy() for w in weights], [b.copy() for b in biases])
    best_epoch = 0
    stall = 0
    val_history: list[float] = []
    epochs_run = 0

    for epoch in range(1, cfg.max_epochs + 1):
        epochs_run = epoch
        order = batch_rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            yb = y_train[batch]
            masks = [(drop_rng.random((yb.size, w.shape[0])) < keep) / keep
                     for w in weights[:-1]] if dropout_rate > 0.0 else []
            pres, acts, logits = _forward_batch(weights, biases,
                                                xs["train"][batch], masks)

            g = _softmax(logits)
            g[np.arange(yb.size), yb] -= 1.0
            g /= yb.size

            grads = [None] * len(params)     # weight grads, then bias grads
            for layer in range(depth - 1, -1, -1):
                grads[layer] = g.T @ acts[layer]
                grads[depth + layer] = g.sum(axis=0)
                if layer > 0:
                    g = g @ weights[layer]
                    if masks:
                        g = g * masks[layer - 1]
                    g = g * (pres[layer - 1] > 0.0)

            step += 1
            correct1 = 1.0 - _ADAM_B1 ** step
            correct2 = 1.0 - _ADAM_B2 ** step
            for p, grad, (m, v) in zip(params, grads, moments):
                m *= _ADAM_B1
                m += (1 - _ADAM_B1) * grad
                v *= _ADAM_B2
                v += (1 - _ADAM_B2) * grad ** 2
                p -= cfg.learning_rate * (m / correct1) / (
                    np.sqrt(v / correct2) + _ADAM_EPS)

        if idx_val.size:
            _, _, val_logits = _forward_batch(weights, biases, xs["val"])
            val_loss = _cross_entropy(_softmax(val_logits), labels[idx_val])
            val_history.append(val_loss)
            if val_loss < best_val:
                best_val = val_loss
                best_snapshot = ([w.copy() for w in weights],
                                 [b.copy() for b in biases])
                best_epoch = epoch
                stall = 0
            else:
                stall += 1
                if stall > cfg.patience:
                    break

    if idx_val.size:
        weights, biases = best_snapshot
    else:
        best_epoch = epochs_run
        best_val = float("nan")

    metadata = {
        "epochs_run": epochs_run,
        "best_epoch": best_epoch,
        "best_val_loss": best_val,
        "val_loss_history": val_history,
        "split_sizes": [int(idx.size) for idx in splits.values()],
        "split_indices": {name: [int(i) for i in idx]
                          for name, idx in splits.items()},
    }
    for name, idx in splits.items():
        _, _, logits = _forward_batch(weights, biases, xs[name])
        metadata[f"{name}_accuracy"] = _accuracy(_softmax(logits), labels[idx])
    return DenseClassifier(
        layer_dims=layer_dims,
        weights=weights,
        biases=biases,
        mean=mean,
        std=std,
        dropout_rate=float(dropout_rate),
        seed=cfg.seed,
        metadata=metadata,
    )
