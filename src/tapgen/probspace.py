"""Probability-simplex target sets and closed-form f-divergence distances.

A target set collects the class distributions a user would accept: at least
mass ``p`` on the desirable classes W and at most mass ``q`` on the
undesirable classes U.  The distance from a model output y to that set is the
minimal f-divergence D(y || z) over members z, and it admits a closed form
built from only three numbers: the desirable mass S_W, the undesirable mass
S_U and the neutral remainder 1 - S_W - S_U.  The simplex splits into four
regions:

  A: both constraints already hold            -> distance 0
  B: only the desirable floor is violated     -> two-term form in S_W
  C: only the undesirable ceiling is violated -> two-term form in S_U
  D: both are violated                        -> three-term form

The minimizing member of the set rescales y group-wise, which is what
:func:`project_to_target` returns.  Gradients below are the coordinate-wise
partial derivatives of the closed form; they are continuous across all four
region boundaries and vanish on neutral coordinates.

Everything here is pure numpy and deterministic.  Objects are immutable after
construction and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "ProbVector",
    "TargetSet",
    "DivergenceSpec",
    "kl_divergence",
    "chi_square_divergence",
    "get_divergence",
    "classify_region",
    "target_distance",
    "target_distance_grad",
    "target_distance_batch",
    "project_to_target",
]

# Mass sums are clamped below by this before entering f' ratios; KL's
# f'(t) = ln t + 1 diverges at 0 and saturated softmax outputs do reach 0.0.
MASS_FLOOR = 1e-12

_SUM_TOL = 1e-9


def _vec(y) -> np.ndarray:
    values = y.values if isinstance(y, ProbVector) else np.asarray(y, dtype=float)
    if values.ndim != 1:
        raise ValueError("expected a 1-d probability vector")
    return values


@dataclass(frozen=True)
class ProbVector:
    """A point on the probability simplex (components in [0,1], sum 1)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("probability vector must be 1-d and non-empty")
        if not np.all(np.isfinite(values)):
            raise ValueError("probability vector has non-finite components")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ValueError("probability components must lie in [0, 1]")
        if abs(float(values.sum()) - 1.0) > _SUM_TOL:
            raise ValueError(f"probability mass sums to {values.sum():.12g}, not 1")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)

    def __array__(self, dtype=None):
        return np.asarray(self.values, dtype=dtype)


def _sorted_indices(idx: Iterable[int], k: int, label: str) -> tuple[int, ...]:
    out = tuple(sorted(int(i) for i in idx))
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate {label} class indices")
    if out and (out[0] < 0 or out[-1] >= k):
        raise ValueError(f"{label} class index out of range for k={k}")
    return out


@dataclass(frozen=True)
class TargetSet:
    """{z on the simplex : sum(z[desirable]) >= p and sum(z[undesirable]) <= q}.

    Degenerate thresholds are normalized at construction: p = 0 makes the
    desirable constraint vacuous, so the desirable set is dropped (and vice
    versa, an empty desirable set stores p = 0); q = 1 likewise drops the
    undesirable set.  With no neutral class the two constraints are
    complementary (S_U = 1 - S_W), so p and q are tightened to p = 1 - q with
    the binding threshold kept.  When desirable, undesirable and neutral
    classes all exist, p + q <= 1 is required for the three-term region-D
    form to stay well defined.
    """

    num_classes: int
    desirable: tuple[int, ...]
    undesirable: tuple[int, ...]
    p: float
    q: float

    def __post_init__(self) -> None:
        k = int(self.num_classes)
        if k < 2:
            raise ValueError("target sets need at least two classes")
        w = _sorted_indices(self.desirable, k, "desirable")
        u = _sorted_indices(self.undesirable, k, "undesirable")
        if set(w) & set(u):
            raise ValueError("desirable and undesirable classes overlap")
        p = float(self.p)
        q = float(self.q)
        if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
            raise ValueError("thresholds p and q must lie in [0, 1]")
        # Vacuous constraints collapse to the canonical empty-group form.
        if p == 0.0:
            w = ()
        if not w:
            p = 0.0
        if q == 1.0:
            u = ()
        if not u:
            q = 1.0
        if not w and not u:
            raise ValueError("target set places no constraint on the simplex")
        if len(u) == k:
            # S_U is identically 1, so q < 1 leaves nothing.
            raise ValueError("undesirable classes cover the simplex: target set is empty")
        neutral = k - len(w) - len(u)
        if w and u:
            if neutral == 0:
                # Complementary constraints: keep whichever threshold binds.
                p = max(p, 1.0 - q)
                q = 1.0 - p
            elif p + q > 1.0:
                raise ValueError(
                    "p + q must not exceed 1 when neutral classes exist"
                )
        object.__setattr__(self, "num_classes", k)
        object.__setattr__(self, "desirable", w)
        object.__setattr__(self, "undesirable", u)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def neutral(self) -> tuple[int, ...]:
        tagged = set(self.desirable) | set(self.undesirable)
        return tuple(i for i in range(self.num_classes) if i not in tagged)

    def masses(self, y) -> tuple[float, float]:
        """(S_W, S_U) for a vector y of matching dimension."""
        values = _vec(y)
        if values.size != self.num_classes:
            raise ValueError(
                f"vector has {values.size} classes, target set expects {self.num_classes}"
            )
        return tuple(float(s[0]) for s in _masses(values[None, :], self))

    def contains(self, y, tol: float = 1e-9) -> bool:
        s_w, s_u = self.masses(y)
        return s_w >= self.p - tol and s_u <= self.q + tol


@dataclass(frozen=True)
class DivergenceSpec:
    """An f-divergence D(y||z) = sum_i z_i f(y_i / z_i).

    ``f`` and ``f_prime`` are numpy array functions computed entry by entry,
    so a value rounds alike alone and inside any array; they take every
    float (t <= 0, NaN and inf included) and keep NaN as NaN.
    ``f`` must be convex with f(1) = 0; both are probed at construction.
    ``f`` is expected to handle t = 0 by its right limit (0 for KL, 1 for
    chi-square) so that empty groups cost what the underlying infimum costs.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    f_prime: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __post_init__(self) -> None:
        if abs(float(self.f(1.0))) > 1e-12:
            raise ValueError(f"divergence {self.name!r}: f(1) must be 0")
        vals = np.asarray(self.f(np.linspace(0.01, 10.0, 200)), dtype=float)
        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        if np.any(second < -1e-9):
            raise ValueError(f"divergence {self.name!r}: f fails the convexity probe")


def _kl_f(t):
    # the t <= 0 test is False for NaN, so NaN stays NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t <= 0.0, 0.0, t * np.log(t))


def _kl_f_prime(t):
    return np.log(np.maximum(t, MASS_FLOOR)) + 1.0


def _chi2_f(t):
    return (t - 1.0) ** 2


def _chi2_f_prime(t):
    return 2.0 * (t - 1.0)


_KL = DivergenceSpec("kl", _kl_f, _kl_f_prime)
_CHI2 = DivergenceSpec("chi2", _chi2_f, _chi2_f_prime)


def kl_divergence() -> DivergenceSpec:
    return _KL


def chi_square_divergence() -> DivergenceSpec:
    return _CHI2


def get_divergence(name: str) -> DivergenceSpec:
    try:
        return {"kl": _KL, "chi2": _CHI2}[name]
    except KeyError:
        raise ValueError(f"unknown divergence {name!r}; choose 'kl' or 'chi2'") from None


def _regions(s_w: np.ndarray, s_u: np.ndarray, p, q) -> tuple[np.ndarray, ...]:
    """Masks of the closed form's regions A, B, C and D, one entry per row.

    Boundary points satisfy the inclusive inequalities of the cheaper region,
    so they land there; both case formulas agree on the boundary.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        bound_b = np.where(1.0 - p <= 0.0, np.inf, (1.0 - s_w) * q / (1.0 - p))
        bound_c = np.where(1.0 - q <= 0.0, np.inf, (1.0 - s_u) * p / (1.0 - q))
    a = (s_w >= p) & (s_u <= q)
    b = ~a & (s_w < p) & (s_u <= bound_b)
    c = ~a & ~b & (s_u > q) & (s_w >= bound_c)
    return a, b, c, ~(a | b | c)


def _masses(y: np.ndarray, t: TargetSet) -> tuple[np.ndarray, ...]:
    """(S_W, S_U) of every row, added in class order, as numpy adds a column
    gather of two rows or more (a lone row it adds pairwise)."""
    return tuple(np.cumsum(y[:, list(c)], axis=1)[:, -1] if c else
                 np.zeros(len(y)) for c in (t.desirable, t.undesirable))


def classify_region(y, t: TargetSet) -> str:
    """Which case (A-D) of the closed form applies at y; a one-row view."""
    s_w, s_u = t.masses(y)
    masks = _regions(np.array([s_w]), np.array([s_u]), t.p, t.q)
    return "ABCD"[np.concatenate(masks).argmax()]


def target_distance(y, t: TargetSet, div: DivergenceSpec) -> float:
    """min over z in t of D(y || z), by the four-region closed form; the
    one-row view of :func:`target_distance_batch`."""
    values = _vec(y)
    t.masses(values)
    return float(target_distance_batch(values[None, :], t, div)[0][0])


def target_distance_grad(y, t: TargetSet, div: DivergenceSpec) -> np.ndarray:
    """Coordinate-wise partial derivatives of :func:`target_distance` at y.

    Neutral coordinates always get 0.  Mass sums are floored at MASS_FLOOR
    before entering f' so saturated model outputs keep finite gradients.
    This is the one-row view of :func:`target_distance_batch`.
    """
    values = _vec(y)
    t.masses(values)
    return target_distance_batch(values[None, :], t, div)[1][0]


def target_distance_batch(y: np.ndarray, t: TargetSet, div: DivergenceSpec,
                          p: np.ndarray | None = None,
                          q: np.ndarray | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Distance and gradient for every row of an (n, k) matrix at once.

    Row i is measured against t's classes with thresholds p[i] and q[i]
    (t.p and t.q by default), which must be those of a valid TargetSet
    over the same classes.  f and f' act entry by entry, so every row
    rounds as it does alone and no row depends on the others.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    p = np.full(n, t.p) if p is None else np.asarray(p, dtype=float)
    q = np.full(n, t.q) if q is None else np.asarray(q, dtype=float)
    w, u = list(t.desirable), list(t.undesirable)
    s_w, s_u = _masses(y, t)
    _, b, c, d = _regions(s_w, s_u, p, q)

    def term(budget, mass):
        """budget * f(mass / budget), with the budget -> 0 limit."""
        out = np.where(mass <= 0.0, 0.0, np.inf)
        pos = budget > 0.0
        out[pos] = budget[pos] * div.f(mass[pos] / budget[pos])
        return out

    def slope(mass, budget):
        return div.f_prime(mass / np.maximum(budget, MASS_FLOOR))

    # the gradient floors the masses so saturated outputs stay finite
    fs_w, fs_u = np.maximum(s_w, MASS_FLOOR), np.maximum(s_u, MASS_FLOOR)
    dist, g_w, g_u = np.zeros(n), np.zeros(n), np.zeros(n)
    if b.any():
        dist[b] = term(p[b], s_w[b]) + term(1.0 - p[b], 1.0 - s_w[b])
        g_w[b] = slope(fs_w[b], p[b]) - slope(1.0 - fs_w[b], 1.0 - p[b])
    if c.any():
        dist[c] = term(q[c], s_u[c]) + term(1.0 - q[c], 1.0 - s_u[c])
        g_u[c] = slope(fs_u[c], q[c]) - slope(1.0 - fs_u[c], 1.0 - q[c])
    if d.any():
        rest = 1.0 - p[d] - q[d]
        dist[d] = (term(p[d], s_w[d]) + term(q[d], s_u[d])
                   + term(rest, 1.0 - s_w[d] - s_u[d]))
        neutral = slope(np.maximum(1.0 - fs_w[d] - fs_u[d], MASS_FLOOR), rest)
        g_w[d] = slope(fs_w[d], p[d]) - neutral
        g_u[d] = slope(fs_u[d], q[d]) - neutral
    grad = np.zeros_like(y)
    grad[:, w] = g_w[:, None]
    grad[:, u] = g_u[:, None]
    return dist, grad


def _scale_group(z: np.ndarray, idx: list[int], target_mass: float, mass: float) -> None:
    if not idx:
        return
    if mass <= MASS_FLOOR:
        # The group carries no mass in y: any split of the budget attains the
        # infimum, so spread it uniformly.
        z[idx] = target_mass / len(idx)
    else:
        z[idx] = z[idx] * (target_mass / mass)


def project_to_target(y, t: TargetSet, div: DivergenceSpec) -> ProbVector:
    """The member of t attaining the closed-form distance from y.

    The minimizer rescales y group-wise: the violated budget is met exactly
    and each group keeps the internal proportions of y.
    """
    values = _vec(y).copy()
    s_w, s_u = t.masses(values)
    p, q = t.p, t.q
    region = classify_region(values, t)
    w = list(t.desirable)
    u = list(t.undesirable)
    rest_w = [i for i in range(values.size) if i not in set(w)]
    rest_u = [i for i in range(values.size) if i not in set(u)]
    n = [i for i in rest_w if i not in set(u)]
    if region == "A":
        pass
    elif region == "B":
        _scale_group(values, w, p, s_w)
        _scale_group(values, rest_w, 1.0 - p, 1.0 - s_w)
    elif region == "C":
        _scale_group(values, u, q, s_u)
        _scale_group(values, rest_u, 1.0 - q, 1.0 - s_u)
    else:
        _scale_group(values, w, p, s_w)
        _scale_group(values, u, q, s_u)
        _scale_group(values, n, 1.0 - p - q, 1.0 - s_w - s_u)
    return ProbVector(values)
