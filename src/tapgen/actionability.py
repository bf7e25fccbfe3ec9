"""Feature schemas, change-cost models, and coherence machinery.

A schema describes each raw feature: numeric, integer, boolean, or a member
of a one-hot categorical group, with actionable bounds and a mutability flag.
Immutable features are frozen to the individual's current value, so the
per-individual box from :func:`FeatureSchema.box_for` is what generation and
penalties must respect.

Costs are priced in raw feature units and summed over four term shapes:
weighted squared change, weighted signed linear change, categorical
transition matrices (cost of moving from category i to category j, read as
z^T A z_tilde over the group's one-hot block), and fixed trigger costs paid
when a boolean switches on.  Identity never costs anything and transition
diagonals are forced to zero.

The relaxed optimizer wanders off the integral/one-hot manifold; ``cond``
snaps a candidate back (round, clip, argmax per group) and the two penalty
terms price box violations and one-hot mass drift during descent.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Feature",
    "FeatureSchema",
    "QuadraticTerm",
    "LinearTerm",
    "TransitionTerm",
    "TriggerTerm",
    "CostModel",
    "PenaltyConfig",
    "cost",
    "cost_grad",
    "cost_batch",
    "penalty_actionable",
    "penalty_coherence",
    "penalties_batch",
    "cond",
]

_KINDS = ("numeric", "integer", "boolean", "onehot")


@dataclass(frozen=True)
class Feature:
    name: str
    kind: str
    lower: float
    upper: float
    mutable: bool = True
    group: str | None = None
    category: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        if not self.name:
            raise ValueError("feature name must be non-empty")
        if self.lower > self.upper:
            raise ValueError(f"feature {self.name!r}: lower bound exceeds upper")
        if self.kind == "boolean" and (self.lower < 0 or self.upper > 1):
            raise ValueError(f"feature {self.name!r}: boolean bounds must sit in [0, 1]")
        if self.kind == "onehot":
            if self.group is None:
                raise ValueError(f"feature {self.name!r}: one-hot member needs a group")
            if self.lower < 0 or self.upper > 1:
                raise ValueError(f"feature {self.name!r}: one-hot bounds must sit in [0, 1]")
        elif self.group is not None:
            raise ValueError(f"feature {self.name!r}: only one-hot members carry a group")
        if self.kind == "integer":
            for bound in (self.lower, self.upper):
                if np.isfinite(bound) and bound != round(bound):
                    raise ValueError(
                        f"feature {self.name!r}: integer bounds must be integral"
                    )


@dataclass(frozen=True)
class FeatureSchema:
    features: tuple[Feature, ...]
    label_column: str = "label"
    class_labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "class_labels", tuple(self.class_labels))
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature names")
        if not self.features:
            raise ValueError("schema needs at least one feature")
        for group, idx in self.onehot_groups.items():
            if len(idx) < 2:
                raise ValueError(f"one-hot group {group!r} needs at least two members")
            mut = {self.features[i].mutable for i in idx}
            if len(mut) != 1:
                raise ValueError(
                    f"one-hot group {group!r} mixes mutable and immutable members"
                )

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @cached_property
    def onehot_groups(self) -> dict[str, tuple[int, ...]]:
        groups: dict[str, list[int]] = {}
        for i, f in enumerate(self.features):
            if f.kind == "onehot":
                groups.setdefault(f.group, []).append(i)
        return {g: tuple(members) for g, members in groups.items()}

    @cached_property
    def lower_bounds(self) -> np.ndarray:
        arr = np.array([f.lower for f in self.features], dtype=float)
        arr.setflags(write=False)
        return arr

    @cached_property
    def upper_bounds(self) -> np.ndarray:
        arr = np.array([f.upper for f in self.features], dtype=float)
        arr.setflags(write=False)
        return arr

    @cached_property
    def mutable_mask(self) -> np.ndarray:
        arr = np.array([f.mutable for f in self.features], dtype=bool)
        arr.setflags(write=False)
        return arr

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"schema has no feature {name!r}") from None

    def check_vector(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (len(self.features),):
            raise ValueError(
                f"expected {len(self.features)} features, got shape {x.shape}"
            )
        return x

    def box_for(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Actionable box for the individual x, or one box per row of an
        (n, d) matrix of individuals: immutables pinned to x."""
        x = self.check_vector(x) if np.ndim(x) < 2 else np.asarray(x, float)
        return (np.where(self.mutable_mask, self.lower_bounds, x),
                np.where(self.mutable_mask, self.upper_bounds, x))

    def is_coherent(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        """Integral/boolean values where required, exactly one hot per group."""
        x = self.check_vector(x)
        for i, f in enumerate(self.features):
            if f.kind == "integer" and abs(x[i] - round(x[i])) > tol:
                return False
            if f.kind in ("boolean", "onehot") and (
                abs(x[i]) > tol and abs(x[i] - 1.0) > tol
            ):
                return False
        for idx in self.onehot_groups.values():
            if abs(float(x[list(idx)].sum()) - 1.0) > tol:
                return False
        return True


@dataclass(frozen=True)
class QuadraticTerm:
    feature: str
    weight: float


@dataclass(frozen=True)
class LinearTerm:
    feature: str
    weight: float


@dataclass(frozen=True)
class TransitionTerm:
    group: str
    matrix: np.ndarray
    units: str = ""

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"transition matrix for {self.group!r} must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError(f"transition matrix for {self.group!r} has non-finite entries")
        if np.any(np.diagonal(m) != 0.0):
            raise ValueError(
                f"transition matrix for {self.group!r} must have a zero diagonal"
            )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class TriggerTerm:
    """Fixed cost paid when a boolean feature turns on; switching off is free."""

    feature: str
    cost_on: float


@dataclass(frozen=True)
class CostModel:
    quadratic: tuple[QuadraticTerm, ...] = ()
    linear: tuple[LinearTerm, ...] = ()
    transitions: tuple[TransitionTerm, ...] = ()
    triggers: tuple[TriggerTerm, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "quadratic", tuple(self.quadratic))
        object.__setattr__(self, "linear", tuple(self.linear))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        object.__setattr__(self, "triggers", tuple(self.triggers))


@dataclass(frozen=True)
class PenaltyConfig:
    actionable_weight: float = 1000.0
    coherence_weight: float = 1000.0


def _resolve_group(schema: FeatureSchema, term: TransitionTerm) -> list[int]:
    try:
        idx = schema.onehot_groups[term.group]
    except KeyError:
        raise KeyError(f"cost model references unknown group {term.group!r}") from None
    if term.matrix.shape[0] != len(idx):
        raise ValueError(
            f"transition matrix for {term.group!r} is "
            f"{term.matrix.shape[0]}x{term.matrix.shape[0]} but the group has "
            f"{len(idx)} members"
        )
    return list(idx)


def cost(x: np.ndarray, x_tilde: np.ndarray, cm: CostModel,
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


def cost_grad(x: np.ndarray, x_tilde: np.ndarray, cm: CostModel,
              schema: FeatureSchema) -> np.ndarray:
    """Gradient of :func:`cost` with respect to x_tilde (one-row view of
    :func:`cost_batch`)."""
    x, x_tilde = schema.check_vector(x), schema.check_vector(x_tilde)
    return cost_batch(x, x_tilde[None, :], cm, schema)[1][0]


def cost_batch(x: np.ndarray, x_tilde: np.ndarray, cm: CostModel,
               schema: FeatureSchema) -> tuple[np.ndarray, np.ndarray]:
    """:func:`cost` and its gradient for every row of an (n, d) x_tilde;
    the terms are gathered once per call into dense per-feature weights.
    The origin x is an (n, d) matrix of per-row origins, or one (d,) vector
    broadcast to every row; each row is priced alone."""
    d = len(schema.features)
    quad, lin, trig = np.zeros(d), np.zeros(d), np.zeros(d)
    for dense, terms, attr in ((quad, cm.quadratic, "weight"),
                               (lin, cm.linear, "weight"),
                               (trig, cm.triggers, "cost_on")):
        for term in terms:
            dense[schema.index(term.feature)] += getattr(term, attr)
    x_tilde = np.asarray(x_tilde, dtype=float)
    x = np.broadcast_to(np.asarray(x, dtype=float), x_tilde.shape)
    step = x_tilde - x
    value = np.sum(quad * step ** 2 + lin * step
                   + trig * np.maximum(step, 0.0), axis=1)
    grad = 2.0 * quad * step + lin + trig * (step > 0.0)
    for term in cm.transitions:
        idx = _resolve_group(schema, term)
        pull = (x[:, None, idx] @ term.matrix)[:, 0]
        value = value + (x_tilde[:, None, idx] @ pull[:, :, None])[:, 0, 0]
        grad[:, idx] += pull
    return value, grad


def penalties_batch(x_tilde: np.ndarray, schema: FeatureSchema,
                    pc: PenaltyConfig, box: tuple[np.ndarray, np.ndarray]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Box plus coherence penalty (value, gradient) for every row at once;
    the box bounds are (d,) vectors or (n, d) matrices, one box per row."""
    lo, hi = box
    value = pc.actionable_weight * np.sum(
        np.maximum(0.0, x_tilde - hi) + np.maximum(0.0, lo - x_tilde), axis=1)
    grad = pc.actionable_weight * (
        (x_tilde > hi).astype(float) - (x_tilde < lo).astype(float))
    for idx in schema.onehot_groups.values():
        drift = 1.0 - x_tilde[:, list(idx)].sum(axis=1)
        value = value + pc.coherence_weight * drift * drift
        grad[:, list(idx)] += (-2.0 * pc.coherence_weight * drift)[:, None]
    return value, grad


def penalty_actionable(x_tilde: np.ndarray, schema: FeatureSchema,
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


def penalty_coherence(x_tilde: np.ndarray, schema: FeatureSchema,
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


def cond(x_tilde: np.ndarray, schema: FeatureSchema,
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
