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
terms price box violations and one-hot mass drift during descent.  Each
formula is written once over (n, d) rows; single-row names are views.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
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
    "cond_batch",
]

_KINDS = ("numeric", "integer", "boolean", "onehot")


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


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
        return _frozen([f.lower for f in self.features])

    @cached_property
    def upper_bounds(self) -> np.ndarray:
        return _frozen([f.upper for f in self.features])

    @cached_property
    def mutable_mask(self) -> np.ndarray:
        return _frozen([f.mutable for f in self.features], bool)

    @cached_property
    def rounded_mask(self) -> np.ndarray:
        """Integer and boolean features: the ones cond rounds."""
        return _frozen([f.kind in ("integer", "boolean") for f in self.features], bool)

    @cached_property
    def binary_mask(self) -> np.ndarray:
        """Boolean and one-hot features: coherent only at 0 or 1."""
        return _frozen([f.kind in ("boolean", "onehot") for f in self.features], bool)

    @cached_property
    def onehot_index(self) -> tuple[np.ndarray, ...]:
        """Member indices of each one-hot group, in onehot_groups order."""
        return tuple(_frozen(idx, np.intp) for idx in self.onehot_groups.values())

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"schema has no feature {name!r}") from None

    def check_vector(self, x: np.ndarray, rows: bool = False) -> np.ndarray:
        """x as a float (d,) vector, or with ``rows`` an (n, d) matrix."""
        x, d = np.asarray(x, dtype=float), len(self.features)
        if x.shape != ((*x.shape[:1], d) if rows else (d,)):
            raise ValueError(f"expected {'rows of ' if rows else ''}{d} features, "
                             f"got shape {x.shape}")
        return x

    def box_for(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Actionable box for the individual x, or one box per row of an
        (n, d) matrix of individuals: immutables pinned to x."""
        x = self.check_vector(x, rows=np.ndim(x) > 1)
        return (np.where(self.mutable_mask, self.lower_bounds, x),
                np.where(self.mutable_mask, self.upper_bounds, x))

    def is_coherent(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        """Integral/boolean values where required, exactly one hot per group;
        the one-row view of :meth:`coherent_rows`."""
        return bool(self.coherent_rows(self.check_vector(x)[None, :], tol)[0])

    def coherent_rows(self, x: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """:meth:`is_coherent` for every row of an (n, d) matrix at once."""
        x = self.check_vector(x, rows=True)
        near = lambda a, b: np.abs(a - b) <= tol   # NaN is never near
        with np.errstate(invalid="ignore"):        # inf - inf is NaN
            ok = np.where(self.binary_mask, near(x, 0.0) | near(x, 1.0),
                          near(x, np.rint(x)) | ~self.rounded_mask).all(axis=1)
        for idx in self.onehot_index:
            ok &= near(x[:, idx].sum(axis=1), 1.0)
        return ok


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

    def __post_init__(self) -> None:
        for name in ("actionable_weight", "coherence_weight"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative")


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
    """Price of moving the individual from x to x_tilde, in raw units; the
    one-row view of :func:`cost_batch`."""
    x, x_tilde = schema.check_vector(x), schema.check_vector(x_tilde)
    return float(cost_batch(x, x_tilde[None, :], cm, schema)[0][0])


def cost_grad(x: np.ndarray, x_tilde: np.ndarray, cm: CostModel,
              schema: FeatureSchema) -> np.ndarray:
    """Gradient of :func:`cost` with respect to x_tilde (one-row view of
    :func:`cost_batch`)."""
    x, x_tilde = schema.check_vector(x), schema.check_vector(x_tilde)
    return cost_batch(x, x_tilde[None, :], cm, schema)[1][0]


def cost_batch(x: np.ndarray, x_tilde: np.ndarray, cm: CostModel,
               schema: FeatureSchema) -> tuple[np.ndarray, np.ndarray]:
    """The price of every row of an (n, d) x_tilde in raw units, and its
    gradient with respect to that row; the terms are gathered once per
    call into dense per-feature weights.
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
    """Box plus coherence penalty (value, gradient) for every row at once:
    the hinge on leaving the actionable box and the squared drift of each
    one-hot group's mass from 1.  The box bounds are (d,) vectors or (n, d)
    matrices, one box per row."""
    lo, hi = box
    value = pc.actionable_weight * np.sum(
        np.maximum(0.0, x_tilde - hi) + np.maximum(0.0, lo - x_tilde), axis=1)
    grad = pc.actionable_weight * (
        (x_tilde > hi).astype(float) - (x_tilde < lo).astype(float))
    for idx in schema.onehot_index:
        drift = 1.0 - x_tilde[:, idx].sum(axis=1)
        value = value + pc.coherence_weight * drift * drift
        grad[:, idx] += (-2.0 * pc.coherence_weight * drift)[:, None]
    return value, grad


def penalty_actionable(x_tilde: np.ndarray, schema: FeatureSchema,
                       pc: PenaltyConfig,
                       box: tuple[np.ndarray, np.ndarray] | None = None
                       ) -> tuple[float, np.ndarray]:
    """Hinge penalty on leaving the actionable box; returns (value, gradient).
    The one-row view of :func:`penalties_batch` with the group term off."""
    x_tilde = schema.check_vector(x_tilde)
    box = box if box is not None else (schema.lower_bounds, schema.upper_bounds)
    value, grad = penalties_batch(x_tilde[None, :], schema,
                                  replace(pc, coherence_weight=0.0), box)
    return float(value[0]), grad[0]


def penalty_coherence(x_tilde: np.ndarray, schema: FeatureSchema,
                      pc: PenaltyConfig) -> tuple[float, np.ndarray]:
    """Squared drift of each one-hot group's mass from 1; (value, gradient).
    The one-row view of :func:`penalties_batch` with the box term off."""
    x_tilde = schema.check_vector(x_tilde)
    value, grad = penalties_batch(x_tilde[None, :], schema,
                                  replace(pc, actionable_weight=0.0),
                                  (x_tilde, x_tilde))
    return float(value[0]), grad[0]


def cond(x_tilde: np.ndarray, schema: FeatureSchema,
         box: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Snap a relaxed candidate onto the coherent set inside the box; the
    one-row view of :func:`cond_batch`."""
    return cond_batch(schema.check_vector(x_tilde)[None, :], schema, box)[0]


def cond_batch(x_tilde: np.ndarray, schema: FeatureSchema,
               box: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Snap every row of an (n, d) matrix onto the coherent set inside its
    box: (d,) bounds, or (n, d) bounds with one box per row.

    Numerics clip, integers round half away from zero then clip, booleans
    round to the nearer admissible end, and each one-hot group activates its
    largest admissible member (ties to the lowest index).  Idempotent.
    """
    x_tilde = schema.check_vector(x_tilde, rows=True)
    box = box if box is not None else (schema.lower_bounds, schema.upper_bounds)
    lo, hi = (np.broadcast_to(b, x_tilde.shape) for b in box)
    out = np.where(schema.rounded_mask,
                   np.copysign(np.floor(np.abs(x_tilde) + 0.5), x_tilde), x_tilde)
    # clip with comparisons, as min(max(v, lo), hi) does: np.clip and
    # np.maximum may flip the sign of a zero that sits on a zero bound
    out = np.where(lo > out, lo, out)
    out = np.where(hi < out, hi, out)
    rows = np.arange(len(out))
    for idx in schema.onehot_index:
        forced, eligible = lo[:, idx] >= 1.0, hi[:, idx] >= 1.0
        values = x_tilde[:, idx]
        pick = np.argmax(np.where(eligible, values, -np.inf), axis=1)
        # with every eligible member at -inf the mask ties: the first one wins
        pick = np.where(eligible[rows, pick], pick, np.argmax(eligible, axis=1))
        winner = np.select([forced.any(axis=1), eligible.any(axis=1)],
                           [np.argmax(forced, axis=1), pick], np.argmax(values, axis=1))
        out[:, idx] = np.arange(len(idx)) == winner[:, None]
    return out
