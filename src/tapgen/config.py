"""Experiment configuration: one JSON document drives every command.

The file is plain JSON with nested sections (dataset, schema, cost, target,
model, penalty, opt, sweep, verification).  JSON decimals parse to IEEE
doubles exactly and ``repr`` round-trips them, so a config re-emitted from a
manifest reproduces the original numbers bit for bit.  Every cross-reference
-- class labels in the target, feature names in cost terms, transition
groups, dataset dimensions -- is resolved here at load time, never later.

Randomness policy: the config carries one global seed.  Components derive
their own named sub-streams from it (data sampling, train/val/test split,
weight init, pair sampling, calibration pairs, repair restarts), so re-running
a single stage reproduces that stage regardless of what ran before it.
"""
from __future__ import annotations

import csv as _csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .actionability import (
    CostModel,
    Feature,
    FeatureSchema,
    LinearTerm,
    PenaltyConfig,
    QuadraticTerm,
    TransitionTerm,
    TriggerTerm,
)
from .netcore import TrainConfig
from .perturb import OptConfig
from .probspace import DivergenceSpec, TargetSet, get_divergence
from .rng import substream
from .synthetic import SyntheticSpec, sample_synthetic

__all__ = [
    "ConfigError",
    "SchemaMismatchError",
    "DatasetConfig",
    "VerificationConfig",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "load_dataset",
    "default_synthetic_config",
]


class ConfigError(ValueError):
    """The configuration file cannot be parsed or validated."""


class SchemaMismatchError(ValueError):
    """Concrete data or model artifacts do not fit the configured schema."""


@dataclass(frozen=True)
class DatasetConfig:
    """Where the rows come from: a CSV file or a sampled Gaussian mixture."""

    csv_path: str | None = None
    synthetic: SyntheticSpec | None = None
    n_samples: int = 0

    @property
    def is_synthetic(self) -> bool:
        return self.synthetic is not None


@dataclass(frozen=True)
class VerificationConfig:
    rate: float = 0.10
    calibration_pairs: int = 5000
    verifier_pairs: int = 20_000


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    out_dir: str
    divergence_name: str
    dataset: DatasetConfig
    schema: FeatureSchema
    cost: CostModel
    target: TargetSet
    hidden_dims: tuple[int, ...]
    dropout: float
    train: TrainConfig
    penalty: PenaltyConfig
    opt: OptConfig
    lambdas: tuple[float, ...]
    verification: VerificationConfig
    delta_thresholds: tuple[float, ...]
    epsilon_budgets: tuple[float, ...]
    max_individuals: int
    raw: dict = field(repr=False, compare=False, default_factory=dict)
    base_dir: str = field(repr=False, compare=False, default=".")

    def divergence(self) -> DivergenceSpec:
        return get_divergence(self.divergence_name)


# ---------------------------------------------------------------------------
# section readers


@contextmanager
def _invalid(where: str):
    """Report a ValueError or TypeError from building a config value as a
    ConfigError naming where; a ConfigError raised inside passes through."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: {where}: {exc}") from None


def _section(doc: dict, key: str, required: bool = True) -> dict:
    sec = doc.get(key)
    if sec is None:
        if required:
            raise ConfigError(f"config: missing section {key!r}")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"config: section {key!r} must be an object")
    return sec


def _reject_unknown(sec: dict, where: str, known: set[str]) -> None:
    extra = sorted(set(sec) - known)
    if extra:
        raise ConfigError(f"config: unknown key {extra[0]!r} in {where}")


def _num(sec: dict, where: str, key: str, default=None) -> float:
    value = sec.get(key, default)
    if value is None:
        raise ConfigError(f"config: {where}.{key} is required")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config: {where}.{key} must be a number")
    return float(value)


def _int(sec: dict, where: str, key: str, default=None) -> int:
    value = sec.get(key, default)
    if value is None:
        raise ConfigError(f"config: {where}.{key} is required")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config: {where}.{key} must be an integer")
    return value


def _str(sec: dict, where: str, key: str, default=None) -> str:
    value = sec.get(key, default)
    if value is None:
        raise ConfigError(f"config: {where}.{key} is required")
    if not isinstance(value, str):
        raise ConfigError(f"config: {where}.{key} must be a string")
    return value


def _budget(value, where: str) -> float:
    # epsilon budgets may be the string "inf"; JSON itself has no infinity
    if value == "inf":
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f'config: {where} must be a number or "inf"')
    return float(value)


def _parse_schema(doc: dict) -> FeatureSchema:
    sec = _section(doc, "schema")
    _reject_unknown(sec, "schema", {"features", "label_column", "class_labels"})
    raw_feats = sec.get("features")
    if not isinstance(raw_feats, list) or not raw_feats:
        raise ConfigError("config: schema.features must be a non-empty list")
    feats = []
    for i, rf in enumerate(raw_feats):
        where = f"schema.features[{i}]"
        if not isinstance(rf, dict):
            raise ConfigError(f"config: {where} must be an object")
        _reject_unknown(rf, where, {"name", "kind", "lower", "upper",
                                    "mutable", "group", "category"})
        kind = _str(rf, where, "kind", "numeric")
        # encoded indicators live on [0, 1]; only ranged kinds need bounds
        default_bounds = (0.0, 1.0) if kind in ("boolean", "onehot") else (None, None)
        mutable = rf.get("mutable", True)
        if not isinstance(mutable, bool):
            raise ConfigError(f"config: {where}.mutable must be a boolean")
        with _invalid(where):
            feats.append(Feature(
                name=_str(rf, where, "name"),
                kind=kind,
                lower=_num(rf, where, "lower", default_bounds[0]),
                upper=_num(rf, where, "upper", default_bounds[1]),
                mutable=mutable,
                group=rf.get("group"),
                category=rf.get("category"),
            ))
    labels = sec.get("class_labels", [])
    if not isinstance(labels, list) or not all(isinstance(c, str) for c in labels):
        raise ConfigError("config: schema.class_labels must be a list of strings")
    with _invalid("schema"):
        return FeatureSchema(
            features=tuple(feats),
            label_column=_str(sec, "schema", "label_column", "label"),
            class_labels=tuple(labels),
        )


def _parse_cost(doc: dict, schema: FeatureSchema) -> CostModel:
    sec = _section(doc, "cost", required=False)
    _reject_unknown(sec, "cost", {"quadratic", "linear", "transitions", "triggers"})

    def feature_ref(term: dict, where: str) -> str:
        name = _str(term, where, "feature")
        if name not in schema.names:
            raise ConfigError(
                f"config: {where} references unknown feature {name!r}")
        return name

    quad, lin, trans, trig = [], [], [], []
    for i, term in enumerate(sec.get("quadratic", [])):
        where = f"cost.quadratic[{i}]"
        _reject_unknown(term, where, {"feature", "weight"})
        quad.append(QuadraticTerm(feature_ref(term, where),
                                  _num(term, where, "weight")))
    for i, term in enumerate(sec.get("linear", [])):
        where = f"cost.linear[{i}]"
        _reject_unknown(term, where, {"feature", "weight"})
        lin.append(LinearTerm(feature_ref(term, where),
                              _num(term, where, "weight")))
    for i, term in enumerate(sec.get("transitions", [])):
        where = f"cost.transitions[{i}]"
        _reject_unknown(term, where, {"group", "matrix", "units"})
        group = _str(term, where, "group")
        members = schema.onehot_groups.get(group)
        if members is None:
            raise ConfigError(
                f"config: {where} references unknown one-hot group {group!r}")
        matrix = term.get("matrix")
        if not isinstance(matrix, list):
            raise ConfigError(f"config: {where}.matrix must be a numeric block")
        with _invalid(where):
            tt = TransitionTerm(group, np.array(matrix, dtype=float),
                                units=_str(term, where, "units", ""))
        if tt.matrix.shape[0] != len(members):
            raise ConfigError(
                f"config: {where}.matrix is {tt.matrix.shape[0]}x"
                f"{tt.matrix.shape[1]} but group {group!r} has "
                f"{len(members)} members")
        trans.append(tt)
    for i, term in enumerate(sec.get("triggers", [])):
        where = f"cost.triggers[{i}]"
        _reject_unknown(term, where, {"feature", "cost_on"})
        trig.append(TriggerTerm(feature_ref(term, where),
                                _num(term, where, "cost_on")))
    return CostModel(quadratic=tuple(quad), linear=tuple(lin),
                     transitions=tuple(trans), triggers=tuple(trig))


def _parse_target(doc: dict, schema: FeatureSchema) -> TargetSet:
    sec = _section(doc, "target")
    _reject_unknown(sec, "target", {"desirable", "undesirable", "p", "q"})
    if not schema.class_labels:
        raise ConfigError(
            "config: target needs schema.class_labels to resolve its classes")

    def resolve(key: str) -> tuple[int, ...]:
        labels = sec.get(key, [])
        if not isinstance(labels, list):
            raise ConfigError(f"config: target.{key} must be a list of labels")
        out = []
        for label in labels:
            if label not in schema.class_labels:
                raise ConfigError(
                    f"config: target.{key} references unknown class label "
                    f"{label!r}")
            out.append(schema.class_labels.index(label))
        return tuple(out)

    with _invalid("target"):
        return TargetSet(
            num_classes=len(schema.class_labels),
            desirable=resolve("desirable"),
            undesirable=resolve("undesirable"),
            p=_num(sec, "target", "p"),
            q=_num(sec, "target", "q"),
        )


def _parse_dataset(doc: dict, schema: FeatureSchema) -> DatasetConfig:
    sec = _section(doc, "dataset")
    _reject_unknown(sec, "dataset", {"csv", "synthetic", "n_samples"})
    has_csv = "csv" in sec
    has_syn = "synthetic" in sec
    if has_csv == has_syn:
        raise ConfigError(
            'config: dataset needs exactly one of "csv" or "synthetic"')
    if has_csv:
        return DatasetConfig(csv_path=_str(sec, "dataset", "csv"))
    syn = sec["synthetic"]
    if not isinstance(syn, dict):
        raise ConfigError("config: dataset.synthetic must be an object")
    _reject_unknown(syn, "dataset.synthetic", {"means", "variances", "priors"})
    with _invalid("dataset.synthetic"):
        spec = SyntheticSpec(
            means=np.array(syn.get("means"), dtype=float),
            variances=np.array(syn.get("variances"), dtype=float),
            priors=np.array(syn.get("priors"), dtype=float),
        )
    if spec.means.shape[1] != len(schema.features):
        raise ConfigError(
            f"config: dataset.synthetic has {spec.means.shape[1]} dimensions "
            f"but the schema lists {len(schema.features)} features")
    if schema.class_labels and spec.means.shape[0] != len(schema.class_labels):
        raise ConfigError(
            f"config: dataset.synthetic has {spec.means.shape[0]} components "
            f"but the schema lists {len(schema.class_labels)} class labels")
    n = _int(sec, "dataset", "n_samples")
    if n < 10:
        raise ConfigError("config: dataset.n_samples must be at least 10")
    return DatasetConfig(synthetic=spec, n_samples=n)


_TOP_KEYS = {"seed", "out_dir", "divergence", "dataset", "schema", "cost",
             "target", "model", "penalty", "opt", "sweep", "verification",
             "bench"}


def parse_config(doc: dict, base_dir: str = ".") -> ExperimentConfig:
    """Validate a parsed JSON document and resolve all cross-references."""
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a JSON object")
    _reject_unknown(doc, "the top level", _TOP_KEYS)

    seed = _int(doc, "config", "seed", 0)
    if seed < 0:
        raise ConfigError("config: seed must be non-negative")
    divergence_name = _str(doc, "config", "divergence", "kl")
    with _invalid("divergence"):
        get_divergence(divergence_name)

    schema = _parse_schema(doc)
    cost_model = _parse_cost(doc, schema)
    target = _parse_target(doc, schema)
    dataset = _parse_dataset(doc, schema)

    model_sec = _section(doc, "model", required=False)
    _reject_unknown(model_sec, "model", {"hidden_dims", "dropout", "train"})
    hidden = model_sec.get("hidden_dims", [60, 60, 60])
    if (not isinstance(hidden, list) or not hidden
            or not all(isinstance(h, int) and not isinstance(h, bool)
                       and h > 0 for h in hidden)):
        raise ConfigError("config: model.hidden_dims must be positive integers")
    dropout = _num(model_sec, "model", "dropout", 0.0)
    train_sec = model_sec.get("train", {})
    _reject_unknown(train_sec, "model.train",
                    {"learning_rate", "batch_size", "max_epochs", "patience",
                     "split"})
    split = train_sec.get("split", [0.8, 0.1, 0.1])
    if not isinstance(split, list) or len(split) != 3:
        raise ConfigError("config: model.train.split must be three fractions")
    with _invalid("model.train"):
        train = TrainConfig(
            learning_rate=_num(train_sec, "model.train", "learning_rate", 1e-3),
            batch_size=_int(train_sec, "model.train", "batch_size", 32),
            max_epochs=_int(train_sec, "model.train", "max_epochs", 200),
            patience=_int(train_sec, "model.train", "patience", 20),
            split=tuple(float(s) for s in split),
            seed=seed,
        )

    pen_sec = _section(doc, "penalty", required=False)
    _reject_unknown(pen_sec, "penalty", {"actionable_weight", "coherence_weight"})
    with _invalid("penalty"):
        penalty = PenaltyConfig(
            actionable_weight=_num(pen_sec, "penalty", "actionable_weight", 1000.0),
            coherence_weight=_num(pen_sec, "penalty", "coherence_weight", 1000.0),
        )

    opt_sec = _section(doc, "opt", required=False)
    _reject_unknown(opt_sec, "opt",
                    {"lam", "lr", "max_iters", "tol", "patience", "snap_tol"})
    with _invalid("opt"):
        opt = OptConfig(
            lam=_num(opt_sec, "opt", "lam", 1.0),
            lr=_num(opt_sec, "opt", "lr", 0.05),
            max_iters=_int(opt_sec, "opt", "max_iters", 500),
            tol=_num(opt_sec, "opt", "tol", 1e-6),
            patience=_int(opt_sec, "opt", "patience", 10),
            snap_tol=_num(opt_sec, "opt", "snap_tol", 1e-6),
            seed=seed,
        )

    sweep_sec = _section(doc, "sweep", required=False)
    _reject_unknown(sweep_sec, "sweep", {"lambdas"})
    raw_lams = sweep_sec.get("lambdas",
                             [0.0, *np.logspace(-4, 2, 20).tolist()])
    if not isinstance(raw_lams, list) or not raw_lams:
        raise ConfigError("config: sweep.lambdas must be a non-empty list")
    lambdas = []
    for i, lam in enumerate(raw_lams):
        if (isinstance(lam, bool) or not isinstance(lam, (int, float))
                or lam < 0 or not math.isfinite(lam)):
            raise ConfigError(
                f"config: sweep.lambdas[{i}] must be finite and non-negative")
        lambdas.append(float(lam))

    ver_sec = _section(doc, "verification", required=False)
    _reject_unknown(ver_sec, "verification",
                    {"rate", "calibration_pairs", "verifier_pairs"})
    rate = _num(ver_sec, "verification", "rate", 0.10)
    if not (0.0 <= rate <= 1.0):
        raise ConfigError("config: verification.rate must lie in [0, 1]")
    cal_pairs = _int(ver_sec, "verification", "calibration_pairs", 5000)
    ver_pairs = _int(ver_sec, "verification", "verifier_pairs", 20_000)
    if cal_pairs < 1 or ver_pairs < 1:
        raise ConfigError("config: verification pair counts must be positive")

    bench_sec = _section(doc, "bench", required=False)
    _reject_unknown(bench_sec, "bench",
                    {"delta_thresholds", "epsilon_budgets", "max_individuals"})
    thresholds = tuple(
        _budget(v, f"bench.delta_thresholds[{i}]")
        for i, v in enumerate(bench_sec.get("delta_thresholds", [0.0, 0.1, 0.5])))
    budgets = tuple(
        _budget(v, f"bench.epsilon_budgets[{i}]")
        for i, v in enumerate(bench_sec.get("epsilon_budgets",
                                            [1.0, 2.0, 4.0, 8.0, 16.0, "inf"])))
    max_ind = _int(bench_sec, "bench", "max_individuals", 40)
    if max_ind < 0:
        raise ConfigError("config: bench.max_individuals must be non-negative")

    return ExperimentConfig(
        seed=seed,
        out_dir=_str(doc, "config", "out_dir", "runs"),
        divergence_name=divergence_name,
        dataset=dataset,
        schema=schema,
        cost=cost_model,
        target=target,
        hidden_dims=tuple(hidden),
        dropout=dropout,
        train=train,
        penalty=penalty,
        opt=opt,
        lambdas=tuple(lambdas),
        verification=VerificationConfig(rate=rate,
                                        calibration_pairs=cal_pairs,
                                        verifier_pairs=ver_pairs),
        delta_thresholds=thresholds,
        epsilon_budgets=budgets,
        max_individuals=max_ind,
        raw=doc,
        base_dir=base_dir,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return parse_config(doc, base_dir=str(path.parent))


# ---------------------------------------------------------------------------
# dataset materialization


def load_dataset(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """The configured rows as (features, integer labels)."""
    if cfg.dataset.is_synthetic:
        return sample_synthetic(cfg.dataset.synthetic, cfg.dataset.n_samples,
                                substream(cfg.seed, "data"))
    return _read_csv(cfg)


def _read_csv(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    path = Path(cfg.dataset.csv_path)
    if not path.is_absolute():
        path = Path(cfg.base_dir) / path
    if not path.exists():
        raise SchemaMismatchError(f"dataset file not found: {path}")
    schema = cfg.schema
    rows, labels = [], []
    with path.open(newline="") as fh:
        reader = _csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in (*schema.names, schema.label_column)
                   if c not in header]
        if missing:
            raise SchemaMismatchError(
                f"dataset {path.name} lacks column {missing[0]!r}")
        for line_no, row in enumerate(reader, start=2):
            try:
                rows.append([float(row[name]) for name in schema.names])
            except (TypeError, ValueError):
                raise SchemaMismatchError(
                    f"dataset {path.name} line {line_no}: "
                    f"non-numeric feature value") from None
            raw_label = row[schema.label_column]
            if schema.class_labels:
                if raw_label not in schema.class_labels:
                    raise SchemaMismatchError(
                        f"dataset {path.name} line {line_no}: unknown class "
                        f"label {raw_label!r}")
                labels.append(schema.class_labels.index(raw_label))
            else:
                try:
                    labels.append(int(raw_label))
                except (TypeError, ValueError):
                    raise SchemaMismatchError(
                        f"dataset {path.name} line {line_no}: labels must be "
                        f"integers when no class labels are declared") from None
    if not rows:
        raise SchemaMismatchError(f"dataset {path.name} has no data rows")
    return np.array(rows, dtype=float), np.array(labels, dtype=np.int64)


# ---------------------------------------------------------------------------
# bundled default


def default_synthetic_config() -> dict:
    """The benchmark problem as a config document, ready to dump or parse."""
    return {
        "seed": 0,
        "out_dir": "runs/synthetic",
        "divergence": "kl",
        "dataset": {
            "synthetic": {
                "means": [[-1.5, -1.5, 0.0, 0.0], [1.5, 1.5, 0.0, 0.0]],
                "variances": [[1.0] * 4, [1.0] * 4],
                "priors": [0.5, 0.5],
            },
            "n_samples": 4000,
        },
        "schema": {
            "label_column": "label",
            "class_labels": ["class0", "class1"],
            "features": [
                {"name": f"x{i}", "kind": "numeric",
                 "lower": -8.0, "upper": 8.0}
                for i in range(4)
            ],
        },
        "cost": {
            "quadratic": [{"feature": f"x{i}", "weight": 1.0}
                          for i in range(4)],
        },
        "target": {"desirable": ["class1"], "undesirable": ["class0"],
                   "p": 0.8, "q": 0.2},
        "model": {
            "hidden_dims": [60, 60, 60],
            "dropout": 0.0,
            "train": {"learning_rate": 0.001, "batch_size": 32,
                      "max_epochs": 60, "patience": 10,
                      "split": [0.8, 0.1, 0.1]},
        },
        "penalty": {"actionable_weight": 1000.0, "coherence_weight": 1000.0},
        "opt": {"lam": 1.0, "lr": 0.05, "max_iters": 500, "tol": 1e-6,
                "patience": 10, "snap_tol": 1e-6},
        "sweep": {"lambdas": [0.0, *np.logspace(-4, 2, 20).tolist()]},
        "verification": {"rate": 0.1, "calibration_pairs": 5000,
                         "verifier_pairs": 20000},
        "bench": {"delta_thresholds": [0.0, 0.1, 0.5],
                  "epsilon_budgets": [1.0, 2.0, 4.0, 8.0, 16.0, "inf"],
                  "max_individuals": 40},
    }
