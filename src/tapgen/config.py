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
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
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
from .documents import read_document
from .netcore import TrainConfig
from .perturb import OptConfig
from .probspace import DivergenceSpec, TargetSet, get_divergence
from .rng import substream
from .synthetic import (
    SyntheticSpec,
    canonical_benchmark_spec,
    sample_synthetic,
)

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

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")
        if self.calibration_pairs < 1 or self.verifier_pairs < 1:
            raise ValueError("pair counts must be positive")


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


_KINDS = {float: ((int, float), "a number"), int: (int, "an integer"),
          str: (str, "a string"), bool: (bool, "a boolean"),
          list: (list, "a list"), dict: (dict, "an object")}


def _read(sec: dict, where: str, key: str, kind=float, default=None):
    """sec[key], or default when absent, checked to be of kind: float, int,
    str, bool, list or dict."""
    value = sec.get(key, default)
    if value is None:
        raise ConfigError(f"config: {where}.{key} is required")
    types, name = _KINDS[kind]
    # bool is an int to Python, but not a number to a config
    if (isinstance(value, bool) != (kind is bool)
            or not isinstance(value, types)):
        raise ConfigError(f"config: {where}.{key} must be {name}")
    if value != value:   # JSON readers accept NaN; no setting means it
        raise ConfigError(f"config: {where}: {key} must not be NaN")
    return kind(value)


def _defaults(cls) -> dict:
    """Each section key of the config dataclass cls -- every field but seed,
    which only the top level sets -- mapped to its default."""
    return {f.name: f.default for f in fields(cls) if f.name != "seed"}


def _fields(sec: dict, where: str, cls, **given):
    """The config dataclass cls read from the section sec: each key of
    :func:`_defaults` that is not given is read with its field's int or
    float type."""
    defaults = _defaults(cls)
    _reject_unknown(sec, where, set(defaults))
    read = {f.name: _read(sec, where, f.name,
                          int if f.type in ("int", int) else float, f.default)
            for f in fields(cls) if f.name in defaults and f.name not in given}
    with _invalid(where):
        return cls(**read, **given)


def _budget(value, where: str) -> float:
    # epsilon budgets may be the string "inf"; JSON itself has no infinity
    if value == "inf":
        return math.inf
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or math.isnan(value)):
        raise ConfigError(f'config: {where} must be a number or "inf"')
    return float(value)


def _cost_weight(lam) -> bool:
    """Whether lam is a finite, non-negative number: a sweep's cost weight."""
    return (not isinstance(lam, bool) and isinstance(lam, (int, float))
            and lam >= 0 and math.isfinite(lam))


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
        kind = _read(rf, where, "kind", str, "numeric")
        # encoded indicators live on [0, 1]; only ranged kinds need bounds
        default_bounds = (0.0, 1.0) if kind in ("boolean", "onehot") else (None, None)
        with _invalid(where):
            feats.append(Feature(
                name=_read(rf, where, "name", str),
                kind=kind,
                lower=_read(rf, where, "lower", float, default_bounds[0]),
                upper=_read(rf, where, "upper", float, default_bounds[1]),
                mutable=_read(rf, where, "mutable", bool, True),
                group=rf.get("group"),
                category=rf.get("category"),
            ))
    labels = sec.get("class_labels", [])
    if not isinstance(labels, list) or not all(isinstance(c, str) for c in labels):
        raise ConfigError("config: schema.class_labels must be a list of strings")
    with _invalid("schema"):
        return FeatureSchema(
            features=tuple(feats),
            label_column=_read(sec, "schema", "label_column", str, "label"),
            class_labels=tuple(labels),
        )


def _parse_cost(doc: dict, schema: FeatureSchema) -> CostModel:
    sec = _section(doc, "cost", required=False)
    _reject_unknown(sec, "cost", {"quadratic", "linear", "transitions", "triggers"})

    def terms(key: str, known: set[str]):
        """(where, term) for each term object of the list cost.<key>."""
        for i, term in enumerate(_read(sec, "cost", key, list, [])):
            where = f"cost.{key}[{i}]"
            if not isinstance(term, dict):
                raise ConfigError(f"config: {where} must be an object")
            _reject_unknown(term, where, known)
            yield where, term

    def feature_ref(term: dict, where: str) -> str:
        name = _read(term, where, "feature", str)
        if name not in schema.names:
            raise ConfigError(
                f"config: {where} references unknown feature {name!r}")
        return name

    weighted = {}
    for key, cls in (("quadratic", QuadraticTerm), ("linear", LinearTerm)):
        weighted[key] = tuple(
            cls(feature_ref(term, where), _read(term, where, "weight"))
            for where, term in terms(key, {"feature", "weight"}))
    trans = []
    for where, term in terms("transitions", {"group", "matrix", "units"}):
        group = _read(term, where, "group", str)
        members = schema.onehot_groups.get(group)
        if members is None:
            raise ConfigError(
                f"config: {where} references unknown one-hot group {group!r}")
        matrix = _read(term, where, "matrix", list)
        with _invalid(where):
            tt = TransitionTerm(group, np.array(matrix, dtype=float),
                                units=_read(term, where, "units", str, ""))
        if tt.matrix.shape[0] != len(members):
            raise ConfigError(
                f"config: {where}.matrix is {tt.matrix.shape[0]}x"
                f"{tt.matrix.shape[1]} but group {group!r} has "
                f"{len(members)} members")
        trans.append(tt)
    triggers = tuple(
        TriggerTerm(feature_ref(term, where), _read(term, where, "cost_on"))
        for where, term in terms("triggers", {"feature", "cost_on"}))
    return CostModel(**weighted, transitions=tuple(trans), triggers=triggers)


def _parse_target(doc: dict, schema: FeatureSchema) -> TargetSet:
    sec = _section(doc, "target")
    _reject_unknown(sec, "target", {"desirable", "undesirable", "p", "q"})
    if not schema.class_labels:
        raise ConfigError(
            "config: target needs schema.class_labels to resolve its classes")

    def resolve(key: str) -> tuple[int, ...]:
        out = []
        for label in _read(sec, "target", key, list, []):
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
            p=_read(sec, "target", "p"),
            q=_read(sec, "target", "q"),
        )


def _parse_dataset(doc: dict, schema: FeatureSchema) -> DatasetConfig:
    sec = _section(doc, "dataset")
    _reject_unknown(sec, "dataset", {"csv", "synthetic", "n_samples"})
    if ("csv" in sec) == ("synthetic" in sec):
        raise ConfigError(
            'config: dataset needs exactly one of "csv" or "synthetic"')
    if "csv" in sec:
        return DatasetConfig(csv_path=_read(sec, "dataset", "csv", str))
    syn = _read(sec, "dataset", "synthetic", dict)
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
    n = _read(sec, "dataset", "n_samples", int)
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

    seed = _read(doc, "config", "seed", int, 0)
    if seed < 0:
        raise ConfigError("config: seed must be non-negative")
    divergence_name = _read(doc, "config", "divergence", str, "kl")
    with _invalid("divergence"):
        get_divergence(divergence_name)

    schema = _parse_schema(doc)
    cost_model = _parse_cost(doc, schema)
    target = _parse_target(doc, schema)
    dataset = _parse_dataset(doc, schema)

    model_sec = _section(doc, "model", required=False)
    _reject_unknown(model_sec, "model", {"hidden_dims", "dropout", "train"})
    fallback = default_synthetic_config()
    hidden = model_sec.get("hidden_dims", fallback["model"]["hidden_dims"])
    if (not isinstance(hidden, list) or not hidden
            or not all(isinstance(h, int) and not isinstance(h, bool)
                       and h > 0 for h in hidden)):
        raise ConfigError("config: model.hidden_dims must be positive integers")
    dropout = _read(model_sec, "model", "dropout", float, 0.0)
    if not 0.0 <= dropout < 1.0:
        raise ConfigError("config: model.dropout must lie in [0, 1)")
    train_sec = _read(model_sec, "model", "train", dict, {})
    split = train_sec.get("split", [0.8, 0.1, 0.1])
    if (not isinstance(split, list) or len(split) != 3
            or not all(isinstance(s, (int, float)) and not isinstance(s, bool)
                       and math.isfinite(s) for s in split)):
        raise ConfigError("config: model.train.split must be three fractions")
    train = _fields(train_sec, "model.train", TrainConfig,
                    split=tuple(float(s) for s in split), seed=seed)

    sweep_sec = _section(doc, "sweep", required=False)
    _reject_unknown(sweep_sec, "sweep", {"lambdas"})
    raw_lams = sweep_sec.get("lambdas", fallback["sweep"]["lambdas"])
    if not isinstance(raw_lams, list) or not raw_lams:
        raise ConfigError("config: sweep.lambdas must be a non-empty list")
    for i, lam in enumerate(raw_lams):
        if not _cost_weight(lam):
            raise ConfigError(
                f"config: sweep.lambdas[{i}] must be finite and non-negative")

    bench_sec = _section(doc, "bench", required=False)
    _reject_unknown(bench_sec, "bench",
                    {"delta_thresholds", "epsilon_budgets", "max_individuals"})
    grids = []
    for key in ("delta_thresholds", "epsilon_budgets"):
        raw = _read(bench_sec, "bench", key, list, fallback["bench"][key])
        if not raw:
            raise ConfigError(f"config: bench.{key} must be a non-empty list")
        grids.append(tuple(_budget(v, f"bench.{key}[{i}]")
                           for i, v in enumerate(raw)))
    thresholds, budgets = grids
    max_ind = _read(bench_sec, "bench", "max_individuals", int,
                    fallback["bench"]["max_individuals"])
    if max_ind < 0:
        raise ConfigError("config: bench.max_individuals must be non-negative")

    return ExperimentConfig(
        seed=seed,
        out_dir=_read(doc, "config", "out_dir", str, "runs"),
        divergence_name=divergence_name,
        dataset=dataset,
        schema=schema,
        cost=cost_model,
        target=target,
        hidden_dims=tuple(hidden),
        dropout=dropout,
        train=train,
        penalty=_fields(_section(doc, "penalty", required=False), "penalty",
                        PenaltyConfig),
        opt=_fields(_section(doc, "opt", required=False), "opt", OptConfig,
                    seed=seed),
        lambdas=tuple(float(lam) for lam in raw_lams),
        verification=_fields(_section(doc, "verification", required=False),
                             "verification", VerificationConfig),
        delta_thresholds=thresholds,
        epsilon_budgets=budgets,
        max_individuals=max_ind,
        raw=doc,
        base_dir=base_dir,
    )


def load_config(path) -> ExperimentConfig:
    try:
        doc = read_document(path, "config")
    except (FileNotFoundError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return parse_config(doc, base_dir=str(Path(path).parent))


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
    """The benchmark problem as a config document, ready to dump or parse;
    its nets, sweep and bench grid are :func:`parse_config`'s fallbacks."""
    spec = canonical_benchmark_spec()
    return {
        "seed": 0,
        "out_dir": "runs/synthetic",
        "divergence": "kl",
        "dataset": {
            "synthetic": {key: getattr(spec, key).tolist()
                          for key in ("means", "variances", "priors")},
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
        "penalty": _defaults(PenaltyConfig),
        "opt": _defaults(OptConfig),
        "sweep": {"lambdas": [0.0, *np.logspace(-4, 2, 20).tolist()]},
        "verification": _defaults(VerificationConfig),
        "bench": {"delta_thresholds": [0.0, 0.1, 0.5],
                  "epsilon_budgets": [1.0, 2.0, 4.0, 8.0, 16.0, "inf"],
                  "max_individuals": 40},
    }
