"""Config document parsing, cross-reference checks, dataset loading."""
import json
import math

import numpy as np
import pytest

from tapgen.actionability import PenaltyConfig
from tapgen.config import (
    ConfigError,
    SchemaMismatchError,
    VerificationConfig,
    default_synthetic_config,
    load_config,
    load_dataset,
    parse_config,
)
from tapgen.netcore import TrainConfig
from tapgen.perturb import OptConfig


def base():
    return default_synthetic_config()


def assert_configs_match(a, b):
    # dataclass equality would compare the synthetic spec's arrays with
    # plain ==, so check the array fields separately
    assert np.array_equal(a.dataset.synthetic.means, b.dataset.synthetic.means)
    assert np.array_equal(a.dataset.synthetic.variances,
                          b.dataset.synthetic.variances)
    assert np.array_equal(a.dataset.synthetic.priors, b.dataset.synthetic.priors)
    assert a.dataset.n_samples == b.dataset.n_samples
    for field in ("seed", "out_dir", "divergence_name", "schema", "cost",
                  "target", "hidden_dims", "dropout", "train", "penalty",
                  "opt", "lambdas", "verification", "delta_thresholds",
                  "epsilon_budgets", "max_individuals"):
        assert getattr(a, field) == getattr(b, field), field


class TestParseDefaults:
    def test_default_document_parses(self):
        cfg = parse_config(base())
        assert cfg.seed == 0
        assert cfg.divergence_name == "kl"
        assert len(cfg.schema.features) == 4
        assert cfg.target.desirable == (1,)
        assert cfg.target.p == 0.8
        assert cfg.dataset.is_synthetic
        assert cfg.dataset.n_samples == 4000

    def test_seed_reaches_train_and_opt(self):
        doc = base()
        doc["seed"] = 17
        cfg = parse_config(doc)
        assert cfg.train.seed == 17
        assert cfg.opt.seed == 17

    def test_document_is_json_serializable(self):
        # the bundled default must survive a dump/load cycle unchanged
        doc = base()
        again = json.loads(json.dumps(doc))
        assert_configs_match(parse_config(again), parse_config(base()))

    def test_infinite_budget_spelled_as_string(self):
        cfg = parse_config(base())
        assert cfg.epsilon_budgets[-1] == math.inf
        assert all(math.isfinite(b) for b in cfg.epsilon_budgets[:-1])

    def test_divergence_resolves(self):
        doc = base()
        doc["divergence"] = "chi2"
        assert parse_config(doc).divergence().name == "chi2"

    def test_minimal_document(self):
        doc = {k: v for k, v in base().items()
               if k in ("dataset", "schema", "target")}
        cfg = parse_config(doc)
        assert cfg.seed == 0
        assert cfg.hidden_dims == (60, 60, 60)
        assert cfg.opt.lam == 1.0
        assert len(cfg.lambdas) == 21
        assert cfg.verification.rate == 0.10
        # the table-driven sections default to their dataclasses' defaults
        assert cfg.train == TrainConfig()
        assert cfg.penalty == PenaltyConfig()
        assert cfg.opt == OptConfig()
        assert cfg.verification == VerificationConfig()


class TestRejections:
    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d.update(extra=1), "unknown key 'extra'"),
        (lambda d: d["schema"].update(bogus=1), "'bogus' in schema"),
        (lambda d: d["cost"]["quadratic"][0].update(scale=2), "'scale'"),
        (lambda d: d["target"].update(odds=2), "'odds' in target"),
        (lambda d: d["model"]["train"].update(momentum=0.9), "'momentum'"),
        (lambda d: d["opt"].update(warmup=5), "'warmup'"),
        (lambda d: d["sweep"].update(grid="log"), "'grid'"),
        (lambda d: d["verification"].update(alpha=0.1), "'alpha'"),
        (lambda d: d["bench"].update(plots=True), "'plots'"),
    ])
    def test_unknown_keys(self, mutate, match):
        doc = base()
        mutate(doc)
        with pytest.raises(ConfigError, match=match):
            parse_config(doc)

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError, match="top level"):
            parse_config(["not", "a", "dict"])

    def test_missing_schema_section(self):
        doc = base()
        del doc["schema"]
        with pytest.raises(ConfigError, match="missing section 'schema'"):
            parse_config(doc)

    def test_negative_seed(self):
        doc = base()
        doc["seed"] = -1
        with pytest.raises(ConfigError, match="seed"):
            parse_config(doc)

    def test_unknown_divergence(self):
        doc = base()
        doc["divergence"] = "hellinger"
        with pytest.raises(ConfigError, match="hellinger"):
            parse_config(doc)

    def test_cost_term_unknown_feature(self):
        doc = base()
        doc["cost"]["quadratic"][0]["feature"] = "income"
        with pytest.raises(ConfigError, match="unknown feature 'income'"):
            parse_config(doc)

    def test_transition_unknown_group(self):
        doc = base()
        doc["cost"]["transitions"] = [
            {"group": "job", "matrix": [[0.0, 1.0], [1.0, 0.0]]}]
        with pytest.raises(ConfigError, match="one-hot group 'job'"):
            parse_config(doc)

    def test_transition_matrix_wrong_size(self):
        doc = base()
        for i, feat in enumerate(doc["schema"]["features"][:3]):
            feat.update(kind="onehot", group="job", category=f"c{i}")
            del feat["lower"], feat["upper"]
        doc["cost"]["transitions"] = [
            {"group": "job", "matrix": [[0.0, 1.0], [1.0, 0.0]]}]
        with pytest.raises(ConfigError, match="2x2.*3 members"):
            parse_config(doc)

    def test_target_unknown_label(self):
        doc = base()
        doc["target"]["desirable"] = ["class9"]
        with pytest.raises(ConfigError, match="unknown class label 'class9'"):
            parse_config(doc)

    def test_target_label_overlap(self):
        doc = base()
        doc["target"]["undesirable"] = ["class1"]
        with pytest.raises(ConfigError, match="target"):
            parse_config(doc)

    def test_target_needs_class_labels(self):
        doc = base()
        doc["schema"]["class_labels"] = []
        with pytest.raises(ConfigError, match="class_labels"):
            parse_config(doc)

    def test_dataset_needs_exactly_one_source(self):
        doc = base()
        doc["dataset"]["csv"] = "rows.csv"
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(doc)
        del doc["dataset"]["csv"], doc["dataset"]["synthetic"]
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(doc)

    def test_dataset_dimension_mismatch(self):
        doc = base()
        doc["dataset"]["synthetic"]["means"] = [[0.0] * 3, [1.0] * 3]
        doc["dataset"]["synthetic"]["variances"] = [[1.0] * 3, [1.0] * 3]
        with pytest.raises(ConfigError, match="3 dimensions.*4 features"):
            parse_config(doc)

    def test_dataset_component_count_mismatch(self):
        doc = base()
        syn = doc["dataset"]["synthetic"]
        syn["means"].append([0.0] * 4)
        syn["variances"].append([1.0] * 4)
        syn["priors"] = [0.4, 0.3, 0.3]
        with pytest.raises(ConfigError, match="3 components.*2 class labels"):
            parse_config(doc)

    def test_dataset_too_small(self):
        doc = base()
        doc["dataset"]["n_samples"] = 5
        with pytest.raises(ConfigError, match="at least 10"):
            parse_config(doc)

    def test_lambda_must_be_finite_nonnegative(self):
        doc = base()
        doc["sweep"]["lambdas"] = [0.1, -0.5]
        with pytest.raises(ConfigError, match=r"lambdas\[1\]"):
            parse_config(doc)
        doc["sweep"]["lambdas"] = [0.1, "inf"]
        with pytest.raises(ConfigError, match=r"lambdas\[1\]"):
            parse_config(doc)

    def test_budget_rejects_arbitrary_strings(self):
        doc = base()
        doc["bench"]["epsilon_budgets"] = ["huge"]
        with pytest.raises(ConfigError, match='"inf"'):
            parse_config(doc)

    def test_verification_rate_range(self):
        doc = base()
        doc["verification"]["rate"] = 1.2
        with pytest.raises(ConfigError, match="rate"):
            parse_config(doc)

    def test_mutable_must_be_boolean(self):
        doc = base()
        doc["schema"]["features"][0]["mutable"] = "no"
        with pytest.raises(ConfigError, match="mutable"):
            parse_config(doc)

    def test_split_needs_three_fractions(self):
        doc = base()
        doc["model"]["train"]["split"] = [0.9, 0.1]
        with pytest.raises(ConfigError, match="three fractions"):
            parse_config(doc)

    @pytest.mark.parametrize("key", ["actionable_weight", "coherence_weight"])
    @pytest.mark.parametrize("weight", [-5.0, math.nan, math.inf])
    def test_penalty_weight_finite_nonnegative(self, key, weight):
        doc = base()
        doc.setdefault("penalty", {})[key] = weight
        with pytest.raises(ConfigError, match=f"penalty: {key}"):
            parse_config(doc)

    @pytest.mark.parametrize("section, key, value", [
        ("opt", "lr", "fast"), ("opt", "max_iters", 1.5),
        ("penalty", "actionable_weight", True),
        ("model.train", "batch_size", 1.5),
        ("verification", "calibration_pairs", "many")])
    def test_bad_number_is_named_once(self, section, key, value):
        # the key's own message, not wrapped again by its section's check
        doc = base()
        sec = doc
        for part in section.split("."):
            sec = sec.setdefault(part, {})
        sec[key] = value
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert str(info.value).startswith(f"config: {section}.{key} must be")

    def test_hidden_dims_positive_integers(self):
        doc = base()
        doc["model"]["hidden_dims"] = [60, 0]
        with pytest.raises(ConfigError, match="hidden_dims"):
            parse_config(doc)


class TestFeatureDefaults:
    def test_indicator_kinds_default_to_unit_interval(self):
        doc = base()
        doc["schema"]["features"].append({"name": "flag", "kind": "boolean"})
        doc["dataset"]["synthetic"]["means"] = [[0.0] * 5, [1.0] * 5]
        doc["dataset"]["synthetic"]["variances"] = [[1.0] * 5, [1.0] * 5]
        cfg = parse_config(doc)
        flag = cfg.schema.features[-1]
        assert (flag.lower, flag.upper) == (0.0, 1.0)

    def test_numeric_kind_requires_bounds(self):
        doc = base()
        del doc["schema"]["features"][0]["lower"]
        with pytest.raises(ConfigError, match="lower"):
            parse_config(doc)


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        for text in (b"{not json", b'{"seed": "\xff"}'):
            path.write_bytes(text)
            with pytest.raises(ConfigError, match="not valid JSON"):
                load_config(path)

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base()))
        assert_configs_match(load_config(path), parse_config(base()))

    def test_base_dir_recorded(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base()))
        assert load_config(path).base_dir == str(tmp_path)


class TestLoadDataset:
    def test_synthetic_is_deterministic(self):
        cfg = parse_config(base())
        x1, y1 = load_dataset(cfg)
        x2, y2 = load_dataset(cfg)
        assert np.array_equal(x1, x2)
        assert np.array_equal(y1, y2)
        assert x1.shape == (4000, 4)
        assert set(np.unique(y1)) <= {0, 1}

    def test_different_seeds_differ(self):
        doc = base()
        cfg_a = parse_config(doc)
        doc_b = base()
        doc_b["seed"] = 1
        cfg_b = parse_config(doc_b)
        assert not np.array_equal(load_dataset(cfg_a)[0],
                                  load_dataset(cfg_b)[0])

    def csv_doc(self, tmp_path, rows):
        lines = ["x0,x1,x2,x3,label"]
        lines += [",".join(str(v) for v in row) for row in rows]
        (tmp_path / "rows.csv").write_text("\n".join(lines) + "\n")
        doc = base()
        doc["dataset"] = {"csv": "rows.csv"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    def test_csv_round_trip(self, tmp_path):
        rows = [[0.125, -1.5, 2.0, 0.0, "class0"],
                [1.0, 0.25, -0.5, 3.0, "class1"]]
        cfg = load_config(self.csv_doc(tmp_path, rows))
        x, y = load_dataset(cfg)
        assert x.tolist() == [[0.125, -1.5, 2.0, 0.0],
                              [1.0, 0.25, -0.5, 3.0]]
        assert y.tolist() == [0, 1]

    def test_csv_missing_column(self, tmp_path):
        (tmp_path / "rows.csv").write_text("x0,x1,x2,label\n0,0,0,class0\n")
        doc = base()
        doc["dataset"] = {"csv": "rows.csv"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatchError, match="lacks column 'x3'"):
            load_dataset(load_config(path))

    def test_csv_non_numeric_value(self, tmp_path):
        rows = [[0.0, 0.0, "tall", 0.0, "class0"]]
        with pytest.raises(SchemaMismatchError, match="line 2.*non-numeric"):
            load_dataset(load_config(self.csv_doc(tmp_path, rows)))

    def test_csv_unknown_label(self, tmp_path):
        rows = [[0.0, 0.0, 0.0, 0.0, "classX"]]
        with pytest.raises(SchemaMismatchError, match="unknown class label"):
            load_dataset(load_config(self.csv_doc(tmp_path, rows)))

    def test_csv_no_rows(self, tmp_path):
        with pytest.raises(SchemaMismatchError, match="no data rows"):
            load_dataset(load_config(self.csv_doc(tmp_path, [])))

    def test_csv_missing_file(self, tmp_path):
        doc = base()
        doc["dataset"] = {"csv": "elsewhere.csv"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatchError, match="not found"):
            load_dataset(load_config(path))
