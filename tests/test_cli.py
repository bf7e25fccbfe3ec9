"""Command surface: artifacts, exit codes, manifests, byte-exact replay."""
import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tapgen import cli
from tapgen.actionability import cost
from tapgen.bench import run_benchmark, true_improvement_report
from tapgen.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_MISSING_MODEL,
    EXIT_SCHEMA,
    _load_config_arg,
    load_candidate,
    main,
    replay_manifest,
    write_candidate,
)
from tapgen.config import (
    SchemaMismatchError,
    default_synthetic_config,
    load_config,
    load_dataset,
    parse_config,
)
from tapgen.netcore import load_model, predict_proba, predict_proba_batch
from tapgen.perturb import FRONTIER_COLUMNS, TapCandidate
from tapgen.probspace import target_distance
from tapgen.synthetic import sample_synthetic
from tapgen.verify import pac_gap_terms

NOT_UTF8 = b'{"kind": "\xff"}'


def small_doc():
    doc = default_synthetic_config()
    doc["dataset"]["n_samples"] = 500
    doc["model"]["hidden_dims"] = [16, 16]
    doc["model"]["train"].update(max_epochs=12, patience=4)
    doc["opt"]["max_iters"] = 150
    doc["sweep"]["lambdas"] = [0.0, 0.02, 1.0]
    doc["verification"].update(calibration_pairs=400, verifier_pairs=1500)
    doc["bench"] = {"delta_thresholds": [0.5],
                    "epsilon_budgets": [2.0, "inf"],
                    "max_individuals": 3}
    return doc


@pytest.fixture(scope="session")
def ws(tmp_path_factory):
    """A trained model, verifier, and calibration built once via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(small_doc(), indent=1))
    art = root / "artifacts"
    cfg, art_s = str(cfg_path), str(art)
    assert main(["train", "--config", cfg, "--out", art_s]) == 0
    assert main(["train-verifier", "--config", cfg, "--out", art_s,
                 "--model", str(art / "model.json")]) == 0
    assert main(["calibrate-gamma", "--config", cfg, "--out", art_s,
                 "--model", str(art / "model.json"),
                 "--verifier", str(art / "verifier.json")]) == 0
    model = load_model(art / "model.json")
    x, _ = load_dataset(load_config(cfg_path))
    probs = predict_proba_batch(model, x)
    # the most confidently undesirable row makes a deterministic test subject
    idx = int(np.argmax(probs[:, 0]))
    return {
        "root": root,
        "config": cfg,
        "model": str(art / "model.json"),
        "verifier": str(art / "verifier.json"),
        "calibration": str(art / "calibration.json"),
        "idx": idx,
    }


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def run(ws, argv, out_name):
    out = ws["root"] / out_name
    rc = main([*argv, "--out", str(out)])
    return rc, out


class TestTrainArtifacts:
    def test_model_file_and_manifest(self, ws, tmp_path):
        model = load_model(ws["model"])
        assert model.metadata["test_accuracy"] >= 0.85
        assert model.temperature > 0
        assert "temperature_fit" in model.metadata
        manifest = json.loads(
            (ws["root"] / "artifacts" / "manifest.json").read_text())
        assert manifest["kind"] == "run-manifest"
        assert manifest["outputs"] == ["calibration.json"]
        assert manifest["config_text"] is not None
        assert manifest["versions"]["tapgen"]

    def test_verifier_takes_pair_inputs(self, ws):
        verifier = load_model(ws["verifier"])
        assert verifier.num_features == 8
        assert verifier.num_classes == 2

    def test_calibration_holds_a_threshold(self, ws):
        doc = json.loads((ws["root"] / "artifacts" /
                          "calibration.json").read_text())
        assert 0.0 < doc["gamma"] < 1.0
        assert doc["rate"] == 0.1

    def test_seed_override_lands_in_manifest(self, ws, tmp_path):
        rc = main(["train", "--config", ws["config"], "--seed", "9",
                   "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_seed_override_reaches_train_and_opt(self, ws):
        cfg, _ = _load_config_arg(argparse.Namespace(config=ws["config"],
                                                     seed=9))
        assert (cfg.seed, cfg.train.seed, cfg.opt.seed) == (9, 9, 9)


class TestGenerate:
    def test_candidate_dump_round_trips(self, ws):
        rc, out = run(ws, ["generate", "--config", ws["config"],
                           "--model", ws["model"],
                           "--individual", str(ws["idx"]),
                           "--lambda", "0.02"], "gen")
        assert rc == 0
        path = out / f"candidate_{ws['idx']}.json"
        doc = json.loads(path.read_text())
        assert doc["kind"] == "perturbation-candidate"
        assert doc["method"] == "tap"
        assert [f["name"] for f in doc["features"]] == ["x0", "x1", "x2", "x3"]
        assert doc["verified"] is None
        cfg = load_config(ws["config"])
        x, x_tilde, loaded = load_candidate(path, cfg.schema)
        assert x_tilde.shape == (4,)
        assert loaded["epsilon"] == doc["epsilon"]
        assert doc["epsilon"] > 0.0

    def test_huge_lambda_stays_put(self, ws):
        # any move costs more than the distance it buys back
        rc, out = run(ws, ["generate", "--config", ws["config"],
                           "--model", ws["model"],
                           "--individual", str(ws["idx"]),
                           "--lambda", "1000000.0"], "gen_noop")
        assert rc == 0
        doc = json.loads((out / f"candidate_{ws['idx']}.json").read_text())
        assert doc["epsilon"] == 0.0
        for feat in doc["features"]:
            assert feat["perturbed"] == feat["original"]

    def test_verdict_attached_when_verifier_given(self, ws, capsys):
        rc, out = run(ws, ["generate", "--config", ws["config"],
                           "--model", ws["model"],
                           "--verifier", ws["verifier"],
                           "--calibration", ws["calibration"],
                           "--individual", str(ws["idx"]),
                           "--lambda", "0.02"], "gen_v")
        assert rc == 0
        doc = json.loads((out / f"candidate_{ws['idx']}.json").read_text())
        assert doc["verified"] in (True, False)
        assert isinstance(doc["discrepancy"], float)
        line = capsys.readouterr().out
        assert ("verified" in line) or ("rejected" in line)

    def test_epsilon_budget_respected(self, ws):
        rc, out = run(ws, ["generate", "--config", ws["config"],
                           "--model", ws["model"],
                           "--individual", str(ws["idx"]),
                           "--epsilon-max", "0.5"], "gen_eps")
        assert rc == 0
        doc = json.loads((out / f"candidate_{ws['idx']}.json").read_text())
        assert doc["epsilon"] <= 0.5

    def test_replay_reproduces_candidate(self, ws, tmp_path):
        rc, out = run(ws, ["generate", "--config", ws["config"],
                           "--model", ws["model"],
                           "--individual", str(ws["idx"]),
                           "--lambda", "0.02"], "gen_replay")
        assert rc == 0
        name = f"candidate_{ws['idx']}.json"
        assert replay_manifest(out / "manifest.json", tmp_path) == 0
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


class TestSweepCommand:
    def test_frontier_csv(self, ws, capsys):
        rc, out = run(ws, ["sweep", "--config", ws["config"],
                           "--model", ws["model"],
                           "--individual", str(ws["idx"])], "sweep")
        assert rc == 0
        lines = (out / "frontier.csv").read_text().splitlines()
        assert lines[0] == ",".join(FRONTIER_COLUMNS)
        # one row per configured lambda plus the stay-put anchor
        assert len(lines) == 1 + 3 + 1
        assert "candidates" in capsys.readouterr().out


class TestVerifyCommand:
    def test_verdict_file(self, ws, capsys):
        rc, gen_out = run(ws, ["generate", "--config", ws["config"],
                               "--model", ws["model"],
                               "--individual", str(ws["idx"]),
                               "--lambda", "0.02"], "gen_for_verify")
        assert rc == 0
        cand = gen_out / f"candidate_{ws['idx']}.json"
        rc, out = run(ws, ["verify", "--config", ws["config"],
                           "--model", ws["model"],
                           "--verifier", ws["verifier"],
                           "--calibration", ws["calibration"],
                           str(cand)], "verify")
        assert rc == 0
        doc = json.loads((out / "verdict.json").read_text())
        assert doc["kind"] == "verification-verdict"
        assert doc["accepted"] in (True, False)
        assert doc["discrepancy"] >= 0.0
        word = "accepted" if doc["accepted"] else "rejected"
        assert word in capsys.readouterr().out

    def test_noop_candidate_accepted(self, ws, tmp_path):
        # an identical pair at a confidently classified point sits at the
        # bottom of the discrepancy distribution
        cfg = load_config(ws["config"])
        x, _ = load_dataset(cfg)
        point = x[ws["idx"]]
        cand = TapCandidate(x=point, x_tilde=point, lam=1.0, epsilon=0.0,
                            delta=0.0, objective=0.0, iterations=0)
        path = tmp_path / "noop.json"
        write_candidate(path, cfg.schema, cand, "tap", 0)
        rc, out = run(ws, ["verify", "--config", ws["config"],
                           "--model", ws["model"],
                           "--verifier", ws["verifier"],
                           "--calibration", ws["calibration"],
                           str(path)], "verify_noop")
        assert rc == 0
        assert json.loads((out / "verdict.json").read_text())["accepted"]


class TestBaselineCommands:
    def test_attack_cw(self, ws):
        rc, out = run(ws, ["attack-cw", "--config", ws["config"],
                           "--model", ws["model"],
                           "--individual", str(ws["idx"])], "cw")
        assert rc == 0
        doc = json.loads((out / f"cw_{ws['idx']}.json").read_text())
        assert doc["method"] == "cw"
        assert (out / "frontier.csv").exists()

    def test_baseline_wachter(self, ws, capsys):
        rc, out = run(ws, ["baseline-wachter", "--config", ws["config"],
                           "--model", ws["model"],
                           "--individual", str(ws["idx"])], "wachter")
        assert rc == 0
        doc = json.loads((out / f"wachter_{ws['idx']}.json").read_text())
        assert doc["method"] == "wachter"
        rows = (out / "frontier.csv").read_text().splitlines()
        assert len(rows) >= 2
        assert "trials" in capsys.readouterr().out


class TestEceCommand:
    def test_csv_layout(self, ws):
        rc, out = run(ws, ["ece", "--config", ws["config"],
                           "--model", ws["model"]], "ece")
        assert rc == 0
        header, row = (out / "ece.csv").read_text().splitlines()
        assert header == "bins,points,split,value"
        bins, points, split, value = row.split(",")
        assert bins == "15" and split == "test"
        assert 0.0 <= float(value) <= 1.0


class TestPacBoundCommand:
    def test_prints_both_terms(self, capsys):
        rc = main(["pac-bound", "--n", "4000", "--k", "2", "--d", "8",
                   "--loss-bound", "2.0", "--confidence", "0.05"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        terms = pac_gap_terms(4000, 2, 8, 2.0, 0.05)
        assert lines[0] == f"explicit_term {terms.explicit_term!r}"
        assert lines[1] == f"complexity_base {terms.complexity_base!r}"

    def test_domain_error_is_config_exit(self, capsys):
        rc = main(["pac-bound", "--n", "4", "--k", "2", "--d", "8",
                   "--loss-bound", "2.0", "--confidence", "0.05"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_csv_and_replay(self, tmp_path):
        out = tmp_path / "pac"
        rc = main(["pac-bound", "--n", "4000", "--k", "2", "--d", "8",
                   "--loss-bound", "2.0", "--confidence", "0.05",
                   "--out", str(out)])
        assert rc == 0
        replayed = tmp_path / "pac2"
        assert replay_manifest(out / "manifest.json", replayed) == 0
        assert ((out / "pac_bound.csv").read_bytes()
                == (replayed / "pac_bound.csv").read_bytes())


class TestExitCodes:
    def test_bad_config_is_2(self, tmp_path, capsys):
        doc = small_doc()
        doc["surprise"] = 1
        path = tmp_path / "bad.json"
        for text in (json.dumps(doc).encode(), NOT_UTF8):
            path.write_bytes(text)
            rc = main(["train", "--config", str(path), "--out", str(tmp_path)])
            assert rc == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("error:") and len(err.splitlines()) == 1
        assert f"{path} is not valid JSON" in err
        # a negative --seed is refused before anything runs, with or
        # without a config
        path.write_text(json.dumps(small_doc()))
        for argv in ([], ["--config", str(path)]):
            rc = main(["bench-synthetic", *argv, "--seed", "-1",
                       "--out", str(tmp_path / "bench")])
            assert rc == EXIT_CONFIG
            assert "seed must be non-negative" in one_error_line(capsys)
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("edit", [
        lambda d: d["model"].update(train=5),
        lambda d: d["cost"].update(quadratic=5),
        lambda d: d["cost"].update(quadratic=[5]),
        lambda d: d["cost"].update(transitions=[5]),
        lambda d: d["bench"].update(epsilon_budgets=5),
        lambda d: d["bench"].update(epsilon_budgets=[math.nan]),
        lambda d: d["model"].update(dropout=1.5),
        # json reads NaN, so every number a config holds must refuse it
        lambda d: d["opt"].update(lr=math.nan),
        lambda d: d["opt"].update(tol=math.nan),
        lambda d: d["model"]["train"].update(learning_rate=math.nan),
        lambda d: d["dataset"]["synthetic"].update(priors=[math.nan, 0.5]),
        lambda d: d["bench"].update(delta_thresholds=[]),
        lambda d: d["bench"].update(epsilon_budgets=[]),
    ], ids=["train-section-int", "quadratic-int", "quadratic-term-int",
            "transition-term-int", "budgets-int", "budget-nan", "dropout-1.5",
            "lr-nan", "tol-nan", "learning-rate-nan", "prior-nan",
            "thresholds-empty", "budgets-empty"])
    def test_malformed_config_is_2(self, tmp_path, capsys, edit):
        doc = small_doc()
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = main(["train", "--config", str(path), "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert one_error_line(capsys).startswith("error: config: ")

    def test_bad_penalty_weight_is_2(self, tmp_path, capsys):
        # json reads NaN and Infinity; a negative weight is as bad
        for weight in (-5.0, math.nan, math.inf):
            doc = small_doc()
            doc["penalty"] = {"actionable_weight": weight}
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            rc = main(["train", "--config", str(path), "--out", str(tmp_path)])
            assert rc == EXIT_CONFIG
            assert "actionable_weight" in capsys.readouterr().err

    def test_missing_individual_is_2(self, ws, tmp_path):
        rc = main(["generate", "--config", ws["config"],
                   "--model", ws["model"], "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG

    def test_both_budgets_is_2(self, ws, tmp_path):
        rc = main(["generate", "--config", ws["config"],
                   "--model", ws["model"], "--individual", str(ws["idx"]),
                   "--epsilon-max", "1.0", "--delta-max", "0.1",
                   "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("argv,flag", [
        (["generate", "--lambda", "-1"], "--lambda"),
        (["generate", "--lambda", "nan"], "--lambda"),
        (["sweep", "--lambda", "-1"], "--lambda"),
        (["sweep", "--lambda", "nan"], "--lambda"),
        (["sweep", "--lambda", "inf"], "--lambda"),
        (["generate", "--epsilon-max", "-1"], "--epsilon-max"),
        (["generate", "--epsilon-max", "nan"], "--epsilon-max"),
        (["generate", "--delta-max", "-0.5"], "--delta-max"),
        (["generate", "--delta-max", "nan"], "--delta-max")],
        ids=["generate-lambda-negative", "generate-lambda-nan",
             "sweep-lambda-negative", "sweep-lambda-nan", "sweep-lambda-inf",
             "epsilon-negative", "epsilon-nan", "delta-negative",
             "delta-nan"])
    def test_out_of_range_numeric_flag_is_2(self, ws, tmp_path, capsys, argv,
                                            flag):
        rc = main([*argv, "--config", ws["config"], "--model", ws["model"],
                   "--individual", str(ws["idx"]),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert flag in one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    def test_verifier_without_calibration_is_2(self, ws, tmp_path):
        rc = main(["generate", "--config", ws["config"],
                   "--model", ws["model"], "--verifier", ws["verifier"],
                   "--individual", str(ws["idx"]), "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG

    def test_schema_mismatch_is_3(self, ws, tmp_path, capsys):
        doc = small_doc()
        doc["schema"]["features"].append(
            {"name": "x4", "kind": "numeric", "lower": -8.0, "upper": 8.0})
        syn = doc["dataset"]["synthetic"]
        syn["means"] = [m + [0.0] for m in syn["means"]]
        syn["variances"] = [v + [1.0] for v in syn["variances"]]
        path = tmp_path / "five.json"
        path.write_text(json.dumps(doc))
        rc = main(["ece", "--config", str(path), "--model", ws["model"],
                   "--out", str(tmp_path)])
        assert rc == EXIT_SCHEMA
        assert "features" in capsys.readouterr().err

    @pytest.mark.parametrize("role", ["model", "calibration"])
    def test_artifact_missing_key_is_3(self, ws, tmp_path, capsys, role):
        payload = json.loads(Path(ws[role]).read_text())
        del payload["layer_dims" if role == "model" else "gamma"]
        bad = tmp_path / f"{role}.json"
        bad.write_text(json.dumps(payload))
        paths = {"model": ws["model"], "calibration": ws["calibration"],
                 role: str(bad)}
        rc = main(["generate", "--config", ws["config"],
                   "--model", paths["model"], "--verifier", ws["verifier"],
                   "--calibration", paths["calibration"],
                   "--individual", str(ws["idx"]), "--out", str(tmp_path)])
        assert rc == EXIT_SCHEMA
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_calibration_source_hash_checked(self, ws, tmp_path, capsys,
                                             command):
        argv = [command, "--config", ws["config"], "--model", ws["model"],
                "--verifier", ws["verifier"], "--individual", str(ws["idx"]),
                "--lambda", "0.02", "--out", str(tmp_path)]
        assert main([*argv, "--calibration", ws["calibration"]]) == 0
        payload = json.loads(Path(ws["calibration"]).read_text())
        real = payload["source_hash"]
        payload["source_hash"] = "0" * len(real)
        edited = tmp_path / "calibration.json"
        edited.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main([*argv, "--calibration", str(edited)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "0" * len(real) in err and real in err

    def test_model_shape_mismatch_is_3(self, ws, tmp_path):
        payload = json.loads(Path(ws["model"]).read_text())
        payload["weights"][0] = payload["weights"][0][:-1]
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload))
        rc = main(["ece", "--config", ws["config"], "--model", str(bad),
                   "--out", str(tmp_path)])
        assert rc == EXIT_SCHEMA

    def test_csv_column_gap_is_3(self, ws, tmp_path):
        (tmp_path / "rows.csv").write_text("x0,x1,x2,label\n0,0,0,class0\n")
        doc = small_doc()
        doc["dataset"] = {"csv": str(tmp_path / "rows.csv")}
        path = tmp_path / "csv.json"
        path.write_text(json.dumps(doc))
        rc = main(["ece", "--config", str(path), "--model", ws["model"],
                   "--out", str(tmp_path)])
        assert rc == EXIT_SCHEMA

    def test_missing_model_is_4(self, ws, tmp_path, capsys):
        rc = main(["ece", "--config", ws["config"],
                   "--model", str(tmp_path / "ghost.json"),
                   "--out", str(tmp_path)])
        assert rc == EXIT_MISSING_MODEL
        assert "not found" in capsys.readouterr().err

    def test_missing_candidate_is_4(self, ws, tmp_path):
        rc = main(["verify", "--config", ws["config"],
                   "--model", ws["model"], "--verifier", ws["verifier"],
                   "--calibration", ws["calibration"],
                   str(tmp_path / "ghost.json"), "--out", str(tmp_path)])
        assert rc == EXIT_MISSING_MODEL

    def test_corrupt_candidate_is_3(self, ws, tmp_path, capsys):
        cfg = load_config(ws["config"])
        point = load_dataset(cfg)[0][ws["idx"]]
        good = tmp_path / "good.json"
        write_candidate(good, cfg.schema, TapCandidate(
            x=point, x_tilde=point, lam=1.0, epsilon=0.0, delta=0.0,
            objective=0.0, iterations=0), "tap", 0)
        cases = [(b'{"kind": "something-else"}', ""), (NOT_UTF8, "")]
        # json reads NaN, Infinity and integers beyond the float range; no
        # feature value may be non-finite
        for role, value in (("original", math.nan), ("perturbed", math.inf),
                            ("original", "inf"), ("perturbed", 10 ** 400)):
            payload = json.loads(good.read_text())
            payload["features"][1][role] = value
            cases.append((json.dumps(payload).encode(),
                          repr(payload["features"][1]["name"])))
        bad = tmp_path / "bad.json"
        for text, feature in cases:
            bad.write_bytes(text)
            rc = main(["verify", "--config", ws["config"],
                       "--model", ws["model"], "--verifier", ws["verifier"],
                       "--calibration", ws["calibration"],
                       str(bad), "--out", str(tmp_path / "out")])
            assert rc == EXIT_SCHEMA
            line = one_error_line(capsys)
            assert str(bad) in line and feature in line
        assert not (tmp_path / "out" / "verdict.json").exists()

    def test_non_object_candidate_is_3(self, ws, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        rc = main(["verify", "--config", ws["config"],
                   "--model", ws["model"], "--verifier", ws["verifier"],
                   "--calibration", ws["calibration"],
                   str(bad), "--out", str(tmp_path)])
        assert rc == EXIT_SCHEMA
        assert "unknown kind" in one_error_line(capsys)

    @pytest.mark.parametrize("text,reason", [
        (b"[1, 2]", "unknown kind"),
        (b"{not json", "not valid JSON"),
        (NOT_UTF8, "not valid JSON"),
        (b'{"kind": "something-else"}', "unknown kind"),
        (b'{"kind": "run-manifest", "args": {}}', "invalid choice: 'None'"),
        (b'{"kind": "run-manifest", "command": "nope", "args": {}}',
         "invalid choice: 'nope'"),
        (b'{"kind": "run-manifest", "command": "train", "args": {}, '
         b'"config_text": 5}', "config_text is not text"),
        (b'{"kind": "run-manifest", "command": "pac-bound", "args": {}}',
         "the following arguments are required: --n, --k, --d")],
        ids=["list", "invalid", "not-utf8", "other-kind", "no-command",
             "unknown-command", "config-text-not-text", "refused-args"])
    def test_replay_of_malformed_manifest_is_schema_error(self, tmp_path,
                                                         capsys, text,
                                                         reason):
        path = tmp_path / "manifest.json"
        path.write_bytes(text)
        with pytest.raises(SchemaMismatchError, match=str(path)) as info:
            replay_manifest(path, tmp_path / "out")
        assert reason in str(info.value)
        # a library call: the refusal is the error, nothing is printed
        assert capsys.readouterr() == ("", "")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("gamma", math.nan), ("gamma", math.inf), ("gamma", True),
        ("rate", 7), ("rate", -0.1), ("sample_size", 0),
        ("sample_size", math.inf), ("seed", False)])
    def test_calibration_values_checked_is_3(self, ws, tmp_path, capsys, key,
                                             value):
        payload = json.loads(Path(ws["calibration"]).read_text())
        payload[key] = value
        bad = tmp_path / "calibration.json"
        bad.write_text(json.dumps(payload))
        cfg = load_config(ws["config"])
        point = load_dataset(cfg)[0][ws["idx"]]
        cand = tmp_path / "noop.json"
        write_candidate(cand, cfg.schema, TapCandidate(
            x=point, x_tilde=point, lam=1.0, epsilon=0.0, delta=0.0,
            objective=0.0, iterations=0), "tap", 0)
        rc = main(["verify", "--config", ws["config"],
                   "--model", ws["model"], "--verifier", ws["verifier"],
                   "--calibration", str(bad), str(cand),
                   "--out", str(tmp_path)])
        assert rc == EXIT_SCHEMA
        assert "malformed" in one_error_line(capsys)

    @pytest.mark.parametrize("edit", [
        lambda p: p.update(metadata=[1]),
        lambda p: p.update(seed=True),
        lambda p: p.update(seed=math.inf),
        lambda p: p["biases"][0].__setitem__(0, True),
        lambda p: p["weights"][0][0].__setitem__(0, "1.5"),
        lambda p: p["metadata"]["split_indices"].update(test=[-5]),
        lambda p: p["metadata"]["split_indices"].update(test=["a"]),
        lambda p: p["metadata"]["split_indices"].update(test=[True]),
        lambda p: p["metadata"].update(split_indices=[0, 1])],
        ids=["metadata-list", "seed-bool", "seed-inf", "bias-bool",
             "weight-string", "split-negative", "split-string", "split-bool",
             "splits-list"])
    def test_model_values_checked_is_3(self, ws, tmp_path, capsys, edit):
        payload = json.loads(Path(ws["model"]).read_text())
        edit(payload)
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload))
        rc = main(["ece", "--config", ws["config"], "--model", str(bad),
                   "--out", str(tmp_path)])
        assert rc == EXIT_SCHEMA
        assert "model" in one_error_line(capsys)

    def test_unreachable_budget_is_5(self, ws, tmp_path, capsys):
        doc = small_doc()
        for feat in doc["schema"]["features"]:
            feat["mutable"] = False
        path = tmp_path / "frozen.json"
        path.write_text(json.dumps(doc))
        rc = main(["generate", "--config", str(path),
                   "--model", ws["model"], "--individual", str(ws["idx"]),
                   "--delta-max", "0.05", "--out", str(tmp_path)])
        assert rc == EXIT_BUDGET
        assert "unreachable" in capsys.readouterr().err


def recorded(res) -> np.ndarray:
    """Each record's x, epsilon and delta, then each improvement row's
    mean change, as one flat vector."""
    return np.concatenate([
        np.ravel([[*r.candidate.x, r.candidate.epsilon, r.candidate.delta]
                  for r in res.records]),
        [row.mean_change for row in res.improvement]])


def recomputed(res, cfg) -> np.ndarray:
    """:func:`recorded` as the problem cfg declares recomputes it: x
    resampled from cfg's mixture, epsilon priced under its cost, delta
    measured against its target under its divergence, and the true
    improvement of the records the benchmark reports on under its
    posteriors."""
    x = sample_synthetic(cfg.dataset.synthetic, cfg.dataset.n_samples,
                         cfg.seed)[0]
    reported = [r for r in res.records if r.method == "cw" or (
        r.candidate.verified and not r.candidate.is_noop)]
    return np.concatenate([
        np.ravel([[*x[r.individual_id],
                   cost(r.candidate.x, r.candidate.x_tilde, cfg.cost,
                        cfg.schema),
                   target_distance(predict_proba(res.model,
                                                 r.candidate.x_tilde),
                                   cfg.target, cfg.divergence())]
                  for r in res.records]),
        [row.mean_change for row in true_improvement_report(
            reported, cfg.dataset.synthetic, cfg.target)]])


class TestBenchCommand:
    @staticmethod
    def bench(monkeypatch, config, out):
        """bench-synthetic on a config file: its exit code and the
        BenchmarkResult it ran, None when it ran none."""
        runs = []

        def run(bcfg):
            runs.append(run_benchmark(bcfg))
            return runs[-1]

        monkeypatch.setattr(cli, "run_benchmark", run)
        rc = main(["bench-synthetic", "--config", str(config),
                   "--out", str(out)])
        return rc, (runs[0] if runs else None)

    def test_run_and_byte_identical_replay(self, ws, tmp_path, capsys,
                                           monkeypatch):
        out = tmp_path / "bench"
        rc, res = self.bench(monkeypatch, ws["config"], out)
        assert rc == 0
        # the config's nets, not the bundled document's
        assert res.model.layer_dims == (4, 16, 16, 2)
        assert res.verifier.layer_dims == (8, 16, 16, 2)
        stdout = capsys.readouterr().out
        assert "model accuracy" in stdout
        manifest = json.loads((out / "manifest.json").read_text())
        outputs = manifest["outputs"]
        assert "success_table.csv" in outputs
        assert "frontier.csv" in outputs
        assert "improvement.csv" in outputs
        for name in outputs:
            assert (out / name).exists()
        replayed = tmp_path / "replayed"
        assert replay_manifest(out / "manifest.json", replayed) == 0
        for name in outputs:
            assert ((out / name).read_bytes()
                    == (replayed / name).read_bytes()), name

    @pytest.mark.parametrize("edit, refusal", [
        (lambda d: d.update(dataset={"csv": "rows.csv"}), "ground truth"),
        (lambda d: d["dataset"]["synthetic"].update(priors=[0.3, 0.7]), None),
        (lambda d: d["schema"]["features"][0].update(upper=9.0), None),
        (lambda d: d["cost"]["quadratic"][0].update(weight=2.0), None),
        (lambda d: d["target"].update(p=0.9, q=0.1), None),
        (lambda d: d.update(divergence="chi2"), None),
        (lambda d: d["target"].update(desirable=["class0", "class1"],
                                      undesirable=[]), "one desirable class"),
    ], ids=["csv", "priors", "bounds", "weight", "thresholds", "chi2",
            "two-desirable"])
    def test_config_for_another_problem_is_2(self, tmp_path, capsys,
                                             monkeypatch, edit, refusal):
        """A config for another synthetic problem runs that problem, and
        its records recompute under it, not under the bundled one.  Only
        a problem the benchmark cannot score is 2: a CSV dataset has no
        ground truth, and the baselines need one desirable class."""
        doc = small_doc()
        edit(doc)
        path = tmp_path / "other.json"
        path.write_text(json.dumps(doc))
        rc, res = self.bench(monkeypatch, path, tmp_path / "bench")
        if refusal is not None:
            assert rc == EXIT_CONFIG and res is None
            assert refusal in one_error_line(capsys)
            return
        assert rc == 0 and res.records
        cfg, bundled = load_config(path), parse_config(small_doc())
        assert np.allclose(recomputed(res, cfg), recorded(res), rtol=1e-9)
        # only the wider bound, which no search reaches, leaves the bundled
        # problem's recomputation right
        as_bundled = np.allclose(recomputed(res, bundled), recorded(res),
                                 rtol=1e-9)
        assert as_bundled == (cfg.schema != bundled.schema)


class TestConsoleEntry:
    def test_installed_script(self):
        exe = shutil.which("tapgen")
        assert exe, "console script should be installed"
        proc = subprocess.run(
            [exe, "pac-bound", "--n", "1000", "--k", "2", "--d", "8",
             "--loss-bound", "1.0", "--confidence", "0.05"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.startswith("explicit_term ")

    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tapgen.cli", "--help"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "bench-synthetic" in proc.stdout
