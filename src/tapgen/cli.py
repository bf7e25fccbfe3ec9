"""Command-line front end tying the library into reproducible runs.

Every invocation that writes artifacts also writes ``manifest.json`` next to
them: the command, its normalized arguments, the exact config text, hashes of
every input file, and the package/python/numpy versions.  Re-running from
that manifest (``replay_manifest``) reproduces every CSV byte for byte,
because all randomness is derived from the recorded global seed.

Exit codes: 0 success, 2 configuration problems, 3 data or artifact files
that do not fit the configured schema, 4 missing model/verifier/calibration
files, 5 an unreachable distance budget, 1 anything else.  Each failure
prints a single diagnostic line on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import sys
from importlib import metadata as _metadata
from pathlib import Path

import numpy as np

from .baselines import cw_l2, wachter_counterfactual
from .bench import BenchmarkConfig, run_benchmark, write_artifacts
from .config import (
    ConfigError,
    ExperimentConfig,
    SchemaMismatchError,
    load_config,
    load_dataset,
)
from .netcore import (
    DenseClassifier,
    ece,
    fit_temperature,
    load_model,
    save_model,
    train_classifier,
)
from .perturb import (
    CandidateRecord,
    TapCandidate,
    generate_candidate,
    frontier_sweep,
    meet_budget,
    write_frontier_csv,
)
from .verify import (
    build_pair_dataset,
    calibrate_gamma,
    load_calibration,
    pac_gap_terms,
    save_calibration,
    source_digest,
    train_verifier,
    verify_pair,
)

__all__ = [
    "main",
    "replay_manifest",
    "MissingModelError",
    "BudgetError",
    "EXIT_CONFIG",
    "EXIT_SCHEMA",
    "EXIT_MISSING_MODEL",
    "EXIT_BUDGET",
]

EXIT_CONFIG = 2
EXIT_SCHEMA = 3
EXIT_MISSING_MODEL = 4
EXIT_BUDGET = 5


class MissingModelError(FileNotFoundError):
    """A required model, verifier, calibration, or candidate file is absent."""


class BudgetError(RuntimeError):
    """No candidate satisfies the requested distance budget."""


# ---------------------------------------------------------------------------
# shared plumbing


def _package_version() -> str:
    try:
        return _metadata.version("tapgen")
    except _metadata.PackageNotFoundError:
        return "0.0.0"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _out_dir(args, cfg: ExperimentConfig | None) -> Path:
    if args.out is not None:
        out = Path(args.out)
    elif cfg is not None:
        out = Path(cfg.out_dir)
    else:
        out = Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config_arg(args) -> tuple[ExperimentConfig, str]:
    if args.config is None:
        raise ConfigError("this command needs --config")
    cfg = load_config(args.config)
    text = Path(args.config).read_text()
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be non-negative")
        cfg = dataclasses.replace(
            cfg, seed=args.seed,
            train=dataclasses.replace(cfg.train, seed=args.seed),
            opt=dataclasses.replace(cfg.opt, seed=args.seed),
        )
    return cfg, text


def _require_file(path_arg, role: str) -> Path:
    if path_arg is None:
        raise MissingModelError(f"this command needs --{role}")
    path = Path(path_arg)
    if not path.exists():
        raise MissingModelError(f"{role} file not found: {path}")
    return path


def _load_model_arg(args, cfg: ExperimentConfig) -> DenseClassifier:
    path = _require_file(args.model, "model")
    try:
        model = load_model(path)
    except ValueError as exc:
        raise SchemaMismatchError(str(exc)) from None
    d = len(cfg.schema.features)
    if model.num_features != d:
        raise SchemaMismatchError(
            f"model expects {model.num_features} features, schema has {d}")
    k = len(cfg.schema.class_labels)
    if k and model.num_classes != k:
        raise SchemaMismatchError(
            f"model has {model.num_classes} classes, schema lists {k}")
    return model


def _load_verifier_arg(args, cfg: ExperimentConfig) -> DenseClassifier:
    path = _require_file(args.verifier, "verifier")
    try:
        net = load_model(path)
    except ValueError as exc:
        raise SchemaMismatchError(str(exc)) from None
    d = len(cfg.schema.features)
    if net.num_features != 2 * d:
        raise SchemaMismatchError(
            f"verifier expects {net.num_features} inputs, pairs have {2 * d}")
    if net.num_classes != 2:
        raise SchemaMismatchError("verifier must be a two-class net")
    return net


def _load_calibration_arg(args):
    path = _require_file(args.calibration, "calibration")
    try:
        return load_calibration(path)
    except ValueError as exc:
        raise SchemaMismatchError(str(exc)) from None


def _verification_pair(args, cfg: ExperimentConfig, model: DenseClassifier,
                       x: np.ndarray, y: np.ndarray):
    """Both --verifier and --calibration, or neither; the calibration must
    come from the rows of this dataset that it names."""
    given = (args.verifier is not None, args.calibration is not None)
    if given == (False, False):
        return None, None
    if given != (True, True):
        raise ConfigError("give both --verifier and --calibration or neither")
    verifier, cal = _load_verifier_arg(args, cfg), _load_calibration_arg(args)
    rows, _ = _split_rows(model, x.shape[0], cal.source_split)
    digest = source_digest(x[rows], y[rows])
    if digest != cal.source_hash:
        raise SchemaMismatchError(
            f"calibration {args.calibration} was drawn from data with digest "
            f"{cal.source_hash}, but its {cal.source_split!r} rows here "
            f"digest to {digest}")
    return verifier, cal


def _individual_row(args, x: np.ndarray) -> int:
    if args.individual is None:
        raise ConfigError("this command needs --individual")
    idx = args.individual
    if not (0 <= idx < x.shape[0]):
        raise ConfigError(
            f"--individual {idx} outside the dataset ({x.shape[0]} rows)")
    return idx


def _split_rows(model: DenseClassifier, n: int, split: str) -> tuple[list[int], str]:
    """Recorded split rows when the model was trained on this dataset."""
    indices = model.metadata.get("split_indices") or {}
    rows = indices.get(split, []) if isinstance(indices, dict) else None
    if not isinstance(rows, list) or not all(
            type(i) is int and i >= 0 for i in rows):
        raise SchemaMismatchError(
            "model split_indices must map split names to lists of "
            "non-negative row numbers")
    if not rows:
        return list(range(n)), "all"
    if max(rows) >= n:
        raise SchemaMismatchError(
            f"model split indices reach row {max(rows)} but the dataset has "
            f"{n} rows; was the model trained on different data?")
    return rows, split


def _maybe_verdict(cand: TapCandidate, model, verifier, cal) -> TapCandidate:
    if verifier is None:
        return cand
    verdict = verify_pair(model, verifier, cal, np.asarray(cand.x),
                          np.asarray(cand.x_tilde))
    return cand.with_verdict(verdict)


# ---------------------------------------------------------------------------
# candidate dump files


def _json_scalar(value):
    if value is None:
        return None
    value = float(value)
    if math.isinf(value):
        return "inf"
    return value


def _from_scalar(value, where: str) -> float:
    if value == "inf":
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaMismatchError(f"candidate file: bad value for {where}")
    return float(value)


def write_candidate(path, schema, cand: TapCandidate, method: str,
                    individual: int) -> None:
    """Original and perturbed raw feature values, side by side per feature."""
    doc = {
        "kind": "perturbation-candidate",
        "method": method,
        "individual": int(individual),
        "lambda": _json_scalar(cand.lam),
        "epsilon": float(cand.epsilon),
        "delta": float(cand.delta),
        "iterations": int(cand.iterations),
        "discrepancy": (None if cand.discrepancy is None
                        else float(cand.discrepancy)),
        "verified": cand.verified,
        "features": [
            {"name": name,
             "original": float(cand.x[i]),
             "perturbed": float(cand.x_tilde[i])}
            for i, name in enumerate(schema.names)
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_candidate(path, schema) -> tuple[np.ndarray, np.ndarray, dict]:
    path = Path(path)
    if not path.exists():
        raise MissingModelError(f"candidate file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaMismatchError(
            f"candidate file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("kind") != "perturbation-candidate":
        raise SchemaMismatchError(f"candidate file {path} has unknown kind")
    rows = doc.get("features")
    if not isinstance(rows, list):
        raise SchemaMismatchError(f"candidate file {path} lacks features")
    by_name = {}
    for row in rows:
        if not isinstance(row, dict) or "name" not in row:
            raise SchemaMismatchError(f"candidate file {path}: bad feature row")
        by_name[row["name"]] = row
    missing = [n for n in schema.names if n not in by_name]
    if missing:
        raise SchemaMismatchError(
            f"candidate file {path} lacks feature {missing[0]!r}")
    extra = sorted(set(by_name) - set(schema.names))
    if extra:
        raise SchemaMismatchError(
            f"candidate file {path} has unknown feature {extra[0]!r}")
    x = np.array([_from_scalar(by_name[n].get("original"), n)
                  for n in schema.names])
    x_tilde = np.array([_from_scalar(by_name[n].get("perturbed"), n)
                        for n in schema.names])
    return x, x_tilde, doc


# ---------------------------------------------------------------------------
# manifests


_ARG_KEYS = ("config", "model", "verifier", "calibration", "out", "seed",
             "lam", "epsilon_max", "delta_max", "individual", "candidate",
             "n", "k", "d", "loss_bound", "confidence")
_PATH_ARGS = {"config", "model", "verifier", "calibration", "candidate"}
_FLAG_NAMES = {"lam": "--lambda"}


def _manifest_args(args, out_dir: Path) -> dict:
    recorded = {}
    for key in _ARG_KEYS:
        value = getattr(args, key, None)
        if value is None:
            continue
        if key in _PATH_ARGS:
            value = str(Path(value).resolve())
        recorded[key] = value
    recorded["out"] = str(out_dir.resolve())
    return recorded


def write_manifest(out_dir: Path, command: str, args, config_text: str | None,
                   outputs: list[str], seed: int | None) -> Path:
    inputs = {}
    for role in ("model", "verifier", "calibration", "candidate"):
        value = getattr(args, role, None)
        if value is not None and Path(value).exists():
            inputs[role] = {"path": str(Path(value).resolve()),
                            "sha256": _sha256(Path(value))}
    doc = {
        "kind": "run-manifest",
        "command": command,
        "args": _manifest_args(args, out_dir),
        "seed": seed,
        "config_sha256": (None if config_text is None else
                          hashlib.sha256(config_text.encode()).hexdigest()),
        "config_text": config_text,
        "inputs": inputs,
        "outputs": outputs,
        "versions": {
            "tapgen": _package_version(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def replay_manifest(manifest_path, out_dir=None) -> int:
    """Re-execute a recorded run; artifacts land in ``out_dir``."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise MissingModelError(f"manifest file not found: {manifest_path}")
    try:
        doc = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaMismatchError(
            f"manifest file {manifest_path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("kind") != "run-manifest":
        raise SchemaMismatchError(
            f"manifest file {manifest_path} has unknown kind")
    if not isinstance(doc.get("args"), dict):
        raise SchemaMismatchError(f"manifest file {manifest_path} lacks args")
    rec = dict(doc["args"])
    out = Path(out_dir) if out_dir is not None else Path(rec.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    if doc.get("config_text") is not None:
        # the embedded text, not the original path: the replay must see the
        # exact bytes the run saw even if the file has changed since
        cfg_path = out / "replay-config.json"
        cfg_path.write_text(doc["config_text"])
        rec["config"] = str(cfg_path)
    rec["out"] = str(out)
    argv = [doc["command"]]
    positional = rec.pop("candidate", None)
    for key, value in rec.items():
        argv.extend([_FLAG_NAMES.get(key, "--" + key.replace("_", "-")),
                     str(value)])
    if positional is not None:
        argv.append(positional)
    return main(argv)


# ---------------------------------------------------------------------------
# commands


def _cmd_train(args) -> int:
    cfg, text = _load_config_arg(args)
    out = _out_dir(args, cfg)
    x, y = load_dataset(cfg)
    k = len(cfg.schema.class_labels) or None
    model = train_classifier(x, y, cfg.train, hidden_dims=cfg.hidden_dims,
                             dropout_rate=cfg.dropout, num_classes=k)
    val_idx = model.metadata["split_indices"]["val"]
    if val_idx:
        model = fit_temperature(model, x[val_idx], y[val_idx])
    save_model(model, out / "model.json")
    write_manifest(out, "train", args, text, ["model.json"], cfg.seed)
    print(f"trained model.json: test accuracy "
          f"{model.metadata['test_accuracy']:.4f}, "
          f"temperature {model.temperature:.4f}, "
          f"{model.metadata['epochs_run']} epochs")
    return 0


def _cmd_train_verifier(args) -> int:
    cfg, text = _load_config_arg(args)
    out = _out_dir(args, cfg)
    x, y = load_dataset(cfg)
    rows = list(range(x.shape[0]))
    source = "all"
    if args.model is not None:
        model = _load_model_arg(args, cfg)
        rows, source = _split_rows(model, x.shape[0], "train")
    pairs = build_pair_dataset(x[rows], y[rows],
                               max_pairs=cfg.verification.verifier_pairs,
                               seed=cfg.seed)
    # seed + 1 keeps the verifier's init stream apart from the classifier's
    verifier = train_verifier(
        pairs, dataclasses.replace(cfg.train, seed=cfg.seed + 1),
        hidden_dims=cfg.hidden_dims, dropout_rate=cfg.dropout)
    save_model(verifier, out / "verifier.json")
    write_manifest(out, "train-verifier", args, text, ["verifier.json"],
                   cfg.seed)
    print(f"trained verifier.json on {pairs.first.shape[0]} pairs "
          f"({source} rows): test accuracy "
          f"{verifier.metadata['test_accuracy']:.4f}, "
          f"temperature {verifier.temperature:.4f}")
    return 0


def _cmd_calibrate_gamma(args) -> int:
    cfg, text = _load_config_arg(args)
    out = _out_dir(args, cfg)
    x, y = load_dataset(cfg)
    model = _load_model_arg(args, cfg)
    verifier = _load_verifier_arg(args, cfg)
    rows, source = _split_rows(model, x.shape[0], "test")
    cal = calibrate_gamma(model, verifier, x[rows], y[rows],
                          rate=cfg.verification.rate,
                          num_pairs=cfg.verification.calibration_pairs,
                          seed=cfg.seed, source_split=source)
    save_calibration(cal, out / "calibration.json")
    write_manifest(out, "calibrate-gamma", args, text, ["calibration.json"],
                   cfg.seed)
    print(f"calibration.json: gamma {cal.gamma:.6f} at rate {cal.rate:g} "
          f"from {cal.sample_size} {source}-split pairs")
    return 0


def _cmd_generate(args) -> int:
    cfg, text = _load_config_arg(args)
    out = _out_dir(args, cfg)
    x, y = load_dataset(cfg)
    model = _load_model_arg(args, cfg)
    verifier, cal = _verification_pair(args, cfg, model, x, y)
    idx = _individual_row(args, x)
    div = cfg.divergence()
    if args.epsilon_max is not None and args.delta_max is not None:
        raise ConfigError("give at most one of --epsilon-max and --delta-max")

    if args.delta_max is not None:
        outcome = meet_budget(model, cfg.schema, cfg.cost, cfg.target, x[idx],
                              cfg.opt, delta_max=args.delta_max, div=div,
                              penalty=cfg.penalty)
        if not outcome.met:
            raise BudgetError(
                f"delta budget {args.delta_max:g} unreachable for individual "
                f"{idx}; closest delta {outcome.candidate.delta:.6f} at "
                f"epsilon {outcome.candidate.epsilon:.6f}")
        cand = outcome.candidate
    elif args.epsilon_max is not None:
        outcome = meet_budget(model, cfg.schema, cfg.cost, cfg.target, x[idx],
                              cfg.opt, epsilon_max=args.epsilon_max, div=div,
                              penalty=cfg.penalty)
        cand = outcome.candidate
    else:
        oc = cfg.opt if args.lam is None else dataclasses.replace(
            cfg.opt, lam=args.lam)
        cand = generate_candidate(model, cfg.schema, cfg.cost, cfg.target,
                                  x[idx], oc, div=div, penalty=cfg.penalty)

    cand = _maybe_verdict(cand, model, verifier, cal)
    name = f"candidate_{idx}.json"
    write_candidate(out / name, cfg.schema, cand, "tap", idx)
    write_manifest(out, "generate", args, text, [name], cfg.seed)
    verdict = ("" if cand.verified is None else
               ", verified" if cand.verified else ", rejected")
    print(f"individual {idx}: epsilon {cand.epsilon:.6f}, "
          f"delta {cand.delta:.6f}{verdict} -> {name}")
    return 0


def _cmd_sweep(args) -> int:
    cfg, text = _load_config_arg(args)
    out = _out_dir(args, cfg)
    x, y = load_dataset(cfg)
    model = _load_model_arg(args, cfg)
    verifier, cal = _verification_pair(args, cfg, model, x, y)
    idx = _individual_row(args, x)
    lambdas = cfg.lambdas if args.lam is None else (args.lam,)
    sweep = frontier_sweep(model, cfg.schema, cfg.cost, cfg.target, x[idx],
                           lambdas, cfg.opt, div=cfg.divergence(),
                           penalty=cfg.penalty)
    cands = [_maybe_verdict(c, model, verifier, cal) for c in sweep.candidates]
    records = [CandidateRecord(idx, "tap", c) for c in cands]
    write_frontier_csv(out / "frontier.csv", records)
    write_manifest(out, "sweep", args, text, ["frontier.csv"], cfg.seed)
    reacher = next((c for c in cands if c.delta <= 1e-9), None)
    status = (f"target reached at epsilon {reacher.epsilon:.6f}"
              if reacher is not None else "target not reached")
    print(f"individual {idx}: {len(cands)} candidates, {status} "
          f"-> frontier.csv")
    for lam, message in sweep.failures:
        print(f"  lambda {lam:g} failed: {message}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    cfg, text = _load_config_arg(args)
    out = _out_dir(args, cfg)
    model = _load_model_arg(args, cfg)
    verifier = _load_verifier_arg(args, cfg)
    cal = _load_calibration_arg(args)
    x, x_tilde, doc = load_candidate(args.candidate, cfg.schema)
    verdict = verify_pair(model, verifier, cal, x, x_tilde)
    payload = {
        "kind": "verification-verdict",
        "candidate": str(Path(args.candidate).resolve()),
        "accepted": verdict.accepted,
        "discrepancy": verdict.discrepancy,
        "gamma": verdict.gamma,
    }
    (out / "verdict.json").write_text(json.dumps(payload, indent=1) + "\n")
    write_manifest(out, "verify", args, text, ["verdict.json"], cfg.seed)
    word = "accepted" if verdict.accepted else "rejected"
    print(f"{word}: discrepancy {verdict.discrepancy:.6f} vs "
          f"gamma {verdict.gamma:.6f}")
    return 0


def _cmd_attack_cw(args) -> int:
    cfg, text = _load_config_arg(args)
    out = _out_dir(args, cfg)
    x, y = load_dataset(cfg)
    model = _load_model_arg(args, cfg)
    verifier, cal = _verification_pair(args, cfg, model, x, y)
    idx = _individual_row(args, x)
    result = cw_l2(model, cfg.schema, cfg.cost, cfg.target, x[idx],
                   attack_class=cfg.target.desirable[0],
                   div=cfg.divergence())
    cand = _maybe_verdict(result.candidate, model, verifier, cal)
    name = f"cw_{idx}.json"
    write_candidate(out / name, cfg.schema, cand, "cw", idx)
    write_frontier_csv(out / "frontier.csv",
                       [CandidateRecord(idx, "cw", cand)])
    write_manifest(out, "attack-cw", args, text, [name, "frontier.csv"],
                   cfg.seed)
    state = "flipped" if result.flipped else "no flip"
    verdict = ("" if cand.verified is None else
               ", verified" if cand.verified else ", rejected")
    print(f"individual {idx}: {state}, epsilon {cand.epsilon:.6f}, "
          f"delta {cand.delta:.6f}{verdict} -> {name}")
    return 0


def _cmd_baseline_wachter(args) -> int:
    cfg, text = _load_config_arg(args)
    out = _out_dir(args, cfg)
    x, y = load_dataset(cfg)
    model = _load_model_arg(args, cfg)
    verifier, cal = _verification_pair(args, cfg, model, x, y)
    idx = _individual_row(args, x)
    rows, _ = _split_rows(model, x.shape[0], "train")
    result = wachter_counterfactual(model, cfg.schema, cfg.cost, cfg.target,
                                    x[idx], x[rows], div=cfg.divergence())
    cands = [_maybe_verdict(c, model, verifier, cal) for c in result.trials]
    best = _maybe_verdict(result.candidate, model, verifier, cal)
    name = f"wachter_{idx}.json"
    write_candidate(out / name, cfg.schema, best, "wachter", idx)
    write_frontier_csv(out / "frontier.csv",
                       [CandidateRecord(idx, "wachter", c) for c in cands])
    write_manifest(out, "baseline-wachter", args, text,
                   [name, "frontier.csv"], cfg.seed)
    state = "flipped" if result.flipped else "no flip"
    print(f"individual {idx}: {state}, epsilon {best.epsilon:.6f}, "
          f"delta {best.delta:.6f} over {len(cands)} trials -> {name}")
    return 0


def _bench_config(cfg: ExperimentConfig | None, seed: int | None
                  ) -> BenchmarkConfig:
    if cfg is None:
        return BenchmarkConfig(seed=seed if seed is not None else 0)
    kwargs = dict(
        seed=cfg.seed,
        lambdas=cfg.lambdas,
        delta_thresholds=cfg.delta_thresholds,
        epsilon_budgets=cfg.epsilon_budgets,
        max_individuals=cfg.max_individuals,
        rejection_rate=cfg.verification.rate,
        verifier_pairs=cfg.verification.verifier_pairs,
        calibration_pairs=cfg.verification.calibration_pairs,
        max_epochs=cfg.train.max_epochs,
        patience=cfg.train.patience,
        opt_iters=cfg.opt.max_iters,
    )
    if cfg.dataset.is_synthetic:
        kwargs["n_samples"] = cfg.dataset.n_samples
    try:
        return BenchmarkConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"config: bench: {exc}") from None


def _cmd_bench_synthetic(args) -> int:
    cfg = text = None
    if args.config is not None:
        cfg, text = _load_config_arg(args)
    out = _out_dir(args, cfg)
    bcfg = _bench_config(cfg, args.seed)
    result = run_benchmark(bcfg)
    outputs = write_artifacts(result, out)
    write_manifest(out, "bench-synthetic", args, text, outputs, bcfg.seed)
    print(f"benchmark seed {bcfg.seed}: {len(result.individual_ids)} "
          f"individuals, model accuracy {result.model_accuracy:.4f}, "
          f"gamma {result.gamma:.6f}")
    for method in bcfg.methods:
        post = result.table.rate(method, bcfg.delta_thresholds[-1],
                                 bcfg.epsilon_budgets[-1], post=True)
        print(f"  {method}: post-verification success "
              f"{post:.3f} at delta {bcfg.delta_thresholds[-1]:g}")
    print(f"wrote {len(outputs)} files to {out}")
    return 0


def _cmd_ece(args) -> int:
    cfg, text = _load_config_arg(args)
    out = _out_dir(args, cfg)
    x, y = load_dataset(cfg)
    model = _load_model_arg(args, cfg)
    rows, source = _split_rows(model, x.shape[0], "test")
    value = ece(model, x[rows], y[rows], bins=15)
    (out / "ece.csv").write_text(
        "bins,points,split,value\n"
        f"15,{len(rows)},{source},{value!r}\n")
    write_manifest(out, "ece", args, text, ["ece.csv"], cfg.seed)
    print(f"ece {value:.6f} over {len(rows)} {source}-split points (15 bins)")
    return 0


def _cmd_pac_bound(args) -> int:
    try:
        terms = pac_gap_terms(args.n, args.k, args.d, args.loss_bound,
                              args.confidence)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print(f"explicit_term {terms.explicit_term!r}")
    print(f"complexity_base {terms.complexity_base!r}")
    if args.out is not None:
        out = _out_dir(args, None)
        (out / "pac_bound.csv").write_text(
            "n,k,d,loss_bound,confidence,explicit_term,complexity_base\n"
            f"{args.n},{args.k},{args.d},{args.loss_bound!r},"
            f"{args.confidence!r},{terms.explicit_term!r},"
            f"{terms.complexity_base!r}\n")
        write_manifest(out, "pac-bound", args, None, ["pac_bound.csv"], None)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


_COMMANDS = {
    "train": _cmd_train,
    "train-verifier": _cmd_train_verifier,
    "calibrate-gamma": _cmd_calibrate_gamma,
    "generate": _cmd_generate,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "attack-cw": _cmd_attack_cw,
    "baseline-wachter": _cmd_baseline_wachter,
    "bench-synthetic": _cmd_bench_synthetic,
    "ece": _cmd_ece,
    "pac-bound": _cmd_pac_bound,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tapgen",
        description="Generate, price, and verify trustworthy actionable "
                    "perturbations for tabular classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, model=False, verifier=False,
            individual=False, budgets=False, lam=False, candidate=False,
            config=True) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        if config:
            sp.add_argument("--config", help="experiment config (JSON)")
            sp.add_argument("--seed", type=int,
                            help="override the config's global seed")
        sp.add_argument("--out", help="output directory")
        if model:
            sp.add_argument("--model", help="trained classifier file")
        if verifier:
            sp.add_argument("--verifier", help="trained pair-net file")
            sp.add_argument("--calibration",
                            help="rejection-threshold file")
        if individual:
            sp.add_argument("--individual", type=int,
                            help="dataset row index")
        if lam:
            sp.add_argument("--lambda", dest="lam", type=float,
                            help="cost weight for the descent")
        if budgets:
            sp.add_argument("--epsilon-max", type=float,
                            help="cost ceiling to satisfy")
            sp.add_argument("--delta-max", type=float,
                            help="distance ceiling to satisfy")
        if candidate:
            sp.add_argument("candidate", help="candidate file to verify")
        return sp

    add("train", "train the classifier on the configured dataset")
    add("train-verifier", "train the same-class pair net", model=True)
    add("calibrate-gamma", "set the rejection threshold from genuine pairs",
        model=True, verifier=True)
    add("generate", "produce one perturbation for one individual",
        model=True, verifier=True, individual=True, budgets=True, lam=True)
    add("sweep", "trace the cost/distance frontier for one individual",
        model=True, verifier=True, individual=True, lam=True)
    add("verify", "re-check a stored candidate against the verifier",
        model=True, verifier=True, candidate=True)
    add("attack-cw", "run the minimum-l2 misclassification attack",
        model=True, verifier=True, individual=True)
    add("baseline-wachter", "run the counterfactual baseline",
        model=True, verifier=True, individual=True)
    add("bench-synthetic", "end-to-end benchmark on the synthetic task")
    add("ece", "expected calibration error of a trained model", model=True)

    pac = sub.add_parser("pac-bound",
                         help="evaluate the verifier risk-bound terms")
    pac.add_argument("--n", type=int, required=True,
                     help="training sample size")
    pac.add_argument("--k", type=int, required=True, help="class count")
    pac.add_argument("--d", type=int, required=True,
                     help="input dimension of the pair net")
    pac.add_argument("--loss-bound", type=float, required=True,
                     help="upper bound on the loss")
    pac.add_argument("--confidence", type=float, required=True,
                     help="failure probability of the bound")
    pac.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        return _fail(EXIT_CONFIG, err)
    except SchemaMismatchError as err:
        return _fail(EXIT_SCHEMA, err)
    except MissingModelError as err:
        return _fail(EXIT_MISSING_MODEL, err)
    except BudgetError as err:
        return _fail(EXIT_BUDGET, err)
    except Exception as err:   # noqa: BLE001 - the CLI boundary
        return _fail(1, err)


def _fail(code: int, err: Exception) -> int:
    text = str(err) or err.__class__.__name__
    print(f"error: {text.splitlines()[0]}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
