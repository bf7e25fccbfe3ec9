"""Per-layer figures computed from a traced run's spans and counters.

Every figure is reported on every workload; a layer the workload does not
reach reports zero.
"""
from __future__ import annotations

from spans import LAYERS

NETCORE_ROW_FNS = ("forward_cache", "predict_proba", "predict_logits",
                   "input_gradient", "logit_input_gradient")
PROBSPACE_FNS = ("target_distance", "target_distance_grad")
ACTIONABILITY_FNS = ("cost", "cost_grad", "penalty_actionable",
                     "penalty_coherence")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, work, outputs) -> dict[str, tuple[float, str]]:
    names = tracer.by_name()
    counts = tracer.counts
    zero = {"count": 0, "total_s": 0.0, "self_s": 0.0, "rows": 0}

    def get(qualified: str) -> dict:
        return names.get(qualified, zero)

    def total(layer: str, fns) -> float:
        return sum(get(f"{layer}.{f}")["total_s"] for f in fns)

    def calls(layer: str, fns) -> int:
        return sum(get(f"{layer}.{f}")["count"] for f in fns)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, row in names.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += row["self_s"]

    fwd, batch = get("netcore.forward_cache"), get("netcore.predict_proba_batch")
    row_self = sum(get(f"netcore.{f}")["self_s"] for f in NETCORE_ROW_FNS)
    descents = get("perturb.generate_candidate")
    finished = counts["patience_stops"] + counts["max_iter_hits"]
    sweep = get("perturb.frontier_sweep")
    repair = get("perturb.repair_on_rejection")
    verdicts = get("verify.verify_pair")
    cw = get("baselines.cw_l2")
    artifact_bytes = sum(o.get("artifact_bytes", 0) for o in outputs
                         if isinstance(o, dict))

    m = {
        "netcore.rowgrad_us_per_row": (1e6 * _ratio(row_self, fwd["rows"]), "us"),
        "netcore.forward_calls": (fwd["count"] + batch["count"], "count"),
        "netcore.rows_per_call": (_ratio(fwd["rows"] + batch["rows"],
                                         fwd["count"] + batch["count"]), "count"),
        "netcore.self_s": (layer_self["netcore"], "s"),
        "netcore.train_s": (get("netcore.train_classifier")["total_s"], "s"),
        "netcore.train_epochs": (counts["train_epochs"], "count"),
        "probspace.calls": (calls("probspace", PROBSPACE_FNS), "count"),
        "probspace.us_per_row": (1e6 * _ratio(total("probspace", PROBSPACE_FNS),
                                              calls("probspace", PROBSPACE_FNS)),
                                 "us"),
        "probspace.self_s": (layer_self["probspace"], "s"),
        "actionability.calls": (calls("actionability", ACTIONABILITY_FNS),
                                "count"),
        "actionability.us_per_row": (
            1e6 * _ratio(total("actionability", ACTIONABILITY_FNS),
                         calls("actionability", ACTIONABILITY_FNS)), "us"),
        "actionability.cond_calls": (get("actionability.cond")["count"], "count"),
        "actionability.cond_s": (get("actionability.cond")["total_s"], "s"),
        "actionability.self_s": (layer_self["actionability"], "s"),
        "perturb.descents": (descents["count"], "count"),
        "perturb.descent_ms": (1e3 * _ratio(descents["total_s"],
                                            descents["count"]), "ms"),
        "perturb.self_s": (layer_self["perturb"], "s"),
        "perturb.sweep_s": (sweep["total_s"], "s"),
        "perturb.frontier_ms_per_individual": (
            1e3 * _ratio(sweep["total_s"], sweep["count"]), "ms"),
        "perturb.iterations_mean": (_ratio(counts["descent_iterations"],
                                           finished), "count"),
        "perturb.patience_stops": (counts["patience_stops"], "count"),
        "perturb.max_iter_hits": (counts["max_iter_hits"], "count"),
        "perturb.diverged": (counts["diverged"], "count"),
        "perturb.repair_s": (repair["total_s"], "s"),
        "perturb.repair_attempts": (counts["repair_attempts"], "count"),
        "perturb.repair_yield": (_ratio(counts["repair_verified"],
                                        repair["count"]), "share"),
        "perturb.budget_trials": (counts["budget_trials"], "count"),
        "verify.pairs_s": (get("verify.build_pair_dataset")["total_s"], "s"),
        "verify.pairs_built": (counts["pairs_built"], "count"),
        "verify.train_s": (get("verify.train_verifier")["total_s"], "s"),
        "verify.calibrate_s": (get("verify.calibrate_gamma")["total_s"], "s"),
        "verify.verdicts": (verdicts["count"], "count"),
        "verify.us_per_verdict": (1e6 * _ratio(verdicts["total_s"],
                                               verdicts["count"]), "us"),
        "verify.accept_share": (_ratio(counts["verdicts_accepted"],
                                       verdicts["count"]), "share"),
        "verify.self_s": (layer_self["verify"], "s"),
        "baselines.wachter_s": (get("baselines.wachter_counterfactual")["total_s"],
                                "s"),
        "baselines.cw_s": (cw["total_s"], "s"),
        "baselines.cw_flip_share": (_ratio(counts["cw_flips"], cw["count"]),
                                    "share"),
        "bench.self_s": (layer_self["bench"], "s"),
        "bench.artifacts_s": (get("bench.write_artifacts")["total_s"], "s"),
        "bench.artifact_bytes": (artifact_bytes, "count"),
    }
    return {k: (float(v), u) for k, (v, u) in m.items()}
