"""Trustworthy actionable perturbations for dense tabular classifiers.

The package splits into probability-space geometry (`probspace`), the
network core (`netcore`), actionability schemas and cost pricing
(`actionability`), perturbation descent (`perturb`), pairwise verification
(`verify`), counterfactual and adversarial baselines (`baselines`), the
synthetic benchmark harness (`bench`, `synthetic`, `plots`), dataset presets
(`presets`), and the configuration/CLI layer (`config`, `cli`).
"""
from .actionability import (
    CostModel,
    Feature,
    FeatureSchema,
    LinearTerm,
    PenaltyConfig,
    QuadraticTerm,
    TransitionTerm,
    TriggerTerm,
    cond,
    cost,
    cost_grad,
)
from .baselines import BaselineResult, cw_l2, mad_weights, wachter_counterfactual
from .bench import (
    BenchmarkConfig,
    BenchmarkResult,
    SuccessTable,
    run_benchmark,
    true_improvement_report,
    write_artifacts,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    SchemaMismatchError,
    default_synthetic_config,
    load_config,
    load_dataset,
)
from .netcore import (
    DenseClassifier,
    TrainConfig,
    ece,
    fit_temperature,
    input_gradient,
    load_model,
    predict_proba,
    predict_proba_batch,
    save_model,
    train_classifier,
)
from .perturb import (
    OptConfig,
    TapCandidate,
    frontier_sweep,
    generate_candidate,
    meet_budget,
    repair_on_rejection,
)
from .probspace import (
    DivergenceSpec,
    ProbVector,
    TargetSet,
    chi_square_divergence,
    get_divergence,
    kl_divergence,
    project_to_target,
    target_distance,
    target_distance_grad,
)
from .synthetic import SyntheticSpec, sample_synthetic, true_posterior
from .verify import (
    GammaCalibration,
    Verdict,
    calibrate_gamma,
    discrepancy,
    pac_gap_terms,
    train_verifier,
    verify_pair,
    verify_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "CostModel", "Feature", "FeatureSchema", "LinearTerm", "PenaltyConfig",
    "QuadraticTerm", "TransitionTerm", "TriggerTerm", "cond", "cost",
    "cost_grad",
    "BaselineResult", "cw_l2", "mad_weights", "wachter_counterfactual",
    "BenchmarkConfig", "BenchmarkResult", "SuccessTable", "run_benchmark",
    "true_improvement_report", "write_artifacts",
    "ConfigError", "ExperimentConfig", "SchemaMismatchError",
    "default_synthetic_config", "load_config", "load_dataset",
    "DenseClassifier", "TrainConfig", "ece", "fit_temperature",
    "input_gradient", "load_model", "predict_proba", "predict_proba_batch",
    "save_model", "train_classifier",
    "OptConfig", "TapCandidate", "frontier_sweep", "generate_candidate",
    "meet_budget", "repair_on_rejection",
    "DivergenceSpec", "ProbVector", "TargetSet", "chi_square_divergence",
    "get_divergence", "kl_divergence", "project_to_target",
    "target_distance", "target_distance_grad",
    "SyntheticSpec", "sample_synthetic", "true_posterior",
    "GammaCalibration", "Verdict", "calibrate_gamma", "discrepancy",
    "pac_gap_terms", "train_verifier", "verify_pair", "verify_pairs",
    "__version__",
]
