"""Safe noisy policy learning: simultaneous offline policy selection and
multi-objective safety certification with a stable (noise-calibrated)
pruning step, plus finite-sample and asymptotic guarantee variants,
data-splitting and Bonferroni baselines, a synthetic benchmark with an
exact truth oracle, and a replicated-simulation harness.
"""

from .algorithm import snpl_run
from .baselines import bonferroni_run, hcpi_run
from .bounds import (
    LowerBoundTable,
    asymptotic_bounds,
    bonferroni_normal_bounds,
    finite_bounds,
    normal_quantile,
    supt_quantile,
)
from .core import (
    Dataset,
    Hyperparams,
    Policy,
    SafetySpec,
    ScanRecord,
    Split,
    Svt,
    Trace,
)
from .estimators import (
    InfluenceTable,
    NuisanceModel,
    arm_scores,
    empirical_covariance,
    fit_nuisance,
    influence_table,
    policy_scores,
)
from .harness import (
    BenchmarkConfig,
    BenchmarkReport,
    MethodResult,
    emit_bounds_scatter,
    read_dataset_csv,
    run_benchmark,
    run_single,
    write_dataset_csv,
    write_gamma_grid_csv,
    write_report_csv,
    write_truth_csv,
)
from .stability import (
    alpha_prime,
    b_asymp,
    b_finite,
    delta_star,
    eta_heuristic,
    gamma_grid,
    laplace,
    t_fn,
)
from .synthetic import (
    ThresholdPolicy,
    TruthTable,
    build_class,
    default_baseline,
    generate,
    oracle_safe,
    true_values,
    truth_table,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "snpl_run",
    "bonferroni_run",
    "hcpi_run",
    "LowerBoundTable",
    "asymptotic_bounds",
    "bonferroni_normal_bounds",
    "finite_bounds",
    "normal_quantile",
    "supt_quantile",
    "Dataset",
    "Hyperparams",
    "Policy",
    "SafetySpec",
    "ScanRecord",
    "Split",
    "Svt",
    "Trace",
    "InfluenceTable",
    "NuisanceModel",
    "arm_scores",
    "empirical_covariance",
    "fit_nuisance",
    "influence_table",
    "policy_scores",
    "BenchmarkConfig",
    "BenchmarkReport",
    "MethodResult",
    "emit_bounds_scatter",
    "read_dataset_csv",
    "run_benchmark",
    "run_single",
    "write_dataset_csv",
    "write_gamma_grid_csv",
    "write_report_csv",
    "write_truth_csv",
    "alpha_prime",
    "b_asymp",
    "b_finite",
    "delta_star",
    "eta_heuristic",
    "gamma_grid",
    "laplace",
    "t_fn",
    "ThresholdPolicy",
    "TruthTable",
    "build_class",
    "default_baseline",
    "generate",
    "oracle_safe",
    "true_values",
    "truth_table",
]
