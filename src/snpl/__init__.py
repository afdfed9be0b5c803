"""Safe noisy policy learning: simultaneous offline policy selection and
multi-objective safety certification with a stable (noise-calibrated)
pruning step, plus finite-sample and asymptotic guarantee variants,
data-splitting and Bonferroni baselines, a synthetic benchmark with an
exact truth oracle, and a replicated-simulation harness.

The top level holds the entry points; everything else is imported from its
module (``snpl.synthetic``, ``snpl.bounds``, ...).
"""

from .algorithm import snpl_run
from .baselines import bonferroni_run, hcpi_run
from .bounds import asymptotic_bounds, finite_bounds
from .core import Dataset, Hyperparams, SafetySpec, Trace
from .estimators import arm_scores, fit_nuisance, influence_table
from .harness import BenchmarkConfig, run_benchmark

__all__ = [
    "Dataset",
    "Hyperparams",
    "SafetySpec",
    "Trace",
    "snpl_run",
    "hcpi_run",
    "bonferroni_run",
    "arm_scores",
    "fit_nuisance",
    "influence_table",
    "finite_bounds",
    "asymptotic_bounds",
    "BenchmarkConfig",
    "run_benchmark",
]
