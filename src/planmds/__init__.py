"""Second-order multidimensional scaling over discrete measures.

Embeds weighted point clouds by minimizing pairwise second-order costs, both
over deterministic maps and over relaxed embedding plans, with a closed-form
solver for the quartic squared-distance marginal problem.
"""

from .core import (
    BUILTIN_COSTS,
    CostFamily,
    DeterministicMap,
    Elastic,
    EmbeddingPlan,
    InputError,
    KernelIP,
    NumericalError,
    Perturbation,
    PointCloud,
    QMDS,
    QSammon,
    QuadraticIP,
    center_plan,
    evaluate_cost,
    make_cost,
    plan_from_map,
    profile_derivatives,
)
from .energy import (
    DeterminismReport,
    PerturbationSplit,
    apply_perturbation,
    determinism_report,
    marginal_grad,
    marginal_hessian,
    marginal_value,
    oscillation_experiment,
    perturbation_split,
    reported_stress,
    stress_map,
    stress_plan,
)
from .quartic import (
    LiftedMoments,
    MarginalSolution,
    QuarticMarginal,
    compute_moments,
    level_set_grid,
    minimize_quartic,
    quartic_at,
    select_minimizer,
)
from .optim import (
    DescentConfig,
    IterationTrace,
    marginal_sweep,
    minimize_marginal,
    particle_descent,
    pca_solve,
)
from .experiments import ExperimentReport, run_experiment

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_COSTS", "CostFamily", "DeterministicMap", "Elastic", "EmbeddingPlan",
    "InputError", "KernelIP", "NumericalError", "Perturbation", "PointCloud",
    "QMDS", "QSammon", "QuadraticIP", "center_plan", "evaluate_cost", "make_cost",
    "plan_from_map", "profile_derivatives",
    "DeterminismReport", "PerturbationSplit", "apply_perturbation",
    "determinism_report", "marginal_grad", "marginal_hessian", "marginal_value",
    "oscillation_experiment", "perturbation_split", "reported_stress", "stress_map",
    "stress_plan",
    "LiftedMoments", "MarginalSolution", "QuarticMarginal", "compute_moments",
    "level_set_grid", "minimize_quartic", "quartic_at", "select_minimizer",
    "DescentConfig", "IterationTrace", "marginal_sweep", "minimize_marginal",
    "particle_descent", "pca_solve",
    "ExperimentReport", "run_experiment",
]
