"""Analysis: recovery statistics, theory verification, reporting."""

from .recovery import (
    RecoveryStats,
    fairness_gap,
    monte_carlo_recovery,
)
from .theory import (
    BoundCheck,
    best_case_alpha,
    check_bounds_exhaustive,
    check_bounds_sampled,
    worst_case_alpha,
)
from .reporting import Table
from .closed_form import (
    alpha_distribution_exact,
    alpha_distribution_fr,
    expected_alpha_exact,
    expected_alpha_fr,
    expected_recovered_exact,
)
from .plotting import downsample, loss_curve_panel, sparkline
from .stats import TrialSummary, summarize_trials
from .variance import EstimatorMoments, estimator_moments
from .convergence_theory import (
    BoundValidation,
    estimate_lipschitz,
    estimate_sigma_squared,
    validate_descent_bound,
)

__all__ = [
    "RecoveryStats",
    "monte_carlo_recovery",
    "fairness_gap",
    "BoundCheck",
    "check_bounds_exhaustive",
    "check_bounds_sampled",
    "worst_case_alpha",
    "best_case_alpha",
    "Table",
    "expected_alpha_fr",
    "alpha_distribution_fr",
    "alpha_distribution_exact",
    "expected_alpha_exact",
    "expected_recovered_exact",
    "sparkline",
    "downsample",
    "loss_curve_panel",
    "estimate_lipschitz",
    "estimate_sigma_squared",
    "BoundValidation",
    "validate_descent_bound",
    "TrialSummary",
    "summarize_trials",
    "EstimatorMoments",
    "estimator_moments",
]
