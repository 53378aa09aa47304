"""Liability-share and staffing optimization for AI-assisted consultation
platforms: M/M/N queueing kernel, physician mode-choice threshold, platform
and social cost optimizers, policy scenarios, sweeps, and a validating
discrete-event simulator."""

from .analysis import (
    BoundaryPoint,
    RegimeCell,
    SweepRow,
    figure_data,
    monotone_violations,
    regime_boundary,
    regime_map,
    sensitivity_sweep,
    welfare_curve,
)
from .errors import InfeasibleError, ParameterError, UnstableError
from .params import (
    BASELINE,
    DEFAULT_WAGE,
    Mode,
    ModelParams,
    load_params,
    mode_attrs,
    parse_config,
    validate,
)
from .physician import ThresholdReport, best_response, physician_utility, threshold
from .platform_opt import (
    CostBreakdown,
    PlatformSolution,
    Policy,
    RegimeResult,
    cost_breakdown,
    optimize_regime,
    social_cost,
    theta_optimal,
    theta_unconstrained,
)
from .queueing import QueueMetrics, erlang_c, min_staffing, queue_metrics
from .scenario import (
    ScenarioResult,
    ScenarioRow,
    ScenarioSpec,
    compare_scenarios,
    make_scenario,
    optimize_platform,
    optimize_social,
    run_scenario,
)
from .simulator import EmpiricalCost, SimConfig, SimResult, simulate, simulate_policy

__version__ = "0.1.0"

__all__ = [
    "BASELINE",
    "BoundaryPoint",
    "CostBreakdown",
    "DEFAULT_WAGE",
    "EmpiricalCost",
    "InfeasibleError",
    "Mode",
    "ModelParams",
    "ParameterError",
    "PlatformSolution",
    "Policy",
    "QueueMetrics",
    "RegimeCell",
    "RegimeResult",
    "ScenarioResult",
    "ScenarioRow",
    "ScenarioSpec",
    "SimConfig",
    "SimResult",
    "SweepRow",
    "ThresholdReport",
    "UnstableError",
    "best_response",
    "compare_scenarios",
    "cost_breakdown",
    "erlang_c",
    "figure_data",
    "load_params",
    "make_scenario",
    "min_staffing",
    "mode_attrs",
    "monotone_violations",
    "optimize_platform",
    "optimize_regime",
    "optimize_social",
    "parse_config",
    "physician_utility",
    "queue_metrics",
    "regime_boundary",
    "regime_map",
    "run_scenario",
    "sensitivity_sweep",
    "simulate",
    "simulate_policy",
    "social_cost",
    "theta_optimal",
    "theta_unconstrained",
    "threshold",
    "validate",
    "welfare_curve",
]
