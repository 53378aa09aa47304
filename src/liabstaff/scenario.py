"""The five policy scenarios as constrained instances of the optimizers.

S0  human-only benchmark: Mode I administratively forced at theta = 0.5
S1  flexible contracting: free (theta, N) with endogenous mode response
S2  minimum platform liability: theta <= 1 - alpha
S3  minimum physician liability: theta >= theta_floor
S4  social welfare benchmark: social objective, mode and N free

S0 and S4 are instances of the staffing search optimize_regime: S0 on the
share interval [0.5, 0.5] in Mode I, S4 on [0, 0] in each mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InfeasibleError, ParameterError
from .params import Mode, ModelParams
from .platform_opt import (
    CostBreakdown,
    Policy,
    cost_breakdown,  # noqa: F401  re-exported: prices any scenario policy
    optimize_platform,
    optimize_regime,
    optimize_social,
)

SCENARIO_IDS = ("S0", "S1", "S2", "S3", "S4")

# Conventions for unspecified regulatory strengths; CLI-overridable.
DEFAULT_ALPHA = 0.5
DEFAULT_THETA_FLOOR = 0.3

S0_THETA = 0.5


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario's constraint set: the share interval [theta_lo, theta_hi],
    searched in mode_forced alone when it is set."""

    id: str
    theta_lo: float = 0.0
    theta_hi: float = 1.0
    mode_forced: Mode | None = None
    objective: str = "platform"  # "platform" or "social"


@dataclass(frozen=True)
class ScenarioResult:
    id: str
    feasible: bool
    policy: Policy | None
    cost: CostBreakdown | None
    regime: Mode | None  # None when the mode is forced or moot
    reason: str | None = None


def make_scenario(
    scenario_id: str,
    alpha: float = DEFAULT_ALPHA,
    theta_floor: float = DEFAULT_THETA_FLOOR,
) -> ScenarioSpec:
    """Build the spec for one of S0..S4."""
    if scenario_id == "S0":
        return ScenarioSpec(id="S0", theta_lo=S0_THETA, theta_hi=S0_THETA, mode_forced=Mode.I)
    if scenario_id == "S1":
        return ScenarioSpec(id="S1")
    if scenario_id == "S2":
        if not 0.0 < alpha < 1.0:
            raise ParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
        return ScenarioSpec(id="S2", theta_hi=1.0 - alpha)
    if scenario_id == "S3":
        if not 0.0 < theta_floor <= 1.0:
            raise ParameterError(f"theta_floor must lie in (0, 1], got {theta_floor!r}")
        return ScenarioSpec(id="S3", theta_lo=theta_floor)
    if scenario_id == "S4":
        return ScenarioSpec(id="S4", objective="social")
    raise ParameterError(f"unknown scenario {scenario_id!r}; valid: {', '.join(SCENARIO_IDS)}")


def run_scenario(spec: ScenarioSpec, p: ModelParams) -> ScenarioResult:
    """Solve one scenario's constrained problem; an empty constraint set
    gives an infeasible result that names it."""
    if spec.objective == "social":
        policy, cost = optimize_social(p)
        return ScenarioResult(spec.id, True, policy, cost, regime=None)
    if spec.mode_forced is not None:
        res = optimize_regime(spec.mode_forced, spec.theta_lo, spec.theta_hi, p)
        if not res.feasible:
            reason = f"empty theta interval [{spec.theta_lo:g}, {spec.theta_hi:g}]"
            return ScenarioResult(spec.id, False, None, None, None, reason=reason)
        return ScenarioResult(spec.id, True, res.best, res.cost, regime=None)
    try:
        win = optimize_platform(p, spec.theta_lo, spec.theta_hi).winner
    except InfeasibleError as exc:
        return ScenarioResult(spec.id, False, None, None, None, reason=str(exc))
    return ScenarioResult(spec.id, True, win.best, win.cost, regime=win.regime)


@dataclass(frozen=True)
class ScenarioRow:
    """One comparison-table row; pct_vs_s1 is None when S1 is absent."""

    result: ScenarioResult
    pct_vs_s1: float | None


def compare_scenarios(specs: list[ScenarioSpec], p: ModelParams) -> list[ScenarioRow]:
    """Run scenarios and tabulate totals relative to S1, ordered by id."""
    if not specs:
        raise ParameterError(f"need at least one scenario; valid: {', '.join(SCENARIO_IDS)}")
    results = {s.id: run_scenario(s, p) for s in specs}
    s1 = results.get("S1")
    s1_total = s1.cost.total if s1 is not None and s1.feasible else None
    rows = []
    for sid in sorted(results):
        res = results[sid]
        pct = None
        if s1_total is not None and res.feasible:
            pct = 100.0 * (res.cost.total - s1_total) / s1_total
        rows.append(ScenarioRow(result=res, pct_vs_s1=pct))
    return rows
