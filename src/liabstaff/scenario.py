"""The five policy scenarios as constrained instances of the optimizers.

S0  human-only benchmark: Mode I administratively forced at theta = 0.5
S1  flexible contracting: free (theta, N) with endogenous mode response
S2  minimum platform liability: theta <= 1 - alpha
S3  minimum physician liability: theta >= theta_floor
S4  social welfare benchmark: social objective, mode and N free

Every scenario is solved by the one staffing kernel of platform_opt: S0 on
the share interval [0.5, 0.5] in Mode I, S4 on [0, 0] in each mode, S1-S3 in
both regimes on their induced-mode intervals. A call gathers the intervals of
all its specs per mode, reads theta_d at most once, and makes one kernel call
per mode, so each mode's levels are walked once per call; nothing is kept
across calls. Policy and CostBreakdown are built only for the results that
are returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError
from .params import Mode, ModelParams
from .physician import _theta_d
from .platform_opt import (
    CostBreakdown,
    Policy,
    _check_interval,
    _found_cost,
    _no_policy,
    _regime_intervals,
    _search,
    _winner,
)

# Not called here: the scenarios are solved on the private search above. These
# names stay importable from this module because the benchmark's tracer wraps
# liabstaff.scenario.optimize_platform, .optimize_social and .cost_breakdown.
from .platform_opt import cost_breakdown, optimize_platform, optimize_social  # noqa: F401

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


def _free(spec: ScenarioSpec) -> bool:
    """Whether the spec's mode is the physician's response to theta, so that
    its search needs the threshold theta_d."""
    return spec.objective != "social" and spec.mode_forced is None


def _intervals(spec: ScenarioSpec, theta_d: float | None) -> tuple[tuple | None, tuple | None]:
    """The share intervals the spec searches in Mode A and in Mode I, None
    for a mode it does not search: [0, 0] in both for the social objective,
    its own interval in a forced mode, else its induced-mode intervals at
    theta_d, which is read only when _free(spec)."""
    if spec.objective == "social":
        return (0.0, 0.0), (0.0, 0.0)
    interval = (spec.theta_lo, spec.theta_hi)
    if spec.mode_forced is not None:
        return (interval, None) if spec.mode_forced is Mode.A else (None, interval)
    _check_interval(*interval)
    return _regime_intervals(spec.theta_lo, spec.theta_hi, theta_d)


def _solve(specs: list[ScenarioSpec], p: ModelParams) -> list[tuple[Mode, Mode | None, tuple] | str]:
    """Each spec's optimum on plain floats: (mode, regime, search tuple), the
    regime None when the mode is forced or moot; or, when the constraint set
    is empty, the reason. One kernel call per mode searches the intervals of
    every spec, and a mode none of them searches is not walked."""
    theta_d = _theta_d(p) if any(_free(s) for s in specs) else None
    wanted = [_intervals(s, theta_d) for s in specs]
    found_a = iter(_search(Mode.A, [a for a, _ in wanted if a is not None], p))
    found_i = iter(_search(Mode.I, [i for _, i in wanted if i is not None], p))
    solved = []
    for spec, (a, i) in zip(specs, wanted):
        res_a = None if a is None else next(found_a)
        res_i = None if i is None else next(found_i)
        mode = spec.mode_forced if spec.objective != "social" else None
        if mode is None:
            mode = _winner(res_a, res_i)  # None when both intervals are empty
        found = res_a if mode is Mode.A else res_i
        if found is None:
            solved.append(
                _no_policy(spec.theta_lo, spec.theta_hi, theta_d) if mode is None
                else f"empty theta interval [{spec.theta_lo:g}, {spec.theta_hi:g}]"
            )
        else:
            solved.append((mode, mode if _free(spec) else None, found))
    return solved


def _result(spec: ScenarioSpec, solved: tuple | str, p: ModelParams) -> ScenarioResult:
    """The ScenarioResult of a solved spec."""
    if isinstance(solved, str):
        return ScenarioResult(spec.id, False, None, None, None, reason=solved)
    mode, regime, found = solved
    policy, cost = _found_cost(mode, found, p)
    return ScenarioResult(spec.id, True, policy, cost, regime=regime)


def run_scenario(spec: ScenarioSpec, p: ModelParams) -> ScenarioResult:
    """Solve one scenario's constrained problem; an empty constraint set
    gives an infeasible result that names it."""
    return _result(spec, _solve([spec], p)[0], p)


@dataclass(frozen=True)
class ScenarioRow:
    """One comparison-table row; pct_vs_s1 is None when S1 is absent."""

    result: ScenarioResult
    pct_vs_s1: float | None


def compare_scenarios(specs: list[ScenarioSpec], p: ModelParams) -> list[ScenarioRow]:
    """Run scenarios and tabulate totals relative to S1, ordered by id; of
    specs sharing an id, the last one's result is returned. Every spec is
    solved, by one staffing kernel call per mode, and results are built only
    for the specs returned."""
    if not specs:
        raise ParameterError(f"need at least one scenario; valid: {', '.join(SCENARIO_IDS)}")
    solved = {spec.id: (spec, solution) for spec, solution in zip(specs, _solve(specs, p))}
    results = {sid: _result(spec, solution, p) for sid, (spec, solution) in solved.items()}
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
