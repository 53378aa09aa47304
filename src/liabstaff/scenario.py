"""The five policy scenarios, and the platform and social optimum, as
constraint sets of one solver.

S0  human-only benchmark: Mode I administratively forced at theta = 0.5
S1  flexible contracting: free (theta, N) with endogenous mode response
S2  minimum platform liability: theta <= 1 - alpha
S3  minimum physician liability: theta >= theta_floor
S4  social welfare benchmark: social objective, mode and N free

A constraint set picks the share interval each mode searches: a spec that
lists its modes searches its own interval in each of them (S0 [0.5, 0.5] in
Mode I, S4 [0, 0] in both, where the platform cost is the social cost), and
any other spec searches the shares of its interval that induce each mode
(S1-S3). The mode with the lower total wins, Mode A on a tie. ``_solve`` is
the one place this is written; optimize_platform is its free spec and
optimize_social is S4. A call gathers the intervals of all its specs per mode,
reads theta_d at most once, and makes one call of the staffing kernel
platform_opt._search per mode, so each mode's levels are walked once per
call; nothing is kept across calls. Result objects are built only for the
results that are returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InfeasibleError, ParameterError
from .params import Mode, ModelParams
from .physician import _theta_d
from .platform_opt import (
    CostBreakdown,
    PlatformSolution,
    Policy,
    _found_cost,
    _regime_result,
    _search,
)

# Not called here; it stays importable from this module because the
# benchmark's tracer wraps liabstaff.scenario.cost_breakdown.
from .platform_opt import cost_breakdown  # noqa: F401

SCENARIO_IDS = ("S0", "S1", "S2", "S3", "S4")

# Conventions for unspecified regulatory strengths; CLI-overridable.
DEFAULT_ALPHA = 0.5
DEFAULT_THETA_FLOOR = 0.3

S0_THETA = 0.5

# Lowest liability share that still induces independent mode; the regime-I
# interval is open at the threshold, so it is closed at this offset.
REGIME_I_EPS = 1e-6


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario's constraint set: the share interval [theta_lo, theta_hi],
    searched in each listed mode when modes is set, else on the shares of it
    that induce each mode."""

    id: str
    theta_lo: float = 0.0
    theta_hi: float = 1.0
    modes: tuple[Mode, ...] | None = None


@dataclass(frozen=True)
class ScenarioResult:
    id: str
    feasible: bool
    policy: Policy | None
    cost: CostBreakdown | None
    regime: Mode | None  # None when the spec lists its modes
    reason: str | None = None


def make_scenario(
    scenario_id: str,
    alpha: float = DEFAULT_ALPHA,
    theta_floor: float = DEFAULT_THETA_FLOOR,
) -> ScenarioSpec:
    """Build the spec for one of S0..S4."""
    if scenario_id == "S0":
        return ScenarioSpec(id="S0", theta_lo=S0_THETA, theta_hi=S0_THETA, modes=(Mode.I,))
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
        return ScenarioSpec(id="S4", theta_lo=0.0, theta_hi=0.0, modes=(Mode.A, Mode.I))
    raise ParameterError(f"unknown scenario {scenario_id!r}; valid: {', '.join(SCENARIO_IDS)}")


def _intervals(spec: ScenarioSpec, theta_d: float | None) -> tuple[tuple | None, tuple | None]:
    """The share intervals the spec searches in Mode A and in Mode I, None
    for a mode it does not search: its own interval in each listed mode, else
    the shares of it that induce each mode at threshold theta_d, which is
    read only when spec.modes is None."""
    if spec.modes is not None:
        interval = (spec.theta_lo, spec.theta_hi)
        return (interval if Mode.A in spec.modes else None, interval if Mode.I in spec.modes else None)
    return (
        (spec.theta_lo, min(spec.theta_hi, theta_d)),
        (max(spec.theta_lo, theta_d + REGIME_I_EPS), spec.theta_hi),
    )


def _solve(specs: list[ScenarioSpec], p: ModelParams) -> tuple[float | None, list[tuple]]:
    """theta_d (None when no spec reads it) and, per spec, (found_a, found_i,
    mode): each mode's search tuple on plain floats, None when the mode is not
    searched or its interval is empty, and the mode of the optimum: the one
    whose search found the lower total, Mode A on a tie (and only on a tie),
    or None when neither found a policy. One kernel call per mode searches
    the intervals of every spec, and a mode none of them searches is not
    walked. Raises ParameterError unless 0 <= theta_lo <= theta_hi <= 1 for
    each spec whose modes is None."""
    free = [s for s in specs if s.modes is None]
    for s in free:
        if not 0.0 <= s.theta_lo <= s.theta_hi <= 1.0:
            raise ParameterError(f"need 0 <= theta_lo <= theta_hi <= 1, got [{s.theta_lo!r}, {s.theta_hi!r}]")
    theta_d = _theta_d(p) if free else None
    wanted = [_intervals(s, theta_d) for s in specs]
    found_a = iter(_search(Mode.A, [a for a, _ in wanted if a is not None], p))
    found_i = iter(_search(Mode.I, [i for _, i in wanted if i is not None], p))
    solved = []
    for a, i in wanted:
        res_a = None if a is None else next(found_a)
        res_i = None if i is None else next(found_i)
        if res_a is not None and (res_i is None or res_a[5] <= res_i[5]):
            mode = Mode.A
        else:
            mode = None if res_i is None else Mode.I
        solved.append((res_a, res_i, mode))
    return theta_d, solved


def _result(spec: ScenarioSpec, theta_d: float | None, solved: tuple, p: ModelParams) -> ScenarioResult:
    """The ScenarioResult of a solved spec; when it has no optimum, the reason
    names the empty constraint set."""
    found_a, found_i, mode = solved
    if mode is None:
        reason = (
            f"no feasible policy in [{spec.theta_lo:g}, {spec.theta_hi:g}] (threshold {theta_d:g})"
            if spec.modes is None else f"empty theta interval [{spec.theta_lo:g}, {spec.theta_hi:g}]"
        )
        return ScenarioResult(spec.id, False, None, None, None, reason=reason)
    policy, cost = _found_cost(mode, found_a if mode is Mode.A else found_i, p)
    return ScenarioResult(spec.id, True, policy, cost, regime=mode if spec.modes is None else None)


def run_scenario(spec: ScenarioSpec, p: ModelParams) -> ScenarioResult:
    """Solve one scenario's constrained problem; an empty constraint set
    gives an infeasible result that names it."""
    theta_d, (solved,) = _solve([spec], p)
    return _result(spec, theta_d, solved, p)


def optimize_platform(
    p: ModelParams, theta_lo: float = 0.0, theta_hi: float = 1.0
) -> PlatformSolution:
    """Solve both regimes on their induced-mode intervals and pick the winner.

    Regime A is searched on [theta_lo, min(theta_hi, theta_d)], Regime I on
    [max(theta_lo, theta_d + REGIME_I_EPS), theta_hi]; ties go to Regime A.
    Raises InfeasibleError when both intervals are empty. This is S1's path.
    """
    spec = ScenarioSpec("", theta_lo, theta_hi)
    theta_d, (solved,) = _solve([spec], p)
    found_a, found_i, winner = solved
    if winner is None:
        raise InfeasibleError(_result(spec, theta_d, solved, p).reason)
    res_a, res_i = _regime_result(Mode.A, found_a, p), _regime_result(Mode.I, found_i, p)
    return PlatformSolution(regime_a=res_a, regime_i=res_i, winner=res_a if winner is Mode.A else res_i)


def optimize_social(p: ModelParams) -> tuple[Policy, CostBreakdown]:
    """Minimize the social objective over mode and stable staffing.

    Each mode is searched on the share interval [0, 0], where the platform
    cost is the social cost; the reported theta is therefore 0. Ties break
    toward Mode A, then toward smaller N. This is S4's path.
    """
    _, ((found_a, found_i, mode),) = _solve([make_scenario("S4")], p)
    return _found_cost(mode, found_a if mode is Mode.A else found_i, p)


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
    theta_d, solved = _solve(specs, p)
    last = {spec.id: (spec, solution) for spec, solution in zip(specs, solved)}
    results = {sid: _result(spec, theta_d, solution, p) for sid, (spec, solution) in last.items()}
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
