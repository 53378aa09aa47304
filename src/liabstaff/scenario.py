"""The five policy scenarios, and the platform and social optimum, as
constraint sets of one solver.

S0  human-only benchmark: Mode I administratively forced at theta = 0.5
S1  flexible contracting: free (theta, N) with endogenous mode response
S2  minimum platform liability: theta <= 1 - alpha
S3  minimum physician liability: theta >= theta_floor
S4  social welfare benchmark: social objective, mode and N free

A constraint set picks the share interval each mode searches: a spec that
lists its modes searches its own interval in each of them (S0 [0.5, 0.5] in
Mode I, S4 [0, 0] in both, where the platform cost is the social cost) and the
empty interval _NOT_SEARCHED in any other, and a spec without listed modes
searches the shares of its interval that induce each mode (S1-S3). The mode
with the lower total wins, Mode A on a tie. ``_solve`` is the one place this
is written, and each spec's ScenarioResult is built in the loop that decides
its mode; optimize_platform is its free spec and optimize_social is S4. A
call reads theta_d at most once and makes one call of the staffing kernel
platform_opt._search per mode over one interval per spec, so each mode's
levels are walked once per call, and not at all when every interval of the
mode is empty; nothing is kept across calls.
"""

from __future__ import annotations

from ._record import record
from .errors import InfeasibleError, ParameterError
from .params import Mode, ModelParams
from .physician import _mode_split, _theta_d
from .platform_opt import _COSTS, _N, _THETA, _TOTAL, CostBreakdown, PlatformSolution, Policy, _regime_result, _search

# Not called here; it stays importable from this module because the
# benchmark's tracer wraps liabstaff.scenario.cost_breakdown.
from .platform_opt import cost_breakdown  # noqa: F401

SCENARIO_IDS = ("S0", "S1", "S2", "S3", "S4")

# Conventions for unspecified regulatory strengths; CLI-overridable.
DEFAULT_ALPHA = 0.5
DEFAULT_THETA_FLOOR = 0.3

S0_THETA = 0.5

# The share interval of a mode a spec does not search: empty, so _search
# returns None for it and walks no level on its account.
_NOT_SEARCHED = (1.0, 0.0)


@record
class ScenarioSpec:
    """One scenario's constraint set: the share interval [theta_lo, theta_hi],
    searched in each listed mode when modes is set, else on the shares of it
    that induce each mode."""

    id: str
    theta_lo: float = 0.0
    theta_hi: float = 1.0
    modes: tuple[Mode, ...] | None = None


@record
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


def _solve(specs: list[ScenarioSpec], p: ModelParams) -> list[tuple[ScenarioResult, tuple | None, tuple | None]]:
    """Per spec, (result, found_a, found_i): each mode's search tuple on plain
    floats, None when the spec's interval in the mode is empty, _NOT_SEARCHED
    included, and the ScenarioResult built from the one with the lower total,
    Mode A on a tie and only on a tie (a NaN total goes to Mode I), or an
    infeasible one whose reason names the empty constraint set. One kernel call
    per mode searches one interval per spec, and a mode whose intervals are all
    empty is not walked. Raises ParameterError, before any search, unless
    0 <= theta_lo <= theta_hi <= 1 for each spec whose modes is None, and, from
    _search, for a listed-mode spec whose interval is neither empty nor in [0, 1]."""
    mode_a, mode_i = Mode.A, Mode.I  # each read once: an Enum member lookup is slow
    theta_d, wanted = None, []
    for spec in specs:
        lo, hi = spec.theta_lo, spec.theta_hi
        if spec.modes is None:
            theta_d = _theta_d(p) if theta_d is None else theta_d
            if not 0.0 <= lo <= hi <= 1.0:
                raise ParameterError(f"need 0 <= theta_lo <= theta_hi <= 1, got [{lo!r}, {hi!r}]")
            wanted.append(_mode_split(lo, hi, theta_d))
        else:
            wanted.append(((lo, hi) if mode_a in spec.modes else _NOT_SEARCHED,
                           (lo, hi) if mode_i in spec.modes else _NOT_SEARCHED))
    wanted_a, wanted_i = zip(*wanted)
    solved = []
    for spec, found_a, found_i in zip(specs, _search(mode_a, wanted_a, p), _search(mode_i, wanted_i, p)):
        if found_a is not None and (found_i is None or found_a[_TOTAL] <= found_i[_TOTAL]):
            mode, found = mode_a, found_a
        elif found_i is not None:
            mode, found = mode_i, found_i
        else:
            lo, hi = spec.theta_lo, spec.theta_hi
            reason = (f"no feasible policy in [{lo:g}, {hi:g}] (threshold {theta_d:g})" if spec.modes is None
                      else f"empty theta interval [{lo:g}, {hi:g}]")
            solved.append((ScenarioResult(spec.id, False, None, None, None, reason), found_a, found_i))
            continue
        policy, cost = Policy(found[_THETA], found[_N], mode), CostBreakdown(*found[_COSTS])
        solved.append((ScenarioResult(spec.id, True, policy, cost, mode if spec.modes is None else None),
                       found_a, found_i))
    return solved


def run_scenario(spec: ScenarioSpec, p: ModelParams) -> ScenarioResult:
    """Solve one scenario's constrained problem; an empty constraint set
    gives an infeasible result that names it."""
    return _solve([spec], p)[0][0]


def optimize_platform(
    p: ModelParams, theta_lo: float = 0.0, theta_hi: float = 1.0
) -> PlatformSolution:
    """Solve both regimes on their induced-mode intervals and pick the winner.

    Each regime is searched on the shares of [theta_lo, theta_hi] that induce
    its mode (physician._mode_split); ties go to Regime A. Raises
    InfeasibleError when both intervals are empty. This is S1's path.
    """
    ((result, found_a, found_i),) = _solve([ScenarioSpec("", theta_lo, theta_hi)], p)
    if not result.feasible:
        raise InfeasibleError(result.reason)
    regime_a, regime_i = _regime_result(Mode.A, found_a), _regime_result(Mode.I, found_i)
    return PlatformSolution(regime_a, regime_i, regime_a if result.regime is Mode.A else regime_i)


def optimize_social(p: ModelParams) -> tuple[Policy, CostBreakdown]:
    """Minimize the social objective over mode and stable staffing.

    Each mode is searched on the share interval [0, 0], where the platform
    cost is the social cost; the reported theta is therefore 0. Ties break
    toward Mode A, then toward smaller N. This is S4's path.
    """
    result = _solve([make_scenario("S4")], p)[0][0]
    return result.policy, result.cost


@record
class ScenarioRow:
    """One comparison-table row; pct_vs_s1 is None when S1 is absent."""

    result: ScenarioResult
    pct_vs_s1: float | None


def compare_scenarios(specs: list[ScenarioSpec], p: ModelParams) -> list[ScenarioRow]:
    """Run scenarios and tabulate totals relative to S1, ordered by id; of
    specs sharing an id, the last one's result is returned. Every spec is
    solved, by one staffing kernel call per mode, and gets its result where
    its mode is decided."""
    if not specs:
        raise ParameterError(f"need at least one scenario; valid: {', '.join(SCENARIO_IDS)}")
    last = {result.id: result for result, _, _ in _solve(specs, p)}
    s1 = last.get("S1")
    results = [last[sid] for sid in sorted(last)]
    if s1 is None or not s1.feasible:
        return [ScenarioRow(r, None) for r in results]
    s1_total = s1.cost.total
    return [ScenarioRow(r, 100.0 * (r.cost.total - s1_total) / s1_total if r.feasible else None) for r in results]
