"""Platform-side optimization: cost evaluation and the per-regime staffing search.

The total hourly cost of a (theta, N, mode) policy has four components:
risk borne by the platform, congestion, staffing, and the quadratic
compliance cost of shifting liability. For fixed (N, mode) the cost is
strictly convex in theta, so the per-regime optimum is a clamp of the
unconstrained stationary point followed by a finite staffing enumeration.

Every optimum is found by the one staffing kernel, ``_search``, which runs on
plain floats: given a mode and a list of share intervals, it walks the mode's
Erlang levels once and returns one search tuple per interval, which carries
the optimum's staffing, share, stationary point and cost terms. It is also
the one place a share interval is checked. ``optimize_regime`` calls it on
one interval and builds Policy, CostBreakdown and RegimeResult from its
tuple alone; ``_cost`` prices the fixed policies of cost_breakdown,
social_cost and the simulator. Which intervals each mode searches, and which
mode wins, is decided in one place, the scenario layer, which also holds the
platform and social optimum. Nothing is kept across calls.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import InfeasibleError, ParameterError
from .params import Mode, ModelParams, mode_attrs
from .queueing import _delay_probs, queue_metrics


@record
class Policy:
    """A (liability share, staffing, mode) decision."""

    theta: float
    n: int
    mode: Mode


@record
class CostBreakdown:
    risk: float
    congestion: float
    staffing: float
    compliance: float
    total: float


@record
class RegimeResult:
    """Outcome of optimizing within one induced-mode regime."""

    regime: Mode
    feasible: bool
    best: Policy | None
    cost: CostBreakdown | None
    theta_unconstrained: float | None  # stationary point at the winning N
    n_searched: tuple[int, int] | None  # inclusive staffing range enumerated


@record
class PlatformSolution:
    regime_a: RegimeResult
    regime_i: RegimeResult
    winner: RegimeResult


def _cost(theta: float, n: int, err_prob: float, t_total: float, p: ModelParams) -> CostBreakdown:
    """The four cost components at share theta, N servers, the mode's error
    probability and the expected system time t_total."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
    risk = p.lam * (1.0 - theta) * p.big_l * err_prob
    congestion = p.lam * p.c_w * t_total
    staffing = p.c_n * n
    compliance = p.kappa * theta * theta * n
    return CostBreakdown(risk, congestion, staffing, compliance, risk + congestion + staffing + compliance)


def cost_breakdown(theta: float, n: int, m: Mode, p: ModelParams) -> CostBreakdown:
    """Evaluate the four cost components at a fixed policy; raises
    UnstableError, naming min_staffing, when n is below it."""
    mu, err_prob, _ = mode_attrs(m, p)
    return _cost(theta, n, err_prob, queue_metrics(p.lam, mu, n).t_total, p)


def theta_unconstrained(m: Mode, n: int, p: ModelParams) -> float:
    """Stationary point lam * L * P_m / (2 kappa N) of the cost in theta:
    its minimizer over the whole real line."""
    return theta_optimal(m, n, -math.inf, math.inf, p)


def theta_optimal(m: Mode, n: int, lo: float, hi: float, p: ModelParams) -> float:
    """Minimizer of the cost in theta over [lo, hi]: clamp of the stationary
    point, unique by strict convexity."""
    if lo > hi:
        raise InfeasibleError(f"empty theta interval [{lo:g}, {hi:g}]")
    if n < 1:
        raise ValueError("n must be at least 1")
    _, err_prob, _ = mode_attrs(m, p)
    return min(max(p.lam * p.big_l * err_prob / (2.0 * p.kappa * n), lo), hi)


# The positions of a _search tuple's fields, which _search's docstring describes.
_RANGE, _N, _THETA, _SHARE, _COSTS, _TOTAL = slice(0, 2), 2, 3, 4, slice(5, 10), 9


def _search(
    m: Mode, intervals: list[tuple[float, float]], p: ModelParams
) -> list[tuple[int, int, int, float, float, float, float, float, float, float] | None]:
    """The staffing searches of one mode, one per share interval
    [theta_lo, theta_hi] in intervals: for each, in order, the 10-field
    search tuple (n_lo, n_hi, N*, theta*, share, risk, congestion, staffing,
    compliance, total) of plain floats, share the stationary point theta* is
    clamped from and the last five the cost terms at N*, or None for an empty
    interval (theta_lo > theta_hi), read only through _RANGE (n_lo, n_hi), _N,
    _THETA, _SHARE, _COSTS (the cost terms) and _TOTAL. Raises ParameterError
    for an interval neither empty nor within [0, 1], a NaN bound included.

    Each search enumerates N upward from the smallest level erlang_c accepts,
    with theta at theta_optimal(N), and stops after level N once the bound

        f(N+1) + lam c_w / mu + c_n (N+1)

    is not below the incumbent total, where f(N) = lam (1 - theta) L P +
    kappa theta^2 N at theta_optimal(N), the minimum of risk plus compliance
    over [theta_lo, theta_hi]. The bound is the cost of level N+1 with no
    queue wait, and no level above N costs less: f is nondecreasing in N,
    being a minimum of functions nondecreasing in N; congestion
    lam c_w (W_q + 1/mu) is never below lam c_w / mu; and staffing grows
    with N. Ties go to the smaller N, so a bound equal to the incumbent also
    ends the search, as does a NaN bound. No cap on N is needed: the bound
    grows by c_n per level while the incumbent never grows, and once W_q is
    below rounding the bound is the next level's total, so the first level
    that does not lower the incumbent ends the search.

    The parameter fields and mode_attrs are read once per call. Levels are
    pulled from one _delay_probs stream, first when a non-empty interval is
    searched and then only past the deepest level reached, into a list of
    system times W_q + 1/mu, each formed once as queue_metrics forms it; each
    interval's search then runs to its stop level over that list. Cost terms
    and shares are formed as _cost and theta_optimal form them, the min/max
    clamp written as the comparisons those builtins make, so every tuple is
    bit-identical to one built from those functions: its cost terms are the
    CostBreakdown that _cost returns at N*, its share theta_unconstrained(N*)
    bit for bit, NaN included. A level's theta, risk, staffing and compliance
    serve both its bound and its total.
    """
    mu, err_prob, _ = mode_attrs(m, p)
    lam, big_l, c_w, c_n, kappa = p.lam, p.big_l, p.c_w, p.c_n, p.kappa
    t_free = 1.0 / mu
    stationary, two_kappa, rate_c_w = lam * big_l * err_prob, 2.0 * kappa, lam * c_w
    free_congestion = rate_c_w * t_free
    levels = times = n_lo = None
    found = []
    for theta_lo, theta_hi in intervals:
        if not 0.0 <= theta_lo <= theta_hi <= 1.0:
            if not theta_lo > theta_hi:
                raise ParameterError(
                    f"theta interval [{theta_lo!r}, {theta_hi!r}] is neither empty nor within [0, 1]"
                )
            found.append(None)
            continue
        if levels is None:
            levels = _delay_probs(lam / mu)
            n_lo, delay_prob = next(levels)
            times = [delay_prob / (n_lo * mu - lam) + t_free]
        n, best = n_lo, None
        while True:
            share = stationary / (two_kappa * n)
            theta = theta_lo if theta_lo > share else share
            theta = theta_hi if theta_hi < theta else theta
            risk = lam * (1.0 - theta) * big_l * err_prob
            staffing, compliance = c_n * n, kappa * theta * theta * n
            if best is not None and not risk + free_congestion + staffing + compliance < best_total:
                break
            k = n - n_lo
            if k == len(times):
                times.append(next(levels)[1] / (n * mu - lam) + t_free)
            congestion = rate_c_w * times[k]
            total = risk + congestion + staffing + compliance
            if best is None or total < best_total:
                best, best_total = (n, theta, share, risk, congestion, staffing, compliance, total), total
            n += 1
        found.append((n_lo, n - 1, *best))
    return found


def _regime_result(m: Mode, found: tuple | None) -> RegimeResult:
    """The RegimeResult of mode m read from a 10-field _search tuple alone, its
    theta_unconstrained the tuple's share; infeasible for None."""
    if found is None:
        return RegimeResult(m, False, None, None, None, None)
    return RegimeResult(m, True, Policy(found[_THETA], found[_N], m), CostBreakdown(*found[_COSTS]),
                        found[_SHARE], found[_RANGE])


def optimize_regime(
    regime: Mode, theta_lo: float, theta_hi: float, p: ModelParams
) -> RegimeResult:
    """Minimize cost over stable staffing levels within one regime: the
    staffing search _search on the one interval, with Policy, CostBreakdown
    and RegimeResult built once, for the winning level. An empty interval
    (theta_lo > theta_hi) gives an infeasible result; one that is neither
    empty nor within [0, 1] raises ParameterError."""
    return _regime_result(regime, _search(regime, [(theta_lo, theta_hi)], p)[0])


def social_cost(n: int, m: Mode, p: ModelParams) -> CostBreakdown:
    """Social objective: full internalized loss plus congestion and staffing.

    The liability split is moot socially, so risk uses the full loss and the
    compliance friction drops out: this is the platform cost at theta = 0.
    """
    return cost_breakdown(0.0, n, m, p)
