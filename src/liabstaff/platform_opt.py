"""Platform-side optimization: cost evaluation, per-regime search, composition.

The total hourly cost of a (theta, N, mode) policy has four components:
risk borne by the platform, congestion, staffing, and the quadratic
compliance cost of shifting liability. For fixed (N, mode) the cost is
strictly convex in theta, so the per-regime optimum is a clamp of the
unconstrained stationary point followed by a finite staffing enumeration.

Scenario S0 (forced mode and share) and each mode of the social optimum S4
(theta = 0) are instances of the one staffing search, ``optimize_regime``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleError, ParameterError
from .params import Mode, ModelParams, mode_attrs
from .physician import threshold
from .queueing import _delay_probs, _wait, queue_metrics

# Lowest liability share that still induces independent mode; the regime-I
# interval is open at the threshold, so the search closes it at this offset.
REGIME_I_EPS = 1e-6


@dataclass(frozen=True)
class Policy:
    """A (liability share, staffing, mode) decision."""

    theta: float
    n: int
    mode: Mode


@dataclass(frozen=True)
class CostBreakdown:
    risk: float
    congestion: float
    staffing: float
    compliance: float
    total: float


@dataclass(frozen=True)
class RegimeResult:
    """Outcome of optimizing within one induced-mode regime."""

    regime: Mode
    feasible: bool
    best: Policy | None
    cost: CostBreakdown | None
    theta_unconstrained: float | None  # stationary point at the winning N
    n_searched: tuple[int, int] | None  # inclusive staffing range enumerated


@dataclass(frozen=True)
class PlatformSolution:
    regime_a: RegimeResult
    regime_i: RegimeResult
    winner: RegimeResult


def _terms(
    theta: float, n: int, err_prob: float, t_total: float,
    lam: float, big_l: float, c_w: float, c_n: float, kappa: float,
) -> tuple[float, float, float, float, float]:
    """(risk, congestion, staffing, compliance, total) as plain floats, from
    the fields lam, big_l, c_w, c_n and kappa of the parameter set."""
    risk = lam * (1.0 - theta) * big_l * err_prob
    congestion = lam * c_w * t_total
    staffing = c_n * n
    compliance = kappa * theta * theta * n
    return risk, congestion, staffing, compliance, risk + congestion + staffing + compliance


def _cost(theta: float, n: int, err_prob: float, t_total: float, p: ModelParams) -> CostBreakdown:
    """The four cost components at share theta, N servers, the mode's error
    probability and the expected system time t_total."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
    return CostBreakdown(*_terms(theta, n, err_prob, t_total, p.lam, p.big_l, p.c_w, p.c_n, p.kappa))


def cost_breakdown(theta: float, n: int, m: Mode, p: ModelParams) -> CostBreakdown:
    """Evaluate the four cost components at a fixed policy; raises
    UnstableError, naming min_staffing, when n is below it."""
    mu, err_prob, _ = mode_attrs(m, p)
    return _cost(theta, n, err_prob, queue_metrics(p.lam, mu, n).t_total, p)


def _share(
    n: int, err_prob: float, lo: float, hi: float, lam: float, big_l: float, kappa: float
) -> float:
    """theta_optimal on plain floats: the clamp to [lo, hi] of the stationary
    point lam L P_m / (2 kappa N) of the cost in theta."""
    return min(max(lam * big_l * err_prob / (2.0 * kappa * n), lo), hi)


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
    return _share(n, err_prob, lo, hi, p.lam, p.big_l, p.kappa)


def optimize_regime(
    regime: Mode, theta_lo: float, theta_hi: float, p: ModelParams
) -> RegimeResult:
    """Minimize cost over stable staffing levels within one regime.

    Enumerates N upward from the smallest level erlang_c accepts, with theta
    at theta_optimal(N), and stops after level N once the bound

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

    The search runs on plain floats: it reads the delay probability of each
    level from queueing's one level stream, _delay_probs, and forms the system
    time W_q + 1/mu as queue_metrics does. The parameter fields and mode_attrs
    are read once, and theta_optimal(N+1), computed for the bound, is carried
    to the next level. Policy, CostBreakdown and RegimeResult are built once,
    for the winning level.
    """
    if theta_lo > theta_hi:
        return RegimeResult(regime, False, None, None, None, None)
    mu, err_prob, _ = mode_attrs(regime, p)
    lam, big_l, c_w, c_n, kappa = p.lam, p.big_l, p.c_w, p.c_n, p.kappa
    t_free = 1.0 / mu
    n_lo = best_n = best_theta = best_t = best_total = theta = None
    for n, delay_prob in _delay_probs(lam / mu):
        t_total = _wait(lam, mu, n, delay_prob) + t_free
        if n_lo is None:
            n_lo = n
            theta = _share(n, err_prob, theta_lo, theta_hi, lam, big_l, kappa)
        total = _terms(theta, n, err_prob, t_total, lam, big_l, c_w, c_n, kappa)[4]
        if best_n is None or total < best_total:
            best_n, best_theta, best_t, best_total = n, theta, t_total, total
        theta = _share(n + 1, err_prob, theta_lo, theta_hi, lam, big_l, kappa)
        bound = _terms(theta, n + 1, err_prob, t_free, lam, big_l, c_w, c_n, kappa)[4]
        if not bound < best_total:
            break
    return RegimeResult(
        regime=regime,
        feasible=True,
        best=Policy(theta=best_theta, n=best_n, mode=regime),
        cost=_cost(best_theta, best_n, err_prob, best_t, p),
        theta_unconstrained=_share(best_n, err_prob, -math.inf, math.inf, lam, big_l, kappa),
        n_searched=(n_lo, n),
    )


def _winner(res_a: RegimeResult, res_i: RegimeResult) -> RegimeResult | None:
    """The feasible result of the lower total, Regime A on a tie (and only on
    a tie); None when neither is feasible."""
    if res_a.feasible and (not res_i.feasible or res_a.cost.total <= res_i.cost.total):
        return res_a
    return res_i if res_i.feasible else None


def optimize_platform(
    p: ModelParams, theta_lo: float = 0.0, theta_hi: float = 1.0
) -> PlatformSolution:
    """Solve both regimes on their induced-mode intervals and pick the winner.

    Regime A is searched on [theta_lo, min(theta_hi, theta_d)], Regime I on
    [max(theta_lo, theta_d + REGIME_I_EPS), theta_hi]; ties go to Regime A.
    """
    if not 0.0 <= theta_lo <= theta_hi <= 1.0:
        raise ParameterError(f"need 0 <= theta_lo <= theta_hi <= 1, got [{theta_lo!r}, {theta_hi!r}]")
    theta_d = threshold(p).theta_d
    res_a = optimize_regime(Mode.A, theta_lo, min(theta_hi, theta_d), p)
    res_i = optimize_regime(Mode.I, max(theta_lo, theta_d + REGIME_I_EPS), theta_hi, p)
    winner = _winner(res_a, res_i)
    if winner is None:
        raise InfeasibleError(
            f"no feasible policy in [{theta_lo:g}, {theta_hi:g}] "
            f"(threshold {theta_d:g})"
        )
    return PlatformSolution(regime_a=res_a, regime_i=res_i, winner=winner)


def social_cost(n: int, m: Mode, p: ModelParams) -> CostBreakdown:
    """Social objective: full internalized loss plus congestion and staffing.

    The liability split is moot socially, so risk uses the full loss and the
    compliance friction drops out: this is the platform cost at theta = 0.
    """
    return cost_breakdown(0.0, n, m, p)


def optimize_social(p: ModelParams) -> tuple[Policy, CostBreakdown]:
    """Minimize the social objective over mode and stable staffing.

    Each mode is solved by optimize_regime on the share interval [0, 0], where
    the platform cost is the social cost; the reported theta is therefore 0.
    Ties break toward Mode A, then toward smaller N.
    """
    win = _winner(optimize_regime(Mode.A, 0.0, 0.0, p), optimize_regime(Mode.I, 0.0, 0.0, p))
    return win.best, win.cost
