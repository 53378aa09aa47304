"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's solution paths: the delay probability
is summed term by term from the factorial form, the optimizers are
replaced by exhaustive grids, the per-regime staffing search is replayed with
a QueueMetrics and a CostBreakdown built at every level, and the simulator's
FIFO loop is replayed with numpy indexing and a heap pop and push per
customer.
"""

import dataclasses
import heapq
import math

import numpy as np

from liabstaff import (
    BASELINE,
    CostBreakdown,
    InfeasibleError,
    Mode,
    ModelParams,
    Policy,
    QueueMetrics,
    RegimeResult,
    SimConfig,
    SimResult,
    mode_attrs,
    validate,
)
from liabstaff.physician import threshold
from liabstaff.queueing import _RHO_CEILING, min_staffing
from liabstaff.simulator import N_BATCHES


def erlang_c_direct(n: int, a: float) -> float:
    """Delay probability by direct summation of the factorial-form terms.

    Terms a^k/k! are accumulated iteratively so large n neither overflows
    nor loses the small-term contributions.
    """
    rho = a / n
    term = 1.0  # a^k / k! at k = 0
    head = term
    for k in range(1, n):
        term *= a / k
        head += term
    tail = term * (a / n) / (1.0 - rho)
    return tail / (head + tail)


def wq_direct(lam: float, mu: float, n: int) -> float:
    return erlang_c_direct(n, lam / mu) / (n * mu - lam)


def total_cost_direct(theta: float, n: int, m: Mode, p: ModelParams) -> float:
    """Component-sum cost using the direct-summation delay probability."""
    mu, err_prob, _ = mode_attrs(m, p)
    t = wq_direct(p.lam, mu, n) + 1.0 / mu
    return (
        p.lam * (1.0 - theta) * p.big_l * err_prob
        + p.lam * p.c_w * t
        + p.c_n * n
        + p.kappa * theta * theta * n
    )


def social_cost_direct(n: int, m: Mode, p: ModelParams) -> float:
    mu, err_prob, _ = mode_attrs(m, p)
    t = wq_direct(p.lam, mu, n) + 1.0 / mu
    return p.lam * p.big_l * err_prob + p.lam * p.c_w * t + p.c_n * n


def staffing_bound(m: Mode, p: ModelParams) -> int:
    """Upper staffing bound: past this, staffing cost alone exceeds the
    minimum-staffing total, so no optimum can lie beyond."""
    mu, _, _ = mode_attrs(m, p)
    n0 = min_staffing(p.lam, mu)
    ceiling = total_cost_direct(0.0, n0, m, p)
    return max(n0, math.ceil(ceiling / p.c_n)) + 1


def brute_force_regime(
    m: Mode, lo: float, hi: float, p: ModelParams, theta_points: int = 2001
) -> tuple[float, int, float]:
    """Exhaustive (theta grid x stable n) argmin of the platform cost within
    one regime. Returns (theta, n, total)."""
    mu, err_prob, _ = mode_attrs(m, p)
    thetas = np.linspace(lo, hi, theta_points)
    best = None
    for n in range(min_staffing(p.lam, mu), staffing_bound(m, p) + 1):
        t = wq_direct(p.lam, mu, n) + 1.0 / mu
        fixed = p.lam * p.c_w * t + p.c_n * n
        totals = (
            p.lam * (1.0 - thetas) * p.big_l * err_prob
            + fixed
            + p.kappa * thetas**2 * n
        )
        i = int(np.argmin(totals))
        if best is None or totals[i] < best[2]:
            best = (float(thetas[i]), n, float(totals[i]))
    return best


def brute_force_platform(
    p: ModelParams,
    theta_lo: float = 0.0,
    theta_hi: float = 1.0,
    theta_points: int = 2001,
    eps: float = 1e-6,
) -> tuple[Mode, float, int, float]:
    """Global argmin over both regimes with mode consistency enforced.
    Returns (mode, theta, n, total)."""
    theta_d = threshold(p).theta_d
    candidates = []
    a_hi = min(theta_hi, theta_d)
    if theta_lo <= a_hi:
        candidates.append((Mode.A, brute_force_regime(Mode.A, theta_lo, a_hi, p, theta_points)))
    i_lo = max(theta_lo, theta_d + eps)
    if i_lo <= theta_hi:
        candidates.append((Mode.I, brute_force_regime(Mode.I, i_lo, theta_hi, p, theta_points)))
    mode, (theta, n, total) = min(candidates, key=lambda c: c[1][2])
    return mode, theta, n, total


def brute_force_social(p: ModelParams) -> tuple[Mode, int, float]:
    best = None
    for m in (Mode.A, Mode.I):
        mu, _, _ = mode_attrs(m, p)
        for n in range(min_staffing(p.lam, mu), staffing_bound(m, p) + 1):
            total = social_cost_direct(n, m, p)
            if best is None or total < best[2]:
                best = (m, n, total)
    return best


def _level_metrics(lam: float, mu: float, n_max: int):
    """(N, QueueMetrics) for every N <= n_max with utilization at most
    _RHO_CEILING, Erlang B advanced one step per level."""
    a = lam / mu
    b = 1.0
    for n in range(1, n_max + 1):
        b = a * b / (n + a * b)
        if a / n <= _RHO_CEILING:
            rho = a / n
            delay_prob = b / (1.0 - rho * (1.0 - b))
            w_q = delay_prob / (n * mu - lam)
            yield n, QueueMetrics(rho=lam / mu / n, delay_prob=delay_prob, w_q=w_q, t_total=w_q + 1.0 / mu)


def _level_cost(theta: float, n: int, err_prob: float, t_total: float, p: ModelParams) -> CostBreakdown:
    risk = p.lam * (1.0 - theta) * p.big_l * err_prob
    congestion = p.lam * p.c_w * t_total
    staffing = p.c_n * n
    compliance = p.kappa * theta * theta * n
    return CostBreakdown(risk, congestion, staffing, compliance, risk + congestion + staffing + compliance)


def optimize_regime_per_level(
    regime: Mode, theta_lo: float, theta_hi: float, p: ModelParams, n_max: int = 10_000
) -> RegimeResult:
    """The per-regime staffing search with objects at every level: a
    QueueMetrics per level, a CostBreakdown for the level and for the bound
    on the levels above it, a Policy per improvement. The share at N is the
    clamp of the stationary point lam L P / (2 kappa N) to the interval. It
    stops once the bound exceeds the incumbent total and raises
    InfeasibleError past n_max servers. The library's float search must
    return an equal RegimeResult (==, every float bit for bit); the two stop
    rules differ only on an exact tie of bound and incumbent."""
    if theta_lo > theta_hi:
        return RegimeResult(regime, False, None, None, None, None)
    mu, err_prob, _ = mode_attrs(regime, p)

    def stationary(n):
        return p.lam * p.big_l * err_prob / (2.0 * p.kappa * n)

    def share(n):
        return min(max(stationary(n), theta_lo), theta_hi)

    n_lo = best_policy = best_cost = None
    for n, metrics in _level_metrics(p.lam, mu, n_max):
        if n_lo is None:
            n_lo = n
        theta = share(n)
        cost = _level_cost(theta, n, err_prob, metrics.t_total, p)
        if best_cost is None or cost.total < best_cost.total:
            best_policy = Policy(theta=theta, n=n, mode=regime)
            best_cost = cost
        if _level_cost(share(n + 1), n + 1, err_prob, 1.0 / mu, p).total > best_cost.total:
            break
    else:
        raise InfeasibleError(f"staffing enumeration exceeded {n_max} servers")
    return RegimeResult(regime, True, best_policy, best_cost, stationary(best_policy.n), (n_lo, n))


def random_valid_params(rng: np.random.Generator) -> ModelParams:
    """Draw one parameter set satisfying every ordering, inside the
    calibrated ranges."""
    mu_i = rng.uniform(4.0, 8.0)
    q = rng.uniform(0.80, 0.94)
    k_a = rng.uniform(20.0, 80.0)
    return validate(
        dataclasses.replace(
            BASELINE,
            lam=rng.uniform(25.0, 90.0),
            mu_i=mu_i,
            mu_a=mu_i * rng.uniform(1.3, 2.5),
            q=q,
            h=rng.uniform(q + 0.01, 0.99),
            big_l=rng.uniform(800.0, 5000.0),
            c_w=rng.uniform(50.0, 200.0),
            c_n=rng.uniform(100.0, 350.0),
            kappa=rng.uniform(1000.0, 5000.0),
            k_a=k_a,
            k_i=k_a + rng.uniform(10.0, 100.0),
        )
    )


def simulate_indexed(cfg: SimConfig) -> SimResult:
    """The simulator on a valid config, with its FIFO loop written as a
    numpy-indexed pass: pop the earliest-free server, push its next free
    time. Same draws and batch means as ``simulate``."""
    warmup = cfg.customers // 10 if cfg.warmup is None else cfg.warmup
    streams = np.random.SeedSequence(cfg.seed).spawn(3)
    rngs = [np.random.Generator(np.random.PCG64(s)) for s in streams]
    arrivals = np.cumsum(rngs[0].exponential(1.0 / cfg.lam, cfg.customers))
    services = rngs[1].exponential(1.0 / cfg.mu, cfg.customers)
    errors = rngs[2].random(cfg.customers) < cfg.error_prob

    waits = np.empty(cfg.customers)
    free_at = [0.0] * cfg.n
    heapq.heapify(free_at)
    for i in range(cfg.customers):
        t = arrivals[i]
        avail = heapq.heappop(free_at)
        start = t if t > avail else avail
        waits[i] = start - t
        heapq.heappush(free_at, start + services[i])

    per_batch = (cfg.customers - warmup) // N_BATCHES
    keep = N_BATCHES * per_batch
    sl = slice(warmup, warmup + keep)
    w = waits[sl].reshape(N_BATCHES, per_batch)
    s = services[sl].reshape(N_BATCHES, per_batch)
    e = errors[sl].reshape(N_BATCHES, per_batch)
    arr = arrivals[sl]
    starts = arr[::per_batch]
    ends = np.append(starts[1:], arr[-1] + 1.0 / cfg.lam)
    means = [
        w.mean(axis=1),
        (w + s).mean(axis=1),
        s.sum(axis=1) / (cfg.n * (ends - starts)),
        e.mean(axis=1),
    ]
    fields = []
    for x in means:
        fields += [float(x.mean()), float(x.std(ddof=1) / np.sqrt(N_BATCHES))]
    return SimResult(*fields, customers_counted=keep)
