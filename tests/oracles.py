"""Oracles the tests pin expected values against.

The brute force lives in the benchmark's ``bench/oracle.py``, which imports
nothing but math and numpy: it sums the factorial form of Erlang C, takes
theta_d in closed form and searches a theta grid and every staffing level up
to a proven bound. The adapters below call it with a ModelParams and return
Modes.

This module still owns the seeded draws of valid parameter sets and two
references whose answers must equal the library's float for float: the
per-regime staffing search replayed with a QueueMetrics and a CostBreakdown
built at every level, and the simulator's FIFO loop replayed with numpy
indexing and a heap pop and push per customer.
"""

import dataclasses
import heapq
import importlib.util
from pathlib import Path

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
from liabstaff.queueing import _RHO_CEILING
from liabstaff.simulator import N_BATCHES

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name: str):
    """The module bench/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_oracle = load_bench("oracle")
erlang_c_direct = bench_oracle.erlang_c_direct


def total_cost_direct(theta: float, n: int, m: Mode, p: ModelParams) -> float:
    return bench_oracle.platform_cost(dataclasses.asdict(p), theta, n, m.value)


def brute_force_regime(m: Mode, lo: float, hi: float, p: ModelParams) -> tuple[float, int, float]:
    """Exhaustive argmin (theta, n, total) of the platform cost in one regime."""
    reg = bench_oracle.Regime(dataclasses.asdict(p), m.value, lo, hi)
    return reg.theta_star, reg.n_star, reg.total


def brute_force_platform(
    p: ModelParams, theta_lo: float = 0.0, theta_hi: float = 1.0
) -> tuple[Mode, float, int, float]:
    """Global argmin (mode, theta, n, total) over both regimes."""
    regimes = bench_oracle.platform(dataclasses.asdict(p), theta_lo, theta_hi)
    reg = regimes[bench_oracle.winner(regimes)]
    return Mode(reg.mode), reg.theta_star, reg.n_star, reg.total


def brute_force_social(p: ModelParams) -> tuple[Mode, int, float]:
    mode, n, total = bench_oracle.social(dataclasses.asdict(p))
    return Mode(mode), n, total


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
