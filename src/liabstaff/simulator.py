"""Seeded discrete-event M/M/N simulator for validating the analytic layer.

RNG: numpy PCG64 seeded through SeedSequence; arrivals, services, and error
draws use independent spawned streams, so a (config, seed) pair is
bit-reproducible and streams stay decoupled under any parameter change.
numpy is imported inside the functions that simulate, so that importing the
package does not load it.

The FIFO pass is one numpy.fromiter over _earliest_free, which yields the
minimum that heapq.heapreplace pops for each customer: the time the server
that frees first becomes free. The waits are then formed in place as
max(t, avail) - t, the same IEEE max and subtraction as a loop that indexes
the numpy arrays one element at a time and computes start - t, and the heap
receives the same pushed times, so the waits are bit-identical to it.
"""

from __future__ import annotations

import heapq
import sys

from ._record import record
from .errors import ParameterError, UnstableError
from .params import BOX_HI, BOX_LO, ModelParams, mode_attrs
from .platform_opt import CostBreakdown, Policy, _cost
from .queueing import min_staffing

RNG_ALGORITHM = "numpy.random.PCG64"
N_BATCHES = 20
# The most customers numpy can size a float64 array for: its byte count,
# 8 per element, must not exceed sys.maxsize.
MAX_CUSTOMERS = sys.maxsize // 8


@record
class SimConfig:
    lam: float
    mu: float
    n: int
    customers: int
    seed: int
    warmup: int | None = None  # default: 10% of customers
    error_prob: float = 0.0


@record
class SimResult:
    """Batch-means point estimates; *_stderr fields use 20 equal batches."""

    mean_wait: float
    wait_stderr: float
    mean_system_time: float
    system_time_stderr: float
    utilization: float
    utilization_stderr: float
    error_rate: float
    error_rate_stderr: float
    customers_counted: int
    rng_algorithm: str = RNG_ALGORITHM


def check_config(cfg: SimConfig) -> int:
    """The warmup of a replication with n servers, min_staffing(lam, mu) <= n
    <= BOX_HI, lam and mu in validate's box [BOX_LO, BOX_HI], customers >
    warmup >= 0 with customers at most MAX_CUSTOMERS (the longest float64
    array numpy can size), at least N_BATCHES counted customers, error_prob
    in [0, 1] and a nonnegative seed; else raise ParameterError, or
    UnstableError for too few servers."""
    for name, rate in (("lambda", cfg.lam), ("mu", cfg.mu)):
        if not BOX_LO <= rate <= BOX_HI:
            raise ParameterError(f"{name} must lie in [{BOX_LO:g}, {BOX_HI:g}], got {rate!r}")
    if cfg.customers > MAX_CUSTOMERS:
        raise ParameterError(f"customers must not exceed {MAX_CUSTOMERS}, got {cfg.customers}")
    warmup = cfg.customers // 10 if cfg.warmup is None else cfg.warmup
    if not 0 <= warmup < cfg.customers:
        raise ParameterError("need customers > warmup >= 0")
    n_min = min_staffing(cfg.lam, cfg.mu)
    if cfg.n < n_min:
        raise UnstableError(
            f"{cfg.n} servers cannot cover arrival rate {cfg.lam:g} "
            f"at service rate {cfg.mu:g}; need at least {n_min}"
        )
    if not 0.0 <= cfg.error_prob <= 1.0:
        raise ParameterError("error_prob must lie in [0, 1]")
    counted = cfg.customers - warmup
    if counted < N_BATCHES:
        raise ParameterError(
            f"need at least {N_BATCHES} counted customers for batch means, got {counted}"
        )
    if cfg.n > BOX_HI:  # servers beyond the customers change no wait
        raise ParameterError(f"n must not exceed {BOX_HI:g}")
    if cfg.seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {cfg.seed}")
    return warmup


def _earliest_free(arrivals, services, n: int):
    """Yield, for each customer in arrival order, the time the server that
    frees first becomes free: the minimum heapq.heapreplace pops."""
    # Multi-server FIFO recursion (Kiefer & Wolfowitz 1955): each customer
    # takes the server that frees first. free_at is a min-heap of
    # next-available times; all-zero, it is already a heap. While a zero is
    # left every customer finds a free server, so more than one server per
    # customer changes no wait.
    free_at = [0.0] * min(n, len(arrivals))
    replace = heapq.heapreplace  # looked up per run, so a patched heapreplace applies
    for t, service in zip(memoryview(arrivals), memoryview(services)):
        avail = free_at[0]
        yield replace(free_at, (t if t > avail else avail) + service)


def simulate(cfg: SimConfig) -> SimResult:
    """Run one replication: FIFO single queue, n servers; a configuration
    that check_config rejects raises its error before any draw, and one
    whose customers do not fit in memory raises ParameterError."""
    import numpy as np

    warmup = check_config(cfg)
    counted = cfg.customers - warmup

    streams = np.random.SeedSequence(cfg.seed).spawn(3)
    rng_arrivals = np.random.Generator(np.random.PCG64(streams[0]))
    rng_services = np.random.Generator(np.random.PCG64(streams[1]))
    rng_errors = np.random.Generator(np.random.PCG64(streams[2]))

    try:
        arrivals = np.cumsum(rng_arrivals.exponential(1.0 / cfg.lam, cfg.customers))
        services = rng_services.exponential(1.0 / cfg.mu, cfg.customers)
        errors = rng_errors.random(cfg.customers) < cfg.error_prob

        # each customer's earliest free server time, made its wait in place
        waits = np.fromiter(_earliest_free(arrivals, services, cfg.n), float, cfg.customers)
    except MemoryError:
        raise ParameterError(f"customers must fit in memory, got {cfg.customers}") from None
    np.maximum(arrivals, waits, out=waits)
    waits -= arrivals

    # Trim to an exact multiple of the batch count, dropping the tail.
    per_batch = counted // N_BATCHES
    keep = N_BATCHES * per_batch
    sl = slice(warmup, warmup + keep)
    w = waits[sl].reshape(N_BATCHES, per_batch)
    s = services[sl].reshape(N_BATCHES, per_batch)
    e = errors[sl].reshape(N_BATCHES, per_batch)
    arr = arrivals[sl]

    wait_means = w.mean(axis=1)
    sys_means = (w + s).mean(axis=1)
    err_means = e.mean(axis=1)
    # Per-batch utilization: offered work over n * batch arrival span. The
    # last batch's span is closed with one mean interarrival.
    starts = arr[::per_batch]
    ends = np.append(starts[1:], arr[-1] + 1.0 / cfg.lam)
    util_means = s.sum(axis=1) / (cfg.n * (ends - starts))

    # Each batch-means estimate and its standard error, in SimResult's field order.
    estimates = []
    for means in (wait_means, sys_means, util_means, err_means):
        estimates += float(means.mean()), float(means.std(ddof=1) / np.sqrt(N_BATCHES))
    return SimResult(*estimates, customers_counted=keep)


@record
class EmpiricalCost:
    """Monte-Carlo estimate of the platform cost at one policy.

    Staffing and compliance are deterministic and computed analytically;
    risk and congestion carry batch-means standard errors.
    """

    breakdown: CostBreakdown
    risk_stderr: float
    congestion_stderr: float
    total_stderr: float
    sim: SimResult


def simulate_policy(pol: Policy, p: ModelParams, customers: int, seed: int) -> EmpiricalCost:
    """Estimate the cost components of a policy by simulation: the platform
    cost of platform_opt priced at the simulated error rate and system time,
    with the SimConfig default warmup."""
    import numpy as np

    mu, err_prob, _ = mode_attrs(pol.mode, p)
    sim = simulate(
        SimConfig(lam=p.lam, mu=mu, n=pol.n, customers=customers, seed=seed, error_prob=err_prob)
    )
    stderr = _cost(pol.theta, pol.n, sim.error_rate_stderr, sim.system_time_stderr, p)
    risk_se, cong_se = stderr.risk, stderr.congestion
    return EmpiricalCost(
        breakdown=_cost(pol.theta, pol.n, sim.error_rate, sim.mean_system_time, p),
        risk_stderr=risk_se,
        congestion_stderr=cong_se,
        total_stderr=float(np.hypot(risk_se, cong_se)),
        sim=sim,
    )
