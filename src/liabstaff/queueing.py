"""M/M/N performance measures: delay probability, waits, minimum staffing."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ParameterError, UnstableError

# Utilization this close to 1 produces waits dominated by rounding noise;
# treat as unstable rather than returning huge finite values.
_RHO_CEILING = 1.0 - 1e-9

# Domain limit on the offered load lam / mu. The staffing search runs the
# Erlang B recurrence from one server up to past the offered load, so its
# time grows linearly with it; an offered load of 1e6 solves in well under a
# second, while one of 1e9 would take minutes. validate() rejects a
# parameter set whose larger offered load, lam / mu_i, lies above it, and the
# level stream of the staffing search rejects any offered load above it.
MAX_OFFERED_LOAD = 1e6


@dataclass(frozen=True)
class QueueMetrics:
    """Steady-state measures for one (lambda, mu, N) configuration."""

    rho: float        # utilization, lambda / (N mu)
    delay_prob: float  # probability an arrival must wait
    w_q: float        # expected queue wait (hours)
    t_total: float    # expected system time, w_q + 1/mu (hours)


def min_staffing(lam: float, mu: float) -> int:
    """Smallest N that erlang_c accepts: floor(lam/mu) + 1, or one more when
    that level's utilization lies above the ceiling _RHO_CEILING, which
    happens at a near-integer offered load (one more always suffices within
    the domain limit MAX_OFFERED_LOAD)."""
    if not (0 < lam < math.inf and 0 < mu < math.inf):
        raise ParameterError("rates must be positive and finite")
    n = math.floor(lam / mu) + 1
    return n if lam / mu / n <= _RHO_CEILING else n + 1


def _erlang_b_step(b_prev: float, n: int, offered_load: float) -> float:
    """Erlang B at n servers from its value at n - 1 (B_0 = 1):
    B_n = a B_{n-1} / (n + a B_{n-1}), which avoids the factorial overflow of
    the direct sum while being mathematically identical."""
    return offered_load * b_prev / (n + offered_load * b_prev)


def _delay_prob(n: int, offered_load: float, b: float) -> float:
    """Erlang C from Erlang B at n servers: C = B_N / (1 - rho (1 - B_N))."""
    rho = offered_load / n
    return b / (1.0 - rho * (1.0 - b))


def erlang_c(n: int, offered_load: float) -> float:
    """Probability an arrival waits in an M/M/N queue with offered load a,
    by the Erlang-B recurrence run from one server up to n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= offered_load < math.inf:
        raise ValueError("offered load must be nonnegative and finite")
    if offered_load / n > _RHO_CEILING:
        raise UnstableError(
            f"system unstable: offered load {offered_load:g} with {n} servers; "
            f"need at least {min_staffing(offered_load, 1.0)}"
        )
    b = 1.0
    for k in range(1, n + 1):
        b = _erlang_b_step(b, k, offered_load)
    return _delay_prob(n, offered_load, b)


def _wait(lam: float, mu: float, n: int, delay_prob: float) -> float:
    """Expected queue wait W_q = C / (N mu - lam)."""
    return delay_prob / (n * mu - lam)


def queue_metrics(lam: float, mu: float, n: int) -> QueueMetrics:
    """Full steady-state metrics; raises UnstableError if lam >= n mu."""
    delay_prob = erlang_c(n, lam / mu)
    w_q = _wait(lam, mu, n, delay_prob)
    return QueueMetrics(rho=lam / mu / n, delay_prob=delay_prob, w_q=w_q, t_total=w_q + 1.0 / mu)


def _stable_levels(lam: float, mu: float):
    """Yield (N, W_q + 1/mu) as plain floats for every N that erlang_c
    accepts, ascending and without end: the system time of
    queue_metrics(lam, mu, N), bit for bit, advancing Erlang B one step per
    level. Raises ParameterError when lam / mu exceeds MAX_OFFERED_LOAD."""
    a = lam / mu
    if a > MAX_OFFERED_LOAD:
        raise ParameterError(
            f"offered load {a:.10g} exceeds the domain limit {MAX_OFFERED_LOAD:g}"
        )
    service = 1.0 / mu
    b = 1.0
    for n in itertools.count(1):
        b = _erlang_b_step(b, n, a)
        if a / n <= _RHO_CEILING:
            yield n, _wait(lam, mu, n, _delay_prob(n, a, b)) + service
