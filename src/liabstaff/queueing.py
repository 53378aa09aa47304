"""M/M/N performance measures: delay probability, waits, minimum staffing.

Every delay probability comes from the one Erlang level stream,
_delay_probs, which yields from the first stable level, _first_stable:
erlang_c and queue_metrics read one level of a fresh stream, and the
staffing kernel platform_opt._search pulls levels from one stream per mode
and call, as deep as its searches need."""

from __future__ import annotations

import itertools
import math

from ._record import record
from .errors import ParameterError, UnstableError

# Utilization this close to 1 produces waits dominated by rounding noise;
# treat as unstable rather than returning huge finite values.
_RHO_CEILING = 1.0 - 1e-9

# Domain limit on the offered load lam / mu. The level stream runs the Erlang
# B recurrence from one server upward, so its time grows linearly with the
# offered load: 1e6 solves in well under a second, 1e9 would take minutes.
# validate() rejects a parameter set whose larger offered load, lam / mu_i,
# lies above it; the stream, and with it erlang_c, queue_metrics and the
# staffing search, rejects any offered load above it.
MAX_OFFERED_LOAD = 1e6


@record
class QueueMetrics:
    """Steady-state measures for one (lambda, mu, N) configuration."""

    rho: float        # utilization, lambda / (N mu)
    delay_prob: float  # probability an arrival must wait
    w_q: float        # expected queue wait (hours)
    t_total: float    # expected system time, w_q + 1/mu (hours)


def _first_stable(offered_load: float) -> int:
    """The smallest N with a / N at most _RHO_CEILING: floor(a) + 1, or one
    more at a near-integer offered load, which always suffices within the
    domain limit MAX_OFFERED_LOAD but may not above it."""
    n = math.floor(offered_load) + 1
    return n if offered_load / n <= _RHO_CEILING else n + 1


def min_staffing(lam: float, mu: float) -> int:
    """Smallest N that erlang_c accepts, _first_stable(lam / mu). Raises
    ParameterError unless both rates and lam / mu are positive and finite."""
    if not (0 < lam < math.inf and 0 < mu < math.inf):
        raise ParameterError("rates must be positive and finite")
    if lam / mu == math.inf:
        raise ParameterError(f"offered load lam / mu overflows: {lam!r} / {mu!r}")
    return _first_stable(lam / mu)


def _delay_probs(offered_load: float):
    """Yield (N, Erlang C at N) for every N from _first_stable(a), ascending
    and without end: the one walk of the Erlang B recurrence
    B_N = a B_{N-1} / (N + a B_{N-1}) from B_0 = 1, which avoids the factorial
    overflow of the direct sum, with C = B_N / (1 - rho (1 - B_N)). Raises
    ParameterError when the offered load exceeds MAX_OFFERED_LOAD."""
    if offered_load > MAX_OFFERED_LOAD:
        raise ParameterError(
            f"offered load {offered_load:.10g} exceeds the domain limit {MAX_OFFERED_LOAD:g}"
        )
    first = _first_stable(offered_load)
    b = 1.0
    for n in range(1, first):
        b = offered_load * b / (n + offered_load * b)
    for n in itertools.count(first):
        b = offered_load * b / (n + offered_load * b)
        rho = offered_load / n
        yield n, b / (1.0 - rho * (1.0 - b))


def erlang_c(n: int, offered_load: float) -> float:
    """Probability an arrival waits in an M/M/N queue with offered load a:
    the level stream's value at level n, or its first 0.0, since once
    Erlang B underflows to 0 it stays 0. Raises UnstableError for n below
    _first_stable(a), then the stream's ParameterError above the limit."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= offered_load < math.inf:
        raise ValueError("offered load must be nonnegative and finite")
    first = _first_stable(offered_load)
    if n < first:
        raise UnstableError(
            f"system unstable: offered load {offered_load:g} with {n} servers; need at least {first}"
        )
    return next(c for level, c in _delay_probs(offered_load) if level == n or c == 0.0)


def queue_metrics(lam: float, mu: float, n: int) -> QueueMetrics:
    """Full steady-state metrics; raises UnstableError if lam >= n mu and
    ParameterError if lam / mu exceeds MAX_OFFERED_LOAD."""
    delay_prob = erlang_c(n, lam / mu)
    w_q = delay_prob / (n * mu - lam)
    return QueueMetrics(rho=lam / mu / n, delay_prob=delay_prob, w_q=w_q, t_total=w_q + 1.0 / mu)

