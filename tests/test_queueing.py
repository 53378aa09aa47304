import math

import numpy as np
import pytest

from liabstaff import ParameterError, UnstableError, erlang_c, min_staffing, queue_metrics
from liabstaff.queueing import _RHO_CEILING, MAX_OFFERED_LOAD, _delay_probs

from oracles import erlang_c_direct


def test_min_staffing_examples():
    assert min_staffing(50, 12) == 5
    assert min_staffing(50, 6) == 9


def test_min_staffing_at_exact_balance():
    # lambda == mu: N=1 gives rho=1 (unstable), so 2 is the minimum
    assert min_staffing(7.0, 7.0) == 2


def test_min_staffing_overflowing_load_rejected():
    with pytest.raises(ParameterError, match="overflows"):
        min_staffing(1.0, 1e-320)


@pytest.mark.parametrize("lam, mu", [(0.0, 1.0), (math.inf, 1.0), (1.0, 0.0), (1.0, math.inf)])
def test_min_staffing_refuses_a_zero_or_infinite_rate(lam, mu):
    with pytest.raises(ParameterError, match="rates must be positive and finite"):
        min_staffing(lam, mu)


def test_erlang_c_refuses_an_infinite_offered_load():
    with pytest.raises(ValueError, match="offered load must be nonnegative and finite"):
        erlang_c(5, math.inf)


def test_erlang_c_matches_direct_summation_examples():
    assert erlang_c(5, 50 / 12) == pytest.approx(erlang_c_direct(5, 50 / 12), abs=1e-12)
    assert erlang_c(10, 50 / 6) == pytest.approx(erlang_c_direct(10, 50 / 6), abs=1e-12)
    # magnitude sanity against the frozen oracle values
    assert erlang_c(5, 50 / 12) == pytest.approx(0.620, abs=5e-4)
    assert erlang_c(10, 50 / 6) == pytest.approx(0.488, abs=5e-4)


def _erlang_c_full_walk(n: int, a: float) -> float:
    """Erlang C at level n from the Erlang B recurrence walked all the way to n."""
    b = 1.0
    for k in range(1, n + 1):
        b = a * b / (k + a * b)
    rho = a / n
    return b / (1.0 - rho * (1.0 - b))


def test_erlang_c_equals_full_walk_past_underflow():
    # erlang_c returns at the first level whose Erlang B has underflowed to 0,
    # since every later level's is 0 too; the grid reaches far past that level
    underflowed = 0
    for a in (0.0, 1e-3, 0.5, 1.0, 7.5, 40.0, 150.0):
        for n in range(min_staffing(a, 1.0) if a else 1, 700, 7):
            full = _erlang_c_full_walk(n, a)
            assert repr(erlang_c(n, a)) == repr(full), (n, a)
            underflowed += full == 0.0
    assert underflowed > 300
    assert erlang_c(10**9, 1.0) == 0.0  # about 180 steps, not 10**9


def test_unstable_load_rejected():
    with pytest.raises(UnstableError, match="unstable"):
        erlang_c(5, 5.0)
    with pytest.raises(UnstableError):
        erlang_c(5, 5.0 * (1 - 1e-12))  # within the near-saturation guard


@pytest.mark.parametrize("a", [1.0 - 1.5e-9, _RHO_CEILING])
def test_utilization_at_or_below_ceiling_accepted(a):
    # 1 - 1.5e-9 lies between the ceiling and twice its distance from 1
    assert min_staffing(a, 1.0) == 1
    assert next(_delay_probs(a))[0] == 1
    assert erlang_c(1, a) == pytest.approx(a, rel=1e-9)  # C = rho at one server


def test_utilization_above_ceiling_starts_at_next_level():
    a = 1.0 - 0.5e-9
    assert min_staffing(a, 1.0) == 2
    assert next(_delay_probs(a))[0] == 2
    with pytest.raises(UnstableError, match="need at least 2"):
        erlang_c(1, a)


# k (1 +- 1e-9) up to the domain limit, and the loads of the two tests above
NEAR_INTEGER_LOADS = [
    *(k * (1.0 + 1e-9) for k in (1, 2, 7, 10, 100, 999, 1000, 10**4, 10**5, 10**6 - 1)),
    *(k * (1.0 - 1e-9) for k in (1, 2, 7, 10, 100, 999, 1000, 10**4, 10**5, 10**6)),
    1.0 - 1.5e-9, _RHO_CEILING, 1.0 - 0.5e-9,
]


@pytest.mark.parametrize("a", NEAR_INTEGER_LOADS)
def test_level_stream_starts_at_min_staffing(a):
    # the first level is the smallest whose utilization is at most the
    # ceiling, and it carries the full walk's Erlang C
    first, delay_prob = next(_delay_probs(a))
    assert first == min_staffing(a, 1.0)
    assert a / first <= _RHO_CEILING
    if first > 1:
        assert a / (first - 1) > _RHO_CEILING
        with pytest.raises(UnstableError, match=f"need at least {first}$"):
            erlang_c(first - 1, a)
    assert repr(delay_prob) == repr(_erlang_c_full_walk(first, a))


def test_queue_metrics_examples():
    m = queue_metrics(50, 12, 5)
    assert m.w_q == pytest.approx(0.0620, abs=5e-5)
    assert m.t_total == pytest.approx(0.1453, abs=5e-5)
    m = queue_metrics(50, 6, 10)
    assert m.w_q == pytest.approx(0.0488, abs=5e-5)
    assert m.t_total == pytest.approx(0.2154, abs=5e-5)


def test_queue_metrics_internal_relations():
    for lam, mu, n in [(50, 12, 5), (50, 6, 10), (30, 4, 12), (80, 11, 9)]:
        m = queue_metrics(lam, mu, n)
        assert m.rho == pytest.approx(lam / (n * mu), abs=1e-12)
        assert m.w_q == pytest.approx(m.delay_prob / (n * mu - lam), abs=1e-12)
        assert m.t_total == pytest.approx(m.w_q + 1 / mu, abs=1e-12)


def test_empty_system_limit():
    m = queue_metrics(1e-9, 12, 5)
    assert m.delay_prob == pytest.approx(0.0, abs=1e-9)
    assert m.w_q == pytest.approx(0.0, abs=1e-9)
    assert m.t_total == pytest.approx(1 / 12, abs=1e-9)


def test_delay_prob_strictly_decreasing_in_n():
    for lam, mu in [(50, 12), (50, 6), (70, 9)]:
        values = [queue_metrics(lam, mu, n) for n in range(min_staffing(lam, mu), min_staffing(lam, mu) + 15)]
        waits = [v.w_q for v in values]
        delays = [v.delay_prob for v in values]
        assert all(a > b for a, b in zip(delays, delays[1:]))
        assert all(a > b for a, b in zip(waits, waits[1:]))


def test_delay_prob_strictly_increasing_in_utilization():
    for n in (3, 6, 10, 15):
        delays = [erlang_c(n, rho * n) for rho in np.linspace(0.05, 0.98, 30)]
        assert all(a < b for a, b in zip(delays, delays[1:]))


def test_offered_load_above_domain_limit_rejected():
    # erlang_c and queue_metrics read the staffing search's level stream,
    # which refuses such a load before its first Erlang B step
    a = 1.5 * MAX_OFFERED_LOAD
    n = 2 * int(a)
    with pytest.raises(ParameterError, match="domain limit"):
        erlang_c(n, a)
    with pytest.raises(ParameterError, match="domain limit"):
        queue_metrics(12.0 * a, 12.0, n)
    # the limit itself is inside the domain, the next float above it is not
    assert 0.0 < erlang_c(1_000_001, MAX_OFFERED_LOAD) < 1.0
    with pytest.raises(ParameterError, match="domain limit"):
        erlang_c(2_000_000, math.nextafter(MAX_OFFERED_LOAD, math.inf))


def test_below_min_staffing_is_unstable_above_the_limit_too():
    # the stability check comes first, the domain limit second
    with pytest.raises(UnstableError, match="need at least 2000001$"):
        erlang_c(5, 2e6)
    with pytest.raises(ParameterError, match="^offered load 1e\\+10 exceeds the domain limit 1e\\+06$"):
        erlang_c(min_staffing(1e10, 1.0), 1e10)
