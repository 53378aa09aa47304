import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liabstaff import (
    BASELINE,
    InfeasibleError,
    Mode,
    ModelParams,
    ParameterError,
    UnstableError,
    cost_breakdown,
    erlang_c,
    make_scenario,
    min_staffing,
    mode_attrs,
    optimize_platform,
    optimize_regime,
    optimize_social,
    queue_metrics,
    run_scenario,
    social_cost,
    theta_optimal,
    theta_unconstrained,
    threshold,
)
from liabstaff import platform_opt
from liabstaff.platform_opt import _cost, _regime_result, _search
from liabstaff.physician import REGIME_I_EPS
from liabstaff.queueing import MAX_OFFERED_LOAD

from oracles import (
    brute_force_platform,
    brute_force_regime,
    brute_force_social,
    optimize_regime_per_level,
    random_valid_params,
    total_cost_direct,
)


def test_cost_breakdown_headline_policy():
    cb = cost_breakdown(0.40, 5, Mode.A, BASELINE)
    assert cb.risk == pytest.approx(6000.0)
    assert cb.staffing == pytest.approx(1000.0)
    assert cb.compliance == pytest.approx(2000.0)
    assert cb.congestion == pytest.approx(1090.0, abs=1.0)
    assert cb.total == pytest.approx(total_cost_direct(0.40, 5, Mode.A, BASELINE), rel=1e-12)
    assert cb.total == pytest.approx(10090.0, abs=1.0)


def test_cost_breakdown_boundary_shares():
    cb0 = cost_breakdown(0.0, 10, Mode.I, BASELINE)
    assert cb0.compliance == 0.0
    cb1 = cost_breakdown(1.0, 10, Mode.I, BASELINE)
    assert cb1.risk == 0.0
    assert cb1.compliance == pytest.approx(BASELINE.kappa * 10)


def test_cost_breakdown_components_sum_and_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(30):
        p = random_valid_params(rng)
        m = Mode.A if rng.random() < 0.5 else Mode.I
        mu = p.mu_a if m is Mode.A else p.mu_i
        n = int(np.ceil(p.lam / mu)) + rng.integers(1, 10)
        cb = cost_breakdown(float(rng.uniform(0, 1)), n, m, p)
        parts = cb.risk + cb.congestion + cb.staffing + cb.compliance
        assert cb.total == pytest.approx(parts, rel=1e-9)
        assert min(cb.risk, cb.congestion, cb.staffing, cb.compliance) >= 0


def test_cost_breakdown_unstable_names_min_staffing():
    with pytest.raises(UnstableError, match="at least 9"):
        cost_breakdown(0.5, 8, Mode.I, BASELINE)
    # offered load 4.999999999995 in mode A: N = 5 is above the utilization
    # ceiling, so the level named is the first one erlang_c accepts
    p = dataclasses.replace(BASELINE, lam=59.99999999994)
    assert min_staffing(p.lam, p.mu_a) == 6
    with pytest.raises(UnstableError, match="at least 6"):
        cost_breakdown(0.4, 5, Mode.A, p)
    assert cost_breakdown(0.4, 6, Mode.A, p).total > 0


def test_cost_breakdown_accepts_theta_one_and_refuses_the_next_float():
    assert cost_breakdown(1.0, 5, Mode.A, BASELINE).risk == 0.0
    with pytest.raises(ValueError, match="theta must lie in"):
        cost_breakdown(math.nextafter(1.0, 2.0), 5, Mode.A, BASELINE)


def test_theta_unconstrained_examples():
    assert theta_unconstrained(Mode.A, 5, BASELINE) == pytest.approx(0.40, abs=1e-12)
    assert theta_unconstrained(Mode.I, 10, BASELINE) == pytest.approx(0.10, abs=1e-12)


def test_theta_unconstrained_vanishes_with_huge_compliance_cost():
    p = dataclasses.replace(BASELINE, kappa=1e15)
    assert theta_unconstrained(Mode.A, 5, p) == pytest.approx(0.0, abs=1e-6)


def test_theta_optimal_clamping():
    assert theta_optimal(Mode.A, 5, 0.0, 0.60, BASELINE) == pytest.approx(0.40)
    assert theta_optimal(Mode.A, 5, 0.0, 0.30, BASELINE) == pytest.approx(0.30)
    assert theta_optimal(Mode.I, 10, 0.601, 1.0, BASELINE) == pytest.approx(0.601)
    with pytest.raises(InfeasibleError):
        theta_optimal(Mode.A, 5, 0.7, 0.3, BASELINE)


@pytest.mark.parametrize("call", [
    lambda: erlang_c(0, 1.0), lambda: theta_optimal(Mode.A, 0, 0.0, 1.0, BASELINE),
], ids=["erlang_c", "theta_optimal"])
def test_zero_servers_refused(call):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == "n must be at least 1"


def test_theta_optimal_accepts_a_point_interval_and_refuses_an_empty_one():
    assert theta_optimal(Mode.A, 5, 0.3, 0.3, BASELINE) == 0.3
    with pytest.raises(InfeasibleError, match="empty theta interval"):
        theta_optimal(Mode.A, 5, math.nextafter(0.3, 1.0), 0.3, BASELINE)


@pytest.mark.parametrize("lo, hi", [
    (math.nan, 0.5), (0.2, math.nan), (math.nan, math.nan), (-0.1, 0.5), (0.2, 1.5), (1.5, 1.5),
])
def test_optimize_regime_refuses_a_share_interval_outside_0_1(lo, hi):
    for m in (Mode.A, Mode.I):
        with pytest.raises(ParameterError, match="neither empty nor within"):
            optimize_regime(m, lo, hi, BASELINE)


def test_optimize_regime_gives_an_empty_interval_outside_0_1_as_infeasible():
    for lo, hi in ((1.5, 1.2), (0.2, -0.1)):
        assert not optimize_regime(Mode.I, lo, hi, BASELINE).feasible


def test_theta_optimal_matches_grid_argmin():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = random_valid_params(rng)
        m = Mode.A if rng.random() < 0.5 else Mode.I
        mu, err_prob, _ = mode_attrs(m, p)
        n = int(np.ceil(p.lam / mu)) + int(rng.integers(1, 8))
        lo = float(rng.uniform(0, 0.5))
        hi = float(rng.uniform(lo, 1.0))
        grid = np.linspace(lo, hi, 10_001)
        # cost_breakdown's totals, with the queue's system time taken once
        t_total = queue_metrics(p.lam, mu, n).t_total
        totals = [_cost(float(t), n, err_prob, t_total, p).total for t in grid]
        assert [totals[0], totals[-1]] == [cost_breakdown(float(t), n, m, p).total for t in grid[[0, -1]]]
        best_grid = float(grid[int(np.argmin(totals))])
        step = (hi - lo) / 10_000 if hi > lo else 0.0
        assert abs(theta_optimal(m, n, lo, hi, p) - best_grid) <= step + 1e-12


def test_optimize_regime_a_baseline():
    res = optimize_regime(Mode.A, 0.0, 0.60, BASELINE)
    assert res.feasible
    assert res.best.theta == pytest.approx(0.40, abs=1e-9)
    assert res.best.n == 5
    assert res.cost.total == pytest.approx(10090.11, abs=0.01)
    bf_theta, bf_n, bf_total = brute_force_regime(Mode.A, 0.0, 0.60, BASELINE)
    assert res.best.n == bf_n
    assert abs(res.best.theta - bf_theta) <= 0.60 / 2000
    assert res.cost.total <= bf_total + 1e-9


def test_optimize_regime_i_clamps_low():
    res = optimize_regime(Mode.I, 0.600001, 1.0, BASELINE)
    assert res.feasible
    assert res.best.theta == pytest.approx(0.600001, abs=1e-12)
    _, bf_n, _ = brute_force_regime(Mode.I, 0.600001, 1.0, BASELINE)
    assert res.best.n == bf_n
    assert res.best.n >= 9


def test_optimize_regime_degenerate_interval():
    res = optimize_regime(Mode.A, 0.0, 0.0, BASELINE)
    assert res.feasible
    assert res.best.theta == 0.0


def test_optimize_regime_empty_interval_flagged():
    res = optimize_regime(Mode.A, 0.7, 0.6, BASELINE)
    assert not res.feasible
    assert res.best is None


def test_optimize_platform_high_loss_prefers_independent():
    p = dataclasses.replace(BASELINE, big_l=5000.0)
    assert optimize_platform(p).winner.regime is Mode.I


def test_optimize_platform_interval_above_threshold():
    sol = optimize_platform(BASELINE, 0.7, 1.0)
    assert not sol.regime_a.feasible
    assert sol.winner.regime is Mode.I


def test_optimize_platform_fully_infeasible():
    # the whole interval sits inside regime A's range but excludes regime I,
    # and a theta_lo above 1 is rejected earlier; force emptiness via bounds
    p = dataclasses.replace(BASELINE, big_l=80.0)  # theta_d = 15 > 1
    sol = optimize_platform(p, 0.0, 1.0)
    assert not sol.regime_i.feasible  # regime I unreachable for any share
    assert sol.winner.regime is Mode.A


def test_optimize_platform_matches_brute_force():
    rng = np.random.default_rng(8)
    s0 = make_scenario("S0")
    for p in [BASELINE] + [random_valid_params(rng) for _ in range(20)]:
        sol = optimize_platform(p)
        bf_mode, bf_theta, bf_n, bf_total = brute_force_platform(p)
        assert sol.winner.regime is bf_mode
        assert sol.winner.best.n == bf_n
        assert abs(sol.winner.best.theta - bf_theta) <= 1.0 / 2000
        assert sol.winner.cost.total <= bf_total + 1e-9
        # both regimes field by field, the winner's records included, and the
        # winner is one of them
        theta_d = threshold(p).theta_d
        assert sol.regime_a == optimize_regime(Mode.A, 0.0, min(1.0, theta_d), p)
        if theta_d + REGIME_I_EPS <= 1.0:
            assert sol.regime_i == optimize_regime(Mode.I, theta_d + REGIME_I_EPS, 1.0, p)
        else:
            assert not sol.regime_i.feasible
        assert sol.winner is (sol.regime_a if bf_mode is Mode.A else sol.regime_i)
        # the same staffing search at a forced mode and share, and at theta = 0
        res = run_scenario(s0, p)
        _, bf_n, bf_total = brute_force_regime(Mode.I, 0.5, 0.5, p)
        assert res.policy.n == bf_n
        assert res.cost.total == pytest.approx(bf_total, rel=1e-12)
        pol, cb = optimize_social(p)
        bf_mode, bf_n, bf_total = brute_force_social(p)
        assert (pol.mode, pol.n) == (bf_mode, bf_n)
        assert cb.total == pytest.approx(bf_total, rel=1e-12)


@pytest.mark.parametrize(
    "changes, mode, n, total",
    [
        # a stop rule on the staffing cost alone, c_n (N+1) > incumbent, runs
        # past 10000 servers here,
        (dict(lam=300.0, big_l=20000.0, q=0.8, c_n=100.0), Mode.I, 52, 145323.55),
        # to N = 7887 in regime A here,
        (dict(lam=200.0, big_l=20000.0, q=0.8, c_n=100.0), Mode.I, 35, 98089.54),
        # and to N = 4582 (A) and 6302 (I) here
        (dict(lam=5000.0), Mode.A, 425, 916571.97),
    ],
)
def test_stop_rule_ends_search_near_offered_load(changes, mode, n, total):
    sol = optimize_platform(dataclasses.replace(BASELINE, **changes))
    assert sol.winner.regime is mode
    assert sol.winner.best.n == n
    assert sol.winner.cost.total == pytest.approx(total, abs=0.01)
    for res in (sol.regime_a, sol.regime_i):
        lo, hi = res.n_searched
        assert hi - lo + 1 <= 20


def test_search_starts_at_first_level_erlang_c_accepts():
    # offered load 4.999999999995 in mode A: N = 5 is stable but above the
    # utilization ceiling, so the search starts at N = 6 instead of failing
    p = dataclasses.replace(BASELINE, lam=59.99999999994)
    sol = optimize_platform(p)
    assert sol.regime_a.n_searched[0] == 6
    assert sol.winner.best.n >= 6


def test_social_cost_examples():
    cb = social_cost(11, Mode.I, BASELINE)
    assert cb.total == pytest.approx(8590.45, abs=0.01)
    assert cb.compliance == 0.0
    assert social_cost(5, Mode.A, BASELINE).risk == pytest.approx(10000.0)


def test_social_risk_is_share_independent():
    # full internalization: no theta anywhere in the social objective
    cb = social_cost(11, Mode.I, BASELINE)
    assert cb.risk == pytest.approx(BASELINE.lam * BASELINE.big_l * 0.05)


def test_optimize_social_cheap_errors_prefer_throughput():
    p = dataclasses.replace(BASELINE, big_l=200.0)
    pol, _ = optimize_social(p)
    assert pol.mode is Mode.A


def test_optimize_social_matches_brute_force_random():
    rng = np.random.default_rng(9)
    for _ in range(15):
        p = random_valid_params(rng)
        pol, cb = optimize_social(p)
        bf_mode, bf_n, bf_total = brute_force_social(p)
        assert (pol.mode, pol.n) == (bf_mode, bf_n)
        assert cb.total == pytest.approx(bf_total, rel=1e-12)


def test_float_search_equals_per_level_reference():
    # every share interval the scenarios hand the search: S4 [0, 0], S0
    # [0.5, 0.5], S1's two regimes, S2's and S3's regimes, and an empty one
    rng = np.random.default_rng(10)
    params = [BASELINE, dataclasses.replace(BASELINE, lam=5000.0)]
    params += [random_valid_params(rng) for _ in range(40)]
    for p in params:
        theta_d = threshold(p).theta_d
        i_lo = theta_d + REGIME_I_EPS
        intervals = [
            (0.0, 0.0),
            (0.5, 0.5),
            (0.0, min(1.0, theta_d)),
            (max(0.0, i_lo), 1.0),
            (0.0, min(0.5, theta_d)),
            (max(0.0, i_lo), 0.5),
            (0.3, min(1.0, theta_d)),
            (max(0.3, i_lo), 1.0),
            (0.7, 0.6),
        ]
        for m in (Mode.A, Mode.I):
            for lo, hi in intervals:
                assert optimize_regime(m, lo, hi, p) == optimize_regime_per_level(m, lo, hi, p)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_kernel_entries_equal_one_interval_searches(seed, data):
    # one kernel call over a list of share intervals, with duplicates, empty
    # (lo > hi) and degenerate [x, x] entries and bounds at theta_d and
    # theta_d + REGIME_I_EPS, returns per entry the tuple that a call with
    # that interval alone returns, whatever the order of the list
    p = random_valid_params(np.random.default_rng(seed))
    theta_d = threshold(p).theta_d
    marks = [x for x in (0.0, 0.3, 0.5, 1.0, theta_d, theta_d + REGIME_I_EPS) if x <= 1.0]
    share = st.sampled_from(marks) | st.floats(0.0, 1.0)
    entry = st.tuples(share, share) | share.map(lambda x: (x, x))
    intervals = data.draw(st.lists(entry, min_size=1, max_size=10))
    intervals += data.draw(st.lists(st.sampled_from(intervals), max_size=4))
    order = data.draw(st.permutations(range(len(intervals))))
    for m in (Mode.A, Mode.I):
        found = _search(m, intervals, p)
        assert len(found) == len(intervals)
        for (lo, hi), res in zip(intervals, found):
            # repr tells every float apart bit for bit, -0.0 from 0.0 too
            assert repr(res) == repr(_search(m, [(lo, hi)], p)[0])
            assert (res is None) == (lo > hi)
            assert _regime_result(m, res) == optimize_regime_per_level(m, lo, hi, p)
        shuffled = _search(m, [intervals[i] for i in order], p)
        assert [repr(res) for res in shuffled] == [repr(found[i]) for i in order]


def test_large_offered_load_solves_without_a_staffing_cap():
    # regime I's offered load, 16667, lies above the 10000 servers that once
    # capped the search and made this call raise InfeasibleError
    p = dataclasses.replace(BASELINE, lam=100000.0)
    sol = optimize_platform(p)
    assert sol.winner.regime is Mode.A
    assert sol.winner.best.n == 8372
    assert sol.regime_i.feasible
    assert sol.regime_i.n_searched[0] == 16667
    # the share the search carries is theta_unconstrained at N*, bit for bit
    for r in (sol.regime_a, sol.regime_i):
        assert repr(r.theta_unconstrained) == repr(theta_unconstrained(r.regime, r.best.n, p))


def test_carried_share_is_theta_unconstrained_when_it_is_nan():
    # an unvalidated set whose stationary point is inf / inf: theta* and
    # every total are NaN, the first level stands, and the carried share is
    # the NaN that theta_unconstrained returns
    p = dataclasses.replace(BASELINE, big_l=math.inf, kappa=math.inf)
    for m in (Mode.A, Mode.I):
        r = optimize_regime(m, 0.0, 1.0, p)
        assert math.isnan(r.theta_unconstrained) and math.isnan(r.best.theta)
        assert r.n_searched == (r.best.n, r.best.n)
        assert repr(r.theta_unconstrained) == repr(theta_unconstrained(m, r.best.n, p))


def test_search_ends_where_every_level_costs_the_same():
    # with c_w this large the totals of all levels past the optimum round to
    # one float: a bound equal to the incumbent ends the search
    p = dataclasses.replace(BASELINE, c_w=1e300)
    res = optimize_regime(Mode.A, 0.0, 0.6, p)
    assert res.best.n == 29
    assert res.n_searched == (5, 29)


def test_search_gives_a_tie_to_the_smaller_n(monkeypatch):
    # a rigged level stream: system times 2.5 at N = 2 and 1.5 at N = 3, so
    # both levels total 4.5 with no risk and no compliance at theta = 0
    monkeypatch.setattr(platform_opt, "_delay_probs", lambda a: iter([(2, 1.5), (3, 1.0), (4, 0.0)]))
    p = ModelParams(lam=1.0, mu_a=1.0, mu_i=0.5, big_l=0.0, c_w=1.0, c_n=1.0, kappa=1.0)
    # (n_lo, n_hi, N*, theta*, share, risk, congestion, staffing, compliance, total)
    assert _search(Mode.A, [(0.0, 0.0)], p) == [(2, 3, 2, 0.0, 0.0, 0.0, 2.5, 2.0, 0.0, 4.5)]


def test_offered_load_above_domain_limit_rejected():
    p = dataclasses.replace(BASELINE, lam=1.5 * MAX_OFFERED_LOAD * BASELINE.mu_a)
    with pytest.raises(ParameterError, match="domain limit"):
        optimize_regime(Mode.A, 0.0, 1.0, p)
