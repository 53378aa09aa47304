import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liabstaff import (
    BASELINE,
    Mode,
    ParameterError,
    ScenarioResult,
    ScenarioSpec,
    compare_scenarios,
    make_scenario,
    run_scenario,
)
from liabstaff.physician import threshold
from liabstaff import scenario
from liabstaff.scenario import REGIME_I_EPS, SCENARIO_IDS, optimize_platform, optimize_social

from oracles import (
    brute_force_platform,
    brute_force_regime,
    brute_force_social,
    optimize_regime_per_level,
    random_valid_params,
)


def run(sid, p=BASELINE, **kw):
    return run_scenario(make_scenario(sid, **kw), p)


def test_s1_baseline_headline():
    res = run("S1")
    assert res.feasible
    assert res.regime is Mode.A
    assert res.policy.theta == pytest.approx(0.40, abs=1e-9)
    assert res.policy.n == 5
    assert res.cost.total == pytest.approx(10090.11, abs=0.01)


def test_s0_forces_independent_mode_despite_best_response():
    # theta = 0.5 < theta_d = 0.6 would induce Mode A under free choice;
    # S0 suspends the response and mandates Mode I
    res = run("S0")
    assert res.feasible
    assert res.policy.mode is Mode.I
    assert res.policy.theta == 0.5
    # a listed mode is searched on the spec's share interval
    wide = run_scenario(ScenarioSpec("X", 0.2, 0.7, modes=(Mode.I,)), BASELINE)
    assert wide.policy.mode is Mode.I and 0.2 <= wide.policy.theta <= 0.7
    assert wide.cost.total <= res.cost.total
    empty = run_scenario(ScenarioSpec("X", 0.7, 0.2, modes=(Mode.I,)), BASELINE)
    assert not empty.feasible and "empty theta interval" in empty.reason


def test_s3_high_floor_lands_in_regime_i():
    res = run("S3", theta_floor=0.7)
    assert res.feasible
    assert res.regime is Mode.I
    assert res.policy.theta >= 0.7


def test_s1_dominates_constrained_scenarios():
    rng = np.random.default_rng(11)
    cases = [(BASELINE, a, f) for a in (0.2, 0.5, 0.8) for f in (0.1, 0.3, 0.7)]
    cases += [(random_valid_params(rng), 0.5, 0.3) for _ in range(5)]
    for p, alpha, floor in cases:
        s1 = run("S1", p).cost.total
        s2 = run("S2", p, alpha=alpha)
        s3 = run("S3", p, theta_floor=floor)
        if s2.feasible:
            assert s1 <= s2.cost.total + 1e-9
        if s3.feasible:
            assert s1 <= s3.cost.total + 1e-9


def test_s2_converges_to_s1_as_alpha_vanishes():
    s1 = run("S1")
    s2 = run("S2", alpha=1e-9)
    assert s2.cost.total == pytest.approx(s1.cost.total, rel=1e-6)
    assert s2.policy.n == s1.policy.n


def test_s3_with_zero_floor_equals_s1():
    # floor must be positive by the S3 contract; the smallest admissible
    # floor below theta_unc leaves the optimum untouched
    s1 = run("S1")
    s3 = run("S3", theta_floor=1e-12)
    assert s3.cost.total == s1.cost.total
    assert s3.policy == s1.policy


def test_s0_ignores_mode_a_parameters():
    base = run("S0")
    perturbed = dataclasses.replace(BASELINE, k_a=30.0, q=0.85, mu_a=15.0)
    res = run("S0", perturbed)
    assert res.cost == base.cost
    assert res.policy == base.policy


def test_s4_is_social_minimum_over_platform_policies():
    from liabstaff import social_cost

    s4 = run("S4").cost.total
    for mode, n in ((Mode.A, 5), (Mode.A, 8), (Mode.I, 9), (Mode.I, 12)):
        assert s4 <= social_cost(n, mode, BASELINE).total + 1e-9


def test_compare_table_ordering_and_s1_column():
    rows = compare_scenarios([make_scenario(s) for s in ("S4", "S0", "S1")], BASELINE)
    assert [r.result.id for r in rows] == ["S0", "S1", "S4"]
    by_id = {r.result.id: r for r in rows}
    assert by_id["S1"].pct_vs_s1 == pytest.approx(0.0)
    assert by_id["S0"].pct_vs_s1 > 0
    assert by_id["S4"].pct_vs_s1 < 0


def test_compare_single_scenario_has_empty_gap_column():
    rows = compare_scenarios([make_scenario("S4")], BASELINE)
    assert len(rows) == 1
    assert rows[0].pct_vs_s1 is None


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        make_scenario("S9")
    with pytest.raises(ParameterError, match="valid: S0, S1, S2, S3, S4"):
        make_scenario("s1")


def test_empty_scenario_list_rejected():
    with pytest.raises(ParameterError, match="at least one scenario"):
        compare_scenarios([], BASELINE)


def test_bad_scenario_knobs_rejected():
    for alpha in (0.0, 1.0, 1.5):
        with pytest.raises(ParameterError, match="alpha must lie in"):
            make_scenario("S2", alpha=alpha)
    with pytest.raises(ParameterError, match="theta_floor must lie in"):
        make_scenario("S3", theta_floor=0.0)
    # the floor's upper end is admissible
    assert make_scenario("S3", theta_floor=1.0).theta_lo == 1.0
    with pytest.raises(ParameterError, match="need 0 <= theta_lo <= theta_hi <= 1"):
        run_scenario(ScenarioSpec("X", 0.0, 1.0000001), BASELINE)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    theta_floor=st.floats(0.0, 1.0, exclude_min=True),
)
def test_scenarios_match_brute_force_oracles(seed, alpha, theta_floor):
    p = random_valid_params(np.random.default_rng(seed))
    specs = [make_scenario(sid, alpha=alpha, theta_floor=theta_floor) for sid in ("S0", "S1", "S2", "S3", "S4")]
    by_id = {row.result.id: row.result for row in compare_scenarios(specs, p)}
    theta_d = threshold(p).theta_d
    for spec in specs[1:4]:
        res = by_id[spec.id]
        lo, hi = spec.theta_lo, spec.theta_hi
        if lo > min(hi, theta_d) and max(lo, theta_d + REGIME_I_EPS) > hi:
            assert not res.feasible and "no feasible policy" in res.reason
            continue
        mode, theta, n, total = brute_force_platform(p, lo, hi)
        assert (res.regime, res.policy.mode, res.policy.n) == (mode, mode, n), spec.id
        assert abs(res.policy.theta - theta) <= (hi - lo) / 2000
        # exact in theta, so never above the grid's minimum
        assert res.cost.total <= total + 1e-9 * total
    s0 = by_id["S0"]
    theta, n, total = brute_force_regime(Mode.I, 0.5, 0.5, p)
    assert (s0.policy.mode, s0.policy.theta, s0.policy.n) == (Mode.I, theta, n)
    assert s0.cost.total == pytest.approx(total, rel=1e-9)
    s4 = by_id["S4"]
    mode, n, total = brute_force_social(p)
    assert (s4.policy.mode, s4.policy.theta, s4.policy.n) == (mode, 0.0, n)
    assert s4.cost.total == pytest.approx(total, rel=1e-9)


def _per_level_result(spec: ScenarioSpec, p) -> ScenarioResult:
    """One spec's result assembled from the per-level reference search."""
    lo, hi = spec.theta_lo, spec.theta_hi
    if spec.modes is not None:
        searched = [optimize_regime_per_level(m, lo, hi, p) for m in (Mode.A, Mode.I) if m in spec.modes]
        reason = f"empty theta interval [{lo:g}, {hi:g}]"
    else:
        theta_d = threshold(p).theta_d
        searched = [
            optimize_regime_per_level(Mode.A, lo, min(hi, theta_d), p),
            optimize_regime_per_level(Mode.I, max(lo, theta_d + REGIME_I_EPS), hi, p),
        ]
        reason = f"no feasible policy in [{lo:g}, {hi:g}] (threshold {theta_d:g})"
    feasible = [res for res in searched if res.feasible]
    if not feasible:
        return ScenarioResult(spec.id, False, None, None, None, reason=reason)
    win = min(feasible, key=lambda res: res.cost.total)  # the first, Regime A, on a tie
    return ScenarioResult(spec.id, True, win.best, win.cost, win.regime if spec.modes is None else None)


@pytest.mark.parametrize(
    "p, specs",
    [
        (BASELINE, [make_scenario(sid) for sid in ("S0", "S1", "S2", "S3", "S4")]),
        (dataclasses.replace(BASELINE, lam=5000.0), [make_scenario(sid) for sid in ("S4", "S3", "S2", "S1", "S0")]),
        # theta_d = 15: regime I is empty in S1-S3
        (dataclasses.replace(BASELINE, big_l=80.0), [make_scenario(sid) for sid in ("S1", "S2", "S3", "S0", "S4")]),
        # a floor above theta_d = 0.6: S3 has no regime A
        (BASELINE, [make_scenario("S3", theta_floor=0.7), make_scenario("S1"), make_scenario("S0")]),
        # no S1, so no pct_vs_s1; an empty platform interval just above theta_d
        (BASELINE, [make_scenario("S4"), make_scenario("S2", alpha=0.2), ScenarioSpec("X", 0.6000001, 0.6000005)]),
        # a duplicate id: the last spec of an id is the one returned
        (BASELINE, [make_scenario("S3", theta_floor=0.7), make_scenario("S1"), make_scenario("S3", theta_floor=0.1)]),
        # specs that search Mode A alone, Mode I alone, and both modes on
        # [0, 0] and on [0.1, 0.9]
        (BASELINE, [ScenarioSpec("X", 0.1, 0.9, modes=(Mode.A,))]),
        (dataclasses.replace(BASELINE, lam=5000.0), [ScenarioSpec("X", 0.1, 0.9, modes=(Mode.A,))]),
        (BASELINE, [make_scenario("S0")]),
        (dataclasses.replace(BASELINE, lam=5000.0), [make_scenario("S0")]),
        (BASELINE, [make_scenario("S4")]),
        (dataclasses.replace(BASELINE, lam=5000.0), [make_scenario("S4")]),
        (BASELINE, [ScenarioSpec("X", 0.1, 0.9, modes=(Mode.A, Mode.I))]),
    ],
)
def test_compare_rows_equal_per_spec_and_per_level_results(p, specs):
    rows = compare_scenarios(specs, p)
    last = {spec.id: spec for spec in specs}
    assert [row.result.id for row in rows] == sorted(last)
    expected = {sid: _per_level_result(spec, p) for sid, spec in last.items()}
    s1 = expected.get("S1")
    for row in rows:
        res = row.result
        assert res == run_scenario(last[res.id], p) == expected[res.id]
        pct = None
        if s1 is not None and res.feasible:
            pct = 100.0 * (res.cost.total - s1.cost.total) / s1.cost.total
        assert row.pct_vs_s1 == pct
    if "S1" not in last:
        assert all(row.pct_vs_s1 is None for row in rows)


@pytest.mark.parametrize("ids", [("S0", "S1", "S4"), ("S4", "S1", "S0"), ("S1", "S4"), ("S4",), ("S0",)])
def test_compare_rejects_unvalidated_offered_load(ids):
    # regime I's offered load, 1.67e6, is above the domain limit; regime A's,
    # 1e4, is walked first by S1 and S4
    p = dataclasses.replace(BASELINE, lam=1e7, mu_a=1e3)
    with pytest.raises(ParameterError, match="exceeds the domain limit"):
        compare_scenarios([make_scenario(sid) for sid in ids], p)


def test_compare_walks_only_the_modes_its_specs_search():
    # regime I's offered load, 1.67e6, is above the domain limit and regime
    # A's, 1e4, is not: a call raises exactly when some spec has a non-empty
    # interval in Mode I (S0 and S4 alone are in the test above)
    p = dataclasses.replace(BASELINE, lam=1e7, mu_a=1e3)
    forced_a = ScenarioSpec("X", 0.1, 0.9, modes=(Mode.A,))
    empty_i = ScenarioSpec("Y", 0.7, 0.2, modes=(Mode.I,))
    rows = compare_scenarios([forced_a, empty_i], p)
    assert [row.result.feasible for row in rows] == [True, False]
    assert rows[0].result == run_scenario(forced_a, p)
    with pytest.raises(ParameterError, match="exceeds the domain limit"):
        compare_scenarios([forced_a, make_scenario("S0")], p)


def test_compare_rows_do_not_depend_on_spec_order():
    rng = np.random.default_rng(12)
    extra = [ScenarioSpec("XA", 0.1, 0.9, modes=(Mode.A,)), ScenarioSpec("XI", 0.7, 0.2, modes=(Mode.I,))]
    for _ in range(20):
        p = random_valid_params(rng)
        alpha, floor = rng.uniform(0.05, 0.95, size=2)
        specs = [make_scenario(sid, alpha=alpha, theta_floor=floor) for sid in SCENARIO_IDS] + extra
        rows = compare_scenarios(specs, p)
        for _ in range(3):
            assert compare_scenarios([specs[i] for i in rng.permutation(len(specs))], p) == rows


@pytest.mark.parametrize("total_i, winner", [
    (lambda total_a: total_a, Mode.A),
    (lambda total_a: math.nextafter(total_a, -math.inf), Mode.I),
    (lambda total_a: math.nan, Mode.I),
], ids=["tie", "one_ulp_below", "nan"])
def test_mode_a_wins_a_tie_and_only_a_tie(monkeypatch, total_i, winner):
    # Mode I's search total is rigged to equal Mode A's, to lie one ulp below
    # it, or to be NaN; _solve searches Mode A first
    search, found_a = scenario._search, []

    def rigged(m, intervals, p):
        found = search(m, intervals, p)
        if m is Mode.A:
            found_a[:] = found
            return found
        return [(*f[:5], total_i(a[5])) for f, a in zip(found, found_a)]

    monkeypatch.setattr(scenario, "_search", rigged)
    assert optimize_platform(BASELINE).winner.regime is winner
    assert optimize_social(BASELINE)[0].mode is winner
