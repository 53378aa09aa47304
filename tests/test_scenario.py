import dataclasses

import numpy as np
import pytest

from liabstaff import (
    BASELINE,
    Mode,
    ParameterError,
    ScenarioSpec,
    compare_scenarios,
    make_scenario,
    run_scenario,
)

from oracles import random_valid_params


def run(sid, p=BASELINE, **kw):
    return run_scenario(make_scenario(sid, **kw), p)


def test_s1_baseline_headline():
    res = run("S1")
    assert res.feasible
    assert res.regime is Mode.A
    assert res.policy.theta == pytest.approx(0.40, abs=1e-9)
    assert res.policy.n == 5
    assert res.cost.total == pytest.approx(10090.11, abs=0.01)


def test_s4_baseline():
    res = run("S4")
    assert res.feasible
    assert res.policy.mode is Mode.I
    assert res.cost.total == pytest.approx(8590.45, abs=0.01)


def test_s0_forces_independent_mode_despite_best_response():
    # theta = 0.5 < theta_d = 0.6 would induce Mode A under free choice;
    # S0 suspends the response and mandates Mode I
    res = run("S0")
    assert res.feasible
    assert res.policy.mode is Mode.I
    assert res.policy.theta == 0.5
    # a forced mode is searched on the spec's share interval
    wide = run_scenario(ScenarioSpec("X", 0.2, 0.7, mode_forced=Mode.I), BASELINE)
    assert wide.policy.mode is Mode.I and 0.2 <= wide.policy.theta <= 0.7
    assert wide.cost.total <= res.cost.total
    empty = run_scenario(ScenarioSpec("X", 0.7, 0.2, mode_forced=Mode.I), BASELINE)
    assert not empty.feasible and "empty theta interval" in empty.reason


def test_s3_high_floor_lands_in_regime_i():
    res = run("S3", theta_floor=0.7)
    assert res.feasible
    assert res.regime is Mode.I
    assert res.policy.theta >= 0.7


def test_scenario_cost_ordering_at_baseline():
    totals = {sid: run(sid).cost.total for sid in ("S0", "S1", "S4")}
    assert totals["S4"] < totals["S1"] < totals["S0"]


def test_welfare_gap_magnitude():
    gap = run("S1").cost.total - run("S4").cost.total
    assert 1300.0 <= gap <= 1800.0


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
    with pytest.raises(ValueError):
        make_scenario("S2", alpha=1.5)
    with pytest.raises(ValueError):
        make_scenario("S3", theta_floor=0.0)
