import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from liabstaff import (
    BASELINE,
    Mode,
    ParameterError,
    figure_data,
    monotone_violations,
    optimize_platform,
    regime_boundary,
    regime_map,
    sensitivity_sweep,
    threshold,
    validate,
    welfare_curve,
)
from liabstaff.analysis import linspace


def test_regime_map_low_demand_high_loss_is_independent():
    cells = regime_map(BASELINE, [30.0], [5000.0])
    assert cells[0].winner is Mode.I


def test_single_cell_map_agrees_with_optimizer():
    cells = regime_map(BASELINE, [50.0], [2000.0])
    sol = optimize_platform(BASELINE).winner
    c = cells[0]
    assert c.winner is sol.regime
    assert c.theta_star == sol.best.theta
    assert c.n_star == sol.best.n
    assert c.total == sol.cost.total


def test_boundary_at_baseline_arrival_rate():
    points = regime_boundary(BASELINE, [50.0], 2000.0, 5000.0, tol=1.0)
    assert len(points) == 1
    l_star = points[0].l_boundary
    assert 2000.0 < l_star < 5000.0
    # winners flip across the located boundary
    lo = optimize_platform(validate(dataclasses.replace(BASELINE, big_l=l_star - 2.0)))
    hi = optimize_platform(validate(dataclasses.replace(BASELINE, big_l=l_star + 2.0)))
    assert lo.winner.regime is Mode.A
    assert hi.winner.regime is Mode.I


def test_boundary_absent_when_no_flip():
    points = regime_boundary(BASELINE, [50.0], 900.0, 1500.0)
    assert points == []


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_boundary_rejects_tolerance_that_cannot_stop(tol):
    with pytest.raises(ParameterError, match="tol"):
        regime_boundary(BASELINE, [50.0], 800.0, 5000.0, tol=tol)


def test_boundary_below_float_spacing_ends_at_adjacent_floats():
    # floats near L = 2700 lie about 5e-13 apart: bisection stops at two
    # adjacent ones instead of looping
    (point,) = regime_boundary(BASELINE, [50.0], 2000.0, 5000.0, tol=1e-300)
    (coarse,) = regime_boundary(BASELINE, [50.0], 2000.0, 5000.0, tol=1.0)
    assert abs(point.l_boundary - coarse.l_boundary) <= 1.0
    below = optimize_platform(validate(dataclasses.replace(BASELINE, big_l=point.l_boundary - 1e-9)))
    above = optimize_platform(validate(dataclasses.replace(BASELINE, big_l=point.l_boundary + 1e-9)))
    assert below.winner.regime is Mode.A
    assert above.winner.regime is Mode.I


def test_monotone_violation_detection():
    from liabstaff import BoundaryPoint

    rising = [BoundaryPoint(30, 2000), BoundaryPoint(40, 2500), BoundaryPoint(50, 2500)]
    assert monotone_violations(rising) == []
    dipping = [BoundaryPoint(30, 2000), BoundaryPoint(40, 1500)]
    assert len(monotone_violations(dipping)) == 1


def test_sweep_rows_match_single_point_optimization():
    rows = sensitivity_sweep(BASELINE, "kappa", [1000.0, 2500.0, 5000.0])
    for row in rows:
        sol = optimize_platform(
            validate(dataclasses.replace(BASELINE, kappa=row.param_value))
        ).winner
        assert row.winner is sol.regime
        assert row.theta_star == sol.best.theta
        assert row.n_star == sol.best.n
        assert row.total == sol.cost.total


def test_kappa_sweep_reduces_liability_transfer():
    rows = sensitivity_sweep(BASELINE, "kappa", list(np.linspace(1000, 5000, 9)))
    thetas = [r.theta_star for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(thetas, thetas[1:]))


def test_staffing_cost_sweep_reduces_headcount():
    rows = sensitivity_sweep(BASELINE, "c_n", list(np.linspace(100, 350, 6)))
    ns = [r.n_star for r in rows]
    assert all(a >= b for a, b in zip(ns, ns[1:]))


def test_unknown_sweep_parameter_lists_valid_names():
    with pytest.raises(ValueError, match="kappa"):
        sensitivity_sweep(BASELINE, "mu_a", [10.0])


def test_welfare_curve_values():
    rows = welfare_curve(BASELINE, [2000.0, 4000.0])
    by_l = {r[0]: r for r in rows}
    assert by_l[2000.0][3] == pytest.approx(1500.0, abs=100.0)
    for _, s1, s4, gap, gap_pct in rows:
        assert gap == pytest.approx(s1 - s4, rel=1e-12)
        assert gap_pct == pytest.approx(100 * gap / s4, rel=1e-12)


def test_welfare_curve_rows_match_scenario_totals():
    from liabstaff import optimize_platform as opt, optimize_social as soc

    for big_l, s1, s4, gap, _ in welfare_curve(BASELINE, [1500.0, 3000.0]):
        p = validate(dataclasses.replace(BASELINE, big_l=big_l))
        assert s1 == opt(p).winner.cost.total
        assert s4 == soc(p)[1].total


def test_fig1_delay_decreasing_in_staffing():
    header, rows = figure_data("fig1", BASELINE, npoints=21)
    assert header == ["n", "utilization", "delay_prob"]
    by_n = {}
    for n, rho, c in rows:
        by_n.setdefault(n, {})[round(rho, 9)] = c
    for rho in by_n[6]:
        assert by_n[6][rho] > by_n[10][rho] > by_n[15][rho]


def test_fig2_curves_cross_at_threshold():
    header, rows = figure_data("fig2", BASELINE, npoints=1001)
    diffs = [(theta, ua - ui) for theta, ua, ui in rows]
    crossing = min(diffs, key=lambda d: abs(d[1]))[0]
    assert crossing == pytest.approx(0.60, abs=1e-3)


def test_fig3a_matches_threshold_formula_pointwise():
    header, rows = figure_data("fig3a", BASELINE, npoints=8)  # L = 800, 1400, ..., 5000
    for big_l, theta_d in rows:
        expected = threshold(dataclasses.replace(BASELINE, big_l=big_l)).theta_d
        assert theta_d == pytest.approx(expected, abs=1e-12)
    by_l = dict(rows)
    assert by_l[2000.0] == pytest.approx(0.60, abs=1e-12)


def test_fig3b_linear_in_disutility_gap():
    header, rows = figure_data("fig3b", BASELINE, npoints=14)
    for dk, theta_d in rows:
        assert theta_d == pytest.approx(dk / (2000.0 * 0.05), abs=1e-12)


def test_fig3b_takes_theta_d_from_the_disutility_gap():
    # at k_a = 5e29, a valid set, k_a + delta_k rounds back to k_a, so a
    # curve formed from k_i - k_a would read 0
    p = validate(dataclasses.replace(BASELINE, k_a=5e29, k_i=1e30))
    header, rows = figure_data("fig3b", p, npoints=3)
    assert rows == [(dk, dk / (p.big_l * (p.h - p.q))) for dk in (20.0, 85.0, 150.0)]


def test_fig4_staffing_criteria():
    # lambda = 25, 30, ..., 90
    header, rows = figure_data("fig4", BASELINE, npoints=14, criterion="min-stable")
    for lam, n_a, n_i in rows:
        assert n_a <= n_i
    by_lam = {r[0]: r for r in rows}
    assert by_lam[50.0][1] == 5  # floor(50/12) + 1
    assert by_lam[50.0][2] == 9  # floor(50/6) + 1
    header, rows = figure_data("fig4", BASELINE, npoints=14)
    by_lam = {r[0]: r for r in rows}
    assert by_lam[50.0][1] == 5


@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 60),
)
def test_linspace_equals_numpy_bit_for_bit(lo, hi, n):
    with np.errstate(all="ignore"):  # spans that overflow to inf
        expected = [float(v) for v in np.linspace(lo, hi, n)]
    assert [v.hex() for v in linspace(lo, hi, n)] == [v.hex() for v in expected]


def test_linspace_rejects_negative_count():
    with pytest.raises(ValueError, match="non-negative"):
        linspace(0.0, 1.0, -1)


@pytest.mark.parametrize("npoints", [0, -1])
def test_figure_needs_one_point(npoints):
    with pytest.raises(ParameterError, match="npoints must be at least 1"):
        figure_data("fig2", BASELINE, npoints=npoints)


def test_unknown_figure_rejected():
    with pytest.raises(ValueError, match="unknown figure"):
        figure_data("fig9", BASELINE)


@pytest.mark.parametrize("call, message", [
    (lambda: regime_map(BASELINE, [], [1000.0]), "grids must be non-empty"),
    (lambda: figure_data("fig4", BASELINE, 3, criterion="x"), "unknown staffing criterion 'x'"),
], ids=["regime_map", "fig4"])
def test_driver_refuses_a_bad_argument(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
