"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a PASS/FAIL line. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.

Criteria 9 and 10 assert claims that the cost model contradicts at the
calibrated parameters (see the assertion messages for the computed values);
they are expected to fail and are kept as stated rather than weakened.
"""

import dataclasses
from contextlib import contextmanager

import numpy as np
import pytest

from liabstaff import (
    BASELINE,
    Mode,
    SimConfig,
    cost_breakdown,
    erlang_c,
    optimize_platform,
    queue_metrics,
    regime_map,
    run_scenario,
    make_scenario,
    sensitivity_sweep,
    simulate,
    threshold,
    validate,
    welfare_curve,
)

from oracles import (
    brute_force_platform,
    erlang_c_direct,
    random_valid_params,
    total_cost_direct,
)
from runners import run_fresh


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} FAIL — {title}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS — {title}")


def test_criterion_01_threshold_exact():
    with criterion(1, "baseline threshold is 0.60 to 1e-12"):
        assert abs(threshold(BASELINE).theta_d - 0.60) < 1e-12


def test_criterion_02_headline_optimum():
    with criterion(2, "baseline optimum: Regime A, theta 0.40, N 5, total ~10090"):
        sol = optimize_platform(BASELINE)
        win = sol.winner
        assert win.regime is Mode.A
        assert win.best.theta == pytest.approx(0.40, abs=1e-9)
        assert win.best.n == 5
        oracle_total = total_cost_direct(win.best.theta, 5, Mode.A, BASELINE)
        assert win.cost.total == pytest.approx(oracle_total, rel=1e-6)
        assert win.cost.total == pytest.approx(10_100.0, rel=0.01)


def test_criterion_03_erlang_identities():
    with criterion(3, "Erlang C: single-server identity and recurrence vs summation"):
        for rho in np.arange(0.1, 0.95, 0.1):
            assert erlang_c(1, rho) == pytest.approx(rho, abs=1e-12)
        for n in range(1, 26):
            for frac in np.linspace(0.02, 0.98, 25):
                a = frac * n
                assert erlang_c(n, a) == pytest.approx(erlang_c_direct(n, a), abs=1e-10)


def test_criterion_04_convexity_constant():
    with criterion(4, "second difference of cost in theta equals 2*kappa*N*delta^2"):
        rng = np.random.default_rng(40)
        delta = 1e-3
        for _ in range(100):
            p = random_valid_params(rng)
            m = Mode.A if rng.random() < 0.5 else Mode.I
            mu = p.mu_a if m is Mode.A else p.mu_i
            n = int(np.ceil(p.lam / mu)) + int(rng.integers(1, 8))
            theta = float(rng.uniform(delta, 1 - delta))
            f = lambda t: cost_breakdown(t, n, m, p).total
            second = f(theta + delta) - 2 * f(theta) + f(theta - delta)
            assert second == pytest.approx(2 * p.kappa * n * delta**2, rel=1e-6)


def test_criterion_05_brute_force_equivalence():
    with criterion(5, "optimizer equals exhaustive grid on baseline + 20 draws"):
        rng = np.random.default_rng(50)
        for p in [BASELINE] + [random_valid_params(rng) for _ in range(20)]:
            sol = optimize_platform(p).winner
            bf_mode, bf_theta, bf_n, bf_total = brute_force_platform(p)
            assert sol.regime is bf_mode
            assert sol.best.n == bf_n
            assert abs(sol.best.theta - bf_theta) <= 1.0 / 2000
            assert sol.cost.total <= bf_total + 1e-9


def test_criterion_06_comparative_statics():
    with criterion(6, "analytic threshold partials match finite differences"):
        rng = np.random.default_rng(60)
        for p in [BASELINE] + [random_valid_params(rng) for _ in range(20)]:
            rep = threshold(p)
            assert rep.d_dq > 0 and rep.d_dh < 0 and rep.d_dl < 0 and rep.d_ddelta_k > 0

            def fd(field, base):
                step = 1e-6 * base
                up = threshold(dataclasses.replace(p, **{field: base + step})).theta_d
                dn = threshold(dataclasses.replace(p, **{field: base - step})).theta_d
                return (up - dn) / (2 * step)

            assert rep.d_dq == pytest.approx(fd("q", p.q), rel=1e-4)
            assert rep.d_dh == pytest.approx(fd("h", p.h), rel=1e-4)
            assert rep.d_dl == pytest.approx(fd("big_l", p.big_l), rel=1e-4)
            assert rep.d_ddelta_k == pytest.approx(fd("k_i", p.k_i), rel=1e-4)


def test_criterion_07_scenario_ordering():
    with criterion(7, "S4 < S1 < S0 and welfare gap in [1.3k, 1.8k]"):
        totals = {
            sid: run_scenario(make_scenario(sid), BASELINE).cost.total
            for sid in ("S0", "S1", "S4")
        }
        assert totals["S4"] < totals["S1"] < totals["S0"]
        gap = totals["S1"] - totals["S4"]
        assert 1300.0 <= gap <= 1800.0
        # S0 is pinned to the cost-model oracle, not to any quoted headline
        # value; the computed optimum is ~12.4k rather than ~18.7k.
        print(f"  note: S0 total (cost-model oracle) = {totals['S0']:.1f} $/h")


def test_criterion_08_regime_map():
    with criterion(8, "25x25 regime map: baseline in A, both regimes present, boundary shape"):
        lam_grid = [float(v) for v in np.linspace(25, 90, 25)]
        l_grid = [float(v) for v in np.linspace(800, 5000, 25)]
        cells = regime_map(BASELINE, lam_grid + [50.0], l_grid + [2000.0])
        by_coord = {(c.lam, c.big_l): c for c in cells}
        assert by_coord[(50.0, 2000.0)].winner is Mode.A
        winners = {c.winner for c in cells}
        assert winners == {Mode.A, Mode.I}
        # grid-extracted boundary: per column, lowest L whose winner is I
        boundary = []
        for lam in lam_grid:
            flips = [big_l for big_l in l_grid if by_coord[(lam, big_l)].winner is Mode.I]
            if flips:
                boundary.append((lam, min(flips)))
        from liabstaff import BoundaryPoint, monotone_violations

        points = [BoundaryPoint(lam=lam, l_boundary=lb) for lam, lb in boundary]
        violations = monotone_violations(points)
        for a, b in violations:
            print(
                f"  boundary dip reported: lambda {a.lam:g}->{b.lam:g}, "
                f"L {a.l_boundary:g}->{b.l_boundary:g}"
            )
        # the detector must agree with a direct pairwise check: dips are
        # surfaced through the public helper, never hidden
        direct = [(a, b) for a, b in zip(boundary, boundary[1:]) if b[1] < a[1]]
        assert len(violations) == len(direct)


def test_criterion_09_ai_accuracy_sweep():
    with criterion(9, "q sweep: nonincreasing total, Regime A throughout, >=15% drop"):
        rows = sensitivity_sweep(BASELINE, "q", [float(v) for v in np.linspace(0.80, 0.94, 15)])
        totals = [r.total for r in rows]
        winners = [r.winner for r in rows]
        reduction = (totals[0] - totals[-1]) / totals[0]
        detail = (
            f"winners={[w.value for w in winners]}, "
            f"totals[0]={totals[0]:.1f}, totals[-1]={totals[-1]:.1f}, "
            f"reduction={100 * reduction:.2f}%"
        )
        assert all(w is Mode.A for w in winners), f"Regime A not maintained: {detail}"
        assert all(a >= b - 1e-9 for a, b in zip(totals, totals[1:])), (
            f"total not nonincreasing: {detail}"
        )
        assert reduction >= 0.15, f"reduction below 15%: {detail}"


def test_criterion_10_welfare_monotonicity():
    with criterion(10, "welfare gap grows with loss severity and stays nonnegative"):
        rows = welfare_curve(BASELINE, [float(v) for v in np.linspace(800, 5000, 15)])
        gaps = {r[0]: r[3] for r in rows}
        g2000 = welfare_curve(BASELINE, [2000.0])[0][3]
        g4000 = welfare_curve(BASELINE, [4000.0])[0][3]
        detail = f"gap(2000)={g2000:.1f}, gap(4000)={g4000:.1f}, min grid gap={min(gaps.values()):.1f}"
        assert g4000 > g2000, f"gap not growing: {detail}"
        assert all(g >= -1e-9 for g in gaps.values()), f"negative gap on grid: {detail}"


def test_criterion_11_simulation_validation():
    with criterion(11, "simulated waits match analytic W_q; seed coverage >= 94%"):
        for lam, mu, n in ((50.0, 12.0, 5), (50.0, 6.0, 10)):
            res = simulate(SimConfig(lam=lam, mu=mu, n=n, customers=200_000, seed=0))
            wq = queue_metrics(lam, mu, n).w_q
            assert abs(res.mean_wait - wq) <= 3 * res.wait_stderr
        wq = queue_metrics(50, 12, 5).w_q
        hits = sum(
            abs(
                (r := simulate(SimConfig(lam=50, mu=12, n=5, customers=200_000, seed=seed))).mean_wait
                - wq
            )
            <= 3 * r.wait_stderr
            for seed in range(50)
        )
        print(f"  coverage: {hits}/50 seeds inside +-3 stderr")
        assert hits >= 47


def test_criterion_12_determinism(tmp_path):
    with criterion(12, "repeated runs byte-identical (fixed seed for simulate)"):
        pairs = [
            ("scenario", ["scenario"]),
            ("regime-map", ["regime-map", "--grid", "lambda=25:90:8", "--grid", "big_l=800:5000:8"]),
            ("simulate", ["simulate", "--lambda", "50", "--mu", "12", "--n", "5",
                          "--customers", "20000", "--seed", "1"]),
        ]
        for name, args in pairs:
            a = tmp_path / f"{name}_a.csv"
            b = tmp_path / f"{name}_b.csv"
            assert run_fresh(*args, "--out", str(a)).returncode == 0
            assert run_fresh(*args, "--out", str(b)).returncode == 0
            assert a.read_bytes() == b.read_bytes(), f"{name} output not byte-identical"
        solve_a = run_fresh("solve", "--json").stdout
        solve_b = run_fresh("solve", "--json").stdout
        assert solve_a == solve_b
