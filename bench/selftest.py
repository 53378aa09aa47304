"""Shows that no check is vacuous: each one passes the program's real answer
and rejects a deliberately perturbed copy of it.

    python3 bench/selftest.py      # from the root of a checkout

run.py also calls ``run()`` after every benchmark run; a failure makes the
run incorrect.
"""

from __future__ import annotations

import math
import statistics
import sys
from fractions import Fraction
from pathlib import Path

import checks
import oracle

BASE = {"lam": 50.0, "mu_a": 12.0, "mu_i": 6.0, "q": 0.90, "h": 0.95, "big_l": 2000.0,
        "c_w": 150.0, "c_n": 200.0, "kappa": 2500.0, "k_a": 50.0, "k_i": 110.0, "w": 300.0}
SAMPLE_REPS = 40
SAMPLE_CUSTOMERS = 5000


def _erlang_c_exact(n: int, a: Fraction) -> Fraction:
    head = sum(a ** k / math.factorial(k) for k in range(n))
    tail = a ** n / math.factorial(n) * n / (n - a)
    return tail / (head + tail)


def _expect(errors: list[str], name: str, messages: list[str], reject: bool) -> None:
    if bool(messages) != reject:
        verdict = "accepted a perturbed answer" if reject else f"rejected a correct answer: {messages}"
        errors.append(f"self-test {name}: {verdict}")


def run() -> list[str]:
    from liabstaff import ModelParams, SimConfig, compare_scenarios, make_scenario, simulate

    errors: list[str] = []
    for n, a in ((1, Fraction(1, 2)), (5, Fraction(50, 12)), (10, Fraction(50, 6)), (30, Fraction(57, 2))):
        exact = float(_erlang_c_exact(n, a))
        for got in (oracle.erlang_c_direct(n, float(a)), float(oracle.erlang_c_table(float(a), n, n)[0])):
            if abs(got - exact) > 1e-12 * exact:
                errors.append(f"self-test erlang_c: n={n} a={float(a)} gives {got!r}, exact {exact!r}")
    table = oracle.erlang_c_table(280.0, 281, 400)
    if max(abs(table[i] / oracle.erlang_c_direct(281 + i, 280.0) - 1) for i in (0, 50, 119)) > 1e-10:
        errors.append("self-test erlang_c: the prefix-sum table disagrees with direct summation")

    specs = [make_scenario(s) for s in ("S0", "S1", "S2", "S3", "S4")]
    rows = {r.result.id: (r.result.policy.mode.value, r.result.policy.theta, r.result.policy.n,
                          r.result.cost.total)
            for r in compare_scenarios(specs, ModelParams(**BASE))}
    _expect(errors, "scenarios", checks.scenario_rows(BASE, rows, full=True), reject=False)
    mode, theta, n, total = rows["S1"]
    regimes = oracle.platform(BASE)
    other = "I" if mode == "A" else "A"
    _expect(errors, "S1 N*+1", checks.platform_answer(BASE, regimes, mode, theta, n + 1, total, "S1"), True)
    _expect(errors, "S1 flipped winner",
            checks.platform_answer(BASE, regimes, other, theta, n, total, "S1"), True)
    side = oracle.theta_d(BASE) + (0.01 if mode == "A" else -0.01)
    _expect(errors, "S1 theta across theta_d", checks.threshold_side(BASE, mode, side, "S1"), True)
    s4_mode, _, s4_n, s4_total = rows["S4"]
    _expect(errors, "S4 N*+1", checks.social_answer(BASE, s4_mode, s4_n + 1, s4_total, "S4"), True)
    cheaper = dict(rows, S2=rows["S2"][:3] + (rows["S1"][3] * 0.99,))
    _expect(errors, "S2 below S1", checks.scenario_rows(BASE, cheaper, full=False), True)

    lo, hi = 800.0, 5000.0  # bisect the oracle's own regime boundary at BASE
    w_lo = oracle.winner(oracle.platform(dict(BASE, big_l=lo)))
    if w_lo == oracle.winner(oracle.platform(dict(BASE, big_l=hi))):
        errors.append("self-test boundary: no regime flip at the baseline between L=800 and 5000")
    else:
        while hi - lo > checks.BOUNDARY_TOL / 4:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if oracle.winner(oracle.platform(dict(BASE, big_l=mid))) == w_lo else (lo, mid)
        lb = 0.5 * (lo + hi)
        _expect(errors, "boundary", checks.boundary_point(BASE, BASE["lam"], lb), False)
        _expect(errors, "boundary moved", checks.boundary_point(BASE, BASE["lam"], lb + 200.0), True)

    lam, mu, n = 50.0, 12.0, 5
    sims = [simulate(SimConfig(lam=lam, mu=mu, n=n, customers=SAMPLE_CUSTOMERS, seed=s))
            for s in range(SAMPLE_REPS)]
    results = [(r.mean_wait, r.wait_stderr, r.utilization, r.error_rate) for r in sims]
    _expect(errors, "replications", checks.simulations(lam, mu, n, 0.0, results, "sample"), False)
    means = [r[0] for r in results]
    se = statistics.stdev(means) / math.sqrt(len(means))
    away = math.copysign(5.0 * se, statistics.fmean(means) - oracle.wq(lam, mu, n))
    shifted = [(m + away,) + r[1:] for m, r in zip(means, results)]
    _expect(errors, "pooled wait +5 SE", checks.simulations(lam, mu, n, 0.0, shifted, "sample"), True)
    wide = [(r[0] + 5.0 * r[1],) + r[1:] for r in results]
    _expect(errors, "coverage", checks.coverage([r[0] for r in wide], [r[1] for r in wide],
                                                oracle.wq(lam, mu, n), "sample"), True)
    return errors


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    problems = run()
    for p in problems:
        print(p)
    print("self-test:", "FAILED" if problems else "every check rejects its perturbed answer")
    sys.exit(1 if problems else 0)
