"""Checks of the program's answers against the oracle and known properties.

Every function returns a list of messages, empty when the answer passes.
Answers arrive as plain values (mode strings, floats, CSV text), so the
same functions judge live output and the perturbed copies in selftest.py.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics

import numpy as np

import oracle
from inputs import S0_THETA, S2_ALPHA, S3_FLOOR

# Replication checks: a pooled estimate may sit this many standard errors
# from the analytic value; per-replication 95% intervals (20 batch means,
# t = 2.093 with 19 degrees of freedom) must cover it at least this often.
POOLED_Z = 4.5
T_19 = 2.093
MIN_COVERAGE = 0.75

CSV_REL = 1e-11  # relative rounding of a value written with 12 significant digits
BOUNDARY_TOL = 1.0  # the CLI's default --tol for regime-map --boundary-out


def _close(a: float, b: float, rel: float = oracle.REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def platform_answer(p: dict, regimes: dict, mode: str, theta: float, n: int,
                    total: float, what: str) -> list[str]:
    """A platform optimum on the intervals ``regimes`` was built for: its
    mode and N must be the oracle's (or tie with it within the theta-grid
    resolution), its theta must induce its mode, and its total must be the
    cost of its own policy and no worse than the grid optimum."""
    if mode not in regimes:
        return [f"{what}: regime {mode} has an empty liability interval"]
    errs = []
    reg, best = regimes[mode], regimes[oracle.winner(regimes)]
    if not reg.lo * (1.0 - CSV_REL) <= theta <= reg.hi * (1.0 + CSV_REL):
        errs.append(f"{what}: theta {theta!r} does not induce mode {mode} "
                    f"(interval [{reg.lo:.9g}, {reg.hi:.9g}], theta_d {oracle.theta_d(p):.9g})")
    tol = max(reg.resolution(n), best.resolution(best.n_star)) + oracle.REL * best.total
    if reg.at(n) - best.total > tol:
        errs.append(f"{what}: mode {mode} N {n} is not optimal; the oracle finds mode "
                    f"{best.mode} N {best.n_star} total {best.total:.10g}")
    exact = oracle.platform_cost(p, theta, n, mode)
    if not _close(total, exact):
        errs.append(f"{what}: total {total!r} is not the cost {exact!r} of its own policy")
    if total > best.total + oracle.REL * best.total:
        errs.append(f"{what}: total {total!r} exceeds the oracle's grid optimum {best.total!r}")
    return errs


def platform_total(regimes: dict, total: float, what: str) -> list[str]:
    """A platform optimum given by its total alone (welfare rows)."""
    best = regimes[oracle.winner(regimes)]
    slack = best.resolution(best.n_star) + oracle.REL * best.total
    if not -oracle.REL * best.total <= best.total - total <= slack:
        return [f"{what}: platform total {total!r}, oracle {best.total!r} (resolution {slack:.3g})"]
    return []


def regime_n(reg, n: int, what: str) -> list[str]:
    """Optimal staffing within one regime (fig4 columns)."""
    if reg.at(n) - reg.total > reg.resolution(n) + oracle.REL * reg.total:
        return [f"{what}: N {n} in mode {reg.mode}, oracle N {reg.n_star}"]
    return []


def social_answer(p: dict, mode: str, n: int, total: float, what: str) -> list[str]:
    o_mode, o_n, o_total = oracle.social(p)
    errs = []
    if (mode, n) != (o_mode, o_n) and not _close(oracle.social_cost(p, n, mode), o_total):
        errs.append(f"{what}: social optimum mode {mode} N {n}, oracle mode {o_mode} N {o_n}")
    if not _close(total, o_total):
        errs.append(f"{what}: social total {total!r}, oracle {o_total!r}")
    return errs


def forced_answer(p: dict, theta: float, mode: str, n: int, total: float, what: str) -> list[str]:
    o_n, o_total = oracle.forced(p, theta, mode)
    errs = []
    if n != o_n and not _close(oracle.platform_cost(p, theta, n, mode), o_total):
        errs.append(f"{what}: forced-mode N {n}, oracle N {o_n}")
    if not _close(total, o_total):
        errs.append(f"{what}: forced-mode total {total!r}, oracle {o_total!r}")
    return errs


def threshold_side(p: dict, mode: str, theta: float, what: str) -> list[str]:
    """theta* lies at or below theta_d in mode A and above it in mode I.
    Regime A's optimum often sits exactly at theta_d, so A allows the
    rounding of a 12-digit CSV cell."""
    td = oracle.theta_d(p)
    if (mode == "A" and theta > td * (1.0 + CSV_REL)) or (mode == "I" and theta <= td):
        return [f"{what}: theta {theta!r} is on the wrong side of theta_d {td!r} for mode {mode}"]
    return []


# -- scenarios ----------------------------------------------------------------

def scenario_rows(p: dict, rows: dict, full: bool) -> list[str]:
    """rows maps S0..S4 to (mode, theta, n, total).  Properties are checked
    on every operation; ``full`` adds the exhaustive oracle."""
    if sorted(rows) != ["S0", "S1", "S2", "S3", "S4"]:
        return [f"scenario ids {sorted(rows)}"]
    errs = []
    s1 = rows["S1"][3]
    for sid in ("S2", "S3"):
        if rows[sid][3] < s1 - oracle.REL * s1:
            errs.append(f"{sid} total {rows[sid][3]!r} is below the unconstrained S1 total {s1!r}")
    for sid in ("S1", "S2", "S3"):
        mode, theta, _, _ = rows[sid]
        errs += threshold_side(p, mode, theta, sid)
    if rows["S2"][1] > 1.0 - S2_ALPHA or rows["S3"][1] < S3_FLOOR:
        errs.append("S2/S3 theta outside its regulatory bound")
    if rows["S0"][:2] != ("I", S0_THETA):
        errs.append(f"S0 policy {rows['S0'][:2]} is not the forced (I, {S0_THETA})")
    if rows["S4"][3] > oracle.social_cost(p, rows["S1"][2], rows["S1"][0]) * (1 + oracle.REL):
        errs.append("S4 total exceeds the social cost of the S1 policy")
    if not full:
        return errs
    for sid, lo, hi in (("S1", 0.0, 1.0), ("S2", 0.0, 1.0 - S2_ALPHA), ("S3", S3_FLOOR, 1.0)):
        mode, theta, n, total = rows[sid]
        errs += platform_answer(p, oracle.platform(p, lo, hi), mode, theta, n, total, sid)
    mode, theta, n, total = rows["S0"]
    errs += forced_answer(p, theta, mode, n, total, "S0")
    mode, _, n, total = rows["S4"]
    errs += social_answer(p, mode, n, total, "S4")
    return errs


# -- planning_grid ------------------------------------------------------------

def read_csv(text: str, header: list[str]) -> tuple[list[dict], list[str]]:
    reader = csv.reader(io.StringIO(text))
    got = next(reader, [])
    if got != header:
        return [], [f"CSV header {got}, expected {header}"]
    return [dict(zip(header, r)) for r in reader], []


def manifest(text: str, command: str, argv: list[str]) -> list[str]:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"manifest does not parse: {exc}"]
    if doc.get("command") != command or doc.get("argv") != argv:
        return [f"manifest records {doc.get('command')!r} {doc.get('argv')!r}"]
    return []


def grid_values(spec: str) -> tuple[str, list[float]]:
    """The values of a ``name=lo:hi:n`` grid, as the CLI documents them."""
    name, _, rng = spec.partition("=")
    lo, hi, n = rng.split(":")
    return name, [float(v) for v in np.linspace(float(lo), float(hi), int(n))]


def cell(value: float) -> str:
    return f"{value:.12g}"


def _winner_row(p: dict, row: dict, what: str) -> list[str]:
    if row.get("error"):
        return [f"{what}: error column set: {row['error']!r}"]
    return threshold_side(p, row["winner"], float(row["theta_star"]), what)


def boundary_point(p: dict, lam: float, big_l: float) -> list[str]:
    """The oracle's winner differs at big_l - tol and big_l + tol."""
    sides = [oracle.winner(oracle.platform(_with(p, lam=lam, big_l=big_l + d)))
             for d in (-BOUNDARY_TOL, BOUNDARY_TOL)]
    if sides[0] == sides[1]:
        return [f"boundary point lambda={lam:g} L={big_l:.10g}: the oracle winner is "
                f"{sides[0]} on both sides (tol {BOUNDARY_TOL:g})"]
    return []


def _with(p: dict, **kw) -> dict:
    return {**p, **kw}


SWEEP_FIELDS = {"lambda": "lam", "q": "q", "kappa": "kappa", "c_n": "c_n", "big_l": "big_l", "c_w": "c_w"}

MAP_HEADER = ["lambda", "big_l", "winner", "theta_star", "n_star", "total", "error"]
SWEEP_HEADER = ["param_name", "param_value", "theta_star", "n_star", "total", "winner"]
WELFARE_HEADER = ["big_l", "s1_total", "s4_total", "gap", "gap_pct_of_s4"]
FIG4_HEADER = ["lam", "n_star_a", "n_star_i"]
BOUNDARY_HEADER = ["lambda", "l_boundary"]
SIM_HEADER = ["mean_wait", "wait_stderr", "mean_system_time", "system_time_stderr", "utilization",
              "utilization_stderr", "error_rate", "error_rate_stderr", "customers_counted",
              "analytic_w_q", "analytic_rho", "rng_algorithm", "seed"]


def planning_output(kind: str, p: dict, argv: list[str], texts: dict[str, str],
                    full: bool) -> tuple[int, list[str]]:
    """Check the files one planning command wrote; return (rows, messages).

    ``texts`` maps "out", "out.manifest", and for boundary runs "bnd" and
    "bnd.manifest" to file contents.  Row counts and columns are checked on
    every operation; ``full`` adds the oracle on every row."""
    grids = [argv[i + 1] for i, a in enumerate(argv) if a == "--grid"]
    errs = manifest(texts["out.manifest"], argv[0], argv)
    if kind in ("regime-map", "boundary"):
        (_, lams), (_, ls) = grid_values(grids[0]), grid_values(grids[1])
        rows, e = read_csv(texts["out"], MAP_HEADER)
        errs += e
        keys = [(cell(a), cell(b)) for a in lams for b in ls]
        if [(r["lambda"], r["big_l"]) for r in rows] != keys:
            errs.append(f"{kind}: map rows do not follow the grid")
        for (lam, big_l), row in zip([(a, b) for a in lams for b in ls], rows):
            q = _with(p, lam=lam, big_l=big_l)
            what = f"{kind} cell lambda={lam:g} L={big_l:g}"
            errs += _winner_row(q, row, what)
            if full and not row.get("error"):
                errs += platform_answer(q, oracle.platform(q), row["winner"], float(row["theta_star"]),
                                        int(row["n_star"]), float(row["total"]), what)
        n_rows = len(rows)
        if kind == "boundary":
            errs += manifest(texts["bnd.manifest"], "regime-map-boundary", argv)
            points, e = read_csv(texts["bnd"], BOUNDARY_HEADER)
            errs += e
            n_rows += len(points)
            for pt in points:
                lam, lb = float(pt["lambda"]), float(pt["l_boundary"])
                if cell(lam) not in {cell(v) for v in lams} or not min(ls) <= lb <= max(ls):
                    errs.append(f"boundary point ({lam:g}, {lb:g}) lies off the grid")
                elif full:
                    errs += boundary_point(p, lam, lb)
        return n_rows, errs
    if kind.startswith("sweep"):
        name, values = grid_values(grids[0])
        rows, e = read_csv(texts["out"], SWEEP_HEADER)
        errs += e
        if [(r["param_name"], r["param_value"]) for r in rows] != [(name, cell(v)) for v in values]:
            errs.append(f"{kind}: rows do not follow the grid")
        for v, row in zip(values, rows):
            q = _with(p, **{SWEEP_FIELDS[name]: v})
            what = f"{kind} {name}={v:g}"
            errs += _winner_row(q, row, what)
            if full:
                errs += platform_answer(q, oracle.platform(q), row["winner"], float(row["theta_star"]),
                                        int(row["n_star"]), float(row["total"]), what)
        return len(rows), errs
    if kind == "welfare":
        _, values = grid_values(grids[0])
        rows, e = read_csv(texts["out"], WELFARE_HEADER)
        errs += e
        if [r["big_l"] for r in rows] != [cell(v) for v in values]:
            errs.append("welfare: rows do not follow the grid")
        for v, row in zip(values, rows):
            s1, s4, gap, pct = (float(row[k]) for k in WELFARE_HEADER[1:])
            what = f"welfare L={v:g}"
            scale = 1e-9 * max(abs(s1), abs(s4))  # gap cancels digits of the 12-digit totals
            if abs(gap - (s1 - s4)) > scale or abs(pct - 100.0 * gap / s4) > 100.0 * scale / s4:
                errs.append(f"{what}: gap columns disagree with the totals")
            if full:
                q = _with(p, big_l=v)
                errs += platform_total(oracle.platform(q), s1, what)
                o_total = oracle.social(q)[2]
                if not _close(s4, o_total):
                    errs.append(f"{what}: social total {s4!r}, oracle {o_total!r}")
        return len(rows), errs
    if kind == "fig4":
        npoints = int(argv[argv.index("--npoints") + 1])
        values = [float(v) for v in np.linspace(25.0, 90.0, npoints)]
        rows, e = read_csv(texts["out"], FIG4_HEADER)
        errs += e
        if [r["lam"] for r in rows] != [cell(v) for v in values]:
            errs.append("fig4: rows do not follow the grid")
        if full:
            for v, row in zip(values, rows):
                q = _with(p, lam=v)
                td = oracle.theta_d(q)
                errs += regime_n(oracle.Regime(q, "A", 0.0, min(1.0, td)), int(row["n_star_a"]),
                                 f"fig4 lambda={v:g}")
                errs += regime_n(oracle.Regime(q, "I", min(1.0, td + oracle.REGIME_I_EPS), 1.0),
                                 int(row["n_star_i"]), f"fig4 lambda={v:g}")
        return len(rows), errs
    if kind.startswith("simulate"):
        rows, e = read_csv(texts["out"], SIM_HEADER)
        errs += e
        if len(rows) != 1:
            return len(rows), errs + [f"{kind}: {len(rows)} rows"]
        errs += simulation_row(p, argv, rows[0], kind)
        return 1, errs
    return 0, [f"unknown planning command kind {kind!r}"]


def simulation_row(c: dict, argv: list[str], row: dict, what: str) -> list[str]:
    """One `simulate` CSV row: the analytic columns against the oracle, the
    counted customers and seed against the request, estimates finite."""
    lam, mu, n = c["lam"], c["mu"], c["n"]
    customers = int(argv[argv.index("--customers") + 1])
    errs = []
    if not _close(float(row["analytic_w_q"]), oracle.wq(lam, mu, n), 1e-9):
        errs.append(f"{what}: analytic_w_q {row['analytic_w_q']}, oracle {oracle.wq(lam, mu, n)!r}")
    if not _close(float(row["analytic_rho"]), lam / (n * mu), 1e-9):
        errs.append(f"{what}: analytic_rho {row['analytic_rho']}")
    if int(row["customers_counted"]) != customers - customers // 10 or row["seed"] != argv[argv.index("--seed") + 1]:
        errs.append(f"{what}: counted {row['customers_counted']} customers with seed {row['seed']}")
    if not all(math.isfinite(float(row[k])) for k in SIM_HEADER[:8]):
        errs.append(f"{what}: non-finite estimate in {row}")
    return errs


# -- simulations --------------------------------------------------------------

def pooled(values: list[float], target: float, what: str) -> list[str]:
    """Mean of independent replications within POOLED_Z standard errors."""
    m = statistics.fmean(values)
    se = statistics.stdev(values) / math.sqrt(len(values))
    if abs(m - target) > POOLED_Z * se:
        return [f"{what}: pooled {m:.6g} is {abs(m - target) / se:.1f} standard errors "
                f"from {target:.6g} over {len(values)} replications"]
    return []


def coverage(means: list[float], stderrs: list[float], target: float, what: str) -> list[str]:
    hits = sum(abs(m - target) <= T_19 * se for m, se in zip(means, stderrs))
    share = hits / len(means)
    if share < MIN_COVERAGE:
        return [f"{what}: 95% intervals cover the analytic value in {share:.0%} of "
                f"{len(means)} replications (need {MIN_COVERAGE:.0%})"]
    return []


def simulations(lam: float, mu: float, n: int, error_prob: float, results: list,
                 what: str) -> list[str]:
    """results: (mean_wait, wait_stderr, utilization, error_rate) per replication."""
    w_q = oracle.wq(lam, mu, n)
    means = [r[0] for r in results]
    errs = pooled(means, w_q, f"{what} mean wait")
    errs += coverage(means, [r[1] for r in results], w_q, f"{what} mean wait")
    errs += pooled([r[2] for r in results], lam / (n * mu), f"{what} utilization")
    if error_prob > 0.0:
        errs += pooled([r[3] for r in results], error_prob, f"{what} error rate")
    elif any(r[3] != 0.0 for r in results):
        errs.append(f"{what}: errors drawn with error probability 0")
    return errs
