"""Command-line entry point.

Exit codes: 0 success, 1 domain errors (infeasible constraint sets, unstable
queues), 2 usage and config-parse errors. All currency output is dollars per
hour unless --thousands is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from . import __version__
from .analysis import (
    FIGURE_IDS,
    BoundaryPoint,
    RegimeCell,
    SweepRow,
    figure_data,
    linspace,
    monotone_violations,
    regime_boundary,
    regime_map,
    sensitivity_sweep,
    welfare_curve,
)
from .errors import InfeasibleError, ParameterError, UnstableError
from .output import render_csv, to_json, write_csv, write_manifest
from .params import BASELINE, FIELD_BY_NAME, ModelParams, _read, load_params
from .physician import _theta_d, threshold
from .platform_opt import CostBreakdown, RegimeResult
from .queueing import queue_metrics
from .scenario import (
    DEFAULT_ALPHA,
    DEFAULT_THETA_FLOOR,
    SCENARIO_IDS,
    compare_scenarios,
    make_scenario,
    optimize_platform,
)
from .simulator import SimConfig, SimResult, check_config, simulate

CONFIG_ENV_VAR = "LIABSTAFF_CONFIG"

# the grids regime-map and welfare run without --grid, as name -> lo:hi:npoints
DEFAULT_GRIDS = {"lambda": "25:90:25", "big_l": "800:5000:25"}

# the four cost terms, then their total
_COST_FIELDS = [f.name for f in dataclasses.fields(CostBreakdown)]

SCENARIO_CSV_HEADER = ["id", "mode", "theta", "n", *_COST_FIELDS, "pct_vs_s1"]


def _parse(argv: list[str]) -> tuple[argparse.Namespace, ModelParams | None]:
    """Parse a run's argv and resolve its parameter set once: --config, else
    $LIABSTAFF_CONFIG, else the baseline; None for a command without --config."""
    args = _parser().parse_args(argv)
    args.argv = argv
    for dest in ("out", "boundary_out"):
        if getattr(args, dest, None) == "":
            raise ParameterError(f"--{dest.replace('_', '-')} needs a file path, got an empty one")
    if not hasattr(args, "config"):
        return args, None
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    return args, load_params(path) if path else BASELINE


def _parse_grid(spec: str) -> tuple[str, list[float]]:
    """Parse ``name=lo:hi:npoints`` into (name, linspace); a point count
    whose list does not fit in memory raises ParameterError."""
    try:
        name, _, rng = spec.partition("=")
        lo_s, hi_s, n_s = rng.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise ParameterError(
            f"bad grid spec {spec!r}; expected name=lo:hi:npoints"
        ) from None
    if n < 1:
        raise ParameterError(f"grid {spec!r} needs at least one point")
    try:
        return name.strip(), linspace(lo, hi, n)
    except MemoryError:
        raise ParameterError(f"grid {spec!r} must fit in memory") from None


def _money(value: float, thousands: bool) -> str:
    if thousands:
        return f"{value / 1000.0:.6g}k"
    return f"{value:.6g}"


def _emit(args, p: ModelParams | None, header, rows, out=None, command=None) -> None:
    """Write the CSV and the run's manifest to ``out`` (default --out), else print the CSV."""
    out = out or args.out
    if out:
        write_csv(out, header, rows)
        write_manifest(out, command or args.command, args.argv, p, __version__)
        print(f"wrote {out}")
    else:
        sys.stdout.write(render_csv(header, rows))


def _record_table(record_type, records) -> tuple[list[str], list[tuple]]:
    """(header, rows) of one dataclass's records: a column per field in field
    order, the parameter field lam headed by its outside name lambda."""
    fields = [f.name for f in dataclasses.fields(record_type)]
    outside = {field: name for name, field in FIELD_BY_NAME.items()}
    rows = [tuple(getattr(r, name) for name in fields) for r in records]
    return [outside.get(name, name) for name in fields], rows


def _regime_summary(label: str, res: RegimeResult, thousands: bool) -> list[str]:
    if not res.feasible:
        return [f"{label}: infeasible (empty liability interval)"]
    b, c = res.best, res.cost
    return [
        f"{label}: theta={b.theta:.6g}, N={b.n}, total={_money(c.total, thousands)}",
        "  " + " ".join(f"{name}={_money(getattr(c, name), thousands)}" for name in _COST_FIELDS[:-1]),
    ]


def _cmd_solve(args, p: ModelParams) -> int:
    sol = optimize_platform(p, args.theta_lo, args.theta_hi)
    theta_d = _theta_d(p)
    win, lose = sol.winner, (sol.regime_i if sol.winner is sol.regime_a else sol.regime_a)
    if args.json:
        print(to_json(_solution_dict(sol, theta_d)))
        return 0
    print(f"winner: Regime {win.regime.value}, theta={win.best.theta:.6g}, N={win.best.n}")
    for line in _regime_summary(f"Regime {win.regime.value} (winner)", win, args.thousands):
        print(line)
    for line in _regime_summary(f"Regime {lose.regime.value} (runner-up)", lose, args.thousands):
        print(line)
    print(f"physician threshold theta_d={theta_d:.6g}")
    return 0


def _solution_dict(sol, theta_d: float) -> dict:
    def reg(r: RegimeResult) -> dict:
        if not r.feasible:
            return {"regime": r.regime, "feasible": False}
        return {
            "regime": r.regime,
            "feasible": True,
            "theta": r.best.theta,
            "n": r.best.n,
            "cost": r.cost,
            "theta_unconstrained": r.theta_unconstrained,
            "n_searched": r.n_searched,
        }

    return {
        "winner": sol.winner.regime,
        "regime_a": reg(sol.regime_a),
        "regime_i": reg(sol.regime_i),
        "theta_d": theta_d,
    }


def _cmd_threshold(args, p: ModelParams) -> int:
    rep = threshold(p)
    if args.json:
        print(to_json(rep))
        return 0
    print(f"theta_d = {rep.theta_d:.12g}")
    print(f"d/dq      = {rep.d_dq:.12g}")
    print(f"d/dh      = {rep.d_dh:.12g}")
    print(f"d/dL      = {rep.d_dl:.12g}")
    print(f"d/ddelta_k = {rep.d_ddelta_k:.12g}")
    return 0


def _cmd_scenario(args, p: ModelParams) -> int:
    if args.json and args.out:
        raise ParameterError("--json prints to stdout and cannot be combined with --out")
    ids = [s.strip().upper() for s in args.scenarios.split(",") if s.strip()]
    specs = [make_scenario(sid, alpha=args.alpha, theta_floor=args.theta_floor) for sid in ids]
    rows = compare_scenarios(specs, p)
    results = [(row.result, row.pct_vs_s1) for row in rows]
    if args.json:
        print(to_json([
            {"id": r.id, "feasible": r.feasible, "reason": r.reason,
             "policy": r.policy, "cost": r.cost, "pct_vs_s1": pct}
            for r, pct in results
        ]))
        return 0
    blank = [None] * (len(SCENARIO_CSV_HEADER) - 1)
    csv_rows = [
        (r.id, r.policy.mode, r.policy.theta, r.policy.n,
         *[getattr(r.cost, name) for name in _COST_FIELDS], pct)
        if r.feasible else (r.id, *blank)
        for r, pct in results
    ]
    _emit(args, p, SCENARIO_CSV_HEADER, csv_rows)
    _print_scenario_notes(rows, args.thousands)
    return 0


def _print_scenario_notes(rows, thousands: bool) -> None:
    by_id = {row.result.id: row.result for row in rows}
    s1, s4 = by_id.get("S1"), by_id.get("S4")
    if s1 and s4 and s1.feasible and s4.feasible:
        gap = s1.cost.total - s4.cost.total
        print(
            f"note: welfare gap S1-S4 = {_money(gap, thousands)} "
            f"({100 * gap / s1.cost.total:.1f}% of S1, {100 * gap / s4.cost.total:.1f}% of S4)",
            file=sys.stderr,
        )
    s0 = by_id.get("S0")
    if s0 and s0.feasible:
        print(
            "note: S0 is the cost-model value at the cost-minimizing staffing for a "
            "forced independent mode at theta=0.5; it is not calibrated to any "
            "externally published benchmark figure.",
            file=sys.stderr,
        )


def _cmd_regime_map(args, p: ModelParams) -> int:
    grids = dict(_parse_grid(f"{name}={spec}") for name, spec in DEFAULT_GRIDS.items())
    for spec in args.grid or []:
        name, values = _parse_grid(spec)
        if name not in grids:
            raise ParameterError(f"regime-map grids must be lambda=... or big_l=..., got {name!r}")
        grids[name] = values
    lam_grid, l_grid = grids["lambda"], grids["big_l"]
    # solve everything before writing anything: a run that fails writes no file
    if args.boundary_out:
        points = regime_boundary(p, lam_grid, min(l_grid), max(l_grid), tol=args.tol)
    cells = regime_map(p, lam_grid, l_grid)
    _emit(args, p, *_record_table(RegimeCell, cells))
    if args.boundary_out:
        # written before its warnings, so a file that cannot be written prints one error line
        _emit(args, p, *_record_table(BoundaryPoint, points), args.boundary_out, "regime-map-boundary")
        for a, b in monotone_violations(points):
            print(
                f"warning: boundary not nondecreasing between lambda={a.lam:g} "
                f"(L={a.l_boundary:g}) and lambda={b.lam:g} (L={b.l_boundary:g})",
                file=sys.stderr,
            )
    return 0


def _cmd_sweep(args, p: ModelParams) -> int:
    name, values = _parse_grid(args.grid)
    _emit(args, p, *_record_table(SweepRow, sensitivity_sweep(p, name, values)))
    return 0


def _cmd_welfare(args, p: ModelParams) -> int:
    name, values = _parse_grid(args.grid or f"big_l={DEFAULT_GRIDS['big_l']}")
    if name != "big_l":
        raise ParameterError(f"welfare sweeps big_l only, got {name!r}")
    rows = welfare_curve(p, values)
    header = ["big_l", "s1_total", "s4_total", "gap", "gap_pct_of_s4"]
    _emit(args, p, header, rows)
    return 0


def _cmd_figure(args, p: ModelParams) -> int:
    header, rows = figure_data(args.which, p, args.npoints, args.criterion)
    _emit(args, p, header, rows)
    return 0


def _analytic(cfg: SimConfig):
    """Check cfg, then the analytic domain, before any customer is simulated:
    the QueueMetrics of one configuration."""
    check_config(cfg)
    return queue_metrics(cfg.lam, cfg.mu, cfg.n)


def _cmd_simulate(args, _p: None) -> int:
    cfg = SimConfig(
        lam=args.lam,
        mu=args.mu,
        n=args.n,
        customers=args.customers,
        seed=args.seed,
        warmup=args.warmup,
        error_prob=args.error_prob,
    )
    analytic = _analytic(cfg)
    result = simulate(cfg)
    if args.out:
        # SimResult's estimates in field order, the analytic values, then
        # what reproduces the draws: SimResult's last field and the seed
        header, (row,) = _record_table(SimResult, [result])
        _emit(args, None, [*header[:-1], "analytic_w_q", "analytic_rho", header[-1], "seed"],
              [(*row[:-1], analytic.w_q, analytic.rho, row[-1], args.seed)])
    else:
        print(f"mean_wait = {result.mean_wait:.6g} +- {result.wait_stderr:.2g} h "
              f"(analytic {analytic.w_q:.6g} h)")
        print(f"utilization = {result.utilization:.4g} (analytic {analytic.rho:.4g})")
        print(f"error_rate = {result.error_rate:.4g} +- {result.error_rate_stderr:.2g}")
    return 0


_VALIDATE_CONFIGS = ((50.0, 12.0, 5), (50.0, 6.0, 10))


def _cmd_validate(args, _p: None) -> int:
    cfgs = [SimConfig(lam=lam, mu=mu, n=n, customers=args.customers, seed=args.seed)
            for lam, mu, n in _VALIDATE_CONFIGS]
    # check every configuration before printing: a refused run prints nothing
    analytics = [_analytic(cfg) for cfg in cfgs]
    ok = True
    print(f"{'lambda':>8} {'mu':>6} {'n':>3} {'sim_wq':>10} {'analytic':>10} {'stderr':>9}  result")
    for cfg, analytic in zip(cfgs, analytics):
        res, wq = simulate(cfg), analytic.w_q
        passed = abs(res.mean_wait - wq) <= 3.0 * res.wait_stderr
        ok = ok and passed
        print(
            f"{cfg.lam:8g} {cfg.mu:6g} {cfg.n:3d} {res.mean_wait:10.5f} {wq:10.5f} "
            f"{res.wait_stderr:9.5f}  {'PASS' if passed else 'FAIL'}"
        )
    return 0 if ok else 1


def _cmd_rerun(args, _p: None) -> int:
    path = args.manifest
    try:
        manifest = json.loads(_read(path, "manifest"))
    except json.JSONDecodeError as exc:
        raise ParameterError(f"manifest {path} is not valid JSON: {exc}") from None
    argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise ParameterError(f'manifest {path} has no "argv" list of strings')
    if argv[:1] == ["rerun"]:
        # written manifests record the command that wrote them, never a rerun
        raise ParameterError(f"manifest {path} reruns a manifest; give that manifest instead")
    rerun, p = _parse(argv)
    recorded = manifest.get("params")
    if recorded is not None and p is not None:  # simulate records none
        params = dataclasses.asdict(p)
        if params != recorded:
            changed = [k for k in params if not isinstance(recorded, dict) or recorded.get(k) != params[k]]
            raise ParameterError(f"manifest {path} recorded other values of {', '.join(changed)} "
                                 "than this rerun resolves; rerun with the config it was written with")
    return rerun.func(rerun, p)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on the first ``main`` call and reused:
    each parse_args call fills a fresh namespace and copies a list before
    appending to it, so no call sees the arguments of another."""
    parser = argparse.ArgumentParser(
        prog="liabstaff",
        description="Liability-share and staffing optimization for AI-assisted "
        "consultation platforms.",
    )
    parser.add_argument("--version", action="version", version=f"liabstaff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # each option that more than one command takes, declared once as a parent parser
    config, thousands, as_json, out, draws = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    config.add_argument("--config", help="key = value parameter file "
                        f"(default: ${CONFIG_ENV_VAR} or built-in baseline)")
    thousands.add_argument("--thousands", action="store_true",
                           help="display currency in thousands of dollars")
    as_json.add_argument("--json", action="store_true", help="emit JSON instead of text")
    out.add_argument("--out", help="CSV output path (default: print to stdout)")
    draws.add_argument("--customers", type=int, default=200_000)
    draws.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("solve", help="optimal liability share, staffing, and regime",
                        parents=[config, thousands, as_json])
    sp.add_argument("--theta-lo", type=float, default=0.0, help="lower liability bound (default 0)")
    sp.add_argument("--theta-hi", type=float, default=1.0, help="upper liability bound (default 1)")
    sp.set_defaults(func=_cmd_solve)

    sub.add_parser("threshold", help="physician indifference share and sensitivities",
                   parents=[config, as_json]).set_defaults(func=_cmd_threshold)

    sp = sub.add_parser("scenario", help="run policy scenarios S0..S4",
                        parents=[config, thousands, as_json, out])
    sp.add_argument("--scenarios", default=",".join(SCENARIO_IDS), help="comma list, e.g. S0,S1,S4")
    sp.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                    help=f"minimum platform liability fraction for S2 (default {DEFAULT_ALPHA})")
    sp.add_argument("--theta-floor", type=float, default=DEFAULT_THETA_FLOOR,
                    help=f"minimum physician share for S3 (default {DEFAULT_THETA_FLOOR})")
    sp.set_defaults(func=_cmd_scenario)

    sp = sub.add_parser("regime-map", help="optimal-mode map over the (lambda, L) plane",
                        parents=[config, out])
    sp.add_argument("--grid", action="append",
                    help="lambda=lo:hi:n or big_l=lo:hi:n "
                    f"(repeatable; defaults {', '.join(DEFAULT_GRIDS.values())})")
    sp.add_argument("--boundary-out", help="also bisect and write the regime boundary CSV")
    sp.add_argument("--tol", type=float, default=1.0, help="boundary bisection tolerance in dollars")
    sp.set_defaults(func=_cmd_regime_map)

    sp = sub.add_parser("sweep", help="one-parameter sensitivity sweep", parents=[config, out])
    sp.add_argument("--grid", required=True, help="name=lo:hi:n, e.g. q=0.80:0.94:15")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("welfare", help="platform-vs-social cost gap across loss severity",
                        parents=[config, out])
    sp.add_argument("--grid", help=f"big_l=lo:hi:n (default {DEFAULT_GRIDS['big_l']})")
    sp.set_defaults(func=_cmd_welfare)

    sp = sub.add_parser("figure", help="plot-ready data tables for the expository figures",
                        parents=[config, out])
    sp.add_argument("--which", required=True, choices=FIGURE_IDS)
    sp.add_argument("--npoints", type=int, default=101)
    sp.add_argument("--criterion", default="cost-optimal", choices=("cost-optimal", "min-stable"),
                    help="staffing criterion for fig4")
    sp.set_defaults(func=_cmd_figure)

    sp = sub.add_parser("simulate", help="seeded discrete-event M/M/N replication", parents=[draws, out])
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--error-prob", type=float, default=0.0)
    sp.add_argument("--warmup", type=int, default=None, help="customers discarded (default 10%%)")
    sp.set_defaults(func=_cmd_simulate)

    sub.add_parser("validate", help="simulated waits vs analytic formulas, pass/fail table",
                   parents=[draws]).set_defaults(func=_cmd_validate)

    sp = sub.add_parser("rerun", help="re-run a command from an output manifest")
    sp.add_argument("--manifest", required=True)
    sp.set_defaults(func=_cmd_rerun)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args, p = _parse(argv)
        return args.func(args, p)
    except (InfeasibleError, ParameterError, UnstableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParameterError) else 1


if __name__ == "__main__":
    sys.exit(main())
