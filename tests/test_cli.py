import dataclasses
import csv
import heapq
import io
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liabstaff import BASELINE, SimConfig, analysis, cli, min_staffing, params, queue_metrics, simulate
from liabstaff.analysis import SWEEPABLE, regime_map
from liabstaff.output import fmt, render_csv, to_json

from oracles import random_valid_params
from runners import run_cli, run_fresh


@pytest.fixture(autouse=True)
def _without_config_env_var(monkeypatch):
    # a developer's $LIABSTAFF_CONFIG would change every run without --config
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)


def assert_usage_error(cp: subprocess.CompletedProcess) -> None:
    assert cp.returncode == 2
    assert cp.stderr.startswith("error: ")
    assert "Traceback" not in cp.stderr


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    for command in ("solve", "threshold", "scenario", "regime-map", "sweep",
                    "welfare", "figure", "simulate", "validate"):
        assert command in cp.stdout


def test_import_leaves_numpy_unloaded():
    # only the simulator needs numpy, and it imports it when it runs; nothing
    # loads array. The parser is built by the first main() call, not at import
    code = (
        "import liabstaff.cli, sys; "
        "assert 'numpy' not in sys.modules; "
        "assert 'array' not in sys.modules; "
        "assert liabstaff.cli._parser.cache_info().currsize == 0"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_unknown_command_exits_2():
    cp = run_cli("frobnicate")
    assert cp.returncode == 2


def test_entry_point_exits_with_main_code():
    # the one check of __main__.py: python -m liabstaff exits with main's code
    cp = run_fresh("--version")
    assert (cp.returncode, cp.stdout) == (0, "liabstaff 0.1.0\n")
    assert run_fresh("frobnicate").returncode == 2


def test_solve_with_config(tmp_path: Path):
    cfg = tmp_path / "high_loss.cfg"
    cfg.write_text("big_l = 5000\n")
    cp = run_cli("solve", "--config", str(cfg))
    assert cp.returncode == 0
    assert "winner: Regime I" in cp.stdout


def test_solve_missing_config_names_path(tmp_path: Path):
    # a missing file, a directory and a file that is not UTF-8 text
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"big_l = 3000\n\xff\n")
    for path in ("/nonexistent/params.cfg", str(tmp_path), str(binary)):
        cp = run_cli("solve", "--config", path)
        assert_usage_error(cp)
        assert path in cp.stderr
    assert run_cli("solve", "--config", "/nonexistent/params.cfg").stderr == (
        "error: config file not found: /nonexistent/params.cfg\n"
    )


def test_solve_bad_config_reports_line(tmp_path: Path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lambda = 50\nmu_b = 3\n")
    cp = run_cli("solve", "--config", str(cfg))
    assert cp.returncode == 2
    assert "line 2" in cp.stderr
    # a value that is not finite, or a finite one outside the box
    cfg.write_text("lambda = inf\n")
    for command in ("solve", "scenario"):
        cp = run_cli(command, "--config", str(cfg))
        assert_usage_error(cp)
        assert "must be finite" in cp.stderr
    for text in ("big_l = 1e308\n", "big_l = 1e308\nkappa = 1e308\n",
                 "c_w = 1e308\n", "c_n = 1e308\n", "kappa = 1e308\n"):
        cfg.write_text(text)
        for command in ("solve", "scenario"):
            cp = run_cli(command, "--config", str(cfg))
            assert_usage_error(cp)
            assert "must lie in [1e-30, 1e+30], got 1e+308" in cp.stderr
    # sets whose output would overflow to inf: a total (c_n = kappa = 1.5e307),
    # pct_vs_s1 (1e307), d/dq (h - q = 1e-160), and theta_d and every
    # sensitivity (big_l = 1e-320)
    for text, message in (("c_n = 1.5e307\nkappa = 1.5e307\n", "got 1.5e+307"),
                          ("c_n = 1e307\nkappa = 1e307\n", "got 1e+307"),
                          ("q = 1e-160\nh = 2e-160\n", "h - q must be at least 1e-30"),
                          ("big_l = 1e-320\n", "big_l must lie in [1e-30, 1e+30], got 1e-320")):
        cfg.write_text(text)
        for command in ("solve", "scenario", "threshold"):
            cp = run_cli(command, "--config", str(cfg))
            assert_usage_error(cp)
            assert message in cp.stderr
    # lambda / mu_i overflows to inf: reported as over the offered-load limit
    cfg.write_text("mu_i = 1e-307\n")
    for command in ("solve", "scenario"):
        cp = run_cli(command, "--config", str(cfg))
        assert_usage_error(cp)
        assert "offered-load limit" in cp.stderr
    # h - q below its floor, so small that the threshold's denominators
    # would underflow to 0
    for text in ("q = 1e-200\nh = 2e-200\n", "q = 1e-200\nh = 2e-200\nbig_l = 1e-200\n"):
        cfg.write_text(text)
        for command in ("solve", "scenario", "threshold"):
            cp = run_cli(command, "--config", str(cfg))
            assert_usage_error(cp)
            assert "q = 1e-200, h = 2e-200" in cp.stderr


def test_solve_infeasible_interval_exits_1(tmp_path: Path):
    # force theta_d above 1 so regime I is empty, then restrict to shares
    # regime A cannot reach either
    cfg = tmp_path / "tiny_loss.cfg"
    cfg.write_text("big_l = 80\n")
    cp = run_cli("solve", "--config", str(cfg), "--theta-lo", "0.9", "--theta-hi", "0.9")
    assert cp.returncode == 0  # regime A still covers [0.9, 0.9]
    cp = run_cli("solve", "--theta-lo", "0.7", "--theta-hi", "0.7")
    assert cp.returncode == 0  # regime I covers it at baseline
    assert "winner: Regime I" in cp.stdout
    assert_usage_error(run_cli("solve", "--theta-lo", "2"))
    # theta_d = 0.6 (0.6000000000000008): the share 0.6000005 lies above it
    # but below theta_d + REGIME_I_EPS, so neither regime may search it
    cp = run_cli("solve", "--theta-lo", "0.6000005", "--theta-hi", "0.6000005")
    assert (cp.returncode, cp.stdout, cp.stderr) == (
        1, "", "error: no feasible policy in [0.600001, 0.600001] (threshold 0.6)\n"
    )


def test_scenario_csv(tmp_path: Path):
    out = tmp_path / "scenarios.csv"
    cp = run_cli("scenario", "--scenarios", "S1,S4", "--out", str(out))
    assert cp.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("id,mode,theta,n,risk")
    assert len(lines) == 3
    assert lines[1].startswith("S1,A,")
    assert lines[2].startswith("S4,I,")
    # sidecar manifest exists and can re-run the command
    manifest = Path(str(out) + ".manifest.json")
    assert manifest.exists()
    payload = json.loads(manifest.read_text())
    assert set(payload) == {"command", "argv", "params", "tool_version", "timestamp", "outputs"}
    assert payload["command"] == "scenario"
    assert payload["params"]["lam"] == 50.0


def test_scenario_json_refuses_out(tmp_path: Path):
    # --json prints to stdout, so an --out beside it would be dropped
    cp = run_cli("scenario", "--json", "--out", str(tmp_path / "s.json"))
    assert_usage_error(cp)
    assert (cp.stdout, cp.stderr.count("\n")) == ("", 1)
    assert list(tmp_path.iterdir()) == []


def _in_dir(directory: Path, argv: list[str]) -> list[str]:
    """argv with each {tmp} standing for directory."""
    return [arg.replace("{tmp}", str(directory)) for arg in argv]


@pytest.mark.parametrize("argv", [
    ["sweep", "--grid", "q=0.8:0.9:3", "--out", "{tmp}/missing/x.csv"],
    ["scenario", "--out", "{tmp}"],
    ["simulate", "--lambda", "50", "--mu", "12", "--n", "5", "--customers", "1000",
     "--out", "{tmp}/missing/x.csv"],
    ["regime-map", "--grid", "lambda=25:90:3", "--grid", "big_l=800:5000:3", "--out", "{tmp}/map.csv",
     "--boundary-out", "{tmp}/missing/b.csv"],
])
def test_unwritable_output_path_exits_2(tmp_path: Path, argv):
    cp = run_cli(*_in_dir(tmp_path, argv))
    assert_usage_error(cp)
    assert cp.stderr.startswith(f"error: cannot write {tmp_path}")
    # a file written before the unwritable one is kept, with its manifest
    kept = ["map.csv", "map.csv.manifest.json"] if argv[0] == "regime-map" else []
    assert sorted(path.name for path in tmp_path.iterdir()) == kept


@pytest.mark.parametrize("argv, option", [
    (["sweep", "--grid", "q=0.8:0.9:2", "--out", ""], "--out"),
    (["simulate", "--lambda", "50", "--mu", "12", "--n", "5", "--customers", "1000", "--out", ""], "--out"),
    (["scenario", "--out", ""], "--out"),
    (["regime-map", "--grid", "lambda=25:90:3", "--grid", "big_l=800:5000:3", "--boundary-out", ""],
     "--boundary-out"),
    (["regime-map", "--grid", "lambda=25:90:3", "--grid", "big_l=800:5000:3", "--out", "map.csv",
      "--boundary-out", ""], "--boundary-out"),
])
def test_empty_output_path_exits_2(tmp_path: Path, monkeypatch, argv, option):
    # an empty path is not "no path": the asked-for output would be dropped
    monkeypatch.chdir(tmp_path)
    cp = run_cli(*argv)
    assert_usage_error(cp)
    assert (cp.stdout, cp.stderr.count("\n")) == ("", 1)
    assert cp.stderr.startswith(f"error: {option} ")
    assert list(tmp_path.iterdir()) == []


def test_scenario_stdout_default():
    cp = run_cli("scenario", "--scenarios", "S1")
    assert cp.returncode == 0
    assert cp.stdout.splitlines()[0].startswith("id,mode")
    assert_usage_error(run_cli("scenario", "--alpha", "2"))
    assert_usage_error(run_cli("scenario", "--theta-floor", "0"))
    assert_usage_error(run_cli("scenario", "--scenarios", ","))


SWEEP_CSV_Q_15 = (
    "param_name,param_value,theta_star,n_star,total,winner\n"
    "q,0.8,0.200001,10,8615.71295603,I\n"
    "q,0.81,0.214286714286,10,8692.24428256,I\n"
    "q,0.82,0.230770230769,10,8793.22928739,I\n"
    "q,0.83,0.250001,10,8928.21545603,I\n"
    "q,0.84,0.272728272727,10,9111.58436099,I\n"
    "q,0.85,0.300001,10,9365.71795603,I\n"
    "q,0.86,0.333334333333,10,9726.83073381,I\n"
    "q,0.87,0.375001,10,10256.346706,I\n"
    "q,0.88,0.428572428571,10,11064.7039764,I\n"
    "q,0.89,0.44,5,10670.110381,A\n"
    "q,0.9,0.4,5,10090.110381,A\n"
    "q,0.91,0.36,5,9470.11038104,A\n"
    "q,0.92,0.32,5,8810.11038104,A\n"
    "q,0.93,0.28,5,8110.11038104,A\n"
    "q,0.94,0.2,6,7336.51556133,A\n"
)


def test_sweep_csv_golden_bytes(tmp_path: Path):
    out = tmp_path / "sweep.csv"
    cp = run_cli("sweep", "--grid", "q=0.80:0.94:15", "--out", str(out))
    assert cp.returncode == 0
    assert out.read_bytes() == SWEEP_CSV_Q_15.encode()


def test_sweep_bad_grid_exits_2():
    for grid in ("q=nope", "foo=1:2:3"):
        assert_usage_error(run_cli("sweep", "--grid", grid))


@pytest.mark.parametrize("command, message", [
    ("regime-map", "regime-map grids must be lambda=... or big_l=..., got 'q'"),
    ("welfare", "welfare sweeps big_l only, got 'q'"),
])
def test_grid_of_another_parameter_exits_2(command, message):
    cp = run_cli(command, "--grid", "q=0.8:0.9:2")
    assert (cp.returncode, cp.stdout, cp.stderr) == (2, "", f"error: {message}\n")


REGIME_MAP_CSV = (
    "lambda,big_l,winner,theta_star,n_star,total,error\n"
    "40,1000,A,0.16,5,5278.00078401,\n"
    "40,2333.33333333,A,0.466666666667,4,8948.8467947,\n"
    "40,3666.66666667,I,0.327273727273,8,10075.0027842,\n"
    "40,5000,I,0.25,8,11749.5149329,\n"
    "50,1000,A,0.166666666667,6,6519.84889467,\n"
    "50,2333.33333333,A,0.466666666667,5,11034.5548255,\n"
    "50,3666.66666667,I,0.327273727273,10,12460.0677701,\n"
    "50,5000,I,0.25,10,14553.207956,\n"
    "60,1000,A,0.171428571429,7,7757.27051665,\n"
    "60,2333.33333333,A,0.466666666667,6,13123.9706712,\n"
    "60,3666.66666667,I,0.327273727273,12,14850.2729451,\n"
    "60,5000,I,0.25,12,17362.0411682,\n"
)
BOUNDARY_CSV = "lambda,l_boundary\n40,2752.87828947\n50,2756.99013158\n60,2760.27960526\n"


def test_regime_map_and_boundary(tmp_path: Path):
    out = tmp_path / "map.csv"
    boundary = tmp_path / "boundary.csv"
    cp = run_cli(
        "regime-map",
        "--grid", "lambda=40:60:3",
        "--grid", "big_l=1000:5000:4",
        "--out", str(out),
        "--boundary-out", str(boundary),
    )
    assert cp.returncode == 0
    assert out.read_bytes() == REGIME_MAP_CSV.encode()
    assert boundary.read_bytes() == BOUNDARY_CSV.encode()
    manifests = [Path(str(path) + ".manifest.json") for path in (out, boundary)]
    # a run that fails writes no file: a tolerance that cannot end the
    # bisection, and a boundary whose offered load leaves the domain, are
    # usage errors found before the map is written
    runs = [("lambda=50:50:1", "big_l=800:5000:3", tol) for tol in ("0", "-1", "nan", "inf")]
    runs.append(("lambda=1e7:1e7:1", "big_l=1000:1000:1", "1"))
    failed_map, failed_boundary = tmp_path / "m.csv", tmp_path / "b.csv"
    for lam, big_l, tol in runs:
        assert_usage_error(run_cli(
            "regime-map",
            "--grid", lam,
            "--grid", big_l,
            "--out", str(failed_map),
            "--boundary-out", str(failed_boundary),
            "--tol", tol,
        ))
        assert sorted(tmp_path.iterdir()) == sorted([out, boundary, *manifests])


def test_regime_map_warns_of_a_decreasing_boundary(tmp_path: Path):
    # integer staffing makes L*(lambda) a sawtooth: between these two lambdas
    # the bisected boundary falls, and the run says so but still succeeds
    out, boundary = tmp_path / "map.csv", tmp_path / "boundary.csv"
    cp = run_cli(
        "regime-map",
        "--grid", "lambda=27.7083333333:30.4166666667:2",
        "--grid", "big_l=2000:3500:2",
        "--out", str(out),
        "--boundary-out", str(boundary),
    )
    assert cp.returncode == 0
    assert out.is_file() and boundary.is_file()
    assert cp.stderr == (
        "warning: boundary not nondecreasing between lambda=27.7083 (L=2815.69) "
        "and lambda=30.4167 (L=2734.89)\n"
    )


def test_regime_map_error_cell_is_quoted():
    # the offered-load error holds a comma: quoted, the row keeps 7 fields
    cp = run_cli("regime-map", "--grid", "lambda=1e7:1e7:1", "--grid", "big_l=1000:1000:1")
    assert cp.returncode == 0
    rows = list(csv.reader(io.StringIO(cp.stdout, newline="")))
    assert [len(row) for row in rows] == [7, 7]
    error = regime_map(BASELINE, [1e7], [1000.0])[0].error
    assert "," in error
    assert rows[1][6] == error
    # quotes are doubled, and line breaks kept inside the quotes
    cells = [['say "hi", then', "one\r\ntwo\nthree"], ["plain", "1.5"]]
    text = render_csv(["a", "b"], [(cells[0][0], cells[0][1]), ("plain", 1.5)])
    assert text.startswith('a,b\n"say ""hi"", then","one\r\ntwo\nthree"\nplain,1.5\n')
    assert list(csv.reader(io.StringIO(text, newline=""))) == [["a", "b"], *cells]


def test_to_json_refuses_an_unknown_type():
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        to_json(object())


def test_figure_command(tmp_path: Path):
    out = tmp_path / "fig2.csv"
    cp = run_cli("figure", "--which", "fig2", "--npoints", "11", "--out", str(out))
    assert cp.returncode == 0
    assert len(out.read_text().splitlines()) == 12
    for npoints in ("-1", "0"):
        assert_usage_error(run_cli("figure", "--which", "fig2", "--npoints", npoints))


SIMULATE_CSV_HEADER = (
    "mean_wait,wait_stderr,mean_system_time,system_time_stderr,utilization,"
    "utilization_stderr,error_rate,error_rate_stderr,customers_counted,analytic_w_q,"
    "analytic_rho,rng_algorithm,seed"
)


def test_simulate_csv_and_determinism(tmp_path: Path):
    # criterion 12 checks that two runs in fresh interpreters write the same bytes
    a = tmp_path / "sim_a.csv"
    assert run_cli("simulate", "--lambda", "50", "--mu", "12", "--n", "5",
                   "--customers", "20000", "--seed", "9", "--out", str(a)).returncode == 0
    header, row = a.read_text().splitlines()
    assert header == SIMULATE_CSV_HEADER
    # each column holds the value its name says
    cells = dict(zip(header.split(","), row.split(",")))
    res = simulate(SimConfig(lam=50, mu=12, n=5, customers=20000, seed=9))
    analytic = queue_metrics(50, 12, 5)
    assert cells == {**{f.name: fmt(getattr(res, f.name)) for f in dataclasses.fields(res)},
                     "analytic_w_q": fmt(analytic.w_q), "analytic_rho": fmt(analytic.rho), "seed": "9"}
    manifest = json.loads(Path(str(a) + ".manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["params"] is None  # simulate uses no model parameters


def test_simulate_checks_offered_load_before_simulating(monkeypatch):
    # above the analytic domain the run ends before any customer is drawn
    def no_simulation(cfg):
        pytest.fail("simulate ran before the offered-load check")

    monkeypatch.setattr(cli, "simulate", no_simulation)
    cp = run_cli("simulate", "--lambda", "1e29", "--mu", "1", "--n", "1" + "0" * 30)
    assert (cp.returncode, cp.stderr) == (
        2, "error: offered load 1e+29 exceeds the domain limit 1e+06\n"
    )


def test_simulate_above_the_limit_checks_stability_first(monkeypatch):
    # min_staffing's servers meet the domain limit (exit 2); fewer servers
    # are unstable (exit 1), since that check comes first
    monkeypatch.setattr(cli, "simulate", lambda cfg: pytest.fail("simulate ran"))
    cp = run_cli("simulate", "--lambda", "1e10", "--mu", "1", "--n", str(min_staffing(1e10, 1.0)),
                 "--customers", "100")
    assert (cp.returncode, cp.stdout, cp.stderr) == (
        2, "", "error: offered load 1e+10 exceeds the domain limit 1e+06\n"
    )
    cp = run_cli("simulate", "--lambda", "1e10", "--mu", "1", "--n", "5", "--customers", "100")
    assert cp.returncode == 1
    assert cp.stderr.endswith("need at least 10000000002\n")


def test_simulate_unstable_exits_1():
    cp = run_cli("simulate", "--lambda", "50", "--mu", "6", "--n", "8",
                 "--customers", "1000")
    assert cp.returncode == 1
    # rates outside the box: lambda / mu overflows, or the waits are nan
    for lam, mu, n in (("1", "1e-320", "2"), ("1e-320", "1", "1")):
        cp = run_cli("simulate", "--lambda", lam, "--mu", mu, "--n", n, "--customers", "100")
        assert_usage_error(cp)
        assert "got 1e-320" in cp.stderr


# A 2 GiB address-space limit for the runs that must not allocate much.
MEMORY_LIMIT = 2 * 2**30


def test_simulate_more_servers_than_customers():
    # the server list holds at most one server per customer; under the
    # limit a list of 10**9 servers would fail, not run. A run with more
    # servers than the domain allows is refused before any customer is
    # drawn (test_simulate_checks_offered_load_before_simulating).
    cp = run_fresh("simulate", "--lambda", "1", "--mu", "1", "--n", "1000000000",
                   "--customers", "100", limit_as=MEMORY_LIMIT)
    assert (cp.returncode, cp.stderr) == (0, "")
    assert "(analytic 0 h)" in cp.stdout


def test_simulate_refuses_customers_beyond_memory(monkeypatch):
    # 10**9 customers need 7.45 GiB for each drawn array: under the limit
    # the run is refused, not ended by numpy's MemoryError traceback
    cp = run_fresh("simulate", "--lambda", "50", "--mu", "12", "--n", "5",
                   "--customers", "1000000000", limit_as=MEMORY_LIMIT)
    assert (cp.returncode, cp.stderr) == (2, "error: customers must fit in memory, got 1000000000\n")

    # validate's replications too, here with memory running out while the
    # waits are filled in
    def out_of_memory(heap, item):
        raise MemoryError

    monkeypatch.setattr(heapq, "heapreplace", out_of_memory)
    cp = run_cli("validate", "--customers", "2000")
    assert (cp.returncode, cp.stderr) == (2, "error: customers must fit in memory, got 2000\n")


def test_grid_counts_beyond_memory_exit_2(monkeypatch):
    # 10**9 points need 7.45 GiB for the list's pointers alone. The list is
    # sized before it is filled, so under the limit its allocation fails at
    # once, and 10**20 points, above sys.maxsize // 8, are refused without
    # one; a list grown point by point took over 6 s to fill the limit
    runs = [
        (["sweep", "--grid", "q=0.8:0.9:1000000000"], "grid 'q=0.8:0.9:1000000000' must fit in memory"),
        (["figure", "--which", "fig2", "--npoints", "1000000000"],
         "npoints must fit in memory, got 1000000000"),
        (["sweep", "--grid", "q=0.8:0.9:100000000000000000000"],
         "grid 'q=0.8:0.9:100000000000000000000' must fit in memory"),
    ]
    for argv, message in runs:
        start = time.perf_counter()
        cp = run_fresh(*argv, limit_as=MEMORY_LIMIT)
        assert (cp.returncode, cp.stderr) == (2, f"error: {message}\n")
        assert time.perf_counter() - start < 3.0

    # in process, with the allocation failing as it does under the limit
    def out_of_memory(lo, hi, n):
        raise MemoryError

    monkeypatch.setattr(cli, "linspace", out_of_memory)
    monkeypatch.setattr(analysis, "linspace", out_of_memory)
    for argv, message in runs[:2]:
        cp = run_cli(*argv)
        assert (cp.returncode, cp.stderr) == (2, f"error: {message}\n")


def test_simulate_seed_and_server_bounds_exit_2():
    # numpy rejects a negative seed, float(n) overflows past 1e308, and numpy
    # sizes a float64 array of at most sys.maxsize // 8 customers
    huge, too_big = "1" + "0" * 20, str(2**60)
    limit = sys.maxsize // 8
    for argv, message in (
        (["simulate", "--lambda", "50", "--mu", "12", "--n", "5", "--customers", "200",
          "--seed", "-1"], "seed must be nonnegative, got -1"),
        (["validate", "--customers", "2000", "--seed", "-3"], "seed must be nonnegative, got -3"),
        (["simulate", "--lambda", "50", "--mu", "12", "--n", "1" + "0" * 309,
          "--customers", "200"], "n must not exceed 1e+30"),
        (["simulate", "--lambda", "1e30", "--mu", "1", "--n", "2" + "0" * 30,
          "--customers", "100"], "n must not exceed 1e+30"),
        (["simulate", "--lambda", "50", "--mu", "12", "--n", "5", "--customers", huge],
         f"customers must not exceed {limit}, got {huge}"),
        (["validate", "--customers", huge], f"customers must not exceed {limit}, got {huge}"),
        (["simulate", "--lambda", "50", "--mu", "12", "--n", "5", "--customers", too_big],
         f"customers must not exceed {limit}, got {too_big}"),
        (["validate", "--customers", too_big], f"customers must not exceed {limit}, got {too_big}"),
    ):
        cp = run_cli(*argv)
        assert (cp.returncode, cp.stderr) == (2, f"error: {message}\n")
        if argv[0] == "validate":  # a refused run prints no table header
            assert cp.stdout == ""


def test_rerun_parses_its_config_once(tmp_path: Path, monkeypatch):
    cfg, out = tmp_path / "run.cfg", tmp_path / "welfare.csv"
    cfg.write_text("big_l = 3000\n")
    argv = ["welfare", "--grid", "big_l=1000:3000:2", "--config", str(cfg), "--out", str(out)]
    assert run_cli(*argv).returncode == 0
    parsed = []
    parse_config = params.parse_config

    def counting(text):
        parsed.append(text)
        return parse_config(text)

    # count a parse wherever the CLI looks the parser up
    monkeypatch.setattr(params, "parse_config", counting)
    monkeypatch.setattr(cli, "parse_config", counting, raising=False)
    assert run_cli("rerun", "--manifest", str(out) + ".manifest.json").returncode == 0
    assert parsed == ["big_l = 3000\n"]


SCENARIO_CSV_DEFAULT = (
    "id,mode,theta,n,risk,congestion,staffing,compliance,total,pct_vs_s1\n"
    "S0,I,0.5,10,2500,1615.707956,2000,6250,12365.707956,22.5527520417\n"
    "S1,A,0.4,5,6000,1090.11038104,1000,2000,10090.110381,0\n"
    "S2,A,0.4,5,6000,1090.11038104,1000,2000,10090.110381,0\n"
    "S3,A,0.4,5,6000,1090.11038104,1000,2000,10090.110381,0\n"
    "S4,I,0,11,5000,1390.44657033,2200,0,8590.44657033,-14.862709664\n"
)
SCENARIO_CSV_ALPHA_FLOOR = SCENARIO_CSV_DEFAULT.replace(
    "S3,A,0.4,5,6000,1090.11038104,1000,2000,10090.110381,0\n",
    "S3,I,0.7,9,1500,2675.72832207,1800,11025,17000.7283221,68.4890222214\n",
)


@pytest.mark.parametrize(
    "flags, expected",
    [([], SCENARIO_CSV_DEFAULT), (["--alpha", "0.2", "--theta-floor", "0.7"], SCENARIO_CSV_ALPHA_FLOOR)],
)
def test_scenario_csv_golden_bytes(tmp_path: Path, flags, expected):
    # pinned bytes: a change to the staffing search or the cost arithmetic
    # that moves any printed digit fails here
    out = tmp_path / "scenarios.csv"
    assert run_cli("scenario", *flags, "--out", str(out)).returncode == 0
    assert out.read_bytes() == expected.encode()


# Pinned bytes of the commands that call optimize_platform and optimize_social.
SOLVE_JSON_DEFAULT = """\
{
  "regime_a": {
    "cost": {
      "compliance": 1999.999999999999,
      "congestion": 1090.1103810374752,
      "risk": 5999.999999999999,
      "staffing": 1000.0,
      "total": 10090.110381037473
    },
    "feasible": true,
    "n": 5,
    "n_searched": [
      5,
      5
    ],
    "regime": "A",
    "theta": 0.3999999999999999,
    "theta_unconstrained": 0.3999999999999999
  },
  "regime_i": {
    "cost": {
      "compliance": 8100.027000022521,
      "congestion": 2675.7283220678523,
      "risk": 1999.9949999999978,
      "staffing": 1800.0,
      "total": 14575.75032209037
    },
    "feasible": true,
    "n": 9,
    "n_searched": [
      9,
      10
    ],
    "regime": "I",
    "theta": 0.6000010000000008,
    "theta_unconstrained": 0.11111111111111122
  },
  "theta_d": 0.6000000000000008,
  "winner": "A"
}
"""
SOLVE_JSON_THETA_LO_0_7 = """\
{
  "regime_a": {
    "feasible": false,
    "regime": "A"
  },
  "regime_i": {
    "cost": {
      "compliance": 11025.0,
      "congestion": 2675.7283220678523,
      "risk": 1500.0000000000016,
      "staffing": 1800.0,
      "total": 17000.728322067855
    },
    "feasible": true,
    "n": 9,
    "n_searched": [
      9,
      10
    ],
    "regime": "I",
    "theta": 0.7,
    "theta_unconstrained": 0.11111111111111122
  },
  "theta_d": 0.6000000000000008,
  "winner": "I"
}
"""
WELFARE_CSV_BIG_L_3 = (
    "big_l,s1_total,s4_total,gap,gap_pct_of_s4\n"
    "800,5669.84889467,5590.44657033,79.4023243367,1.42032167445\n"
    "2900,12146.3397072,10840.4465703,1305.89313689,12.0464883842\n"
    "5000,14553.207956,16090.4465703,-1537.23861433,-9.55373492964\n"
)

# The manifest of the welfare run above, its timestamp and output path masked.
WELFARE_MANIFEST = """\
{
  "argv": [
    "welfare",
    "--grid",
    "big_l=800:5000:3",
    "--out",
    "OUT"
  ],
  "command": "welfare",
  "outputs": [
    "OUT"
  ],
  "params": {
    "big_l": 2000.0,
    "c_n": 200.0,
    "c_w": 150.0,
    "h": 0.95,
    "k_a": 50.0,
    "k_i": 110.0,
    "kappa": 2500.0,
    "lam": 50.0,
    "mu_a": 12.0,
    "mu_i": 6.0,
    "q": 0.9,
    "w": 300.0
  },
  "timestamp": "T",
  "tool_version": "0.1.0"
}
"""

# Pinned stdout of the text and JSON reports.
SOLVE_TEXT_DEFAULT = """\
winner: Regime A, theta=0.4, N=5
Regime A (winner): theta=0.4, N=5, total=10090.1
  risk=6000 congestion=1090.11 staffing=1000 compliance=2000
Regime I (runner-up): theta=0.600001, N=9, total=14575.8
  risk=1999.99 congestion=2675.73 staffing=1800 compliance=8100.03
physician threshold theta_d=0.6
"""

SOLVE_TEXT_THOUSANDS = """\
winner: Regime A, theta=0.4, N=5
Regime A (winner): theta=0.4, N=5, total=10.0901k
  risk=6k congestion=1.09011k staffing=1k compliance=2k
Regime I (runner-up): theta=0.600001, N=9, total=14.5758k
  risk=1.99999k congestion=2.67573k staffing=1.8k compliance=8.10003k
physician threshold theta_d=0.6
"""

THRESHOLD_TEXT_DEFAULT = """\
theta_d = 0.6
d/dq      = 12
d/dh      = -12
d/dL      = -0.0003
d/ddelta_k = 0.01
"""

THRESHOLD_JSON_DEFAULT = """\
{
  "d_ddelta_k": 0.010000000000000012,
  "d_dh": -12.000000000000032,
  "d_dl": -0.00030000000000000035,
  "d_dq": 12.000000000000032,
  "theta_d": 0.6000000000000008
}
"""

SCENARIO_JSON_DEFAULT = """\
[
  {
    "cost": {
      "compliance": 6250.0,
      "congestion": 1615.7079560044474,
      "risk": 2500.0000000000023,
      "staffing": 2000.0,
      "total": 12365.70795600445
    },
    "feasible": true,
    "id": "S0",
    "pct_vs_s1": 22.552752041677834,
    "policy": {
      "mode": "I",
      "n": 10,
      "theta": 0.5
    },
    "reason": null
  },
  {
    "cost": {
      "compliance": 1999.999999999999,
      "congestion": 1090.1103810374752,
      "risk": 5999.999999999999,
      "staffing": 1000.0,
      "total": 10090.110381037473
    },
    "feasible": true,
    "id": "S1",
    "pct_vs_s1": 0.0,
    "policy": {
      "mode": "A",
      "n": 5,
      "theta": 0.3999999999999999
    },
    "reason": null
  },
  {
    "cost": {
      "compliance": 1999.999999999999,
      "congestion": 1090.1103810374752,
      "risk": 5999.999999999999,
      "staffing": 1000.0,
      "total": 10090.110381037473
    },
    "feasible": true,
    "id": "S2",
    "pct_vs_s1": 0.0,
    "policy": {
      "mode": "A",
      "n": 5,
      "theta": 0.3999999999999999
    },
    "reason": null
  },
  {
    "cost": {
      "compliance": 1999.999999999999,
      "congestion": 1090.1103810374752,
      "risk": 5999.999999999999,
      "staffing": 1000.0,
      "total": 10090.110381037473
    },
    "feasible": true,
    "id": "S3",
    "pct_vs_s1": 0.0,
    "policy": {
      "mode": "A",
      "n": 5,
      "theta": 0.3999999999999999
    },
    "reason": null
  },
  {
    "cost": {
      "compliance": 0.0,
      "congestion": 1390.4465703298495,
      "risk": 5000.000000000005,
      "staffing": 2200.0,
      "total": 8590.446570329854
    },
    "feasible": true,
    "id": "S4",
    "pct_vs_s1": -14.862709663969236,
    "policy": {
      "mode": "I",
      "n": 11,
      "theta": 0.0
    },
    "reason": null
  }
]
"""


@pytest.mark.parametrize(
    "flags, expected",
    [([], SOLVE_JSON_DEFAULT), (["--theta-lo", "0.7"], SOLVE_JSON_THETA_LO_0_7)],
)
def test_solve_json_golden_bytes(flags, expected):
    cp = run_cli("solve", "--json", *flags)
    assert cp.returncode == 0
    assert cp.stdout == expected


def test_welfare_csv_golden_bytes(tmp_path: Path):
    out = tmp_path / "welfare.csv"
    assert run_cli("welfare", "--grid", "big_l=800:5000:3", "--out", str(out)).returncode == 0
    assert out.read_bytes() == WELFARE_CSV_BIG_L_3.encode()
    manifest = Path(str(out) + ".manifest.json").read_text()
    manifest = re.sub(r'"timestamp": "[^"]*"', '"timestamp": "T"', manifest)
    assert manifest.replace(str(out), "OUT") == WELFARE_MANIFEST


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["solve"], SOLVE_TEXT_DEFAULT),
        (["solve", "--thousands"], SOLVE_TEXT_THOUSANDS),
        (["threshold", "--json"], THRESHOLD_JSON_DEFAULT),
        (["scenario", "--json"], SCENARIO_JSON_DEFAULT),
        (["threshold"], THRESHOLD_TEXT_DEFAULT),
    ],
)
def test_stdout_golden_bytes(argv, expected):
    cp = run_cli(*argv)
    assert cp.returncode == 0
    assert cp.stdout == expected


@pytest.mark.parametrize("argv", [
    ["sweep", "--grid", "kappa=1000:5000:5"],
    ["regime-map", "--grid", "lambda=40:60:3", "--grid", "big_l=1000:3000:3"],
], ids=lambda argv: argv[0])
def test_rerun_reproduces_csv(tmp_path: Path, argv):
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--out", str(out)).returncode == 0
    original = out.read_bytes()
    out.unlink()
    assert run_cli("rerun", "--manifest", str(out) + ".manifest.json").returncode == 0
    assert out.read_bytes() == original


def test_rerun_bad_manifest_exits_2(tmp_path: Path):
    bad = tmp_path / "bad.json"
    texts = ['{"argv": 5}', '{"argv": ["solve", 5]}', "[1]", "{}", "not json",
             json.dumps({"argv": ["rerun", "--manifest", str(bad)]}),
             json.dumps({"argv": ["solve"], "params": 5})]
    assert_usage_error(run_cli("rerun", "--manifest", str(tmp_path / "missing.json")))
    for text in texts:
        bad.write_text(text)
        assert_usage_error(run_cli("rerun", "--manifest", str(bad)))


def test_rerun_refuses_parameters_other_than_recorded(tmp_path: Path, monkeypatch):
    # a manifest written under $LIABSTAFF_CONFIG, rerun without it, and one
    # written with --config, rerun after that file changed: both exit 2 and
    # leave the CSV as it was
    cfg = tmp_path / "run.cfg"
    cfg.write_text("big_l = 4000\n")
    env_out, flag_out = tmp_path / "env.csv", tmp_path / "flag.csv"
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(cfg))
    assert run_cli("scenario", "--out", str(env_out)).returncode == 0
    monkeypatch.delenv(cli.CONFIG_ENV_VAR)
    assert run_cli("scenario", "--config", str(cfg), "--out", str(flag_out)).returncode == 0
    cfg.write_text("big_l = 3000\n")
    for out in (env_out, flag_out):
        original = out.read_bytes()
        cp = run_cli("rerun", "--manifest", str(out) + ".manifest.json")
        assert_usage_error(cp)
        assert "other values of big_l than" in cp.stderr
        assert out.read_bytes() == original
    cfg.write_text("big_l = 4000\n")
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(cfg))
    original = env_out.read_bytes()
    assert run_cli("rerun", "--manifest", str(env_out) + ".manifest.json").returncode == 0
    assert env_out.read_bytes() == original


def test_large_offered_load_solves_and_over_limit_exits_2(tmp_path: Path):
    cfg = tmp_path / "large.cfg"
    cfg.write_text("lambda = 100000\n")
    cp = run_cli("solve", "--config", str(cfg))
    assert cp.returncode == 0
    assert cp.stdout.startswith("winner: Regime A, theta=0.477783, N=8372\n")
    cfg.write_text("lambda = 1e7\n")
    cp = run_cli("solve", "--config", str(cfg))
    assert_usage_error(cp)
    assert "offered-load limit" in cp.stderr


def test_config_env_var(tmp_path: Path, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("big_l = 5000\n")
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(cfg))
    cp = run_cli("solve")
    assert cp.returncode == 0
    assert "winner: Regime I" in cp.stdout


def test_validate_command():
    cp = run_cli("validate", "--customers", "40000", "--seed", "3")
    assert cp.returncode == 0
    assert cp.stdout.count("PASS") == 2
    refused = run_cli("validate", "--customers", "10")
    assert_usage_error(refused)
    assert refused.stdout == ""  # both configurations are checked before the header


# The parser is built once per process and reused by every later main()
# call, as in the benchmark's runs; these check that nothing of one call
# leaks into the next.


def test_in_process_regime_map_calls_identical():
    args = ["regime-map", "--grid", "lambda=40:60:3", "--grid", "big_l=1000:3000:3"]
    first, second = run_cli(*args), run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout.splitlines()) == 10  # header + 3*3 cells: grids did not accumulate


def test_in_process_usage_error_after_success():
    assert run_cli("solve").returncode == 0
    assert_usage_error(run_cli("scenario", "--scenarios", "S9"))
    for argv in (["solve", "--no-such-flag"], ["regime-map", "--jobs", "2"]):
        assert run_cli(*argv).returncode == 2


# The exit-code contract under fuzzing: configs with calibrated, extreme and
# non-finite values (lambda up to 1e6) drive every planning command in
# process, and any rates, seeds and server counts drive the simulator. Grids
# hold one or two points and runs at most 2000 customers, so each run is fast.

_ANY_FLOAT = st.floats()  # zero, negative, tiny, huge, inf and nan included
_SHARE = st.one_of(st.floats(0.0, 1.0), _ANY_FLOAT)
_CONFIG_KEYS = list(params.FIELD_BY_NAME)


@st.composite
def _configs(draw) -> dict:
    """A random calibrated parameter set with lambda up to 1e6 and at most
    two keys set to arbitrary floats."""
    p = random_valid_params(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    config = {name: getattr(p, field) for name, field in params.FIELD_BY_NAME.items()}
    config["lambda"] = draw(st.floats(1e-3, 1e6))
    config.update(draw(st.dictionaries(st.sampled_from(_CONFIG_KEYS), _ANY_FLOAT, max_size=2)))
    return config


def _grid(name: str, values=st.one_of(st.floats(0.0, 1e6), _ANY_FLOAT)):
    return st.builds(
        lambda lo, hi, n: f"{name}={lo!r}:{hi!r}:{n}", values, values, st.integers(0, 2)
    )


# a table command's --out: absent, a writable file, a file in a missing
# directory or an existing directory, {tmp} standing for a test directory
_OUT = st.sampled_from([[], ["--out", "{tmp}/out.csv"], ["--out", "{tmp}/missing/out.csv"],
                        ["--out", "{tmp}"]])

_ARGV = st.one_of(
    st.builds(lambda lo, hi: ["solve", "--json", f"--theta-lo={lo!r}", f"--theta-hi={hi!r}"],
              _SHARE, _SHARE),
    st.just(["solve"]),
    st.sampled_from([["threshold"], ["threshold", "--json"]]),
    st.builds(lambda a, t, out: ["scenario", f"--alpha={a!r}", f"--theta-floor={t!r}", *out],
              _SHARE, _SHARE, _OUT),
    st.builds(lambda out: ["scenario", *out], _OUT),
    st.builds(lambda grid, out: ["sweep", "--grid", grid, *out],
              st.sampled_from([*SWEEPABLE, "mu_a"]).flatmap(_grid), _OUT),  # mu_a: refused
    st.builds(lambda grid, out: ["welfare", "--grid", grid, *out], _grid("big_l"), _OUT),
    st.builds(lambda lam, big_l, out: ["regime-map", "--grid", lam, "--grid", big_l, *out],
              _grid("lambda"), _grid("big_l"), _OUT),
    st.builds(lambda which, n, out: ["figure", "--which", which, "--npoints", str(n), *out],
              st.sampled_from(cli.FIGURE_IDS), st.integers(0, 3), _OUT),
)

_CUSTOMERS = st.integers(-10, 2000)
_SEED = st.integers(-(2**64), 2**64)
# simulate's options and the arbitrary values each may take: any float, a
# negative seed, n past 1e308
_SIM_OPTIONS = {
    "lambda": _ANY_FLOAT,
    "mu": _ANY_FLOAT,
    "n": st.builds(lambda m, e: m * 10**e, st.integers(-1, 9), st.integers(0, 310)),
    "customers": _CUSTOMERS,
    "seed": _SEED,
    "error-prob": _ANY_FLOAT,
    "warmup": _CUSTOMERS,
}


@st.composite
def _simulate_argv(draw) -> list[str]:
    """simulate on a random stable M/M/N queue with an offered load up to
    1000, with one or two options set to arbitrary values."""
    lam, mu = draw(st.floats(0.1, 100)), draw(st.floats(0.1, 100))
    options = {"lambda": lam, "mu": mu, "n": min_staffing(lam, mu) + draw(st.integers(0, 3)),
               "customers": draw(st.integers(30, 2000)), "seed": draw(st.integers(0, 2**64)),
               "error-prob": draw(st.floats(0.0, 1.0))}
    options.update(draw(st.lists(st.sampled_from(list(_SIM_OPTIONS)).flatmap(
        lambda name: st.tuples(st.just(name), _SIM_OPTIONS[name])), min_size=1, max_size=2)))
    return ["simulate", *(f"--{name}={value!r}" for name, value in options.items())]


_SIM_ARGV = st.one_of(
    _simulate_argv(),
    st.builds(lambda customers, seed: ["validate", f"--customers={customers}", f"--seed={seed}"],
              _CUSTOMERS, _SEED),
)


def _non_finite_numbers(command: str, output: str) -> list[str]:
    """The printed numbers and CSV cells of a run's output that are inf or
    nan, but for the lambda and big_l a regime-map row echoes when its error
    column is set: the cell's input, not a result."""
    found = []
    for line in output.splitlines():
        cells = line.split(",", 6)
        if command == "regime-map" and len(cells) == 7 and cells[6] and cells[0] != "lambda":
            line = ",".join(cells[2:])
        for token in re.split(r"[\s,=:;()\[\]{}\"%]+", line):
            try:
                value = float(token)
            except ValueError:
                continue
            if not math.isfinite(value):
                found.append(token)
    return found


@pytest.fixture(scope="module")
def fuzz_config(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"


def _assert_exit_code_contract(argv: list[str]) -> None:
    """Run argv in process: exit 0, 1 or 2, an error or usage line on a
    nonzero exit but for validate's failed comparison, and finite numbers on
    success, in the --out file too."""
    cp = run_cli(*argv)
    assert cp.returncode in (0, 1, 2)
    if cp.returncode:
        assert (cp.stderr.startswith(("error: ", "usage: "))
                or ((argv[0], cp.returncode, cp.stderr) == ("validate", 1, "")
                    and "FAIL" in cp.stdout))
    else:
        written = Path(argv[argv.index("--out") + 1]).read_text() if "--out" in argv else ""
        assert _non_finite_numbers(argv[0], cp.stdout + cp.stderr + written) == []


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=_configs(), argv=_ARGV)
def test_exit_code_contract_under_fuzzed_configs(fuzz_config: Path, config, argv):
    fuzz_config.write_text("".join(f"{key} = {value!r}\n" for key, value in config.items()))
    _assert_exit_code_contract([*_in_dir(fuzz_config.parent, argv), "--config", str(fuzz_config)])


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_SIM_ARGV)
def test_exit_code_contract_under_fuzzed_simulations(argv):
    _assert_exit_code_contract(argv)
