import contextlib
import csv
import dataclasses
import io
import json
import math
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liabstaff import BASELINE, cli, params
from liabstaff.analysis import regime_map
from liabstaff.output import render_csv

from oracles import random_valid_params


def run_cli(*args: str, env=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "liabstaff", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


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
    # only the simulator needs numpy and array, and it imports them when it
    # runs; the parser is built by the first main() call, not at import
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


def test_solve_baseline():
    cp = run_cli("solve")
    assert cp.returncode == 0
    assert "Regime A" in cp.stdout
    assert "theta=0.4" in cp.stdout
    assert "N=5" in cp.stdout
    assert "theta_d=0.6" in cp.stdout


def test_solve_json():
    cp = run_cli("solve", "--json")
    assert cp.returncode == 0
    payload = json.loads(cp.stdout)
    assert payload["winner"] == "A"
    assert payload["regime_a"]["n"] == 5
    assert payload["regime_a"]["theta"] == pytest.approx(0.40, abs=1e-9)
    assert payload["theta_d"] == pytest.approx(0.60, abs=1e-12)


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


def test_threshold_command():
    cp = run_cli("threshold")
    assert cp.returncode == 0
    assert "theta_d = 0.6" in cp.stdout
    assert "d/dq" in cp.stdout


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


def test_scenario_stdout_default():
    cp = run_cli("scenario", "--scenarios", "S1")
    assert cp.returncode == 0
    assert cp.stdout.splitlines()[0].startswith("id,mode")
    assert_usage_error(run_cli("scenario", "--alpha", "2"))
    assert_usage_error(run_cli("scenario", "--theta-floor", "0"))
    assert_usage_error(run_cli("scenario", "--scenarios", ","))


def test_sweep_row_count(tmp_path: Path):
    out = tmp_path / "sweep.csv"
    cp = run_cli("sweep", "--grid", "q=0.80:0.94:15", "--out", str(out))
    assert cp.returncode == 0
    assert len(out.read_text().splitlines()) == 16  # header + 15 rows


def test_sweep_bad_grid_exits_2():
    for grid in ("q=nope", "foo=1:2:3"):
        assert_usage_error(run_cli("sweep", "--grid", grid))


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
    assert len(out.read_text().splitlines()) == 13  # header + 3*4 cells
    blines = boundary.read_text().splitlines()
    assert blines[0] == "lambda,l_boundary"
    assert len(blines) >= 2
    # a tolerance that cannot end the bisection is a usage error, found
    # before the map is solved and written
    early = tmp_path / "early.csv"
    for tol in ("0", "-1", "nan", "inf"):
        assert_usage_error(run_cli(
            "regime-map",
            "--grid", "lambda=50:50:1",
            "--grid", "big_l=800:5000:3",
            "--out", str(early),
            "--boundary-out", str(boundary),
            "--tol", tol,
        ))
    assert not early.exists()
    assert not Path(str(early) + ".manifest.json").exists()


def test_regime_map_error_cell_is_quoted(capsys):
    # the offered-load error holds a comma: quoted, the row keeps 7 fields
    argv = ["regime-map", "--grid", "lambda=1e7:1e7:1", "--grid", "big_l=1000:1000:1"]
    assert cli.main(argv) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
    assert [len(row) for row in rows] == [7, 7]
    error = regime_map(BASELINE, [1e7], [1000.0])[0].error
    assert "," in error
    assert rows[1][6] == error
    # quotes are doubled, and line breaks kept inside the quotes
    cells = [['say "hi", then', "one\r\ntwo\nthree"], ["plain", "1.5"]]
    text = render_csv(["a", "b"], [(cells[0][0], cells[0][1]), ("plain", 1.5)])
    assert text.startswith('a,b\n"say ""hi"", then","one\r\ntwo\nthree"\nplain,1.5\n')
    assert list(csv.reader(io.StringIO(text, newline=""))) == [["a", "b"], *cells]


def test_welfare_command(tmp_path: Path):
    out = tmp_path / "welfare.csv"
    cp = run_cli("welfare", "--grid", "big_l=1000:3000:3", "--out", str(out))
    assert cp.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "big_l,s1_total,s4_total,gap,gap_pct_of_s4"
    assert len(lines) == 4


def test_figure_command(tmp_path: Path):
    out = tmp_path / "fig2.csv"
    cp = run_cli("figure", "--which", "fig2", "--npoints", "11", "--out", str(out))
    assert cp.returncode == 0
    assert len(out.read_text().splitlines()) == 12
    for npoints in ("-1", "0"):
        assert_usage_error(run_cli("figure", "--which", "fig2", "--npoints", npoints))


def test_simulate_csv_and_determinism(tmp_path: Path):
    a = tmp_path / "sim_a.csv"
    b = tmp_path / "sim_b.csv"
    args = ["simulate", "--lambda", "50", "--mu", "12", "--n", "5",
            "--customers", "20000", "--seed", "9"]
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    manifest = json.loads(Path(str(a) + ".manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["params"] is None  # simulate uses no model parameters


def test_simulate_unstable_exits_1():
    cp = run_cli("simulate", "--lambda", "50", "--mu", "6", "--n", "8",
                 "--customers", "1000")
    assert cp.returncode == 1
    # rates outside the box: lambda / mu overflows, or the waits are nan
    for lam, mu, n in (("1", "1e-320", "2"), ("1e-320", "1", "1")):
        cp = run_cli("simulate", "--lambda", lam, "--mu", mu, "--n", n, "--customers", "100")
        assert_usage_error(cp)
        assert "got 1e-320" in cp.stderr


def test_simulate_more_servers_than_customers():
    # the server list holds at most one server per customer; under a 2 GiB
    # address-space limit a list of 10**9 servers would fail, not run
    limit = 2 * 2**30

    def simulate_cli(lam: str, n: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "liabstaff", "simulate", "--lambda", lam, "--mu", "1",
             "--n", n, "--customers", "100"],
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )

    cp = simulate_cli("1e30", "2" + "0" * 30)
    assert_usage_error(cp)
    assert "exceeds the domain limit" in cp.stderr
    cp = simulate_cli("1", "1000000000")
    assert (cp.returncode, cp.stderr) == (0, "")
    assert "(analytic 0 h)" in cp.stdout


def test_rerun_parses_its_config_once(tmp_path: Path, monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    cfg, out = tmp_path / "run.cfg", tmp_path / "welfare.csv"
    cfg.write_text("big_l = 3000\n")
    argv = ["welfare", "--grid", "big_l=1000:3000:2", "--config", str(cfg), "--out", str(out)]
    assert cli.main(argv) == 0
    parsed = []
    parse_config = params.parse_config

    def counting(text):
        parsed.append(text)
        return parse_config(text)

    # count a parse wherever the CLI looks the parser up
    monkeypatch.setattr(params, "parse_config", counting)
    monkeypatch.setattr(cli, "parse_config", counting, raising=False)
    assert cli.main(["rerun", "--manifest", str(out) + ".manifest.json"]) == 0
    assert parsed == ["big_l = 3000\n"]


def test_solve_repeated_runs_identical():
    a = run_cli("solve", "--json")
    b = run_cli("solve", "--json")
    assert a.stdout == b.stdout


def test_scenario_repeated_runs_byte_identical(tmp_path: Path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli("scenario", "--out", str(a))
    run_cli("scenario", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


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
def test_scenario_csv_golden_bytes(tmp_path: Path, capsys, flags, expected):
    # pinned bytes: a change to the staffing search or the cost arithmetic
    # that moves any printed digit fails here
    out = tmp_path / "scenarios.csv"
    assert cli.main(["scenario", *flags, "--out", str(out)]) == 0
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


@pytest.mark.parametrize(
    "flags, expected",
    [([], SOLVE_JSON_DEFAULT), (["--theta-lo", "0.7"], SOLVE_JSON_THETA_LO_0_7)],
)
def test_solve_json_golden_bytes(capsys, flags, expected):
    assert cli.main(["solve", "--json", *flags]) == 0
    assert capsys.readouterr().out == expected


def test_welfare_csv_golden_bytes(tmp_path: Path, capsys):
    out = tmp_path / "welfare.csv"
    assert cli.main(["welfare", "--grid", "big_l=800:5000:3", "--out", str(out)]) == 0
    assert out.read_bytes() == WELFARE_CSV_BIG_L_3.encode()


def test_regime_map_repeated_runs_byte_identical(tmp_path: Path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["regime-map", "--grid", "lambda=40:60:3", "--grid", "big_l=1000:3000:3"]
    run_cli(*args, "--out", str(a))
    run_cli(*args, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_manifest_rerun_reproduces_csv(tmp_path: Path):
    out = tmp_path / "sweep.csv"
    run_cli("sweep", "--grid", "kappa=1000:5000:5", "--out", str(out))
    original = out.read_bytes()
    out.unlink()
    cp = run_cli("rerun", "--manifest", str(out) + ".manifest.json")
    assert cp.returncode == 0
    assert out.read_bytes() == original


def test_rerun_bad_manifest_exits_2(tmp_path: Path, capsys):
    bad = tmp_path / "bad.json"
    texts = ['{"argv": 5}', '{"argv": ["solve", 5]}', "[1]", "{}", "not json",
             json.dumps({"argv": ["rerun", "--manifest", str(bad)]}),
             json.dumps({"argv": ["solve"], "params": 5})]
    assert cli.main(["rerun", "--manifest", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    for text in texts:
        bad.write_text(text)
        assert cli.main(["rerun", "--manifest", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_rerun_refuses_parameters_other_than_recorded(tmp_path: Path, capsys, monkeypatch):
    # a manifest written under $LIABSTAFF_CONFIG, rerun without it, and one
    # written with --config, rerun after that file changed: both exit 2 and
    # leave the CSV as it was
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("big_l = 4000\n")
    env_out, flag_out = tmp_path / "env.csv", tmp_path / "flag.csv"
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(cfg))
    assert cli.main(["scenario", "--out", str(env_out)]) == 0
    monkeypatch.delenv(cli.CONFIG_ENV_VAR)
    assert cli.main(["scenario", "--config", str(cfg), "--out", str(flag_out)]) == 0
    cfg.write_text("big_l = 3000\n")
    capsys.readouterr()
    for out in (env_out, flag_out):
        original = out.read_bytes()
        assert cli.main(["rerun", "--manifest", str(out) + ".manifest.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "other values of big_l than" in err
        assert out.read_bytes() == original
    cfg.write_text("big_l = 4000\n")
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(cfg))
    original = env_out.read_bytes()
    assert cli.main(["rerun", "--manifest", str(env_out) + ".manifest.json"]) == 0
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


def test_config_env_var(tmp_path: Path):
    import os

    cfg = tmp_path / "env.cfg"
    cfg.write_text("big_l = 5000\n")
    env = dict(os.environ, LIABSTAFF_CONFIG=str(cfg))
    cp = run_cli("solve", env=env)
    assert cp.returncode == 0
    assert "winner: Regime I" in cp.stdout


def test_validate_command():
    cp = run_cli("validate", "--customers", "40000", "--seed", "3")
    assert cp.returncode == 0
    assert cp.stdout.count("PASS") == 2
    assert_usage_error(run_cli("validate", "--customers", "10"))


def test_thousands_flag():
    cp = run_cli("solve", "--thousands")
    assert cp.returncode == 0
    assert "10.0901k" in cp.stdout


# The parser is built once per process; these calls run main() in process
# to check that nothing of one call leaks into the next.


def test_in_process_regime_map_calls_identical(capsys):
    args = ["regime-map", "--grid", "lambda=40:60:3", "--grid", "big_l=1000:3000:3"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert len(first.splitlines()) == 10  # header + 3*3 cells: grids did not accumulate


def test_in_process_rerun_reproduces_csv(tmp_path: Path, capsys):
    out = tmp_path / "map.csv"
    args = ["regime-map", "--grid", "lambda=40:60:3", "--grid", "big_l=1000:3000:3",
            "--out", str(out)]
    assert cli.main(args) == 0
    original = out.read_bytes()
    out.unlink()
    assert cli.main(["rerun", "--manifest", str(out) + ".manifest.json"]) == 0
    assert out.read_bytes() == original


def test_in_process_usage_error_after_success(capsys):
    assert cli.main(["solve"]) == 0
    assert cli.main(["scenario", "--scenarios", "S9"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    for argv in (["solve", "--no-such-flag"], ["regime-map", "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


# The exit-code contract under fuzzing: configs with calibrated, extreme and
# non-finite values (lambda up to 1e6) drive every planning command in
# process. Grids hold one or two points so that large offered loads stay fast.

_ANY_FLOAT = st.floats()  # zero, negative, tiny, huge, inf and nan included
_SHARE = st.one_of(st.floats(0.0, 1.0), _ANY_FLOAT)
_CONFIG_KEYS = ["lambda" if f.name == "lam" else f.name for f in dataclasses.fields(BASELINE)]


@st.composite
def _configs(draw) -> dict:
    """A random calibrated parameter set with lambda up to 1e6 and at most
    two keys set to arbitrary floats."""
    p = random_valid_params(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    config = dict(zip(_CONFIG_KEYS, dataclasses.astuple(p)))
    config["lambda"] = draw(st.floats(1e-3, 1e6))
    config.update(draw(st.dictionaries(st.sampled_from(_CONFIG_KEYS), _ANY_FLOAT, max_size=2)))
    return config


def _grid(name: str, values=st.one_of(st.floats(0.0, 1e6), _ANY_FLOAT)):
    return st.builds(
        lambda lo, hi, n: f"{name}={lo!r}:{hi!r}:{n}", values, values, st.integers(0, 2)
    )


_ARGV = st.one_of(
    st.builds(lambda lo, hi: ["solve", "--json", f"--theta-lo={lo!r}", f"--theta-hi={hi!r}"],
              _SHARE, _SHARE),
    st.just(["solve"]),
    st.builds(lambda a, t: ["scenario", f"--alpha={a!r}", f"--theta-floor={t!r}"],
              _SHARE, _SHARE),
    st.just(["scenario"]),
    st.builds(lambda grid: ["sweep", "--grid", grid],
              st.sampled_from(["kappa", "c_n", "big_l", "q", "c_w", "lambda", "mu_a"]).flatmap(_grid)),
    st.builds(lambda grid: ["welfare", "--grid", grid], _grid("big_l")),
    st.builds(lambda lam, big_l: ["regime-map", "--grid", lam, "--grid", big_l],
              _grid("lambda"), _grid("big_l")),
    st.builds(lambda which, n: ["figure", "--which", which, "--npoints", str(n)],
              st.sampled_from(cli.FIGURE_IDS), st.integers(0, 3)),
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


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=_configs(), argv=_ARGV)
def test_exit_code_contract_under_fuzzed_configs(fuzz_config: Path, config, argv):
    fuzz_config.write_text("".join(f"{key} = {value!r}\n" for key, value in config.items()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([*argv, "--config", str(fuzz_config)])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith(("error: ", "usage: "))
    else:
        assert _non_finite_numbers(argv[0], out.getvalue() + err.getvalue()) == []
