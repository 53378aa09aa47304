"""The command line's flag surface, pinned action by action.

For every subcommand, each action's option strings, dest, default, type,
required flag, choices and action class, and which commands take --config,
which is what cli._parse keys parameter resolution on. Option order and help
text are left out: neither changes what a command line parses to. Needs only
pytest, so it runs wherever the record tests run.
"""

import argparse

import pytest

from liabstaff import __version__, cli

_S = argparse.SUPPRESS
_HELP = (("-h", "--help"), "help", _S, None, False, None, "_HelpAction")
_CONFIG = (("--config",), "config", None, None, False, None, "_StoreAction")
_THOUSANDS = (("--thousands",), "thousands", False, None, False, None, "_StoreTrueAction")
_JSON = (("--json",), "json", False, None, False, None, "_StoreTrueAction")
_OUT = (("--out",), "out", None, None, False, None, "_StoreAction")
_CUSTOMERS = (("--customers",), "customers", 200_000, int, False, None, "_StoreAction")
_SEED = (("--seed",), "seed", 0, int, False, None, "_StoreAction")

# command -> (its handler, its actions as
# (option strings, dest, default, type, required, choices, action class))
SURFACE = {
    "solve": ("_cmd_solve", {
        _HELP, _CONFIG, _THOUSANDS, _JSON,
        (("--theta-lo",), "theta_lo", 0.0, float, False, None, "_StoreAction"),
        (("--theta-hi",), "theta_hi", 1.0, float, False, None, "_StoreAction"),
    }),
    "threshold": ("_cmd_threshold", {_HELP, _CONFIG, _JSON}),
    "scenario": ("_cmd_scenario", {
        _HELP, _CONFIG, _THOUSANDS, _JSON, _OUT,
        (("--scenarios",), "scenarios", "S0,S1,S2,S3,S4", None, False, None, "_StoreAction"),
        (("--alpha",), "alpha", 0.5, float, False, None, "_StoreAction"),
        (("--theta-floor",), "theta_floor", 0.3, float, False, None, "_StoreAction"),
    }),
    "regime-map": ("_cmd_regime_map", {
        _HELP, _CONFIG, _OUT,
        (("--grid",), "grid", None, None, False, None, "_AppendAction"),
        (("--boundary-out",), "boundary_out", None, None, False, None, "_StoreAction"),
        (("--tol",), "tol", 1.0, float, False, None, "_StoreAction"),
    }),
    "sweep": ("_cmd_sweep", {
        _HELP, _CONFIG, _OUT,
        (("--grid",), "grid", None, None, True, None, "_StoreAction"),
    }),
    "welfare": ("_cmd_welfare", {
        _HELP, _CONFIG, _OUT,
        (("--grid",), "grid", None, None, False, None, "_StoreAction"),
    }),
    "figure": ("_cmd_figure", {
        _HELP, _CONFIG, _OUT,
        (("--which",), "which", None, None, True,
         ("fig1", "fig2", "fig3a", "fig3b", "fig4"), "_StoreAction"),
        (("--npoints",), "npoints", 101, int, False, None, "_StoreAction"),
        (("--criterion",), "criterion", "cost-optimal", None, False,
         ("cost-optimal", "min-stable"), "_StoreAction"),
    }),
    "simulate": ("_cmd_simulate", {
        _HELP, _CUSTOMERS, _SEED, _OUT,
        (("--lambda",), "lam", None, float, True, None, "_StoreAction"),
        (("--mu",), "mu", None, float, True, None, "_StoreAction"),
        (("--n",), "n", None, int, True, None, "_StoreAction"),
        (("--error-prob",), "error_prob", 0.0, float, False, None, "_StoreAction"),
        (("--warmup",), "warmup", None, int, False, None, "_StoreAction"),
    }),
    "validate": ("_cmd_validate", {_HELP, _CUSTOMERS, _SEED}),
    "rerun": ("_cmd_rerun", {
        _HELP,
        (("--manifest",), "manifest", None, None, True, None, "_StoreAction"),
    }),
}

# the fewest arguments each command parses with
MINIMAL_ARGV = {
    "sweep": ["--grid", "q=0.8:0.9:2"],
    "figure": ["--which", "fig1"],
    "simulate": ["--lambda", "50", "--mu", "12", "--n", "5"],
    "rerun": ["--manifest", "run.csv.manifest.json"],
}


def _surface(parser: argparse.ArgumentParser) -> set[tuple]:
    return {
        (tuple(a.option_strings), a.dest, a.default, a.type, a.required, a.choices, type(a).__name__)
        for a in parser._actions
        if not isinstance(a, argparse._SubParsersAction)
    }


def _subcommands() -> argparse._SubParsersAction:
    (sub,) = (a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub


def test_top_level_surface(capsys):
    sub = _subcommands()
    assert (sub.dest, sub.required) == ("command", True)
    assert list(sub.choices) == list(SURFACE)
    assert _surface(cli._parser()) == {
        _HELP, (("--version",), "version", _S, None, False, None, "_VersionAction"),
    }
    with pytest.raises(SystemExit) as exc:
        cli._parser().parse_args(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"liabstaff {__version__}\n"


@pytest.mark.parametrize("command", list(SURFACE))
def test_subcommand_surface(command):
    handler, actions = SURFACE[command]
    parser = _subcommands().choices[command]
    assert parser.get_default("func").__name__ == handler
    assert _surface(parser) == actions


@pytest.mark.parametrize("command", list(SURFACE))
def test_config_commands_resolve_parameters(command, monkeypatch):
    # a command resolves a parameter set exactly when it takes --config
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    takes_config = _CONFIG in SURFACE[command][1]
    args, p = cli._parse([command, *MINIMAL_ARGV.get(command, [])])
    assert hasattr(args, "config") == takes_config
    assert (p is not None) == takes_config
