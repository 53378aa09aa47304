"""The two ways the tests run the command line.

run_cli calls cli.main in process, as the benchmark does: an uncaught
exception fails the test with its traceback, and pytest's warning filters
apply. run_fresh starts `python -m liabstaff` in a new interpreter, for the
checks that need one: byte identity across processes, whose hash seeds
differ, a memory limit, and the `__main__` entry point.
"""

import contextlib
import io
import os
import resource
import subprocess
import sys

from liabstaff import cli


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run cli.main(args) with stdout and stderr captured; argparse's exit
    (a usage error, --help or --version) becomes the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())


def run_fresh(*args: str, limit_as: int | None = None) -> subprocess.CompletedProcess:
    """Run `python -m liabstaff args` in a new interpreter, without
    $LIABSTAFF_CONFIG, its address space limited to limit_as bytes if given."""
    env = {key: value for key, value in os.environ.items() if key != cli.CONFIG_ENV_VAR}
    limit = None if limit_as is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (limit_as, limit_as))
    )
    return subprocess.run([sys.executable, "-m", "liabstaff", *args], capture_output=True,
                          text=True, env=env, timeout=60, preexec_fn=limit)
