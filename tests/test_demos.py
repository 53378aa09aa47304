"""Every demo script runs to completion against the current API."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo: Path):
    cp = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert "Traceback" not in cp.stderr
