"""CSV and run-manifest emission.

CSV contract: `.` decimal separator, 12 significant digits, LF line endings,
no timestamps — repeated runs of a deterministic command must be
byte-identical. Each output file gets a sidecar JSON manifest holding
everything needed to re-run the command identically.
"""

from __future__ import annotations

import dataclasses
import json
from datetime import datetime, timezone
from pathlib import Path

from .params import ModelParams


def fmt(value) -> str:
    """Render one CSV cell: 12 significant digits for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.12g}"
    if hasattr(value, "value"):  # enums render as their payload
        return str(value.value)
    return str(value)


def render_csv(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(path: str | Path, header: list[str], rows: list[tuple]) -> Path:
    path = Path(path)
    path.write_text(render_csv(header, rows), newline="\n")
    return path


def manifest_path(out_path: str | Path) -> Path:
    out_path = Path(out_path)
    return out_path.with_name(out_path.name + ".manifest.json")


def write_manifest(
    out_path: str | Path,
    command: str,
    argv: list[str],
    params: ModelParams | None,
    options: dict,
    version: str,
) -> Path:
    """Write the sidecar manifest next to ``out_path``; ``params`` is None
    (written as null) for a command that uses no model parameters."""
    payload = {
        "command": command,
        "argv": argv,
        "params": None if params is None else dataclasses.asdict(params),
        "options": options,
        "tool_version": version,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": [str(out_path)],
    }
    path = manifest_path(out_path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
