"""CSV and run-manifest emission.

CSV contract: `.` decimal separator, 12 significant digits, LF line endings,
no timestamps — repeated runs of a deterministic command must be
byte-identical. A cell holding a comma, quote or line break is quoted as
RFC 4180 does. Each output file gets a sidecar JSON manifest recording the
run: its command, argv and parameters.
"""

from __future__ import annotations

import dataclasses
import json
import re
from datetime import datetime, timezone
from pathlib import Path

from .params import ModelParams


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def fmt(value) -> str:
    """Render one CSV cell: 12 significant digits for floats; text holding a
    comma, quote or line break goes in double quotes, any quote doubled."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.12g}"
    # enums render as their payload
    text = str(value.value) if hasattr(value, "value") else str(value)
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def render_csv(header: list[str], rows: list[tuple]) -> str:
    return "".join(",".join(map(fmt, line)) + "\n" for line in [header, *rows])


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
    version: str,
) -> Path:
    """Write the sidecar manifest next to ``out_path``; ``params`` is None
    (written as null) for a command that uses no model parameters."""
    payload = {
        "command": command,
        "argv": argv,
        "params": None if params is None else dataclasses.asdict(params),
        "tool_version": version,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": [str(out_path)],
    }
    path = manifest_path(out_path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
