"""CSV, JSON and run-manifest emission.

CSV contract: `.` decimal separator, 12 significant digits, LF line endings,
no timestamps — repeated runs of a deterministic command must be
byte-identical. A cell holding a comma, quote or line break is quoted as
RFC 4180 does. Every JSON document, the CLI's --json output and the
manifests alike, is written by to_json. Each output file gets a sidecar JSON
manifest recording the run: its command, argv and parameters. A file that
cannot be written raises ParameterError naming it, as an unreadable input
does; files written before it are kept.
"""

from __future__ import annotations

import dataclasses
import json
import re
from datetime import datetime, timezone
from pathlib import Path

from .errors import ParameterError
from .params import Mode, ModelParams


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def fmt(value) -> str:
    """Render one CSV cell: 12 significant digits for floats; text holding a
    comma, quote or line break goes in double quotes, any quote doubled."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    text = str(_plain(value) if type(value) is Mode else value)
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _plain(obj):
    """A Mode as its letter and a dataclass as a dict of its fields, read by
    attribute: how CSV cells and JSON documents write them. Mode is tested by
    type, which a CSV cell pays for, not by the slower isinstance on an enum
    class; an enum with members has no subclasses."""
    if type(obj) is Mode:
        return obj.value
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def to_json(obj) -> str:
    """The one JSON writer: two-space indent, sorted keys, modes and
    dataclasses written by _plain."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_plain)


def render_csv(header: list[str], rows: list[tuple]) -> str:
    return "".join(",".join(map(fmt, line)) + "\n" for line in [header, *rows])


def _write(path: Path, text: str) -> Path:
    """Write text to path with LF line endings; a path that cannot be written,
    such as one in a missing directory or a directory itself, raises
    ParameterError naming it."""
    try:
        path.write_text(text, newline="\n")
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror}") from None
    return path


def write_csv(path: str | Path, header: list[str], rows: list[tuple]) -> Path:
    return _write(Path(path), render_csv(header, rows))


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
        "params": params,
        "tool_version": version,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": [str(out_path)],
    }
    return _write(manifest_path(out_path), to_json(payload) + "\n")
