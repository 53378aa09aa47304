"""Model primitives: parameter set, diagnostic modes, validation, config files.

All monetary quantities are dollars per hour internally; any "thousands"
display is a presentation-layer division by 1000.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import ParameterError
from .queueing import MAX_OFFERED_LOAD

# The physician wage w has no calibrated value; it cancels out of every
# mode-choice comparison, so any positive default is equivalent.
DEFAULT_WAGE = 300.0


class Mode(Enum):
    """Diagnostic mode: A = AI-assisted rapid confirmation, I = independent."""

    A = "A"
    I = "I"


@dataclass(frozen=True)
class ModelParams:
    """Calibrated model primitives. Immutable once validated.

    lam      : patient arrival rate (patients/hour)
    mu_a     : Mode-A service rate (patients/hour/physician)
    mu_i     : Mode-I service rate (patients/hour/physician)
    q        : AI diagnostic accuracy (probability)
    h        : physician independent diagnostic accuracy (probability)
    big_l    : expected loss per diagnostic error ($)
    c_w      : patient waiting cost ($/patient-hour)
    c_n      : staffing cost ($/physician-hour)
    kappa    : compliance cost coefficient ($/physician-hour at full transfer)
    k_a      : Mode-A operating disutility ($/hour)
    k_i      : Mode-I operating disutility ($/hour)
    w        : physician wage ($/hour)
    """

    lam: float = 50.0
    mu_a: float = 12.0
    mu_i: float = 6.0
    q: float = 0.90
    h: float = 0.95
    big_l: float = 2000.0
    c_w: float = 150.0
    c_n: float = 200.0
    kappa: float = 2500.0
    k_a: float = 50.0
    k_i: float = 110.0
    w: float = DEFAULT_WAGE


BASELINE = ModelParams()


def validate(p: ModelParams) -> ModelParams:
    """Check every parameter is finite, as are the hourly loss and waiting
    rates lam * big_l and lam * c_w, every ordering holds and the larger
    offered load lam / mu_i is within queueing.MAX_OFFERED_LOAD; return ``p``
    unchanged if all do.

    Raises ParameterError listing one line per violation.
    """
    problems = [
        f"{'lambda' if f.name == 'lam' else f.name} must be finite"
        for f in dataclasses.fields(p)
        if not math.isfinite(getattr(p, f.name))
    ]
    if not problems:
        for name, value in (("big_l", p.big_l), ("c_w", p.c_w)):
            if not math.isfinite(p.lam * value):
                problems.append(f"lambda * {name} must be finite, got {p.lam * value!r}")
    if not p.lam > 0:
        problems.append("lambda must be positive")
    if not p.mu_i > 0:
        problems.append("mu_i must be positive")
    if not p.mu_a > p.mu_i:
        problems.append("mu_a must exceed mu_i")
    if 0 < p.lam < math.inf and p.mu_i > 0 and p.lam / p.mu_i > MAX_OFFERED_LOAD:
        problems.append(
            f"lambda/mu_i must not exceed the offered-load limit {MAX_OFFERED_LOAD:g}, "
            f"got {p.lam / p.mu_i:.10g}"
        )
    if not p.q > 0:
        problems.append("q must be positive")
    if not p.h < 1:
        problems.append("h must be below 1")
    if not p.q < p.h:
        problems.append("q must be below h")
    if not p.big_l > 0:
        problems.append("big_l must be positive")
    if not p.c_w > 0:
        problems.append("c_w must be positive")
    if not p.c_n > 0:
        problems.append("c_n must be positive")
    if not p.kappa > 0:
        problems.append("kappa must be positive")
    if not p.k_a > 0:
        problems.append("k_a must be positive")
    if not p.k_i > p.k_a:
        problems.append("k_i must exceed k_a")
    if not p.w > 0:
        problems.append("w must be positive")
    if problems:
        raise ParameterError("; ".join(problems))
    return p


def mode_attrs(m: Mode, p: ModelParams) -> tuple[float, float, float]:
    """Return (service_rate, error_prob, disutility) for mode ``m``."""
    if m is Mode.A:
        return p.mu_a, 1.0 - p.q, p.k_a
    return p.mu_i, 1.0 - p.h, p.k_i


# Config-file keys; "lambda" is a Python keyword so it maps to the lam field.
_KEY_TO_FIELD = {
    "lambda": "lam",
    **{f.name: f.name for f in dataclasses.fields(ModelParams) if f.name != "lam"},
}


def parse_config(text: str) -> ModelParams:
    """Parse line-oriented ``key = value`` config text into validated params.

    ``#`` starts a comment; unknown keys are errors; missing keys fall back
    to the calibrated baseline (wage to its documented default).
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key not in _KEY_TO_FIELD:
            raise ParameterError(f"line {lineno}: unknown key {key!r}")
        field = _KEY_TO_FIELD[key]
        if field in values:
            raise ParameterError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[field] = float(val.strip())
        except ValueError:
            raise ParameterError(
                f"line {lineno}: value for {key!r} is not a number: {val.strip()!r}"
            ) from None
    return validate(ModelParams(**values))


def load_params(path: str | Path) -> ModelParams:
    """Read and validate a config file; see :func:`parse_config`."""
    return parse_config(Path(path).read_text())
