"""Model primitives: parameter set, diagnostic modes, validation, config files.

All monetary quantities are dollars per hour internally; any "thousands"
display is a presentation-layer division by 1000.
"""

from __future__ import annotations

import dataclasses
import math
from enum import Enum
from pathlib import Path

from ._record import record
from .errors import ParameterError
from .queueing import MAX_OFFERED_LOAD

# The physician wage w has no calibrated value; it cancels out of every
# mode-choice comparison, so any positive default is equivalent.
DEFAULT_WAGE = 300.0


class Mode(Enum):
    """Diagnostic mode: A = AI-assisted rapid confirmation, I = independent."""

    A = "A"
    I = "I"


@record
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


# The box of every rate and money field and the floor of h - q; see validate
BOX_LO = 1e-30
BOX_HI = 1e30
MIN_ACCURACY_GAP = 1e-30
# Each parameter's outside name, in config keys, messages and sweeps, mapped
# to its field, in field order; "lambda" is a Python keyword, so it names lam.
FIELD_BY_NAME = {
    "lambda" if f.name == "lam" else f.name: f.name for f in dataclasses.fields(ModelParams)
}


def validate(p: ModelParams) -> ModelParams:
    """Return ``p`` unchanged if every field is finite, every rate and money
    field (all but q and h) lies in [BOX_LO, BOX_HI], 0 < q < h < 1 with
    h - q >= MIN_ACCURACY_GAP, mu_a > mu_i, k_i > k_a and lam / mu_i is at
    most MAX_OFFERED_LOAD; else raise ParameterError, one line per violation.

    Then every number the solvers return is finite; rounding moves each bound
    below by a factor near 1:
    - A staffing search in the mode of rate mu and error probability P
      starts at N0 = min_staffing(lam, mu) <= lam / mu + 2 <= 1e6 + 2, where
      rho <= 1 - 1e-9, so W_q(N0) <= 1e9 / (N0 mu). At a share in [0, 1] its
      first total is T <= lam L + c_w (lam / mu + 1e9) + (c_n + kappa) N0
      <= 1e60 + 2e39 + 3e36 < 1.01e60.
    - It prices a later level only when that level's total less lam c_w W_q,
      a smaller wait than W_q(N0), lies below the incumbent, at most T. So no
      cost term, total or difference of totals exceeds 2T.
    - Every total is at least c_n >= BOX_LO, so pct_vs_s1 and gap_pct_of_s4
      stay below 100 * 2T / BOX_LO < 3e92.
    - L (h - q) >= 1e-60 and L (h - q)^2 >= 1e-90 are normal floats, so
      theta_d <= 1e90, its four sensitivities are at most 1e120 in size and
      theta_unconstrained = lam L P / (2 kappa N) <= 1e90.
    """
    problems = []
    for name, field in FIELD_BY_NAME.items():
        value, boxed = getattr(p, field), field not in ("q", "h")  # q, h: bounded by their order
        if not math.isfinite(value):
            problems.append(f"{name} must be finite")
        elif boxed and not value > 0:
            problems.append(f"{name} must be positive")
        elif boxed and not BOX_LO <= value <= BOX_HI:
            problems.append(f"{name} must lie in [{BOX_LO:g}, {BOX_HI:g}], got {value!r}")
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
    elif not p.h - p.q >= MIN_ACCURACY_GAP:
        problems.append(f"h - q must be at least {MIN_ACCURACY_GAP:g} at q = {p.q!r}, h = {p.h!r}")
    if not p.k_i > p.k_a:
        problems.append("k_i must exceed k_a")
    if problems:
        raise ParameterError("; ".join(problems))
    return p


def mode_attrs(m: Mode, p: ModelParams) -> tuple[float, float, float]:
    """Return (service_rate, error_prob, disutility) for mode ``m``."""
    if m is Mode.A:
        return p.mu_a, 1.0 - p.q, p.k_a
    return p.mu_i, 1.0 - p.h, p.k_i


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
        if key not in FIELD_BY_NAME:
            raise ParameterError(f"line {lineno}: unknown key {key!r}")
        field = FIELD_BY_NAME[key]
        if field in values:
            raise ParameterError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[field] = float(val.strip())
        except ValueError:
            raise ParameterError(
                f"line {lineno}: value for {key!r} is not a number: {val.strip()!r}"
            ) from None
    return validate(ModelParams(**values))


def _read(path: str | Path, what: str) -> str:
    """An input file's text; a missing, unreadable or non-UTF-8 file raises
    ParameterError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ParameterError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ParameterError(f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{what} {path} is not UTF-8: {exc.reason} at byte {exc.start}") from None


def load_params(path: str | Path) -> ModelParams:
    """Read a UTF-8 config file and validate it; see :func:`parse_config`.
    A missing, unreadable or non-UTF-8 file raises ParameterError naming it."""
    return parse_config(_read(path, "config file"))
