"""Physician mode choice: utility, indifference threshold, best response."""

from __future__ import annotations

from ._record import record
from .params import Mode, ModelParams, mode_attrs

# The shares that induce Mode I, (theta_d, hi], are open at the threshold,
# where best_response picks Mode A; the search closes them at this offset.
REGIME_I_EPS = 1e-6


@record
class ThresholdReport:
    """Indifference liability share and its closed-form sensitivities.

    theta_d may exceed 1 mathematically (small loss severity); callers
    compare feasible shares against it directly.
    """

    theta_d: float
    d_dq: float        # w.r.t. AI accuracy q
    d_dh: float        # w.r.t. physician accuracy h
    d_dl: float        # w.r.t. loss severity L
    d_ddelta_k: float  # w.r.t. the disutility gap k_i - k_a


def physician_utility(m: Mode, theta: float, p: ModelParams) -> float:
    """Expected hourly utility w - k_m - theta * L * P_m."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
    _, err_prob, disutility = mode_attrs(m, p)
    return p.w - disutility - theta * p.big_l * err_prob


def _indifference_share(delta_k: float, big_l: float, gap: float) -> float:
    """The indifference share delta_k / (L gap) at disutility gap
    delta_k = k_i - k_a, loss severity L and accuracy gap h - q."""
    return delta_k / (big_l * gap)


def _theta_d(p: ModelParams) -> float:
    """The indifference share of p, without the sensitivities threshold adds."""
    return _indifference_share(p.k_i - p.k_a, p.big_l, p.h - p.q)


def threshold(p: ModelParams) -> ThresholdReport:
    """Liability share at which the two modes yield equal utility."""
    delta_k = p.k_i - p.k_a
    gap = p.h - p.q
    theta_d = _indifference_share(delta_k, p.big_l, gap)
    slope = delta_k / (p.big_l * gap * gap)
    return ThresholdReport(
        theta_d=theta_d,
        d_dq=slope,
        d_dh=-slope,
        d_dl=-theta_d / p.big_l,
        d_ddelta_k=1.0 / (p.big_l * gap),
    )


def best_response(theta: float, p: ModelParams) -> Mode:
    """Mode A for theta at or below the threshold, Mode I above it."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
    return Mode.A if theta <= _theta_d(p) else Mode.I


def _mode_split(theta_lo: float, theta_hi: float, theta_d: float) -> tuple[tuple, tuple]:
    """The shares of [theta_lo, theta_hi] that induce Mode A and Mode I at
    threshold theta_d, as best_response picks them; either may be empty."""
    return (theta_lo, min(theta_hi, theta_d)), (max(theta_lo, theta_d + REGIME_I_EPS), theta_hi)
