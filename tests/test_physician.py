import dataclasses
import math

import numpy as np
import pytest

from liabstaff import (
    BASELINE,
    Mode,
    best_response,
    physician_utility,
    threshold,
    validate,
)
from liabstaff.physician import REGIME_I_EPS, _mode_split

from oracles import random_valid_params


def argmax_mode(theta, p):
    """Brute-force best response: argmax of utility over the two modes,
    ties to Mode A."""
    ua = physician_utility(Mode.A, theta, p)
    ui = physician_utility(Mode.I, theta, p)
    return Mode.A if ua >= ui else Mode.I


def test_utility_examples():
    w = BASELINE.w
    assert physician_utility(Mode.A, 0.0, BASELINE) == pytest.approx(w - 50)
    assert physician_utility(Mode.A, 0.60, BASELINE) == pytest.approx(w - 170)
    assert physician_utility(Mode.I, 0.60, BASELINE) == pytest.approx(w - 170)
    assert physician_utility(Mode.I, 1.0, BASELINE) == pytest.approx(w - 210)


def test_utility_rejects_theta_outside_unit_interval():
    with pytest.raises(ValueError):
        physician_utility(Mode.A, 1.2, BASELINE)
    with pytest.raises(ValueError):
        physician_utility(Mode.I, -0.1, BASELINE)


def test_threshold_high_loss():
    p = dataclasses.replace(BASELINE, big_l=4000.0)
    assert threshold(p).theta_d == pytest.approx(0.30, abs=1e-12)


def test_threshold_small_disutility_gap():
    p = validate(dataclasses.replace(BASELINE, k_i=60.0))
    assert threshold(p).theta_d == pytest.approx(0.10, abs=1e-12)


def test_best_response_examples():
    assert best_response(0.40, BASELINE) is Mode.A
    assert best_response(0.61, BASELINE) is Mode.I
    # the threshold itself goes to A, the next float above it to I; at the
    # baseline theta_d is 0.6000000000000008, so 0.60 is not a tie
    theta_d = threshold(BASELINE).theta_d
    assert best_response(theta_d, BASELINE) is Mode.A
    assert best_response(math.nextafter(theta_d, 1.0), BASELINE) is Mode.I


def test_best_response_accepts_theta_one_and_refuses_the_next_float():
    assert best_response(1.0, BASELINE) is Mode.I
    with pytest.raises(ValueError, match="theta must lie in"):
        best_response(math.nextafter(1.0, 2.0), BASELINE)


def test_best_response_matches_utility_argmax_on_grid():
    for theta in np.linspace(0.0, 1.0, 1001):
        assert best_response(float(theta), BASELINE) is argmax_mode(float(theta), BASELINE)


def test_wage_never_affects_mode_choice():
    for w in (1.0, 120.0, 5000.0):
        p = dataclasses.replace(BASELINE, w=w)
        assert threshold(p).theta_d == threshold(BASELINE).theta_d
        for theta in np.linspace(0.0, 1.0, 101):
            assert best_response(float(theta), p) is best_response(float(theta), BASELINE)


def test_utilities_cross_exactly_at_threshold():
    rng = np.random.default_rng(4)
    for p in [BASELINE] + [random_valid_params(rng) for _ in range(10)]:
        theta_d = threshold(p).theta_d
        if theta_d > 1.0:
            continue  # crossing lies outside the feasible share range
        ua = physician_utility(Mode.A, theta_d, p)
        ui = physician_utility(Mode.I, theta_d, p)
        assert ua == pytest.approx(ui, abs=1e-9)


def test_large_threshold_means_mode_a_everywhere():
    p = dataclasses.replace(BASELINE, big_l=80.0)  # tiny losses
    assert threshold(p).theta_d > 1.0
    for theta in np.linspace(0.0, 1.0, 101):
        assert best_response(float(theta), p) is Mode.A


def test_mode_split_agrees_with_best_response():
    # the split of [0, 1] and of a seeded subinterval: every share in the
    # Mode A interval, theta_d included, gets Mode A; every share in the
    # Mode I interval, theta_d + REGIME_I_EPS included, gets Mode I
    rng = np.random.default_rng(33)
    for p in [BASELINE] + [random_valid_params(rng) for _ in range(40)]:
        theta_d = threshold(p).theta_d
        lo, hi = sorted(float(x) for x in rng.uniform(0.0, 1.0, 2))
        for lo, hi in ((0.0, 1.0), (lo, hi)):
            (a_lo, a_hi), (i_lo, i_hi) = _mode_split(lo, hi, theta_d)
            assert (a_lo, i_hi) == (lo, hi)
            assert a_hi == min(hi, theta_d) and i_lo == max(lo, theta_d + REGIME_I_EPS)
            for mode, (s_lo, s_hi), edge in ((Mode.A, (a_lo, a_hi), theta_d),
                                             (Mode.I, (i_lo, i_hi), theta_d + REGIME_I_EPS)):
                shares = [s_lo, s_hi, *(float(x) for x in rng.uniform(s_lo, s_hi, 5))] if s_lo <= s_hi else []
                if edge <= 1.0:
                    shares.append(edge)
                for theta in shares:
                    assert best_response(theta, p) is mode, (p, theta)
