import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liabstaff import (
    BASELINE,
    DEFAULT_WAGE,
    Mode,
    ModelParams,
    ParameterError,
    mode_attrs,
    parse_config,
    validate,
)
from liabstaff.queueing import MAX_OFFERED_LOAD


def test_baseline_values_accepted():
    p = validate(BASELINE)
    assert p == BASELINE
    assert (p.lam, p.mu_a, p.mu_i) == (50.0, 12.0, 6.0)
    assert (p.q, p.h, p.big_l) == (0.90, 0.95, 2000.0)
    assert (p.c_w, p.c_n, p.kappa) == (150.0, 200.0, 2500.0)
    assert (p.k_a, p.k_i, p.w) == (50.0, 110.0, DEFAULT_WAGE)


def test_validation_is_idempotent():
    assert validate(validate(BASELINE)) == validate(BASELINE)


def test_q_above_h_rejected():
    with pytest.raises(ParameterError, match="q must be below h"):
        validate(dataclasses.replace(BASELINE, q=0.96))


def test_equal_service_rates_rejected():
    with pytest.raises(ParameterError, match="mu_a must exceed mu_i"):
        validate(dataclasses.replace(BASELINE, mu_i=12.0))


def test_disutility_ordering_rejected():
    with pytest.raises(ParameterError, match="k_i must exceed k_a"):
        validate(dataclasses.replace(BASELINE, k_i=50.0))


def test_multiple_violations_all_reported():
    with pytest.raises(ParameterError) as exc:
        validate(dataclasses.replace(BASELINE, lam=-1.0, kappa=0.0))
    assert "lambda must be positive" in str(exc.value)
    assert "kappa must be positive" in str(exc.value)


def test_mode_attrs_baseline():
    assert mode_attrs(Mode.A, BASELINE) == (12.0, pytest.approx(0.10), 50.0)
    assert mode_attrs(Mode.I, BASELINE) == (6.0, pytest.approx(0.05), 110.0)


def test_mode_attrs_accuracy_gap_identity():
    eps = 0.03
    p = dataclasses.replace(BASELINE, q=BASELINE.h - eps)
    _, pa, _ = mode_attrs(Mode.A, p)
    _, pi, _ = mode_attrs(Mode.I, p)
    assert pa - pi == pytest.approx(eps)


@given(q=st.floats(0.01, 0.98), gap=st.floats(0.001, 0.01))
def test_independent_mode_always_more_accurate(q, gap):
    h = min(q + gap, 0.99)
    p = validate(dataclasses.replace(BASELINE, q=q, h=h))
    assert mode_attrs(Mode.I, p)[1] < mode_attrs(Mode.A, p)[1]


def test_offered_load_limit():
    # lambda = 100000 lies far inside the limit; lambda / mu_i at the limit passes
    assert parse_config("lambda = 100000").lam == 100000.0
    validate(dataclasses.replace(BASELINE, lam=MAX_OFFERED_LOAD * BASELINE.mu_i))
    with pytest.raises(ParameterError, match="offered-load limit"):
        validate(dataclasses.replace(BASELINE, lam=1.01 * MAX_OFFERED_LOAD * BASELINE.mu_i))
    with pytest.raises(ParameterError, match="offered-load limit"):
        parse_config("mu_i = 1e-300\nmu_a = 1")


def test_params_are_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        BASELINE.lam = 60.0


def test_config_round_trip_and_defaults():
    p = parse_config(
        """
        # perturbed arrival rate, everything else baseline
        lambda = 60
        big_l = 2500  # trailing comment
        """
    )
    assert p.lam == 60.0
    assert p.big_l == 2500.0
    assert p.mu_a == BASELINE.mu_a
    assert p.w == DEFAULT_WAGE


def test_config_unknown_key_is_error():
    with pytest.raises(ParameterError, match=r"line 1: unknown key 'mu_b'"):
        parse_config("mu_b = 3")


def test_config_bad_number_names_line():
    with pytest.raises(ParameterError, match="line 2"):
        parse_config("lambda = 50\nq = high")


def test_config_invalid_ordering_rejected():
    with pytest.raises(ParameterError, match="q must be below h"):
        parse_config("q = 0.97")
    with pytest.raises(ParameterError, match="lambda must be finite"):
        parse_config("lambda = inf")
