import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from liabstaff import (
    BASELINE,
    DEFAULT_WAGE,
    Mode,
    ModelParams,
    ParameterError,
    compare_scenarios,
    make_scenario,
    mode_attrs,
    optimize_platform,
    optimize_social,
    parse_config,
    threshold,
    validate,
    welfare_curve,
)
from liabstaff.params import BOX_HI, BOX_LO, MIN_ACCURACY_GAP
from liabstaff.queueing import MAX_OFFERED_LOAD
from liabstaff.scenario import SCENARIO_IDS


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


def test_threshold_denominator_underflow_rejected():
    # (h - q)^2 = 1e-400 underflows to 0, so threshold() would divide by 0,
    # and with big_l = 1e-200 so would theta_d's big_l * (h - q); these and
    # h - q = 1e-150 lie below the gap floor
    for q, h, big_l in ((1e-200, 2e-200, 2000.0), (1e-200, 2e-200, 1e-200), (1e-150, 2e-150, 2000.0)):
        with pytest.raises(ParameterError, match=rf"h - q .*q = {q!r}, h = {h!r}"):
            validate(dataclasses.replace(BASELINE, q=q, h=h, big_l=big_l))
    # a gap at the floor passes, and every number threshold() gives is finite
    report = threshold(validate(dataclasses.replace(BASELINE, q=1e-30, h=2e-30)))
    assert report.theta_d > 1
    assert all(math.isfinite(x) for x in dataclasses.astuple(report))


def _floats(x) -> list[float]:
    """Every float in a result, through dataclass fields, tuples and lists."""
    if isinstance(x, float):
        return [x]
    if dataclasses.is_dataclass(x):
        x = [getattr(x, f.name) for f in dataclasses.fields(x)]
    return [v for item in x for v in _floats(item)] if isinstance(x, (list, tuple)) else []


def test_every_number_of_a_validated_set_is_finite():
    # rates and money values at the box's edges or log-uniform over and past
    # it, offered loads up to 1e4, h - q at its floor half the time
    rng = np.random.default_rng(13)
    accepted = 0
    while accepted < 150:
        v = {f: float(rng.choice([BOX_LO, BOX_HI, 10.0 ** rng.uniform(-35, 35)]))
             for f in ("mu_a", "mu_i", "big_l", "c_w", "c_n", "kappa", "k_a", "k_i", "w")}
        v["lam"] = v["mu_i"] * 10.0 ** rng.uniform(-40, 4)
        v["mu_a"], v["mu_i"] = max(v["mu_a"], v["mu_i"]), min(v["mu_a"], v["mu_i"])
        v["k_i"], v["k_a"] = max(v["k_i"], v["k_a"]), min(v["k_i"], v["k_a"])
        v["q"] = 10.0 ** rng.uniform(-40, -1e-3)
        v["h"] = v["q"] + (MIN_ACCURACY_GAP if rng.random() < 0.5 else (1 - v["q"]) * rng.random())
        try:
            p = validate(ModelParams(**v))
        except ParameterError:
            continue
        accepted += 1
        results = [threshold(p), optimize_platform(p), optimize_social(p),
                   compare_scenarios([make_scenario(sid) for sid in SCENARIO_IDS], p),
                   welfare_curve(p, [p.big_l])]
        assert all(math.isfinite(x) for x in _floats(results)), p


def test_equal_service_rates_rejected():
    with pytest.raises(ParameterError, match="mu_a must exceed mu_i"):
        validate(dataclasses.replace(BASELINE, mu_i=12.0))


def test_disutility_ordering_rejected():
    with pytest.raises(ParameterError, match="k_i must exceed k_a"):
        validate(dataclasses.replace(BASELINE, k_i=50.0))


def test_multiple_violations_all_reported():
    with pytest.raises(ParameterError) as exc:
        validate(dataclasses.replace(BASELINE, lam=-1.0, kappa=0.0, c_w=1e31, w=1e-31))
    assert "lambda must be positive" in str(exc.value)
    assert "kappa must be positive" in str(exc.value)
    assert "c_w must lie in [1e-30, 1e+30], got 1e+31" in str(exc.value)
    assert "w must lie in [1e-30, 1e+30], got 1e-31" in str(exc.value)


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
