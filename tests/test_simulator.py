import dataclasses
import math
import sys

import pytest

from liabstaff import (
    BASELINE,
    Mode,
    ParameterError,
    Policy,
    SimConfig,
    UnstableError,
    cost_breakdown,
    queue_metrics,
    simulate,
    simulate_policy,
)
from liabstaff.cli import _VALIDATE_CONFIGS
from liabstaff.params import BOX_HI, BOX_LO
from liabstaff.simulator import MAX_CUSTOMERS, check_config

from oracles import simulate_indexed


def test_utilization_matches_offered_load():
    cfg = SimConfig(lam=50, mu=12, n=5, customers=100_000, seed=44)
    res = simulate(cfg)
    assert abs(res.utilization - 50 / 60) <= 3 * res.utilization_stderr
    assert res.wait_stderr > 0


def test_system_time_matches_theory():
    # t_total is W_q + 1/mu; the estimate lies 0.75 standard errors from it.
    # The bit-for-bit reference builds SimResult by position in the same
    # order, so only an independent value catches a swapped field.
    res = simulate(SimConfig(lam=50, mu=12, n=5, customers=100_000, seed=44))
    assert abs(res.mean_system_time - queue_metrics(50, 12, 5).t_total) <= 3 * res.system_time_stderr


def test_fixed_seed_is_bit_reproducible():
    cfg = SimConfig(lam=50, mu=12, n=5, customers=30_000, seed=7, error_prob=0.1)
    assert simulate(cfg) == simulate(cfg)


def test_different_seeds_differ():
    cfg = SimConfig(lam=50, mu=12, n=5, customers=30_000, seed=7)
    other = dataclasses.replace(cfg, seed=8)
    assert simulate(cfg).mean_wait != simulate(other).mean_wait


def test_zero_error_prob_gives_zero_rate_exactly():
    cfg = SimConfig(lam=50, mu=12, n=5, customers=20_000, seed=1, error_prob=0.0)
    res = simulate(cfg)
    assert res.error_rate == 0.0


def test_error_rate_tracks_bernoulli_parameter():
    cfg = SimConfig(lam=50, mu=12, n=5, customers=100_000, seed=5, error_prob=0.10)
    res = simulate(cfg)
    assert abs(res.error_rate - 0.10) <= 3 * res.error_rate_stderr
    assert res.error_rate_stderr > 0


def test_unstable_config_rejected():
    with pytest.raises(UnstableError):
        simulate(SimConfig(lam=50, mu=6, n=8, customers=1000, seed=0))
    # stable, but above the utilization ceiling that erlang_c enforces
    with pytest.raises(UnstableError, match="at least 6"):
        simulate(SimConfig(lam=59.99999999994, mu=12, n=5, customers=1000, seed=0))


def test_too_few_customers_for_batches_rejected():
    with pytest.raises(ValueError, match="batch"):
        simulate(SimConfig(lam=50, mu=12, n=5, customers=15, warmup=0, seed=0))


def test_bad_warmup_rejected():
    with pytest.raises(ValueError, match="warmup"):
        simulate(SimConfig(lam=50, mu=12, n=5, customers=100, warmup=100, seed=0))


def test_negative_seed_and_too_many_servers_rejected():
    with pytest.raises(ParameterError, match="seed must be nonnegative, got -1"):
        simulate(SimConfig(lam=50, mu=12, n=5, customers=100, seed=-1))
    # numpy sizes a float64 array of at most sys.maxsize // 8 elements
    with pytest.raises(ParameterError, match=f"customers must not exceed {sys.maxsize // 8}, got {10**20}"):
        simulate(SimConfig(lam=50, mu=12, n=5, customers=10**20, seed=0))
    with pytest.raises(ParameterError, match=r"n must not exceed 1e\+30"):
        simulate(SimConfig(lam=50, mu=12, n=10**309, customers=100, seed=0))
    # servers up to the bound run, with finite numbers
    res = simulate(SimConfig(lam=50, mu=12, n=10**30, customers=100, seed=0))
    assert res.mean_wait == 0.0
    assert 0.0 < res.utilization < 1e-28


def test_check_config_accepts_each_bound_and_refuses_past_it():
    # check_config alone, so nothing is allocated for the largest counts
    ok = SimConfig(lam=50, mu=12, n=5, customers=100, seed=0)
    accepted = [
        dataclasses.replace(ok, lam=BOX_LO, mu=BOX_LO),
        dataclasses.replace(ok, customers=MAX_CUSTOMERS),
        dataclasses.replace(ok, error_prob=1.0),
        dataclasses.replace(ok, customers=30, warmup=10),  # 20 counted
        dataclasses.replace(ok, n=int(BOX_HI)),
    ]
    for cfg in accepted:
        check_config(cfg)
    refused = [
        (dataclasses.replace(ok, customers=MAX_CUSTOMERS + 1), "customers must not exceed"),
        (dataclasses.replace(ok, error_prob=math.nextafter(1.0, 2.0)), "error_prob must lie in"),
        (dataclasses.replace(ok, customers=25, warmup=10), "got 15"),
        (dataclasses.replace(ok, n=int(BOX_HI) + 1), "n must not exceed"),
    ]
    for cfg, message in refused:
        with pytest.raises(ParameterError, match=message):
            check_config(cfg)
    # 27 and 37 counted after the default warmup fill 20 batches of one
    for customers in (30, 41):
        assert simulate(dataclasses.replace(ok, customers=customers)).customers_counted == 20


def test_simulate_policy_matches_analytic_cost():
    pol = Policy(theta=0.40, n=5, mode=Mode.A)
    est = simulate_policy(pol, BASELINE, customers=200_000, seed=11)
    analytic = cost_breakdown(0.40, 5, Mode.A, BASELINE)
    assert abs(est.breakdown.total - analytic.total) <= 3 * est.total_stderr
    # deterministic components are exact
    assert est.breakdown.staffing == analytic.staffing
    assert est.breakdown.compliance == analytic.compliance


def test_simulate_policy_full_transfer_has_zero_risk():
    pol = Policy(theta=1.0, n=10, mode=Mode.I)
    est = simulate_policy(pol, BASELINE, customers=50_000, seed=12)
    assert est.breakdown.risk == 0.0


def test_simulate_policy_deterministic():
    pol = Policy(theta=0.40, n=5, mode=Mode.A)
    a = simulate_policy(pol, BASELINE, customers=30_000, seed=3)
    b = simulate_policy(pol, BASELINE, customers=30_000, seed=3)
    assert a == b


# the last two configs run a one-server heap and staff more servers than
# any run has customers
@pytest.mark.parametrize("lam, mu, n", [*_VALIDATE_CONFIGS, (5.0, 6.0, 1), (50.0, 12.0, 30_000)])
@pytest.mark.parametrize(
    "customers, warmup, error_prob, seed",
    [
        (20_000, None, 0.0, 0),
        (20_000, None, 0.1, 1),
        (12_345, 0, 0.1, 2),
        (5_000, 1_234, 0.0, 3),
    ],
)
def test_matches_indexed_loop_bit_for_bit(lam, mu, n, customers, warmup, error_prob, seed):
    cfg = SimConfig(lam=lam, mu=mu, n=n, customers=customers, seed=seed,
                    warmup=warmup, error_prob=error_prob)
    assert simulate(cfg) == simulate_indexed(cfg)
