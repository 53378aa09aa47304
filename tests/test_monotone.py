"""Comparative statics of the per-regime optimum: the paper's claim that
liability and staffing are substitute safety mechanisms.

In one mode and on one fixed share interval the cost is

    lam (1 - theta) L P + lam c_w T(N) + c_n N + kappa theta^2 N,

whose cross term in (theta, N) is 2 kappa theta >= 0: a higher share makes
each server dearer, so share and staffing are substitutes. By Topkis (1978)
the optimum (theta*, -N*), ties going to the smaller N, is then weakly
increasing in each parameter that raises the marginal cost of a server or
lowers that of the share: c_n (N* down, theta* up), L (N* down, theta* up)
and, reversed, c_w (N* up, theta* down). kappa raises both marginal costs,
so theta* falls with it and N* has no sign.
"""

import dataclasses

import numpy as np
import pytest

from liabstaff import Mode, optimize_regime, validate

from oracles import random_valid_params

# five geometric steps from half to twice the drawn value
FACTORS = [0.5 * 4.0 ** (k / 4) for k in range(5)]
INTERVALS = [(0.0, 1.0), (0.2, 0.6)]
# field: (direction of N*, direction of theta*) as the field grows; 0 asserts nothing
DIRECTIONS = {"c_n": (-1, 1), "c_w": (1, -1), "big_l": (-1, 1), "kappa": (0, -1)}


def _draws():
    """Calibrated draws at their own arrival rate and at 100 and 10^4 times it."""
    rng = np.random.default_rng(7)
    for scale, count in ((1.0, 12), (100.0, 4), (1e4, 1)):
        for _ in range(count):
            p = random_valid_params(rng)
            yield validate(dataclasses.replace(p, lam=p.lam * scale))


def _weakly(direction, values):
    return all(direction * (b - a) >= 0 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("field", DIRECTIONS)
def test_optimum_moves_as_the_cross_term_predicts(field):
    n_dir, theta_dir = DIRECTIONS[field]
    for p in _draws():
        base = getattr(p, field)
        points = [validate(dataclasses.replace(p, **{field: base * f})) for f in FACTORS]
        for m in (Mode.A, Mode.I):
            for lo, hi in INTERVALS:
                best = [optimize_regime(m, lo, hi, q).best for q in points]
                ns, thetas = [b.n for b in best], [b.theta for b in best]
                assert _weakly(n_dir, ns) and _weakly(theta_dir, thetas), (m, lo, hi, p, ns, thetas)
