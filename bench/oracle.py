"""Independent answers the benchmark checks the program against.

Nothing here calls the program.  The delay probability is the factorial
form of Erlang C summed term by term (in log scale, so that large N neither
overflows nor underflows), the optima are exhaustive searches over a theta
grid and every staffing level up to a proven bound, and the physician
threshold is the closed form theta_d = (k_i - k_a) / (L (h - q)).

Parameters are plain dicts with the keys of ``inputs.PARAM_KEYS``; modes
are the strings "A" and "I".
"""

from __future__ import annotations

import math

import numpy as np

THETA_POINTS = 2001
REGIME_I_EPS = 1e-6  # regime I starts just above theta_d
REL = 1e-9  # float tolerance on totals the program and the oracle both compute exactly
ROW_CHUNK = 256  # staffing levels per block of the theta-grid search


def mode_attrs(p: dict, mode: str) -> tuple[float, float]:
    """(service rate, error probability) of a mode."""
    return (p["mu_a"], 1.0 - p["q"]) if mode == "A" else (p["mu_i"], 1.0 - p["h"])


def theta_d(p: dict) -> float:
    return (p["k_i"] - p["k_a"]) / (p["big_l"] * (p["h"] - p["q"]))


def min_stable(lam: float, mu: float) -> int:
    n = math.floor(lam / mu) + 1
    while lam >= n * mu:
        n += 1
    return n


def erlang_c_direct(n: int, a: float) -> float:
    """Delay probability: (a^n/n! * n/(n-a)) / (sum_{k<n} a^k/k! + that)."""
    logs = [k * math.log(a) - math.lgamma(k + 1) for k in range(n + 1)]
    top = max(logs)
    head = math.fsum(math.exp(x - top) for x in logs[:n])
    tail = math.exp(logs[n] - top) * n / (n - a)
    return tail / (head + tail)


def erlang_c_table(a: float, n_lo: int, n_hi: int) -> np.ndarray:
    """erlang_c_direct(n, a) for every n in [n_lo, n_hi], by prefix sums."""
    k = np.arange(n_hi + 1, dtype=float)
    logs = k * math.log(a) - np.array([math.lgamma(x + 1.0) for x in k])
    terms = np.exp(logs - logs.max())
    head = np.cumsum(terms) - terms  # sum over k < n
    n = k[n_lo:]
    tail = terms[n_lo:] * n / (n - a)
    return tail / (head[n_lo:] + tail)


def wq_table(lam: float, mu: float, n_lo: int, n_hi: int) -> np.ndarray:
    n = np.arange(n_lo, n_hi + 1, dtype=float)
    return erlang_c_table(lam / mu, n_lo, n_hi) / (n * mu - lam)


def wq(lam: float, mu: float, n: int) -> float:
    return erlang_c_direct(n, lam / mu) / (n * mu - lam)


def platform_cost(p: dict, theta: float, n: int, mode: str) -> float:
    mu, err = mode_attrs(p, mode)
    return (
        p["lam"] * (1.0 - theta) * p["big_l"] * err
        + p["lam"] * p["c_w"] * (wq(p["lam"], mu, n) + 1.0 / mu)
        + p["c_n"] * n
        + p["kappa"] * theta * theta * n
    )


def social_cost(p: dict, n: int, mode: str) -> float:
    mu, err = mode_attrs(p, mode)
    return (
        p["lam"] * p["big_l"] * err
        + p["lam"] * p["c_w"] * (wq(p["lam"], mu, n) + 1.0 / mu)
        + p["c_n"] * n
    )


class Regime:
    """Exhaustive search of one mode on one theta interval.

    ``best[n]`` is the least platform cost at staffing n over the theta grid
    (``theta[n]`` its argmin), for every stable n up to ``n_max``.  Beyond
    n_max no policy can win: every cost term is nonnegative, so a total is at
    least c_n * n, and the cost at the first ten stable levels already bounds
    the optimum from above.
    """

    def __init__(self, p: dict, mode: str, lo: float, hi: float, points: int = THETA_POINTS):
        self.mode, self.lo, self.hi = mode, lo, hi
        mu, err = mode_attrs(p, mode)
        lam = p["lam"]
        self.step = (hi - lo) / (points - 1)
        thetas = np.linspace(lo, hi, points)
        self.n_lo = min_stable(lam, mu)
        head = np.arange(self.n_lo, self.n_lo + 10)
        fixed = lam * p["c_w"] * (wq_table(lam, mu, self.n_lo, self.n_lo + 9) + 1.0 / mu) + p["c_n"] * head
        ends = np.array([lo, hi])
        upper = np.min(lam * (1.0 - ends[None, :]) * p["big_l"] * err + fixed[:, None]
                       + p["kappa"] * ends[None, :] ** 2 * head[:, None])
        self.n_max = max(self.n_lo, math.floor(upper / p["c_n"]))
        ns = np.arange(self.n_lo, self.n_max + 1)
        fixed = lam * p["c_w"] * (wq_table(lam, mu, self.n_lo, self.n_max) + 1.0 / mu) + p["c_n"] * ns
        risk = lam * (1.0 - thetas) * p["big_l"] * err
        self.best = np.empty(len(ns))
        self.theta = np.empty(len(ns))
        for s in range(0, len(ns), ROW_CHUNK):
            block = (risk[None, :] + fixed[s:s + ROW_CHUNK, None]
                     + p["kappa"] * thetas[None, :] ** 2 * ns[s:s + ROW_CHUNK, None])
            i = np.argmin(block, axis=1)
            self.best[s:s + ROW_CHUNK] = block[np.arange(len(i)), i]
            self.theta[s:s + ROW_CHUNK] = thetas[i]
        j = int(np.argmin(self.best))
        self.n_star, self.total = self.n_lo + j, float(self.best[j])
        self.theta_star = float(self.theta[j])
        self.kappa = p["kappa"]

    def at(self, n: int) -> float:
        """Least grid cost at staffing n; inf outside the searched range."""
        return float(self.best[n - self.n_lo]) if self.n_lo <= n <= self.n_max else math.inf

    def resolution(self, n: int) -> float:
        """Bound on how far the grid minimum at n can exceed the exact one:
        the cost is kappa*n*(theta - theta*)^2 above its minimum and the
        nearest grid point is within step/2."""
        return self.kappa * n * self.step ** 2 / 4.0


def platform(p: dict, lo: float = 0.0, hi: float = 1.0) -> dict[str, Regime]:
    """Both regimes of the platform problem on [lo, hi]: A on
    [lo, min(hi, theta_d)], I on [max(lo, theta_d + eps), hi]; a regime whose
    interval is empty is absent."""
    td = theta_d(p)
    out = {}
    if lo <= min(hi, td):
        out["A"] = Regime(p, "A", lo, min(hi, td))
    if max(lo, td + REGIME_I_EPS) <= hi:
        out["I"] = Regime(p, "I", max(lo, td + REGIME_I_EPS), hi)
    return out


def winner(regimes: dict[str, Regime]) -> str:
    """Mode of the cheaper regime; ties go to A."""
    if "I" not in regimes:
        return "A"
    if "A" not in regimes:
        return "I"
    return "A" if regimes["A"].total <= regimes["I"].total else "I"


def social(p: dict) -> tuple[str, int, float]:
    """Exhaustive social optimum (mode, n, total); ties go to A, then small n."""
    best = None
    for mode in ("A", "I"):
        mu, err = mode_attrs(p, mode)
        lam, n_lo = p["lam"], min_stable(p["lam"], mu)
        const = lam * p["big_l"] * err + lam * p["c_w"] / mu
        head = const + lam * p["c_w"] * wq_table(lam, mu, n_lo, n_lo + 9) + p["c_n"] * np.arange(n_lo, n_lo + 10)
        n_max = max(n_lo, math.floor(float(head.min()) / p["c_n"]))
        totals = const + lam * p["c_w"] * wq_table(lam, mu, n_lo, n_max) + p["c_n"] * np.arange(n_lo, n_max + 1)
        j = int(np.argmin(totals))
        if best is None or totals[j] < best[2]:
            best = (mode, n_lo + j, float(totals[j]))
    return best


def forced(p: dict, theta: float, mode: str) -> tuple[int, float]:
    """Least platform cost over staffing at a fixed theta and mode."""
    reg = Regime(p, mode, theta, theta, points=2)
    return reg.n_star, reg.total
