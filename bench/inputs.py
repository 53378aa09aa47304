"""Seeded input generation for the benchmark workloads (stdlib only).

Nothing here imports numpy or the program: the set-up probe times the
program's own import, and generation must not hide part of that cost.

A workload's operation list is drawn once from ``Random("<workload>/<seed>")``
and run again in every pass.  Pass p multiplies the waiting cost c_w by
1 + p * 1e-9 (simulations move to fresh seeds instead): the work is the same,
but no two passes hand the program equal inputs, so a memoizing change cannot
turn repeats into cache hits.
"""

from __future__ import annotations

import math
import random
import statistics

# Calibrated ranges, the same ones the test suite's random_valid_params draws
# from.  "mu_ratio" scales mu_i into mu_a, "h_frac" places h in (q + 0.01, 0.99)
# and "dk" is k_i - k_a, so every draw satisfies the parameter orderings.
RANGES = {
    "lam": (25.0, 90.0),
    "mu_i": (4.0, 8.0),
    "mu_ratio": (1.3, 2.5),
    "q": (0.80, 0.94),
    "h_frac": (0.0, 1.0),
    "big_l": (800.0, 5000.0),
    "c_w": (50.0, 200.0),
    "c_n": (100.0, 350.0),
    "kappa": (1000.0, 5000.0),
    "k_a": (20.0, 80.0),
    "dk": (10.0, 100.0),
}

# Config-file keys of ModelParams, in the order they are written.
PARAM_KEYS = ("lam", "mu_a", "mu_i", "q", "h", "big_l", "c_w", "c_n", "kappa", "k_a", "k_i", "w")
WAGE = 300.0
PASS_NUDGE = 1e-9

SCENARIO_SETS = 600
# Scenario sets are stratified on the regime-A staffing search width
# lambda * L * (1 - q) / c_n, which sets most of a query's cost: a pool of
# SCENARIO_POOL candidates per set is drawn, sorted by width and cut into as
# many blocks as there are sets, and one set is drawn from each block.  The
# heavy queries then make up the same share of every seed's list.
SCENARIO_POOL = 10
WIDTH_KEYS = ("lam", "q", "big_l", "c_n")
# Scenario constraints: S2 caps theta at 1 - alpha and S3 floors it (both
# passed to make_scenario); S0 forces mode I at a share the program fixes,
# which the checks expect to be this one.
S0_THETA = 0.5
S2_ALPHA = 0.5
S3_FLOOR = 0.3

PLANNING_GROUPS = 20  # of the ten commands: 200 operations
PLANNING_POOL = 4  # candidates per command, see _commands
# The lambda sweep climbs to LAMBDA_SWEEP_TOP patients/hour.  The regime-A
# staffing search at the top, lambda * L * (1 - q) / c_n levels wide, is
# spread evenly over LAMBDA_SWEEP_WIDTH: the 20 groups take one stratum of the
# band each, and L is set to hit a width drawn within it.  The search then
# reaches N in the hundreds on every seed, and the sweeps cost about the same
# whatever the seed.  The band keeps far from the 10,000-server cap of the
# search.
LAMBDA_SWEEP_TOP = 400.0
LAMBDA_SWEEP_WIDTH = (600.0, 1200.0)

# Simulations: the two `validate` configurations (lambda, mu, N), the first
# with the baseline AI error probability 1 - q drawn per customer.
SIM_CONFIGS = ((50.0, 12.0, 5, 0.1), (50.0, 6.0, 10, 0.0))
SIM_CUSTOMERS = 20_000


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _from_unit(u: dict[str, float]) -> dict[str, float]:
    """Map one point of the unit cube onto a valid parameter dict."""
    x = {k: lo + (hi - lo) * u[k] for k, (lo, hi) in RANGES.items()}
    q = x["q"]
    return {
        "lam": x["lam"],
        "mu_a": x["mu_i"] * x["mu_ratio"],
        "mu_i": x["mu_i"],
        "q": q,
        "h": q + 0.01 + (0.99 - q - 0.01) * x["h_frac"],
        "big_l": x["big_l"],
        "c_w": x["c_w"],
        "c_n": x["c_n"],
        "kappa": x["kappa"],
        "k_a": x["k_a"],
        "k_i": x["k_a"] + x["dk"],
        "w": WAGE,
    }


def _latin_hypercube(rng: random.Random, keys, count: int) -> list[dict[str, float]]:
    """``count`` points of the unit cube over ``keys``: each axis is cut into
    ``count`` strata and every stratum is used once."""
    cols = {}
    for key in keys:
        perm = list(range(count))
        rng.shuffle(perm)
        cols[key] = [(perm[i] + rng.random()) / count for i in range(count)]
    return [{k: cols[k][i] for k in keys} for i in range(count)]


def param_sets(rng: random.Random, count: int) -> list[dict[str, float]]:
    """``count`` parameter dicts on a Latin hypercube over RANGES, which
    keeps the mix of cheap and expensive sets steady from seed to seed."""
    return [_from_unit(u) for u in _latin_hypercube(rng, RANGES, count)]


def nudged(params: dict[str, float], pass_index: int) -> dict[str, float]:
    return {**params, "c_w": params["c_w"] * (1.0 + PASS_NUDGE * pass_index)}


def search_width(lam: float, q: float, big_l: float, c_n: float) -> float:
    """lambda L (1 - q) / c_n: about as many staffing levels as the regime-A
    search enumerates."""
    return lam * big_l * (1.0 - q) / c_n


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """``count`` draws from (lo, hi), one from each of ``count`` equal strata, in random order."""
    return [lo + (hi - lo) * (i + rng.random()) / count for i in rng.sample(range(count), count)]


def scenario_sets(seed: int) -> list[dict[str, float]]:
    """SCENARIO_SETS parameter dicts on a Latin hypercube, whose coordinates
    in WIDTH_KEYS are then replaced by points of a larger Latin hypercube,
    stratified on search_width."""
    rng = _rng("scenarios", seed)
    count = SCENARIO_SETS
    units = _latin_hypercube(rng, RANGES, count)
    size = count * SCENARIO_POOL
    cols = []  # a Latin hypercube again, permuted by sorting (rng.shuffle is slow at this size)
    for _ in WIDTH_KEYS:
        keys = [rng.random() for _ in range(size)]
        cols.append([(i + rng.random()) / size for i in sorted(range(size), key=keys.__getitem__)])
    pool = list(zip(*cols))
    width = list(map(search_width, *([RANGES[k][0] + (RANGES[k][1] - RANGES[k][0]) * v for v in col]
                               for k, col in zip(WIDTH_KEYS, cols))))
    order = sorted(range(size), key=width.__getitem__)
    picks = [pool[rng.choice(order[i:i + SCENARIO_POOL])] for i in range(0, size, SCENARIO_POOL)]
    rng.shuffle(picks)
    return [_from_unit({**u, **dict(zip(WIDTH_KEYS, w))}) for u, w in zip(units, picks)]



def config_text(params: dict[str, float]) -> str:
    lines = [f"{'lambda' if k == 'lam' else k} = {params[k]!r}" for k in PARAM_KEYS]
    return "\n".join(lines) + "\n"


def _grid(name: str, lo: float, hi: float, n: int) -> str:
    return f"{name}={lo!r}:{hi!r}:{n}"


def _lambda_sweep_bases(rng: random.Random, count: int) -> list[dict[str, float]]:
    """``count`` parameter dicts whose search width at LAMBDA_SWEEP_TOP lies
    in one stratum of LAMBDA_SWEEP_WIDTH each: L is solved for a width drawn
    in the stratum, and the rest is drawn again until that L is in range."""
    bases = []
    for target in _strata(rng, *LAMBDA_SWEEP_WIDTH, count):
        while True:
            b = param_sets(rng, 1)[0]
            big_l = target * b["c_n"] / (LAMBDA_SWEEP_TOP * (1.0 - b["q"]))
            if RANGES["big_l"][0] <= big_l <= RANGES["big_l"][1]:
                bases.append(dict(b, big_l=big_l))
                break
    return bases


def _command(kind: str, b: dict[str, float], lam: float) -> tuple[str, dict[str, float], list[str]]:
    """One optimizing command on base config ``b``; ``lam`` is where the
    lambda range of a regime map starts, or the lambda of a boundary search."""
    if kind == "regime-map":
        argv = ["regime-map", "--grid", _grid("lambda", lam, lam + 35.0, 3),
                "--grid", _grid("big_l", 800.0, 5000.0, 4)]
    elif kind == "boundary":
        argv = ["regime-map", "--grid", _grid("lambda", lam, lam, 1),
                "--grid", _grid("big_l", 800.0, 5000.0, 2), "--boundary-out", "{bnd}"]
    elif kind == "sweep-q":
        argv = ["sweep", "--grid", _grid("q", 0.80, b["h"] - 0.005, 5)]
    elif kind == "sweep-kappa":
        argv = ["sweep", "--grid", _grid("kappa", 1000.0, 5000.0, 5)]
    elif kind == "sweep-c_n":
        argv = ["sweep", "--grid", _grid("c_n", 100.0, 350.0, 5)]
    elif kind == "sweep-lambda":
        argv = ["sweep", "--grid", _grid("lambda", 25.0, LAMBDA_SWEEP_TOP, 4)]
    elif kind == "welfare":
        argv = ["welfare", "--grid", _grid("big_l", 800.0, 5000.0, 5)]
    else:
        argv = ["figure", "--which", "fig4", "--npoints", "5"]
    return kind, b, argv + ["--out", "{out}"]


# The optimizing commands of a group, in order; the two simulations follow.
COMMANDS = ("regime-map", "boundary", "sweep-q", "sweep-kappa", "sweep-c_n", "sweep-lambda",
            "welfare", "fig4")
# Where a command lets the lambda range of its grid start: (lo, hi).
COMMAND_LAMBDA = {"regime-map": (25.0, 55.0), "boundary": (25.0, 90.0)}
# The modelled cost (command_cost) of each kind of command, as the median and
# the standard deviation of its logarithm over 2,000 draws of the candidate
# generator, rounded.  A list's commands of one kind have the costs of the
# evenly spaced quantiles of this log-normal ladder, so that every seed's list
# has the same mix of cheap and costly commands (see _commands).
COST_LADDER = {
    "regime-map": (3318, 0.70),
    "boundary": (5052, 0.82),
    "sweep-q": (1189, 0.86),
    "sweep-kappa": (1144, 0.98),
    "sweep-c_n": (1482, 0.91),
    "sweep-lambda": (13236, 0.44),
    "welfare": (2559, 0.82),
    "fig4": (1302, 0.90),
}


def solve_cost(p: dict[str, float]) -> float:
    """Modelled cost of one platform solve at ``p``, in Erlang-C calls.

    Each regime's search enumerates staffing levels from the least stable one
    until c_n N passes the best total, so about total / c_n - n_lo levels,
    and the level at N runs an N-step recurrence; 71 steps cost about as much
    as the rest of a level (fitted to measured query times).  The best total
    is taken from the closed-form cost terms a few levels above n_lo, without
    the queueing delay.  Over 480 planning commands of three seeds, the sum of
    this over a command's grid points correlates 0.97-0.998 with the
    command's counted Erlang-C work for every kind but fig4 (0.72).  It only
    orders candidate inputs; no check uses it."""
    lam, big_l, c_n, kappa = p["lam"], p["big_l"], p["c_n"], p["kappa"]
    theta_d = (p["k_i"] - p["k_a"]) / (big_l * (p["h"] - p["q"]))
    total = 0.0
    for mu, err, lo, hi in ((p["mu_a"], 1.0 - p["q"], 0.0, theta_d if theta_d < 1.0 else 1.0),
                            (p["mu_i"], 1.0 - p["h"], theta_d, 1.0)):
        if lo > hi:
            continue
        a = lam / mu
        n_lo = int(a) + 1
        n = n_lo + math.ceil(math.sqrt(a))
        theta = lam * big_l * err / (2.0 * kappa * n)
        theta = lo if theta < lo else hi if theta > hi else theta
        best = lam * (1.0 - theta) * big_l * err + lam * p["c_w"] / mu + c_n * n + kappa * theta * theta * n
        width = best / c_n - n_lo
        if width < 1.0:
            width = 1.0
        total += width * (1.0 + (n_lo + width / 2.0) / 71.0)
    return total


def _grid_points(b: dict[str, float], argv: list[str]) -> list[dict[str, float]]:
    points = [b]
    for i, arg in enumerate(argv):
        if arg == "--grid":
            name, spec = argv[i + 1].split("=")
            lo, hi, n = spec.split(":")
            key = "lam" if name == "lambda" else name
            values = [float(lo) + (float(hi) - float(lo)) * j / max(int(n) - 1, 1) for j in range(int(n))]
            points = [dict(q, **{key: v}) for q in points for v in values]
    return points


def command_cost(kind: str, b: dict[str, float], argv: list[str]) -> float:
    """Modelled cost of one optimizing command: solve_cost summed over the
    points it solves (a boundary search: every third point of its 20-point
    pre-scan, scaled up; fig4: its five arrival rates; welfare: a platform
    and a social solve per point)."""
    if kind == "boundary":
        lam = _grid_points(b, argv[:3])[0]["lam"]
        return 20 / 7 * sum(solve_cost(dict(b, lam=lam, big_l=800.0 + 4200.0 * j / 19)) for j in range(0, 20, 3))
    if kind == "fig4":
        return sum(solve_cost(dict(b, lam=25.0 + 65.0 * j / 4)) for j in range(5))
    return (2 if kind == "welfare" else 1) * sum(solve_cost(p) for p in _grid_points(b, argv))


def _commands(rng: random.Random, kind: str, count: int) -> list[tuple[str, dict[str, float], list[str]]]:
    """``count`` commands of one kind, on the kind's cost ladder: a pool of
    PLANNING_POOL candidates per command is drawn, and for each rung of the
    ladder, the quantile (j + 1/2) / count of COST_LADDER[kind], the
    candidate closest to it in log cost is taken."""
    size = count * PLANNING_POOL
    bases = _lambda_sweep_bases(rng, size) if kind == "sweep-lambda" else param_sets(rng, size)
    lams = _strata(rng, *COMMAND_LAMBDA.get(kind, (0.0, 0.0)), size)
    pool = [_command(kind, b, lam) for b, lam in zip(bases, lams)]
    log_cost = [math.log(command_cost(*c)) for c in pool]
    median, sigma = COST_LADDER[kind]
    free = set(range(size))
    picks = []
    for j in range(count):
        rung = math.log(median) + sigma * statistics.NormalDist().inv_cdf((j + 0.5) / count)
        i = min(free, key=lambda i: abs(log_cost[i] - rung))
        free.remove(i)
        picks.append(pool[i])
    rng.shuffle(picks)
    return picks


def _simulate(k: int) -> tuple[str, dict[str, float], list[str]]:
    lam, mu, n, err = SIM_CONFIGS[k]
    config = {"lam": lam, "mu": mu, "n": n, "error_prob": err}
    return (f"simulate-{k + 1}", config,
            ["simulate", "--lambda", repr(lam), "--mu", repr(mu), "--n", str(n), "--customers",
             str(SIM_CUSTOMERS), "--error-prob", repr(err), "--seed", "{seed}", "--out", "{out}"])


def planning_ops(seed: int) -> list[tuple[str, dict[str, float], list[str]]]:
    """PLANNING_GROUPS groups of ten CLI commands, as (kind, base params,
    argv); each optimizing command has its own base config.  The harness
    writes the params to a config file and inserts ``--config <file>`` after
    the command name (``simulate`` takes no config); ``{out}`` and ``{bnd}``
    stand for CSV paths and ``{seed}`` for the pass's simulation seed.

    Across the groups, each kind of command is stratified on its modelled
    cost (_commands), so every seed's list has the same mix of cheap and
    costly commands."""
    rng = _rng("planning_grid", seed)
    columns = [_commands(rng, kind, PLANNING_GROUPS) for kind in COMMANDS]
    simulations = [_simulate(k) for k in range(len(SIM_CONFIGS))]
    return [op for g in range(PLANNING_GROUPS) for op in [c[g] for c in columns] + simulations]


def simulation_seed(seed: int, pass_index: int, op_index: int) -> int:
    return seed * 1_000_000 + pass_index * 1000 + op_index
