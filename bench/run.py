"""liabstaff benchmark: one workload per run, closed loop, single caller.

    python3 bench/run.py --workload scenarios --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # every workload, one after another

Run from the root of a checkout; the program is imported from ./src.  A run
draws the workload's operation list from the seed and runs it in passes, one
operation after another, for --seconds; only whole passes run.  A fixed
reference loop is timed between operations; wall_ref is the median over the
passes of a pass's time divided by the mean reference time in that pass, and
setup_s is rescaled by the run's median reference time, so that a host that
runs everything slower for a while does not read as a slower program (see
README.md for why).  Afterwards the run checks the outputs (checks.py),
prints each metric with its unit, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402  (stdlib only; must stay importable before the program)

WORKLOADS = ("scenarios", "planning_grid")
SETUP_PROBES = 11
MIN_PASSES = 4
REF_STEPS = 3000  # about 0.6 ms of pure Python on the host this was built on
# setup_s is the median set-up time rescaled to a host on which the reference
# loop takes REF_MS: over runs made minutes apart, set-up time followed the
# run's reference time (correlation 0.75-0.86), and the raw median moved by
# 20-25% between two sets of runs of the same code where the rescaled one
# moved by 6-7%.
REF_MS = 0.6


class Pass:
    """One pass over the operation list: its inputs, then its outputs."""

    def __init__(self, index: int, ops: list):
        self.index = index
        self.ops = ops
        self.latencies: list[float] = []
        self.refs: list[float] = []
        self.outputs: list = []
        self.failed = 0

    def pace(self, every: int) -> None:
        """Time the reference loop after every ``every``-th operation."""
        if len(self.latencies) % every == 0:
            self.refs.append(reference_s())

    def ratio(self) -> float:
        """The pass's time in reference-loop times."""
        return sum(self.latencies) / (sum(self.refs) / len(self.refs))


class Runner:
    """A workload: ``build`` a pass, ``run`` it, ``check`` it."""

    oracle_ops = 0  # operations of pass 0 checked against the exhaustive oracle
    ref_every = 1  # operations between two timings of the reference loop

    def oracle_check(self, done: Pass) -> list[str]:
        """Exhaustive checks of pass 0, run after the timed part so that the
        oracle's memory stays out of peak_rss_mb."""
        return []

    def final_checks(self) -> list[str]:
        return []

    def output(self, done: Pass, i: int):
        return done.outputs[i]


class Scenarios(Runner):
    """compare_scenarios([S0..S4], p) on a Latin hypercube of parameter sets."""

    work_unit = "parameter sets"
    oracle_ops = 100
    ref_every = 4

    def __init__(self, seed: int, work: Path):
        from liabstaff import ModelParams, make_scenario

        self.params = ModelParams
        self.sets = inputs.scenario_sets(seed)
        self.specs = [make_scenario("S0"), make_scenario("S1"),
                      make_scenario("S2", alpha=inputs.S2_ALPHA),
                      make_scenario("S3", theta_floor=inputs.S3_FLOOR), make_scenario("S4")]

    def build(self, index: int) -> Pass:
        ops = []
        for d in self.sets:
            d = inputs.nudged(d, index)
            ops.append((d, self.params(**d)))
        return Pass(index, ops)

    def run(self, done: Pass, call) -> None:
        from liabstaff import scenario

        for _, p in done.ops:
            t0 = time.perf_counter()
            rows = call("scenario", "liabstaff.scenario.compare_scenarios",
                        scenario.compare_scenarios, self.specs, p)
            done.latencies.append(time.perf_counter() - t0)
            done.outputs.append(rows)
            done.pace(self.ref_every)

    def check(self, done: Pass) -> tuple[int, list[str]]:
        for rows in done.outputs:
            if not all(row.result.feasible for row in rows):
                done.failed += 1
                _log(f"pass {done.index}: infeasible scenarios {[row.result.reason for row in rows]}")
        return len(done.ops) - done.failed, self._errors(done, len(done.ops), full=False)

    def oracle_check(self, done: Pass) -> list[str]:
        return self._errors(done, self.oracle_ops, full=True)

    def _errors(self, done: Pass, count: int, full: bool) -> list[str]:
        import checks

        errs = []
        for (d, _), rows in zip(done.ops[:count], done.outputs):
            results = [row.result for row in rows]
            if all(r.feasible for r in results):
                plain = {r.id: (r.policy.mode.value, r.policy.theta, r.policy.n, r.cost.total)
                         for r in results}
                errs += [f"pass {done.index}: {e}" for e in checks.scenario_rows(d, plain, full)]
        return errs


class PlanningGrid(Runner):
    """In-process CLI commands (liabstaff.cli.main) writing CSV and manifests."""

    work_unit = "grid points (CSV rows)"
    oracle_ops = 20  # the first two groups
    pooled_passes = MIN_PASSES  # simulations of these passes feed the statistical checks

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.ops = inputs.planning_ops(seed)
        self.simulations: dict[str, list] = {}

    def build(self, index: int) -> Pass:
        ops = []
        for i, (kind, base, argv) in enumerate(self.ops):
            paths = {"out": self.work / f"op{i}.csv", "bnd": self.work / f"op{i}-boundary.csv"}
            seed = inputs.simulation_seed(self.seed, index, i)
            argv = [a.format(out=paths["out"], bnd=paths["bnd"], seed=seed) for a in argv]
            if argv[0] != "simulate":
                base = inputs.nudged(base, index)
                cfg = self.work / f"op{i}.cfg"
                cfg.write_text(inputs.config_text(base))
                argv[1:1] = ["--config", str(cfg)]
            ops.append((kind, base, argv, paths))
        return Pass(index, ops)

    def run(self, done: Pass, call) -> None:
        import contextlib
        import io

        from liabstaff import cli

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for _, _, argv, _ in done.ops:
                t0 = time.perf_counter()
                try:
                    rc = call("cli", "liabstaff.cli.main", cli.main, argv)
                except (Exception, SystemExit) as exc:  # a traceback or usage exit fails the op
                    rc = repr(exc)
                done.latencies.append(time.perf_counter() - t0)
                done.outputs.append(rc)
                done.pace(self.ref_every)
        done.log = sink.getvalue()

    def check(self, done: Pass) -> tuple[int, list[str]]:
        import checks

        rows, errs = 0, []
        done.texts = []
        for (kind, base, argv, paths), rc in zip(done.ops, done.outputs):
            texts = {}
            for key, path in paths.items():
                if path.exists():
                    manifest = path.with_name(path.name + ".manifest.json")
                    texts[key], texts[key + ".manifest"] = path.read_text(), manifest.read_text()
                    path.unlink()
                    manifest.unlink()
            done.texts.append(texts)
            if rc != 0:
                done.failed += 1
                _log(f"pass {done.index}: {' '.join(argv)} exited with {rc!r}\n{done.log[-2000:]}")
                continue
            n, e = checks.planning_output(kind, base, argv, texts, full=False)
            rows += n
            errs += [f"pass {done.index} {kind}: {m}" for m in e]
            if kind.startswith("simulate") and not e and done.index < self.pooled_passes:
                row = checks.read_csv(texts["out"], checks.SIM_HEADER)[0][0]
                self.simulations.setdefault(kind, []).append(
                    tuple(float(row[k]) for k in ("mean_wait", "wait_stderr", "utilization", "error_rate")))
        return rows, errs

    def oracle_check(self, done: Pass) -> list[str]:
        import checks

        errs = []
        for (kind, base, argv, _), rc, texts in list(zip(done.ops, done.outputs, done.texts))[:self.oracle_ops]:
            if rc == 0:
                errs += [f"pass {done.index} {kind}: {m}"
                         for m in checks.planning_output(kind, base, argv, texts, full=True)[1]]
        return errs

    def final_checks(self) -> list[str]:
        """Pooled statistics of the simulations of the first passes, a fixed
        set of seeds, so that the verdict does not depend on how many passes
        ran."""
        import checks

        errs = []
        for kind, results in sorted(self.simulations.items()):
            lam, mu, n, error_prob = inputs.SIM_CONFIGS[int(kind[-1]) - 1]
            errs += checks.simulations(lam, mu, n, error_prob, results, kind)
        return errs

    def output(self, done: Pass, i: int):
        """The CSV files of one operation (manifests hold a timestamp)."""
        return {k: v for k, v in done.texts[i].items() if not k.endswith(".manifest")}


RUNNERS = {"scenarios": Scenarios, "planning_grid": PlanningGrid}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _plain_call(layer, name, fn, *args):
    return fn(*args)


def probe_setup(workload: str, seed: int, work: Path) -> None:
    """Child side of a set-up measurement: import the CLI, build pass 0."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import liabstaff.cli  # noqa: F401

    import_ms = (time.perf_counter() - t0) * 1e3
    RUNNERS[workload](seed, work).build(0)
    print(json.dumps({"import_ms": import_ms}), flush=True)


def setup_probe(workload: str, seed: int, work: Path) -> tuple[float, float]:
    """(seconds from spawning a fresh interpreter until it has imported the
    CLI and built pass 0's inputs, its import time in ms)."""
    work.mkdir()
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe-setup", "--workload", workload,
           "--seed", str(seed), "--work", str(work)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return setup, json.loads(line)["import_ms"]


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python loop, independent of the program:
    the Erlang-B float recurrence and some integer arithmetic, the kind of
    work the program's hot loops do.  Timed between operations, it measures
    how fast the host is at that moment."""
    t0 = time.perf_counter()
    a, b, x = 37.5, 1.0, 0
    for k in range(1, REF_STEPS):
        b = a * b / (k + a * b)
        x += k * k % 7
    return time.perf_counter() - t0


def _median_per_op(per_pass: list[list[float]]) -> list[float]:
    import statistics

    return [statistics.median(column) for column in zip(*per_pass)]


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import resource
    import statistics

    sys.path.insert(0, str(SRC))
    import liabstaff.cli  # noqa: F401

    runner = RUNNERS[workload](seed, work)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(work)
    probes: list[tuple[float, float]] = []
    errors: list[str] = []
    deadline = time.perf_counter() + seconds
    attempted = failed = index = 0
    plain: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict] = []
    # Passes alternate untraced and traced when tracing; set-up probes run
    # between passes, so that both sample the same stretch of host time.
    while time.perf_counter() < deadline or index < MIN_PASSES * (2 if trace else 1):
        if len(probes) < SETUP_PROBES:
            probes.append(setup_probe(workload, seed, work / f"probe{len(probes)}"))
        done = runner.build(index)
        if tracer is not None and index % 2 == 1:
            layers.append(_traced_pass(runner, done, tracer))
            traced.append(done)
        else:
            runner.run(done, _plain_call)
            plain.append(done)
        attempted += len(done.ops)
        units, errs = runner.check(done)
        failed += done.failed
        errors += errs
        if index == 0:
            first, work_units = done, units
        elif tracer is None or index % 2 == 0:
            done.ops = done.outputs = done.texts = done.log = None  # later passes keep their timings only
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(workload, seed, work / f"probe{len(probes)}"))

    # Determinism: the first operation of pass 0, run again, gives the same output.
    again = runner.build(0)
    again.ops = again.ops[:1]
    runner.run(again, _plain_call)
    runner.check(again)
    if runner.output(first, 0) != runner.output(again, 0):
        errors.append("re-running the first operation of pass 0 gave a different output")
    errors += runner.oracle_check(first)
    errors += runner.final_checks()
    import selftest

    errors += selftest.run()

    ref_ms = statistics.median(r for done in plain for r in done.refs) * 1e3
    setup_raw_s = statistics.median(p[0] for p in probes)
    wall_ref = statistics.median(done.ratio() for done in plain)
    wall_s = statistics.median(sum(done.latencies) for done in plain)
    per_op = _median_per_op([done.latencies for done in plain])
    result = {
        "workload": workload,
        "work_unit": runner.work_unit,
        "seed": seed,
        "passes": index,
        "operations": len(per_op),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "machine.ref_ms": ref_ms,
        "end_to_end": {
            "setup_s": (setup_raw_s * REF_MS / ref_ms, "s"),
            "wall_ref": (wall_ref, "ref"),
            "work_per_kref": (work_units / wall_ref * 1e3, "1/kref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
        # Printed but not in BENCHMARK.json: raw times follow the host's
        # speed, which on the host this was built on drifts by more than the
        # largest bound allowed (README.md, "Host drift").
        "raw": {"setup_raw_s": (setup_raw_s, "s"), "wall_s": (wall_s, "s"),
                "work_per_s": (work_units / wall_s, "1/s"),
                "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
                "op_p90_ms": (statistics.quantiles(per_op, n=10)[8] * 1e3, "ms")},
    }
    if tracer is not None:
        overhead_ms = (statistics.median(sum(done.latencies) for done in traced) - wall_s) * 1e3
        result["per_layer"] = _layer_metrics(layers, statistics.median(p[1] for p in probes),
                                              result["machine.ref_ms"], overhead_ms)
        spans_path = BENCH / "results" / f"trace-{workload}-seed{seed}.json"
        spans_path.parent.mkdir(exist_ok=True)
        spans_path.write_text(json.dumps({"fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
                                          "spans": layers[0]["spans"]}))
    return result


def _traced_pass(runner, done: Pass, tracer) -> dict:
    """Run one pass with the tracer installed; return its layer totals.
    Spans are kept for the first traced pass only."""
    tracer.reset()
    tracer.spans = [] if done.index == 1 else None
    tracer.install()
    try:
        runner.run(done, _traced_call(tracer))
    finally:
        tracer.uninstall()
    totals = {
        "self_ns": dict(tracer.self_ns),
        "span_ns": dict(tracer.span_ns),
        "name_ns": dict(tracer.name_ns),
        "counts": dict(tracer.counts),
        "spans": tracer.spans,
    }
    tracer.spans = None
    return totals


def _traced_call(tracer):
    def call(layer, name, fn, *args):
        tracer.op += 1
        return tracer.call(layer, name, fn, *args)

    return call


PER_LAYER_UNITS = {
    "queueing.erlang_c.calls": "count",
    "queueing.erlang_c.steps": "count",
    "queueing.ms": "ms",
    "platform_opt.solves": "count",
    "platform_opt.cost_evals": "count",
    "platform_opt.staffing_levels": "count",
    "platform_opt.levels_per_solve": "count",
    "platform_opt.self_ms": "ms",
    "scenario.self_ms": "ms",
    "analysis.solves": "count",
    "analysis.boundary_solves": "count",
    "analysis.regime_map_ms": "ms",
    "analysis.self_ms": "ms",
    "cli.import_ms": "ms",
    "cli.self_ms": "ms",
    "output.ms": "ms",
    "output.bytes": "B",
    "simulator.customers": "count",
    "simulator.ns_per_customer": "ns",
    "simulator.ms": "ms",
    "machine.ref_ms": "ms",
    "trace.overhead_ms": "ms",
}


def _layer_metrics(passes: list[dict], import_ms: float, ref_ms: float, overhead_ms: float) -> dict:
    """Counts of the first traced pass (they repeat exactly for a seed);
    each time is the least of one pass's total over the traced passes."""
    counts = passes[0]["counts"]

    def ms(field: str, key: str) -> float:
        return min(p[field].get(key, 0) for p in passes) / 1e6

    solves = counts.get("platform_opt.solves", 0)
    customers = counts.get("simulator.customers", 0)
    sim_ms = ms("span_ns", "simulator")
    values = {
        "queueing.ms": ms("span_ns", "queueing"),
        "platform_opt.levels_per_solve": counts.get("platform_opt.staffing_levels", 0) / solves if solves else 0.0,
        "platform_opt.self_ms": ms("self_ns", "platform_opt"),
        "scenario.self_ms": ms("self_ns", "scenario"),
        "analysis.regime_map_ms": ms("name_ns", "liabstaff.cli.regime_map"),
        "analysis.self_ms": ms("self_ns", "analysis"),
        "cli.import_ms": import_ms,
        "cli.self_ms": ms("self_ns", "cli"),
        "output.ms": ms("span_ns", "output"),
        "simulator.ns_per_customer": sim_ms * 1e6 / customers if customers else 0.0,
        "simulator.ms": sim_ms,
        "machine.ref_ms": ref_ms,
        "trace.overhead_ms": overhead_ms,
    }
    return {name: (values[name] if name in values else counts.get(name, 0), unit)
            for name, unit in PER_LAYER_UNITS.items()}


def report(result: dict, trace: bool) -> None:
    print(f"workload {result['workload']} seed {result['seed']}: {result['operations']} operations "
          f"x {result['passes']} passes, attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(not result['errors']).lower()}")
    for msg in result["errors"][:20]:
        print(f"  CHECK FAILED: {msg}")
    metrics = result["per_layer"] if trace else result["end_to_end"]
    for name, (value, unit) in metrics.items():
        note = f" ({result['work_unit']} per 1000 reference loops)" if name == "work_per_kref" else ""
        print(f"  {name} = {value:.6g} {unit}{note}")
    if not trace:
        for name, (value, unit) in result["raw"].items():
            print(f"  {name} = {value:.6g} {unit} (raw time, not gated)")
        print(f"  machine.ref_ms = {result['machine.ref_ms']:.6g} ms (host speed, not a program metric)")
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "liabstaff" / "cli.py").is_file():
        print(f"error: no liabstaff sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.probe_setup:
        probe_setup(args.workload, args.seed, Path(args.work))
        return 0
    if args.workload is None:
        codes = [subprocess.call([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                                  "--seconds", str(args.seconds), "--trace", str(args.trace)])
                 for w in WORKLOADS]
        return max(codes)

    import shutil
    import tempfile

    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(result, bool(args.trace))
    return 0 if not result["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())
