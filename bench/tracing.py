"""Per-layer tracing from outside the program.

The tracer replaces public functions at the names where callers look them
up (``liabstaff.scenario.optimize_platform`` is the platform layer as the
scenario layer sees it) with wrappers that record a span, and a few names
inside a layer with wrappers that only count.  Self time of a layer is the
time of its spans minus the time covered by their child spans.

Regime maps run their cells in a process pool.  Forked pool workers inherit
the wrappers; each worker starts from zeroed totals and writes them to a file
when it exits, and the parent merges those files when the map returns, so
work done in the pool is counted like work done in the parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.util
import os
import time
from collections import Counter
from pathlib import Path

# (module, attribute, layer) of every span boundary.
SPANS = (
    ("liabstaff.platform_opt", "queue_metrics", "queueing"),
    ("liabstaff.cli", "queue_metrics", "queueing"),
    ("liabstaff.analysis", "erlang_c", "queueing"),
    ("liabstaff.scenario", "optimize_platform", "platform_opt"),
    ("liabstaff.scenario", "optimize_social", "platform_opt"),
    ("liabstaff.scenario", "cost_breakdown", "platform_opt"),
    ("liabstaff.analysis", "optimize_platform", "platform_opt"),
    ("liabstaff.analysis", "optimize_regime", "platform_opt"),
    ("liabstaff.analysis", "optimize_social", "platform_opt"),
    ("liabstaff.cli", "optimize_platform", "platform_opt"),
    ("liabstaff.cli", "compare_scenarios", "scenario"),
    ("liabstaff.cli", "regime_map", "analysis"),
    ("liabstaff.cli", "regime_boundary", "analysis"),
    ("liabstaff.cli", "sensitivity_sweep", "analysis"),
    ("liabstaff.cli", "welfare_curve", "analysis"),
    ("liabstaff.cli", "figure_data", "analysis"),
    ("liabstaff.cli", "simulate", "simulator"),
    ("liabstaff.cli", "write_csv", "output"),
    ("liabstaff.cli", "write_manifest", "output"),
    ("liabstaff.cli", "render_csv", "output"),
)

# (module, attribute) of calls made inside a layer, counted without a span.
COUNTED = (
    ("liabstaff.queueing", "erlang_c"),
    ("liabstaff.platform_opt", "cost_breakdown"),
    ("liabstaff.platform_opt", "social_cost"),
    ("liabstaff.platform_opt", "optimize_regime"),
    ("liabstaff.analysis", "_winner_at"),
)


def _count(counts: Counter, qualname: str, args: tuple, result) -> None:
    """Counters kept at a wrapped name; every call passes exactly one."""
    module, _, attr = qualname.rpartition(".")
    if attr == "erlang_c":
        counts["queueing.erlang_c.calls"] += 1
        counts["queueing.erlang_c.steps"] += args[0]
    elif attr in ("cost_breakdown", "social_cost"):
        counts["platform_opt.cost_evals"] += 1
    elif attr == "optimize_regime":
        if result.feasible:
            lo, hi = result.n_searched
            counts["platform_opt.solves"] += 1
            counts["platform_opt.staffing_levels"] += hi - lo + 1
    elif attr == "_winner_at":
        counts["analysis.boundary_solves"] += 1
    elif attr == "simulate":
        counts["simulator.customers"] += args[0].customers
    elif attr == "write_csv" or attr == "write_manifest":
        counts["output.bytes"] += os.path.getsize(result)
    if module == "liabstaff.analysis" and attr.startswith("optimize_"):
        counts["analysis.solves"] += 1


class Tracer:
    """Layer totals for the calls made while installed.

    ``self_ns`` and ``span_ns`` are per layer, ``name_ns`` per wrapped name,
    and ``counts`` holds the counters named in ``_count``.  When ``spans`` is
    a list, every span is appended to it as (id, parent id, op, name,
    start ns, end ns).
    """

    def __init__(self, dump_dir: Path):
        self.dump_dir = dump_dir
        self.originals: list[tuple[object, str, object]] = []
        self.spans: list[tuple] | None = None
        self.op = 0
        self._ids = itertools.count(1)
        self._stack: list[list[int]] = []  # [span id, child ns]
        self.reset()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def reset(self) -> None:
        self.self_ns: Counter = Counter()
        self.span_ns: Counter = Counter()
        self.name_ns: Counter = Counter()
        self.counts: Counter = Counter()

    # -- spans -------------------------------------------------------------
    def call(self, layer: str, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``."""
        frame = [next(self._ids), 0]
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            dur = end - start
            self.self_ns[layer] += dur - frame[1]
            self.span_ns[layer] += dur
            self.name_ns[name] += dur
            if self._stack:
                self._stack[-1][1] += dur
            if self.spans is not None:
                self.spans.append((frame[0], parent, self.op, name, start, end))

    def _span_wrapper(self, layer: str, qualname: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(layer, qualname, fn, *args, **kwargs)
            _count(self.counts, qualname, args, result)
            if qualname == "liabstaff.cli.regime_map":
                self.merge_worker_dumps()
            return result

        return wrapper

    def _count_wrapper(self, qualname: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            _count(self.counts, qualname, args, result)
            return result

        return wrapper

    # -- install -----------------------------------------------------------
    def install(self) -> None:
        import importlib

        for module, attr, layer in SPANS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            self.originals.append((mod, attr, fn))
            setattr(mod, attr, self._span_wrapper(layer, f"{module}.{attr}", fn))
        for module, attr in COUNTED:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            self.originals.append((mod, attr, fn))
            setattr(mod, attr, self._count_wrapper(f"{module}.{attr}", fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self.originals):
            setattr(mod, attr, fn)
        self.originals.clear()

    # -- pool workers --------------------------------------------------------
    def _after_fork(self) -> None:
        """In a forked pool worker: start from zero, dump totals at exit."""
        self.reset()
        self._stack = []
        self.spans = None
        multiprocessing.util.Finalize(self, self._dump_worker, exitpriority=10)

    def _dump_worker(self) -> None:
        if not self.originals:  # forked while uninstalled: nothing recorded
            return
        payload = {"self_ns": self.self_ns, "span_ns": self.span_ns,
                   "name_ns": self.name_ns, "counts": self.counts}
        path = self.dump_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(payload))

    def merge_worker_dumps(self) -> None:
        for path in sorted(self.dump_dir.glob("worker-*.json")):
            payload = json.loads(path.read_text())
            self.self_ns.update(payload["self_ns"])
            self.span_ns.update(payload["span_ns"])
            self.name_ns.update(payload["name_ns"])
            self.counts.update(payload["counts"])
            path.unlink()
