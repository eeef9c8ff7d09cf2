"""Per-layer self time for the traced run.

The tracer wraps the public entry points of each layer from outside
the package (nothing under ``src/`` knows it exists) and books every
call's *self time*: its duration minus the time covered by the wrapped
calls it made.  Rows of the main process plus an explicit
``unattributed_s`` residual reconcile to the traced wall time.

Grid workers are forked after the wrappers are installed, so they run
wrapped too.  Each worker resets its copy of the tallies at fork and
writes them to ``<worker_dir>/<pid>.json`` when it exits; the main process
merges those files into separate *worker* rows, which do not take part
in the main process's reconciliation (two workers can be busy at once).
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

# PassManager.execute is keyed by the pass it runs: one row per paper
# compiler stage, named after the package that implements it.
PASS_ROWS = {
    "restructure": "analysis.restructure_s",
    "decompose": "decomp.decompose_s",
    "layout": "datatrans.layout_s",
    "spmd": "codegen.spmd_s",
}

# simulate.py binds its helpers by name, so they are patched in that
# module's namespace (patching repro.machine.coherence etc. would miss
# every call the simulator makes).
SIM_ROWS = {
    "simulate": "machine.simulate.self_s",
    "program_traces": "machine.trace_s",
    "local_miss_mask": "machine.numa_s",
    "per_proc_cycles": "machine.cost_s",
    "phase_time": "machine.cost_s",
}
COHERENCE_ROW = "machine.coherence_s"
JOURNAL_METHODS = ("wave", "point_started", "point_done", "heartbeat",
                   "end", "close")
JOURNAL_CLASSMETHODS = ("create", "reopen")


class Tracer:
    """Self-time tallies of wrapped layer entry points.

    ``self_s`` maps a row name to seconds; ``counts`` holds the work
    counters measured at the same boundaries (accesses, gets, hits,
    puts, tracemalloc peaks).  ``worker_self_s``/``worker_counts`` are
    the merged tallies of forked grid workers.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.worker_self_s: Dict[str, float] = defaultdict(float)
        self.worker_counts: Dict[str, int] = defaultdict(int)
        self.top_s = 0.0
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._worker_dir: Optional[Path] = None

    # -- self-time accounting ----------------------------------------------

    def timed(self, row: Callable[..., str], fn: Callable) -> Callable:
        """``fn`` wrapped to book its self time under ``row(*args)``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = row(*args, **kwargs)
            frame = [0.0]  # time covered by wrapped children
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer.self_s[name] += dt - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                else:
                    tracer.top_s += dt

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, worker_dir: Optional[Path] = None) -> "Tracer":
        """Wrap every layer entry point; ``worker_dir`` receives the
        tallies of grid workers forked while installed."""
        from repro.pipeline import grid
        from repro.pipeline.journal import JournalWriter
        from repro.pipeline.manager import PassManager
        from repro.pipeline.store import ResultStore

        # repro.machine re-exports the simulate *function* under the
        # submodule's name; fetch the module itself.
        sim = importlib.import_module("repro.machine.simulate")
        for name, row in SIM_ROWS.items():
            fn = sim.__dict__[name]
            if name == "program_traces":
                fn = self._counting_traces(fn)
            self._patch(sim, name, self.timed(_const(row), fn))
        self._patch(sim, "classify_accesses",
                    self._measured_classify(sim.__dict__["classify_accesses"]))

        execute = PassManager.__dict__["execute"]
        self._patch(PassManager, "execute", self.timed(
            lambda _mgr, pass_, _ctx: PASS_ROWS.get(
                pass_.name, f"pass.{pass_.name}_s"),
            execute))

        get = ResultStore.__dict__["get"]
        put = ResultStore.__dict__["put"]
        self._patch(ResultStore, "get", self._counting_get(
            self.timed(_const("pipeline.store.get_s"), get)))
        self._patch(ResultStore, "put", self._counting(
            "pipeline.store.puts",
            self.timed(_const("pipeline.store.put_s"), put)))

        self._patch(grid, "point_key", self.timed(
            _const("pipeline.grid.key_s"), grid.__dict__["point_key"]))
        self._patch(grid, "execute_grid", self.timed(
            _const("pipeline.grid.dispatch_s"),
            grid.__dict__["execute_grid"]))

        journal_row = _const("pipeline.journal_s")
        for name in JOURNAL_METHODS:
            self._patch(JournalWriter, name, self.timed(
                journal_row, JournalWriter.__dict__[name]))
        for name in JOURNAL_CLASSMETHODS:
            func = JournalWriter.__dict__[name].__func__
            self._patch(JournalWriter, name,
                        classmethod(self.timed(journal_row, func)))

        self._worker_dir = worker_dir
        if worker_dir is not None:
            multiprocessing.util.register_after_fork(self, Tracer._in_worker)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order) and merge
        the tallies the grid workers wrote."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._worker_dir is not None:
            for path in sorted(self._worker_dir.glob("*.json")):
                data = json.loads(path.read_text())
                for k, v in data["self_s"].items():
                    self.worker_self_s[k] += v
                for k, v in data["counts"].items():
                    self.worker_counts[k] += v
            self._worker_dir = None

    # -- counters measured at the wrapped boundaries -----------------------

    def _counting(self, counter: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _counting_get(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            payload = fn(*args, **kwargs)
            self.counts["pipeline.store.gets"] += 1
            self.counts["pipeline.store.hits"] += payload is not None
            return payload
        return wrapper

    def _counting_traces(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            space, traces = fn(*args, **kwargs)
            self.counts["machine.trace.accesses"] += sum(
                t.n_accesses for t in traces)
            return space, traces
        return wrapper

    def _measured_classify(self, fn: Callable) -> Callable:
        """Time ``classify_accesses`` and take the tracemalloc peak of
        the allocations made inside it.  Starting and stopping the
        tracer happens outside the timed region, so its cost lands in
        the caller's self time, not in the coherence row."""
        timed = self.timed(_const(COHERENCE_ROW), fn)

        @functools.wraps(fn)
        def wrapper(proc, addr, *args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return timed(proc, addr, *args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                if started:
                    tracemalloc.stop()
                self.counts["machine.accesses"] += int(len(addr))
                self.counts["machine.coherence.peak_bytes"] += int(peak)
        return wrapper

    # -- grid workers ------------------------------------------------------

    def _in_worker(self) -> None:
        """After-fork hook: a worker starts from empty tallies and
        flushes them when the pool shuts it down."""
        if self._worker_dir is None:
            return
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_s = 0.0
        self._stack = []
        multiprocessing.util.Finalize(self, self._flush, exitpriority=10)

    def _flush(self) -> None:
        path = self._worker_dir / f"{os.getpid()}.json"
        path.write_text(json.dumps(
            {"self_s": dict(self.self_s), "counts": dict(self.counts)}))


def _const(row: str) -> Callable[..., str]:
    return lambda *args, **kwargs: row


def layer_metrics(tracer: Tracer, out, wall: float,
                  cpu: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced unit, ``name -> (value,
    unit)``.  ``out`` is the unit's ``workloads.Outcome``."""

    def row(name: str) -> float:
        return (tracer.self_s.get(name, 0.0)
                + tracer.worker_self_s.get(name, 0.0))

    def count(name: str) -> int:
        return tracer.counts.get(name, 0) + tracer.worker_counts.get(name, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    accesses = count("machine.accesses")
    trace_accesses = count("machine.trace.accesses")
    runs = hits = 0
    for session in out.sessions:
        stats = session.stats()
        runs += sum(stats["runs"].values())
        hits += sum(stats["hits"].values())
    for r in out.grid_results:
        runs += sum(r.pass_runs.values())
        hits += sum(r.pass_hits.values())
    gets = count("pipeline.store.gets")
    puts = count("pipeline.store.puts")
    entries = sum(len(s) for s in out.stores)
    executed = [r for r in out.grid_results if not r.store_hit]
    busy = sum(r.elapsed for r in executed)

    m = {
        "machine.coherence_s": (row(COHERENCE_ROW), "s"),
        "machine.coherence.ns_per_access": (
            1e9 * ratio(row(COHERENCE_ROW), accesses), "ns"),
        "machine.coherence.peak_bytes_per_access": (
            ratio(count("machine.coherence.peak_bytes"), accesses), "B"),
        "machine.trace_s": (row("machine.trace_s"), "s"),
        "machine.trace.ns_per_access": (
            1e9 * ratio(row("machine.trace_s"), trace_accesses), "ns"),
        "machine.numa_s": (row("machine.numa_s"), "s"),
        "machine.cost_s": (row("machine.cost_s"), "s"),
        "machine.simulate.self_s": (row("machine.simulate.self_s"), "s"),
        "machine.accesses": (accesses, "count"),
    }
    for name in PASS_ROWS.values():
        m[name] = (row(name), "s")
    m.update({
        "pipeline.pass_runs": (runs, "count"),
        "pipeline.cache.hit_ratio": (ratio(hits, runs + hits), "ratio"),
        "pipeline.store.put_s": (row("pipeline.store.put_s"), "s"),
        "pipeline.store.puts": (puts, "count"),
        "pipeline.store.bytes_per_point": (
            ratio(sum(s.bytes() for s in out.stores), entries), "B"),
        "pipeline.store.get_s": (row("pipeline.store.get_s"), "s"),
        "pipeline.store.gets": (gets, "count"),
        "pipeline.store.hit_ratio": (
            ratio(count("pipeline.store.hits"), gets), "ratio"),
        "pipeline.journal_s": (row("pipeline.journal_s"), "s"),
        "pipeline.journal.appends": (out.journal_appends, "count"),
        "pipeline.grid.key_s": (row("pipeline.grid.key_s"), "s"),
        "pipeline.grid.dispatch_s": (row("pipeline.grid.dispatch_s"), "s"),
        "pipeline.grid.worker_busy_s": (busy, "s"),
        "pipeline.grid.idle_s": (
            max(0.0, out.jobs * out.grid_wall_s - busy), "s"),
        "pipeline.grid.cpu_per_wall": (ratio(cpu, wall), "ratio"),
        "pipeline.grid.points_executed": (len(executed), "count"),
        "pipeline.grid.points_served": (
            len(out.grid_results) - len(executed), "count"),
        "unattributed_s": (wall - sum(tracer.self_s.values()), "s"),
        "traced_wall_s": (wall, "s"),
    })
    return m
