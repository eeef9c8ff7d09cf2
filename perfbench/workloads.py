"""The four benchmark workloads, driven through the public API.

Each workload has a ``setup`` (everything before the first timed call)
and a ``run`` (one timed unit of work).  ``run`` returns an
:class:`Outcome` whose ``points`` map a point label to the counters the
program produced (or to an error string), so the caller can check them
against the committed golden values.  The seed only permutes point
order; the program sees nothing but the generated points.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import shutil
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
from repro.apps import ALL_APPS
from repro.codegen.spmd import Scheme, scheme_short_name
from repro.machine import scaled_dash
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.grid import GridResult, make_grid, run_grid
from repro.pipeline.journal import JournalWriter, journal_dir
from repro.pipeline.session import CompileSession
from repro.pipeline.store import ResultStore

SIM = importlib.import_module("repro.machine.simulate")
_SIMULATE = SIM.simulate

SCHEMES = (Scheme.BASE, Scheme.COMP_DECOMP, Scheme.COMP_DECOMP_DATA)

# Table 1's configurations, as in benchmarks/test_table1_summary.py:
# (app, build kwargs, machine kwargs, the paper's decompositions).
# make_golden.py checks that the two lists are still identical.
TABLE1_CONFIGS = [
    ("vpenta", dict(n=64, time_steps=2), dict(scale=4, word_bytes=8),
     {"F": "(*, BLOCK, *)", "A": "(*, BLOCK)"}),
    ("lu", dict(n=64), dict(scale=16, word_bytes=8),
     {"A": "(*, CYCLIC)"}),
    ("stencil5", dict(n=96, time_steps=4),
     dict(scale=32, word_bytes=4, page_bytes=512),
     {"A": "(BLOCK, BLOCK)"}),
    ("adi", dict(n=80, time_steps=4), dict(scale=16, word_bytes=8),
     {"X": "(*, BLOCK)"}),
    ("erlebacher", dict(n=20, time_steps=2), dict(scale=16, word_bytes=8),
     {"DUX": "(*, *, BLOCK)", "DUY": "(*, *, BLOCK)",
      "DUZ": "(*, BLOCK, *)"}),
    ("swm", dict(n=96, time_steps=3),
     dict(scale=32, word_bytes=4, page_bytes=512),
     {"P": "(BLOCK, BLOCK)"}),
    ("tomcatv", dict(n=64, time_steps=4), dict(scale=16, word_bytes=8),
     {"AA": "(BLOCK, *)"}),
]
TABLE1_PROCS = (1, 32)

# Figure 6's cliff (comp at 31 vs 32 processors) and its fix (data at
# 32), at twice the figure's n.  Decompositions are pinned at 32, as
# in the figure's speedup_curve sweep.
LU_N = 128
LU_MACHINE = dict(scale=16, word_bytes=8)
LU_POINTS = ((Scheme.COMP_DECOMP, 31), (Scheme.COMP_DECOMP, 32),
             (Scheme.COMP_DECOMP_DATA, 32))

# `repro batch`'s default grid shape over every app: n=16, scale 16,
# decompositions not pinned.
BATCH_GRID = dict(apps=sorted(ALL_APPS), schemes=("base", "comp", "data"),
                  procs=(1, 2, 4, 8, 16, 32), n=16, scale=16)
BATCH_JOBS = 2


def counters(res) -> Dict[str, object]:
    """The golden-checked outcome of one simulated point (a
    ``SimResult`` or a ``GridResult``)."""
    return {"n_accesses": int(res.n_accesses),
            "total_time": float(res.total_time),
            "misses": {k: int(v)
                       for k, v in sorted(res.miss_breakdown.items())}}


@dataclass
class Outcome:
    """What one timed unit produced.  ``raw`` is the workload's own
    record of its points, which ``Workload.points`` labels after the
    timed part."""

    raw: list = field(default_factory=list)
    sessions: List[CompileSession] = field(default_factory=list)
    grid_results: List[GridResult] = field(default_factory=list)
    stores: List[ResultStore] = field(default_factory=list)
    journal_appends: int = 0
    grid_wall_s: float = 0.0
    jobs: int = 0


def _no_pause() -> None:
    pass


@dataclass(frozen=True)
class Probe:
    """A host-speed calibration kernel, owned by the benchmark and
    independent of the program.

    The reference host's vCPUs change speed by up to 40% over minutes
    while the guest reports no steal time, and no run length averages
    that away.  So probes run between timed points, and each unit's time
    is scaled by ``ref_s / median(seconds of the probes near it)``: it
    is reported in seconds of the reference host.  One probe
    fills and sorts a float buffer of ``elements`` in place ``sorts``
    times, then runs ``loop`` interpreter iterations of dict updates.
    The buffer lives only during a batch of probes.  With ``fsyncs``,
    a probe then appends that many journal-sized lines to a file in
    ``tmp``, fsync'ing each.  With ``procs`` > 1 the batch runs in that
    many forked processes at once, and every process's probe times
    count.
    """

    elements: int
    sorts: int
    loop: int
    ref_s: float
    procs: int = 1
    fsyncs: int = 0

    def measure(self, n: int, tmp: Path) -> List[float]:
        if self.procs == 1:
            return self._measure(n, tmp)
        return _in_processes(lambda: self._measure(n, tmp), self.procs)

    def _measure(self, n: int, tmp: Path) -> List[float]:
        buf = np.empty(self.elements)
        rng = np.random.default_rng(0)
        line = "x" * 255 + "\n"
        out = []
        with open(tmp / f"probe-{os.getpid()}.log", "w") as fh:
            for _ in range(n):
                t0 = time.perf_counter()
                for _ in range(self.sorts):
                    rng.random(out=buf)
                    buf.sort()
                d: Dict[int, int] = {}
                for i in range(self.loop):
                    d[i % 977] = d.get(i % 977, 0) + i
                for _ in range(self.fsyncs):
                    fh.write(line)
                    fh.flush()
                    os.fsync(fh.fileno())
                out.append(time.perf_counter() - t0)
        return out


def _in_processes(measure, procs: int) -> List[float]:
    """``measure()`` in ``procs`` forked processes at once; all their
    results.  Every process is waited for before this returns."""
    kids = []
    try:
        for _ in range(procs):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(rfd)
                    with os.fdopen(wfd, "w") as fh:
                        json.dump(measure(), fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wfd)
            kids.append((pid, rfd))
    finally:
        out, failed = [], False
        for pid, rfd in kids:
            with os.fdopen(rfd) as fh:
                data = fh.read()
            failed |= os.waitpid(pid, 0)[1] != 0
            if not failed:
                out += json.loads(data)
    if failed:
        raise RuntimeError("a probe process failed")
    return out


# Cache-resident sorts plus interpreter work, like the compiler passes
# and the grid's small streams.
CPU_PROBE = Probe(elements=400_000, sorts=4, loop=150_000, ref_s=0.060)
# CPU_PROBE plus fsync'd appends, about a quarter of its time, as the
# journal's fsyncs are of a store rerun's.
JOURNAL_PROBE = replace(CPU_PROBE, ref_s=0.080, fsyncs=160)
# CPU_PROBE on both vCPUs at once: a cold grid's two workers keep both
# busy, and one process only sees the speed of the vCPU it lands on.
PAIR_PROBE = replace(CPU_PROBE, procs=2)
# One DRAM-sized sort: the classifier sorts table1's and lu_scale's
# streams in memory, and this probe tracks them better than CPU_PROBE.
DRAM_PROBE = Probe(elements=4_000_000, sorts=1, loop=0, ref_s=0.070)


class Workload:
    name = ""
    golden = ""  # the section of golden.json holding its counters
    probe: Probe  # see README.md for how each workload's was chosen

    def setup(self, tmp: Path) -> None:
        raise NotImplementedError

    def run(self, rng, pause=_no_pause) -> Outcome:
        """One timed unit.  ``pause()`` may be called between points;
        the caller excludes its duration from the unit's time."""
        raise NotImplementedError

    def points(self, outcome: Outcome) -> List[Tuple[str, object]]:
        """One ``(label, counters)`` pair per point attempted, where a
        string in place of the counters is the reason the point failed."""
        raise NotImplementedError

    def cleanup(self, outcome: Outcome) -> None:
        """Release what a unit left on disk (outside the timed part)."""

    def close(self) -> None:
        """Undo what ``setup`` changed in the process."""


class Table1(Workload):
    """Table 1's seven programs through ``speedup_curve`` at P in {1,32}
    with all three schemes and one fresh compile session per unit."""

    name = golden = "table1"
    probe = DRAM_PROBE

    def __init__(self, configs=TABLE1_CONFIGS):
        self.configs = configs
        self._captured: Optional[list] = None

    def _capture(self, spmd, machine, *args, **kwargs):
        # speedup_curve returns speedups only; record each SimResult on
        # its way out so the counters can be checked too.
        res = _SIMULATE(spmd, machine, *args, **kwargs)
        if self._captured is not None:
            self._captured.append(res)
        return res

    def setup(self, tmp):
        self.progs = {name: ALL_APPS[name].build(**bkw)
                      for name, bkw, _, _ in self.configs}
        SIM.simulate = self._capture

    def close(self):
        SIM.simulate = _SIMULATE

    def run(self, rng, pause=_no_pause):
        configs = rng.sample(self.configs, len(self.configs))
        schemes = rng.sample(SCHEMES, len(SCHEMES))
        procs = rng.sample(TABLE1_PROCS, len(TABLE1_PROCS))
        session = CompileSession(cache=ArtifactCache())
        out = Outcome(sessions=[session])
        for i, (name, _, mkw, _) in enumerate(configs):
            if i:
                pause()
            self._captured = []
            try:
                curves = SIM.speedup_curve(
                    self.progs[name], schemes,
                    functools.partial(scaled_dash, **mkw), procs,
                    session=session)
            except Exception:
                curves = traceback.format_exc()
            finally:
                captured, self._captured = self._captured, None
            out.raw.append((name, captured, curves))
        return out

    def points(self, outcome):
        """The sequential baseline of each config first, then every
        (scheme, procs) point with its speedup."""
        points = []
        for name, captured, curves in outcome.raw:
            if isinstance(curves, str):
                n = 1 + len(SCHEMES) * len(TABLE1_PROCS)
                points += [(f"{name}/error", curves)] * n
                continue
            points.append((f"{name}/seq/P1", counters(captured[0])))
            speedups = {(scheme, p): s for scheme, series in curves.items()
                        for p, s in series}
            for res in captured[1:]:
                c = counters(res)
                c["speedup"] = speedups.get((res.scheme, res.nprocs))
                label = scheme_short_name(Scheme(res.scheme))
                points.append((f"{name}/{label}/P{res.nprocs}", c))
        return points


class LuScale(Workload):
    """LU at n=128: Figure 6's 31-vs-32 cliff and its data-transform
    fix, on a 2.8M-access-per-round stream per point."""

    name = golden = "lu_scale"
    probe = DRAM_PROBE

    def setup(self, tmp):
        self.prog = ALL_APPS["lu"].build(n=LU_N)

    def run(self, rng, pause=_no_pause):
        session = CompileSession(cache=ArtifactCache())
        out = Outcome(sessions=[session])
        for i, (scheme, p) in enumerate(rng.sample(LU_POINTS,
                                                   len(LU_POINTS))):
            if i:
                pause()
            label = f"lu/{scheme_short_name(scheme)}/P{p}"
            try:
                spmd = session.compile(self.prog, scheme, p,
                                       decomp_nprocs=32)
                res = SIM.simulate(spmd, scaled_dash(p, **LU_MACHINE))
            except Exception:
                res = traceback.format_exc()
            out.raw.append((label, res))
        return out

    def points(self, outcome):
        return [(label, res if isinstance(res, str) else counters(res))
                for label, res in outcome.raw]


def batch_points():
    g = BATCH_GRID
    return make_grid(g["apps"], g["schemes"], g["procs"], n=g["n"],
                     scale=g["scale"])


def point_label(point) -> str:
    return f"{point.app}/{point.scheme}/P{point.nprocs}"


def run_batch(points, store_dir: Path) -> Outcome:
    """One `repro batch --incremental` invocation: open the store and a
    fresh journal, run the grid on two workers, close the journal.
    The store's and journal's default fsync and locking stay on."""
    t0 = time.perf_counter()
    store = ResultStore(store_dir)
    spec = {"points": [asdict(p) for p in points], "degrade": True,
            "locality": False}
    journal = JournalWriter.create(journal_dir(store_dir), spec)
    try:
        results = run_grid(points, jobs=BATCH_JOBS, store=store,
                           incremental=True, journal=journal)
        journal.end("complete",
                    executed=sum(not r.store_hit for r in results))
    finally:
        journal.close()
    return Outcome(raw=points, grid_results=results, stores=[store],
                   journal_appends=journal.appends,
                   grid_wall_s=time.perf_counter() - t0, jobs=BATCH_JOBS)


def grid_points(outcome: Outcome, status) -> List[Tuple[str, object]]:
    """Label every grid point run; a point without a result failed."""
    done = [(point_label(r.point), status(r)) for r in outcome.grid_results]
    return done + [(point_label(p), "no result")
                   for p in outcome.raw[len(done):]]


def grid_point_status(r: GridResult, want_hit: bool):
    """Counters of a grid result, or why the point failed."""
    if not r.ok:
        return r.error or "failed"
    if r.degraded:
        return f"degraded to BASE: {r.degrade_reason}"
    if r.store_hit != want_hit:
        return ("executed, expected a store hit" if want_hit
                else "served from a fresh store")
    return counters(r)


class BatchCold(Workload):
    """The grid of 8 apps x 3 schemes x 6 processor counts into a fresh
    result store: the store's write path and the grid's dispatch."""

    name = "batch_cold"
    golden = "batch"
    probe = PAIR_PROBE

    def setup(self, tmp):
        self.tmp = tmp
        self.grid = batch_points()

    def run(self, rng, pause=_no_pause):
        store_dir = Path(tempfile.mkdtemp(prefix="cold-", dir=self.tmp))
        return run_batch(rng.sample(self.grid, len(self.grid)), store_dir)

    def points(self, outcome):
        return grid_points(outcome, lambda r: grid_point_status(r, False))

    def cleanup(self, outcome):
        for store in outcome.stores:
            shutil.rmtree(store.root, ignore_errors=True)


class BatchRerun(Workload):
    """Incremental reruns of BatchCold's grid over a filled store: the
    store's read path.  No compile or simulate work may happen."""

    name = "batch_rerun"
    golden = "batch"
    probe = JOURNAL_PROBE

    def setup(self, tmp):
        self.grid = batch_points()
        self.store_dir = Path(tempfile.mkdtemp(prefix="fill-", dir=tmp))
        fill = run_batch(self.grid, self.store_dir)
        # Served results must be bit-identical to what the fill computed.
        self.filled = {point_label(r.point): _sim_outcome(r)
                       for r in fill.grid_results if r.ok}

    def run(self, rng, pause=_no_pause):
        return run_batch(rng.sample(self.grid, len(self.grid)),
                         self.store_dir)

    def points(self, outcome):
        def status(r):
            got = grid_point_status(r, True)
            filled = self.filled.get(point_label(r.point))
            if not isinstance(got, str) and _sim_outcome(r) != filled:
                return "served result differs from the fill's result"
            return got
        return grid_points(outcome, status)

    def cleanup(self, outcome):
        # Drop this rerun's journal so every rerun sees the same store.
        jdir = journal_dir(self.store_dir)
        for path in jdir.glob("RUN_*"):
            path.unlink()


def _sim_outcome(r: GridResult) -> Dict[str, object]:
    """Every stored field of a result except its host wall time."""
    d = r.as_dict()
    return {k: d[k] for k in ("total_time", "n_accesses", "miss_breakdown",
                              "provenance", "locality")}


WORKLOADS = {w.name: w for w in (Table1, LuScale, BatchCold, BatchRerun)}
