"""Whole-program simulation driver.

Replays an SPMD program's address traces through the private-cache +
coherence + NUMA models and assembles per-phase and total times.  The
phase sequence of one time step is simulated twice back-to-back: the
first round pays the cold misses, the second measures the steady state;
a program with T time steps costs ``round0 + (T-1) * round1``.  Each
round streams through the classifier phase by phase in chunks of at
most :data:`CHUNK` accesses, reduced at once to per-processor counts,
so memory beyond the resident trace is O(``CHUNK``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults, obs
from repro.codegen.spmd import Scheme, SpmdProgram, generate_spmd
from repro.machine.coherence import CoherenceState, classify_accesses
from repro.machine.cost import CostParams, PhaseCost, per_proc_cycles, phase_time
from repro.machine.dash import DashConfig
from repro.machine.numa import local_miss_mask
from repro.machine.trace import program_traces


@dataclass
class SimResult:
    """Outcome of simulating one (program, scheme, machine) triple.

    ``phase_costs[k].misses`` carries the steady-round miss-class
    breakdown of phase ``k``.  The optional *detail* fields (filled when
    observability is enabled or ``simulate(..., detail=True)``) add a
    per-array miss-class breakdown over the whole simulated stream, a
    NUMA local/remote summary, and the cache-set occupancy of
    replacement (conflict) misses — the raw material of the "why is
    this slow" profile (:func:`repro.report.format_profile_table`).
    """

    scheme: str
    nprocs: int
    total_time: float
    round_times: Tuple[float, float]  # (cold round, steady round)
    time_steps: int
    phase_costs: List[PhaseCost]
    miss_breakdown: Dict[str, int] = field(default_factory=dict)
    n_accesses: int = 0
    array_breakdown: Dict[str, Dict[str, int]] = field(default_factory=dict)
    numa: Dict[str, float] = field(default_factory=dict)
    conflict_sets: Dict[str, object] = field(default_factory=dict)
    # Locality analytics (repro.machine.locality.LocalityReport.as_dict()),
    # filled only on simulate(..., locality=True): reuse-distance
    # histograms per array, set-pressure distribution, phase x array
    # heatmap.  Deterministic, so bench snapshots exact-match it.
    locality: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> str:
        mb = self.miss_breakdown
        parts = ", ".join(f"{k}={v}" for k, v in sorted(mb.items()))
        return (
            f"{self.scheme} P={self.nprocs}: time={self.total_time:.3e} "
            f"({parts})"
        )


# Accesses per classify_accesses call.  A round is walked phase by
# phase and each phase in contiguous chunks of at most this many
# accesses, so the classifier's temporaries (about 100 B per access)
# stay O(CHUNK) whatever the stream length; the count is large enough
# that NumPy's per-call overhead is amortised.
CHUNK = 1 << 18

_MISS_CLASSES = (
    "hits", "cold", "replacement", "true_sharing", "false_sharing",
    "upgrade", "l2_hits", "remote", "local_miss",
)


def _cell_classes() -> np.ndarray:
    """Every access lands in exactly one *cell*: a plain or an upgrading
    hit, or a miss of one kind (cold, replacement, true or false
    sharing) served from one place (L2, local or remote memory).  Row
    ``c`` marks the classes of ``_MISS_CLASSES`` that cell ``c`` counts
    towards, so one ``np.bincount`` over cells counts every class."""
    m = np.zeros((14, len(_MISS_CLASSES)), dtype=np.int64)
    col = _MISS_CLASSES.index
    m[[0, 1], col("hits")] = 1
    m[1, col("upgrade")] = 1
    for kind, name in enumerate(
            ("cold", "replacement", "true_sharing", "false_sharing")):
        for served, where in enumerate(("l2_hits", "local_miss", "remote")):
            m[2 + 3 * kind + served, [col(name), col(where)]] = 1
    return m


_CELL_CLASSES = _cell_classes()
_NCELLS = len(_CELL_CLASSES)


def _cells(cls, local: np.ndarray) -> np.ndarray:
    """The cell of every access (see :func:`_cell_classes`), as uint8."""
    def u8(flags):
        return flags.view(np.uint8)

    kind = u8(cls.replacement) + 2 * u8(cls.true_sharing) \
        + 3 * u8(cls.false_sharing)
    served = np.where(cls.l2_hit, 0, 2 - u8(local))
    return np.where(cls.hit, u8(cls.upgrade), 2 + 3 * kind + served)


def _class_counts(cells: np.ndarray) -> Dict[str, np.ndarray]:
    """Per-row counts of accesses and of every class, from an array of
    per-row cell counts (rows are processors or arrays)."""
    by_class = cells @ _CELL_CLASSES
    out = {"accesses": cells.sum(axis=1)}
    out.update((name, by_class[:, j]) for j, name in enumerate(_MISS_CLASSES))
    return out


def simulate(
    spmd: SpmdProgram, machine: DashConfig, detail: bool = False,
    locality: bool = False,
) -> SimResult:
    """Simulate one compiled program on one machine.

    ``detail=True`` forces the per-array / NUMA / conflict-set profile
    fields of :class:`SimResult` to be computed even when observability
    is disabled (they are always computed when it is enabled).
    ``locality=True`` additionally runs the reuse-distance / set-pressure
    / heatmap analytics (:mod:`repro.machine.locality`) over one round
    of the address stream and stores them in ``SimResult.locality``;
    they are opt-in only — never implied by observability — because the
    reuse sweep costs O(n log n) Python-side work.
    """
    with obs.span("sim.simulate", cat="machine", scheme=spmd.scheme.value,
                  nprocs=spmd.nprocs) as sp:
        res = _simulate_impl(spmd, machine, detail or obs.enabled(),
                             locality)
        sp.set(total_time=res.total_time, accesses=res.n_accesses)
        for k, v in res.miss_breakdown.items():
            sp.add(k, v)
        return res


def _simulate_impl(
    spmd: SpmdProgram, machine: DashConfig, detail: bool,
    locality: bool = False,
) -> SimResult:
    prog = spmd.program
    space, traces = program_traces(spmd, machine.numa.page_bytes)
    locality_dict: Dict[str, object] = {}
    if locality:
        from repro.machine.locality import collect_locality

        # One round of the phase sequence (one time step) — the same
        # stream the cache model replays per round.
        locality_dict = collect_locality(
            space, traces, machine.cache
        ).as_dict()

    # Two rounds of the phase sequence: cold then steady state.  Both
    # replay the same one-round stream; the steady round is classified
    # from the cache/coherence state the cold round left behind.
    rounds = 2 if prog.time_steps > 1 else 1
    if all(t.n_accesses == 0 for t in traces):
        return SimResult(
            scheme=spmd.scheme.value,
            nprocs=spmd.nprocs,
            total_time=0.0,
            round_times=(0.0, 0.0),
            time_steps=prog.time_steps,
            phase_costs=[],
            locality=locality_dict,
        )

    nprocs = spmd.nprocs
    n = sum(t.n_accesses for t in traces)
    # Integer per-processor cell counts, per round and phase: cycles
    # are computed from them once per phase, after the sweep.
    tallies = np.zeros((rounds, len(traces), nprocs * _NCELLS),
                       dtype=np.int64)
    if detail:
        # Per-array classes over the whole simulated stream: arrays are
        # laid out contiguously, so the owning array of an address is a
        # binary search over the sorted base addresses.
        names = sorted(space.bases, key=lambda nm: space.bases[nm])
        starts = np.array([space.bases[nm] for nm in names], dtype=np.int64)
        by_array = np.zeros(len(names) * _NCELLS, dtype=np.int64)
        nsets = machine.cache.nsets
        occ = np.zeros(nsets, dtype=np.int64)
    # Home cluster per page (-1 = untouched): first touch happens in the
    # cold round, so the steady round reads the homes it fixed.
    last_page = max(int(t.addr.max()) for t in traces
                    if t.n_accesses) // machine.numa.page_bytes
    homes = np.full(last_page + 1, -1, dtype=np.int64)

    # The classification sweep is its own wall-time ledger anchor: it
    # dominates simulate() for large streams and must be attributable
    # separately from the per-phase cost loop below.  Each round walks
    # the phases in order and each phase in chunks, carrying the
    # cache/coherence state from chunk to chunk and round to round;
    # chunks stop at phase boundaries, so every chunk's counts belong
    # to exactly one phase.
    with obs.span("sim.classify", cat="machine", accesses=n * rounds):
        faults.maybe_sim_stall()
        state = CoherenceState()
        for r in range(rounds):
            for k, t in enumerate(traces):
                for lo in range(0, t.n_accesses, CHUNK):
                    proc, addr, write = (a[lo:lo + CHUNK]
                                         for a in (t.proc, t.addr, t.write))
                    cls = classify_accesses(
                        proc, addr, write, machine.cache,
                        word_bytes=machine.word_bytes, l2=machine.l2,
                        state=state,
                    )
                    cell = _cells(
                        cls, local_miss_mask(addr, proc, machine.numa, homes))
                    tallies[r, k] += np.bincount(proc * _NCELLS + cell,
                                                 minlength=tallies.shape[2])
                    if detail:
                        aidx = np.searchsorted(starts, addr, side="right") - 1
                        by_array += np.bincount(aidx * _NCELLS + cell,
                                                minlength=len(by_array))
                        # Conflict pressure: which cache sets the
                        # replacement misses land on.
                        sets = (addr // machine.cache.line_bytes) % nsets
                        occ += np.bincount(sets[cls.replacement],
                                           minlength=nsets)
    counts = [[_class_counts(c.reshape(nprocs, _NCELLS)) for c in phases]
              for phases in tallies]

    params = machine.cost
    phase_costs: List[PhaseCost] = []
    round_time = [0.0, 0.0]
    for r, phases in enumerate(counts):
        steady = r == rounds - 1
        for k, (t, c) in enumerate(zip(traces, phases)):
            with obs.span("sim.phase", cat="machine", nest=t.nest_name,
                          round="steady" if steady else "cold") as psp:
                cycles = per_proc_cycles(
                    c["accesses"], c["hits"], c["local_miss"], c["remote"],
                    params, upgrade=c["upgrade"], l2_hit=c["l2_hits"],
                )
                pc = phase_time(
                    nest_name=t.nest_name,
                    cycles=cycles,
                    sync_kind=t.sync_after,
                    barriers=t.barriers,
                    pipelined=t.pipelined,
                    seq_steps=spmd.phases[k].seq_steps,
                    nprocs=nprocs,
                    params=params,
                )
                freq = max(1, spmd.phases[k].nest.frequency)
                round_time[r] += pc.time * freq
                if steady:
                    # Steady-round miss classes become the phase profile.
                    pc.misses = {name: int(c[name].sum())
                                 for name in _MISS_CLASSES}
                    pc.misses["accesses"] = t.n_accesses
                    phase_costs.append(pc)
                    psp.set(time=pc.time, compute=pc.compute_max,
                            sync=pc.sync)
                    for name, v in pc.misses.items():
                        psp.add(name, v)
    breakdown = {
        name: sum(int(c[name].sum()) for phases in counts for c in phases)
        for name in _MISS_CLASSES if name != "hits"
    }

    steps = max(1, prog.time_steps)
    if rounds == 2:
        total = round_time[0] + (steps - 1) * round_time[1]
    else:
        total = round_time[0] * steps
        round_time[1] = round_time[0]

    nmiss = breakdown["remote"] + breakdown["local_miss"]
    numa = {
        "local_misses": breakdown["local_miss"],
        "remote_misses": breakdown["remote"],
        "local_ratio": breakdown["local_miss"] / nmiss if nmiss else 1.0,
    }
    array_breakdown: Dict[str, Dict[str, int]] = {}
    conflict: Dict[str, object] = {}
    if detail:
        per_array = _class_counts(by_array.reshape(len(names), _NCELLS))
        for j, nm in enumerate(names):
            if per_array["accesses"][j]:
                array_breakdown[nm] = {
                    name: int(per_array[name][j])
                    for name in _MISS_CLASSES + ("accesses",)}
        # A skewed set occupancy is the power-of-two aliasing signature
        # the paper's data transform removes.  Rank by (-count, set
        # index): plain argsort[::-1] orders equal-count sets by
        # *descending* index, which made stored results and snapshots
        # byte-unstable across numpy sort quirks.
        top = np.lexsort((np.arange(len(occ)), -occ))[:8]
        conflict = {
            "nsets": int(nsets),
            "replacement_misses": int(occ.sum()),
            "max_per_set": int(occ.max()) if nsets else 0,
            "mean_per_set": float(occ.mean()) if nsets else 0.0,
            "top_sets": [[int(s), int(occ[s])] for s in top if occ[s] > 0],
        }
        obs.event("sim.numa", cat="machine", **numa)

    return SimResult(
        scheme=spmd.scheme.value,
        nprocs=nprocs,
        total_time=total,
        round_times=(round_time[0], round_time[1]),
        time_steps=steps,
        phase_costs=phase_costs,
        miss_breakdown=breakdown,
        n_accesses=n,
        array_breakdown=array_breakdown,
        numa=numa,
        conflict_sets=conflict,
        locality=locality_dict,
    )


def simulate_scheme(
    prog,
    scheme: Scheme,
    machine: DashConfig,
    decomp=None,
    session=None,
) -> SimResult:
    """Compile (SPMD-plan) and simulate a program under one scheme."""
    from repro.pipeline.session import get_session

    session = session or get_session()
    spmd = session.compile(prog, scheme, machine.nprocs, decomp=decomp)
    return simulate(spmd, machine)


def speedup_curve(
    prog,
    schemes: Sequence[Scheme],
    machine_factory,
    procs: Sequence[int],
    session=None,
) -> Dict[str, List[Tuple[int, float]]]:
    """Speedups over the best sequential version for each scheme.

    ``machine_factory(nprocs)`` builds the machine; the sequential
    baseline is the BASE scheme on one processor (every access local).

    The decomposition is processor-count independent, so every point of
    the sweep shares the one derived at ``max(procs)``
    (``decomp_nprocs``); with the session's artifact cache it is
    computed once.  Pass a dedicated
    :class:`~repro.pipeline.session.CompileSession` for isolation; the
    default session is used otherwise.
    """
    from repro.pipeline.session import get_session

    session = session or get_session()
    maxp = max(procs)
    seq_machine = machine_factory(1)
    seq_spmd = session.compile(prog, Scheme.BASE, 1)
    seq = simulate(seq_spmd, seq_machine)
    out: Dict[str, List[Tuple[int, float]]] = {}
    for scheme in schemes:
        series = []
        for p in procs:
            machine = machine_factory(p)
            spmd = session.compile(
                prog, scheme, p,
                decomp_nprocs=maxp if scheme is not Scheme.BASE else None,
            )
            res = simulate(spmd, machine)
            if res.total_time > 0.0:
                s = seq.total_time / res.total_time
            else:
                # A zero simulated time (e.g. an empty trace) must not
                # read as "speedup 0.0" — or worse, divide to inf.
                # Report the neutral 1.0 and log the anomaly.
                s = 1.0
                obs.event("sim.zero_time", cat="machine",
                          scheme=scheme.value, nprocs=p,
                          seq_time=seq.total_time)
            series.append((p, s))
        out[scheme.value] = series
    return out
