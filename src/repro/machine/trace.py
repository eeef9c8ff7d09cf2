"""Vectorized address-trace generation.

Turns an :class:`SpmdProgram` phase into per-processor streams of
(program-order key, byte address, is-write) triples without any
per-iteration Python dispatch: the iteration space is enumerated level
by level with ``np.repeat`` (triangular bounds supported), owners are
computed by matrix products + folding arithmetic, and addresses by the
layouts' vectorized linearization.

The program-order key is a mixed-radix encoding of the iteration vector
(plus statement and reference positions) that totally orders all
accesses of a phase in sequential program order; the coherence model
uses it as the lockstep interleaving of the processors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.codegen.spmd import OwnerPlan, SpmdPhase, SpmdProgram
from repro.datatrans.transform import TransformedArray
from repro.ir.expr import AffineExpr
from repro.ir.loops import LoopNest


@dataclass
class PhaseTrace:
    """All accesses of one phase, in global program order."""

    nest_name: str
    key: np.ndarray  # int64 program-order key (sorted ascending)
    addr: np.ndarray  # byte addresses
    write: np.ndarray  # bool
    proc: np.ndarray  # owning processor id
    sync_after: str
    pipelined: bool
    barriers: int
    nprocs: int

    @property
    def n_accesses(self) -> int:
        return len(self.addr)


def _eval_affine_vec(
    e: AffineExpr, cols: Mapping[str, np.ndarray], params: Mapping[str, int],
    n: int,
) -> np.ndarray:
    out = np.full(n, e.const, dtype=np.int64)
    for v, c in e.coeffs:
        if v in cols:
            out += c * cols[v]
        elif v in params:
            out += c * params[v]
        else:
            raise ValueError(f"unbound variable {v}")
    return out


def enumerate_iterations(
    nest: LoopNest, params: Mapping[str, int], depth: Optional[int] = None
) -> Tuple[Dict[str, np.ndarray], int]:
    """Enumerate the first ``depth`` loops as coordinate columns in
    sequential order.  Returns (columns, count)."""
    depth = nest.depth if depth is None else depth
    cols: Dict[str, np.ndarray] = {}
    n = 1
    for level in range(depth):
        loop = nest.loops[level]
        lo = _eval_affine_vec(loop.lower, cols, params, n)
        hi = _eval_affine_vec(loop.upper, cols, params, n)
        reps = np.maximum(hi - lo + 1, 0)
        total = int(reps.sum())
        # Repeat every existing column per-row.
        for v in cols:
            cols[v] = np.repeat(cols[v], reps)
        # New column: for each row, lo..hi.
        starts = np.repeat(np.cumsum(reps) - reps, reps)
        base = np.repeat(lo, reps)
        cols[loop.var] = base + (np.arange(total, dtype=np.int64) - starts)
        n = total
    return cols, n


def _owner_ids(
    plan: OwnerPlan,
    nest: LoopNest,
    cols: Mapping[str, np.ndarray],
    n: int,
    params: Mapping[str, int],
    nprocs: int,
    grid: Sequence[int],
) -> np.ndarray:
    if plan.kind == "serial" or nprocs == 1:
        return np.zeros(n, dtype=np.int64)
    if plan.kind == "base":
        loop = nest.loops[plan.level]
        lo = _eval_affine_vec(loop.lower, cols, params, n)
        hi = _eval_affine_vec(loop.upper, cols, params, n)
        span = np.maximum(hi - lo + 1, 1)
        v = cols[loop.var]
        return np.clip((v - lo) * nprocs // span, 0, nprocs - 1)
    # affine plan; pid linearization is column-major (dim 0 fastest),
    # consistent with repro.decomp.folding.linearize_grid.
    loop_vars = nest.loop_vars
    pid = np.zeros(n, dtype=np.int64)
    ndim = len(plan.matrix)
    for dim in range(ndim - 1, -1, -1):
        row = plan.matrix[dim]
        virt = np.zeros(n, dtype=np.int64)
        for c, v in zip(row, loop_vars):
            if c:
                virt += c * cols[v]
        fold = plan.foldings[dim]
        g = grid[dim] if dim < len(grid) else 1
        ext = plan.extents[dim] if dim < len(plan.extents) else 1
        from repro.decomp.model import FoldKind

        if fold.kind is FoldKind.BLOCK:
            b = max(1, -(-ext // g))
            coord = np.minimum(virt // b, g - 1)
        elif fold.kind is FoldKind.CYCLIC:
            coord = virt % g
        else:
            coord = (virt // fold.block) % g
        pid = pid * g + coord
    return pid


@dataclass
class AddressSpace:
    """Byte base addresses of every (transformed) array, page-aligned.

    Replicated arrays get one private copy per processor; their base for
    a given access depends on the accessing processor.
    """

    bases: Dict[str, int]
    replicated_stride: Dict[str, int]
    total_bytes: int

    @staticmethod
    def build(
        transformed: Mapping[str, TransformedArray],
        nprocs: int,
        page_bytes: int = 4096,
    ) -> "AddressSpace":
        bases: Dict[str, int] = {}
        repl: Dict[str, int] = {}
        pos = 0

        def align(x: int) -> int:
            return -(-x // page_bytes) * page_bytes

        for name in sorted(transformed):
            ta = transformed[name]
            bases[name] = pos
            nbytes = ta.nbytes
            if ta.replicated:
                stride = align(nbytes)
                repl[name] = stride
                pos += stride * nprocs
            else:
                pos += align(nbytes)
        return AddressSpace(bases=bases, replicated_stride=repl,
                            total_bytes=pos)


def phase_trace(
    spmd: SpmdProgram,
    phase: SpmdPhase,
    space: AddressSpace,
) -> PhaseTrace:
    """Build the merged, program-ordered access trace of one phase."""
    nest = phase.nest
    # The enumeration cache and per-reference temporaries die with the
    # helper's frame; only the per-reference columns come back.
    keys, addrs, writes, procs = _reference_columns(spmd, phase, space)
    if not keys:
        empty = np.zeros(0, dtype=np.int64)
        return PhaseTrace(
            nest_name=nest.name, key=empty, addr=empty,
            write=np.zeros(0, dtype=bool), proc=empty,
            sync_after=phase.sync_after.value, pipelined=phase.pipelined,
            barriers=phase.barriers_per_execution, nprocs=spmd.nprocs,
        )

    # Each column is concatenated, its per-reference parts released,
    # and gathered into program order before the next one is built, so
    # at most one column is ever held both unsorted and sorted.
    key = np.concatenate(keys)
    keys.clear()
    order = np.argsort(key, kind="stable")
    key = key[order]
    addr = _gathered(addrs, order)
    write = _gathered(writes, order)
    proc = _gathered(procs, order)
    return PhaseTrace(
        nest_name=nest.name,
        key=key,
        addr=addr,
        write=write,
        proc=proc,
        sync_after=phase.sync_after.value,
        pipelined=phase.pipelined,
        barriers=phase.barriers_per_execution,
        nprocs=spmd.nprocs,
    )


def _gathered(parts: List[np.ndarray], order: np.ndarray) -> np.ndarray:
    """``parts`` concatenated (and emptied), then permuted by ``order``."""
    col = np.concatenate(parts)
    parts.clear()
    return col[order]


def _reference_columns(
    spmd: SpmdProgram, phase: SpmdPhase, space: AddressSpace,
) -> Tuple[List[np.ndarray], ...]:
    """Per-reference (key, addr, write, proc) columns of one phase, in
    statement-then-reference order (not yet in program order)."""
    prog = spmd.program
    params = prog.params
    nest = phase.nest
    nstmt = len(nest.body)

    # Key radices over the nest's global loop spans.
    bounds = nest.numeric_bounds(params)
    spans = [hi - lo + 2 for lo, hi in bounds]  # +1 for the pad digit
    glos = [lo for lo, _ in bounds]
    max_refs = max(1 + len(st.reads) for st in nest.body)

    keys: List[np.ndarray] = []
    addrs: List[np.ndarray] = []
    writes: List[np.ndarray] = []
    procs: List[np.ndarray] = []

    # Cache iteration enumerations per distinct depth.
    enum_cache: Dict[int, Tuple[Dict[str, np.ndarray], int]] = {}

    for s, st in enumerate(nest.body):
        depth = st.depth if st.depth is not None else nest.depth
        if depth not in enum_cache:
            enum_cache[depth] = enumerate_iterations(nest, params, depth)
        cols, n = enum_cache[depth]
        if n == 0:
            continue
        owner = _owner_ids(
            phase.owners[s], nest, cols, n, params, spmd.nprocs, spmd.grid
        )
        # Mixed-radix program-order key of the iteration (+ stmt digit).
        key = np.zeros(n, dtype=np.int64)
        for k in range(nest.depth):
            key *= spans[k]
            if k < depth:
                key += cols[nest.loop_vars[k]] - glos[k] + 1
        key = (key * nstmt + s) * max_refs

        refs = [(r, False) for r in st.reads] + [(st.write, True)]
        for rpos, (ref, is_write) in enumerate(refs):
            ta = spmd.transformed[ref.array.name]
            idx_cols = [
                _eval_affine_vec(e, cols, params, n)
                for e in ref.index_exprs
            ]
            elem = ta.layout.linearize_vec(idx_cols)
            byte = space.bases[ref.array.name] + elem * ta.decl.element_size
            if ref.array.name in space.replicated_stride:
                byte = byte + owner * space.replicated_stride[ref.array.name]
            keys.append(key + rpos)
            addrs.append(byte.astype(np.int64, copy=False))
            writes.append(np.full(n, is_write))
            procs.append(owner)

    return keys, addrs, writes, procs


def program_traces(spmd: SpmdProgram, page_bytes: int = 4096) -> Tuple[
    AddressSpace, List[PhaseTrace]
]:
    """Traces for every phase (one time step), in program order."""
    space = AddressSpace.build(spmd.transformed, spmd.nprocs, page_bytes)
    # Nest frequency (inner repetition) is applied by the cost model,
    # not by replicating trace data.
    traces = []
    with obs.span("sim.trace", cat="machine", scheme=spmd.scheme.value,
                  total_bytes=space.total_bytes) as sp:
        for phase in spmd.phases:
            with obs.span("sim.trace.phase", cat="machine",
                          nest=phase.nest.name) as psp:
                t = phase_trace(spmd, phase, space)
                psp.add("accesses", t.n_accesses)
                traces.append(t)
        sp.add("accesses", sum(t.n_accesses for t in traces))
    return space, traces
