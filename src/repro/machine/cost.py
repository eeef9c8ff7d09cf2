"""Cycle cost model and synchronization.

Converts classified accesses into per-processor cycle counts using the
DASH latency ratios, then assembles phase times:

* a doall phase costs the slowest processor's cycles plus its
  synchronization (barrier cost grows with P; decomposition-proven
  local phases need none; boundary exchanges cost a cheap pairwise
  sync);
* a pipelined (doacross) phase adds the classic fill term
  ``(P-1) * T/K`` for K tiles plus per-tile producer-consumer
  synchronization, modelling the paper's tiled pipelining (Section
  6.2.4) and lock-based LU (Section 6.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro import obs


@dataclass(frozen=True)
class CostParams:
    """Latency parameters, in processor cycles (DASH Section 6.1)."""

    cpu_per_access: float = 2.0  # instruction cost carried per reference
    l1_hit: float = 1.0
    l2_hit: float = 10.0  # DASH: ~10 cycles from the second-level cache
    local_miss: float = 30.0
    remote_miss: float = 100.0
    upgrade: float = 50.0  # write-ownership acquisition on a shared line
    barrier_base: float = 400.0
    barrier_per_proc: float = 20.0
    lock_cost: float = 60.0
    neighbor_sync: float = 120.0
    pipeline_tile: int = 8  # sequential steps folded per pipeline tile

    def barrier_cost(self, nprocs: int) -> float:
        if nprocs <= 1:
            return 0.0
        return self.barrier_base + self.barrier_per_proc * nprocs


@dataclass
class PhaseCost:
    """Cost summary of one phase instance."""

    nest_name: str
    time: float
    compute_max: float
    sync: float
    per_proc_cycles: np.ndarray
    misses: Dict[str, int] = field(default_factory=dict)


def per_proc_cycles(
    accesses: np.ndarray,
    hits: np.ndarray,
    miss_local: np.ndarray,
    miss_remote: np.ndarray,
    params: CostParams,
    upgrade: np.ndarray = None,
    l2_hit: np.ndarray = None,
) -> np.ndarray:
    """Cycles accumulated by each processor, from its access counts.

    Every argument is an integer count vector indexed by processor (the
    ``np.bincount`` of the accessing processor over one class of
    accesses).  ``l2_hit`` counts first-level misses served by the
    private second-level cache; they must be excluded from
    ``miss_local`` / ``miss_remote`` by the caller.
    """
    f = np.float64
    out = (
        accesses.astype(f) * params.cpu_per_access
        + hits.astype(f) * params.l1_hit
        + miss_local.astype(f) * params.local_miss
        + miss_remote.astype(f) * params.remote_miss
    )
    if l2_hit is not None:
        out += l2_hit.astype(f) * params.l2_hit
    if upgrade is not None and len(accesses) > 1:
        out += upgrade.astype(f) * params.upgrade
    return out


def phase_time(
    nest_name: str,
    cycles: np.ndarray,
    sync_kind: str,
    barriers: int,
    pipelined: bool,
    seq_steps: int,
    nprocs: int,
    params: CostParams,
) -> PhaseCost:
    """Assemble one phase's wall time from per-processor cycles."""
    compute = float(cycles.max()) if len(cycles) else 0.0
    sync = 0.0
    if nprocs > 1:
        if pipelined:
            # Tile the doacross to balance pipeline fill against
            # per-tile synchronization (Section 6.2.4: "loops ... are
            # tiled to increase the granularity of pipelining").  The
            # compiler picks the tile count minimizing
            #   (P-1) * compute / K  +  K * lock_cost.
            k_opt = (
                ((nprocs - 1) * compute / params.lock_cost) ** 0.5
                if params.lock_cost > 0
                else seq_steps
            )
            tiles = int(max(1, min(seq_steps, k_opt)))
            fill = (nprocs - 1) * compute / max(1, tiles)
            sync = fill + tiles * params.lock_cost
            obs.event("sim.pipeline_tile", cat="machine",
                      nest=nest_name, tiles=tiles, fill=fill,
                      lock_overhead=tiles * params.lock_cost)
        elif sync_kind == "barrier":
            sync = barriers * params.barrier_cost(nprocs)
        elif sync_kind == "neighbor":
            sync = params.neighbor_sync
        # sync_kind == "none": decomposition proved locality.
    return PhaseCost(
        nest_name=nest_name,
        time=compute + sync,
        compute_max=compute,
        sync=sync,
        per_proc_cycles=cycles,
    )
