"""Private cache model.

DASH's first-level caches are direct-mapped with 16-byte lines; the
conflict-miss pathologies the paper reports (every 8th/16th column of a
power-of-two array mapping to the same cache location) are artifacts of
exactly this geometry, so the simulator models it faithfully.

The direct-mapped simulation is exact and fully vectorized: within each
set, an access hits iff the previous access to that set (by the same
processor) touched the same line and nothing invalidated it in between
(invalidation is overlaid by :mod:`repro.machine.coherence`).  A small
set-associative LRU variant is provided for model-sensitivity tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one processor's private cache."""

    size_bytes: int
    line_bytes: int = 16
    assoc: int = 1

    def __post_init__(self):
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise ValueError("cache size must be a multiple of line*assoc")
        for v in (self.size_bytes, self.line_bytes, self.assoc):
            if v <= 0:
                raise ValueError("cache parameters must be positive")

    @property
    def nlines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def nsets(self) -> int:
        return self.nlines // self.assoc

    def line_of(self, addr: np.ndarray) -> np.ndarray:
        return addr // self.line_bytes

    def set_of(self, line: np.ndarray) -> np.ndarray:
        return line % self.nsets


def group_order(key: np.ndarray, nkeys: int) -> np.ndarray:
    """A stable permutation making equal ``key``s (ints in ``[0, nkeys)``)
    contiguous: an LSD radix over 16-bit digits, which NumPy's stable
    ``argsort`` radix-sorts.  Callers rely only on groups being
    contiguous and in stream order, so one more stable pass on another
    key (``proc`` after ``line``) refines an order into a finer one."""
    order = np.argsort(key.astype(np.uint16), kind="stable")
    shift = 16
    while nkeys > 1 << shift:
        digit = (key[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def carry_prev(keys: np.ndarray, values: np.ndarray, carried: np.ndarray,
               mark: "np.ndarray | None" = None) -> np.ndarray:
    """Sort by group, carry state: the one scan of the cache and
    coherence models.  ``keys``/``values`` are in group order
    (:func:`group_order`).  Returns, per element, the value of the
    previous *marked* element of its group (all are marked when
    ``mark`` is None), or ``carried[key]`` (-1 = never) for the group's
    first in this chunk; then stores each group's last marked value
    back into ``carried`` for the stream's next chunk."""
    n = len(keys)
    head = np.ones(n, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    tail = np.ones(n, dtype=bool)
    tail[:-1] = head[1:]
    if mark is None:
        upto = values
    else:
        # Forward-fill from the last marked element or group head (so
        # nothing leaks across groups); an unmarked head stands for
        # the carried value.
        idx = np.where(mark | head, np.arange(n), 0)
        np.maximum.accumulate(idx, out=idx)
        base = values.copy()
        seed = head & ~mark
        base[seed] = carried[keys[seed]]
        upto = base[idx]
    prev = np.empty(n, dtype=values.dtype)
    prev[1:] = upto[:-1]
    prev[head] = carried[keys[head]]
    carried[keys[tail]] = upto[tail]
    return prev


def direct_mapped_hits(proc: np.ndarray, addr: np.ndarray, cfg: CacheConfig,
                       last: "np.ndarray | None" = None) -> np.ndarray:
    """Tag-match hit flags for every access of a merged multi-processor
    stream (in stream order), ignoring coherence.  ``last`` carries the
    line held by each ``(proc, set)`` slot (``proc * nsets + set``, -1 =
    empty) between chunks of a stream; None starts from empty caches."""
    line = cfg.line_of(addr)
    key = proc * cfg.nsets + cfg.set_of(line)
    if last is None:
        last = np.full(int(key.max(initial=-1)) + 1, -1, dtype=np.int64)
    order = group_order(key, len(last))
    ls = line[order]
    hits = np.empty(len(addr), dtype=bool)
    hits[order] = carry_prev(key[order], ls, last) == ls
    return hits


def assoc_lru_hits(proc: np.ndarray, addr: np.ndarray, cfg: CacheConfig,
                   state: "dict | None" = None) -> np.ndarray:
    """Exact LRU set-associative hit flags (Python per (proc,set) group;
    use only on small traces / sensitivity tests).  ``state`` carries
    the LRU stack of each ``(proc, set)`` between chunks of one stream
    and is updated in place; None starts from empty caches."""
    n = len(addr)
    line = cfg.line_of(addr)
    set_idx = cfg.set_of(line)
    hits = np.zeros(n, dtype=bool)
    state = {} if state is None else state
    for i in range(n):
        key = (int(proc[i]), int(set_idx[i]))
        ways = state.setdefault(key, [])
        ln = int(line[i])
        if ln in ways:
            ways.remove(ln)
            ways.append(ln)
            hits[i] = True
        else:
            ways.append(ln)
            if len(ways) > cfg.assoc:
                ways.pop(0)
    return hits
