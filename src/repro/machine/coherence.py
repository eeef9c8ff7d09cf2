"""Invalidation-based cache coherence.

Two implementations of the same protocol (write-invalidate MSI over
private direct-mapped caches, lockstep global interleaving):

* :func:`classify_accesses` — vectorized sort-and-carry over the merged
  global stream, chunk by chunk; used by every benchmark sweep;
* :class:`ExactCoherentSim` — a straightforward event-at-a-time Python
  simulator kept as an executable specification; the test suite checks
  the two agree access-for-access on random traces.

Miss taxonomy (Section 1.1):

* **cold** — processor touches a line for the first time;
* **replacement** — conflict/capacity: the line was displaced from the
  direct-mapped set by another line;
* **true sharing** — the line was invalidated by another processor's
  write *to a word this processor uses*;
* **false sharing** — the line was invalidated by another processor's
  write to a *different* word of the same line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro import obs
from repro.machine.cache import (
    CacheConfig,
    assoc_lru_hits,
    carry_prev,
    direct_mapped_hits,
    group_order,
)


@dataclass
class AccessClassification:
    """Per-access outcome flags (all in stream order).

    ``upgrade`` marks write hits that must still acquire exclusive
    ownership because another processor touched the line since this
    processor's previous access — the writer-side cost of sharing
    ping-pong (the reader side shows up as sharing misses).
    """

    hit: np.ndarray
    cold: np.ndarray
    replacement: np.ndarray
    true_sharing: np.ndarray
    false_sharing: np.ndarray
    upgrade: np.ndarray = None
    l2_hit: np.ndarray = None
    """True where a first-level miss is satisfied by the (optional)
    private second-level cache; always False when no L2 is modelled."""

    def __post_init__(self):
        if self.upgrade is None:
            self.upgrade = np.zeros(len(self.hit), dtype=bool)
        if self.l2_hit is None:
            self.l2_hit = np.zeros(len(self.hit), dtype=bool)

    @property
    def miss(self) -> np.ndarray:
        return ~self.hit


class CoherenceState:
    """What :func:`classify_accesses` carries from one chunk of a
    stream into the next.  ``last`` holds dense per-group arrays by
    group key (-1 = never): the line in each ``(proc, set)`` slot of L1
    and L2, the position of the last access per ``(proc, line)`` and per
    line, and of the last write per line and per word.  ``ways`` holds
    LRU stacks of set-associative caches; ``seen`` offsets positions."""

    def __init__(self) -> None:
        self.seen = 0
        self.last: Dict[str, np.ndarray] = {}
        self.ways: Tuple[dict, dict] = ({}, {})

    def table(self, name: str, *shape: int) -> np.ndarray:
        """The carried array ``name``, grown with -1 to at least
        ``shape`` (a later chunk may bring new procs, lines or words)."""
        a = self.last.get(name, np.empty((0,) * len(shape), dtype=np.int64))
        pad = [(0, max(0, want - have)) for want, have in zip(shape, a.shape)]
        if any(p for _, p in pad):
            a = self.last[name] = np.pad(a, pad, constant_values=-1)
        return a


def _tag_hits(proc, addr, cfg: CacheConfig, st: CoherenceState, level: int):
    # Direct-mapped is the DASH default and fully vectorized; the LRU
    # set-associative variant (model-sensitivity studies) is exact but
    # event-at-a-time.
    if cfg.assoc > 1:
        return assoc_lru_hits(proc, addr, cfg, st.ways[level])
    last = st.table(f"set{level}", (int(proc.max()) + 1) * cfg.nsets)
    return direct_mapped_hits(proc, addr, cfg, last)


def classify_accesses(
    proc: np.ndarray, addr: np.ndarray, write: np.ndarray, cfg: CacheConfig,
    word_bytes: int = 8, l2: "CacheConfig | None" = None,
    state: "CoherenceState | None" = None,
) -> AccessClassification:
    """Classify every access of a merged, globally-ordered stream.

    When ``l2`` is given, a private second-level cache (inclusive,
    updated on every reference) filters first-level misses: an L1 miss
    whose line survives in L2 — and was not invalidated by another
    processor's write — is an ``l2_hit``.  Classifying a stream's
    chunks in order with one ``state`` gives exactly the flags of their
    concatenation (None = one whole stream from cold caches).

    Four groupings, each sorted once and scanned by :func:`carry_prev`:
    ``(proc, set)`` for the tag match, ``line`` for the last access and
    last write to the line, then ``(proc, line)`` for this processor's
    previous touch and ``word`` for the last write to the word, both
    refining the line order by one more stable pass.
    """
    n = len(addr)
    if n == 0:
        z = np.zeros(0, dtype=bool)
        return AccessClassification(z, z, z, z, z)
    st = CoherenceState() if state is None else state
    top = int(addr.max())
    nproc = int(proc.max()) + 1
    nline, nword = top // cfg.line_bytes + 1, top // word_bytes + 1
    tag_hit = _tag_hits(proc, addr, cfg, st, 0)

    order = group_order(addr // cfg.line_bytes, nline)
    pos = order + st.seen
    st.seen += n
    addr_o, write_o, proc_o = (a[order] for a in (addr, write, proc))
    line_o = addr_o // cfg.line_bytes
    # (proc, line): one more stable pass, on proc.
    sub = group_order(proc_o, nproc)
    touch = st.table("touch", nproc, nline)
    prev_touch = np.empty(n, dtype=np.int64)
    prev_touch[sub] = carry_prev((proc_o * touch.shape[1] + line_o)[sub],
                                 pos[sub], touch.reshape(-1))
    # Compared in line order, scattered back to stream order.  A
    # processor's own last write to the line (or word) is never after
    # its own last touch of the line, so a write after that touch came
    # from another processor: exactly ExactCoherentSim's invalidation.
    # ``touched`` (by anyone since our touch) drives the write upgrade.
    cold, touched, remote, remote_word = (
        np.empty(n, dtype=bool) for _ in range(4))
    cold[order] = prev_touch < 0
    touched[order] = (carry_prev(line_o, pos, st.table("access", nline))
                      > prev_touch)
    remote[order] = carry_prev(line_o, pos, st.table("write", nline),
                               mark=write_o) > prev_touch
    word_o = addr_o // word_bytes
    del addr_o, line_o, proc_o
    if cfg.line_bytes % word_bytes == 0:
        # Words nest in lines: a stable pass on the word within the line.
        wpl = cfg.line_bytes // word_bytes
        sub = group_order(word_o % wpl, wpl)
    else:
        # A word may straddle two lines: group it from stream order.
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        sub = rank[group_order(addr // word_bytes, nword)]
    remote_word[order[sub]] = carry_prev(
        word_o[sub], pos[sub], st.table("word", nword), mark=write_o[sub],
    ) > prev_touch[sub]
    invalidated = tag_hit & remote
    hit = tag_hit & ~invalidated
    miss = ~hit
    true_sharing = invalidated & remote_word
    l2_hit = None
    if l2 is not None:
        # A remote write invalidates both levels.
        l2_hit = miss & _tag_hits(proc, addr, l2, st, 1) & ~remote
    out = AccessClassification(
        hit=hit,
        cold=cold & miss,
        replacement=miss & ~cold & ~invalidated,
        true_sharing=true_sharing,
        false_sharing=invalidated & ~true_sharing,
        upgrade=write & hit & touched,
        l2_hit=l2_hit,
    )
    if obs.enabled():
        obs.event(
            "sim.classify", cat="machine", accesses=int(n),
            hits=int(out.hit.sum()), cold=int(out.cold.sum()),
            replacement=int(out.replacement.sum()),
            true_sharing=int(out.true_sharing.sum()),
            false_sharing=int(out.false_sharing.sum()),
            upgrade=int(out.upgrade.sum()), l2_hits=int(out.l2_hit.sum()),
        )
    return out


class ExactCoherentSim:
    """Event-at-a-time MSI reference simulator (executable spec).

    Caches are direct-mapped; a write invalidates every other
    processor's copy of the line.  Sharing misses are split true/false
    by whether any invalidating write since this processor's last touch
    hit the word now being accessed.

    ``l2`` optionally models the private second-level cache with the
    same semantics as :func:`classify_accesses`: inclusive, updated on
    every reference, invalidated (both levels) by remote writes; a
    first-level miss whose line survives there is an ``l2_hit``.
    """

    def __init__(self, nprocs: int, cfg: CacheConfig, word_bytes: int = 8,
                 l2: "CacheConfig | None" = None):
        self.nprocs = nprocs
        self.cfg = cfg
        self.word_bytes = word_bytes
        self.l2 = l2

    def run(
        self, proc: np.ndarray, addr: np.ndarray, write: np.ndarray
    ) -> AccessClassification:
        n = len(addr)
        cfg = self.cfg
        # cache[p][set] = line currently cached (or None); valid flag.
        cache: Dict[Tuple[int, int], int] = {}
        valid: Dict[Tuple[int, int], bool] = {}
        # last write position per word / per line by each proc.
        word_writes: Dict[int, list] = {}  # word -> list of (pos, proc)
        last_touch: Dict[Tuple[int, int], int] = {}

        flags = {f: np.zeros(n, dtype=bool) for f in (
            "hit", "cold", "replacement", "true_sharing", "false_sharing",
            "upgrade", "l2_hit")}
        last_touch_any: Dict[int, int] = {}
        # Second-level tag state, mirroring the L1 structures.
        l2cache: Dict[Tuple[int, int], int] = {}
        l2valid: Dict[Tuple[int, int], bool] = {}

        for i in range(n):
            p = int(proc[i])
            a = int(addr[i])
            ln = a // cfg.line_bytes
            st = ln % cfg.nsets
            wd = a // self.word_bytes
            key = (p, st)
            cached = cache.get(key)
            is_valid = valid.get(key, False)
            if cached == ln and is_valid:
                flags["hit"][i] = True
                if write[i] and last_touch_any.get(ln, -1) > last_touch.get(
                    (p, ln), -1
                ):
                    flags["upgrade"][i] = True
            else:
                if (p, ln) not in last_touch:
                    flags["cold"][i] = True
                elif cached == ln and not is_valid:
                    # Present but invalidated: sharing miss.  True iff an
                    # invalidating write since our last touch was to this
                    # word.
                    since = last_touch.get((p, ln), -1)
                    word_hits = any(
                        q != p and pos > since
                        for pos, q in word_writes.get(wd, ())
                    )
                    sharing = "true" if word_hits else "false"
                    flags[f"{sharing}_sharing"][i] = True
                else:
                    flags["replacement"][i] = True
                if self.l2 is not None:
                    k2 = (p, ln % self.l2.nsets)
                    if l2cache.get(k2) == ln and l2valid.get(k2, False):
                        flags["l2_hit"][i] = True
                cache[key] = ln
                valid[key] = True
            if self.l2 is not None:
                k2 = (p, ln % self.l2.nsets)
                l2cache[k2] = ln
                l2valid[k2] = True
            last_touch[(p, ln)] = i
            last_touch_any[ln] = i
            if write[i]:
                word_writes.setdefault(wd, []).append((i, p))
                # Invalidate every other processor's copy.
                for q in range(self.nprocs):
                    if q == p:
                        continue
                    kq = (q, st)
                    if cache.get(kq) == ln and valid.get(kq, False):
                        valid[kq] = False
                    if self.l2 is not None:
                        kq2 = (q, ln % self.l2.nsets)
                        if (l2cache.get(kq2) == ln
                                and l2valid.get(kq2, False)):
                            l2valid[kq2] = False
        return AccessClassification(**flags)
