"""Tests for the coherence models — the vectorized classifier must agree
access-for-access with the event-at-a-time executable specification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.cache import (
    CacheConfig,
    assoc_lru_hits,
    direct_mapped_hits,
)
from repro.machine.coherence import (
    AccessClassification,
    CoherenceState,
    ExactCoherentSim,
    classify_accesses,
)

FIELDS = ["hit", "cold", "replacement", "true_sharing", "false_sharing",
          "upgrade"]


def tiny_cfg():
    return CacheConfig(size_bytes=128, line_bytes=16)  # 8 sets


class TestScenarios:
    def test_cold_then_hit(self):
        cfg = tiny_cfg()
        proc = np.array([0, 0])
        addr = np.array([0, 8])
        write = np.array([False, False])
        c = classify_accesses(proc, addr, write, cfg)
        assert c.cold.tolist() == [True, False]
        assert c.hit.tolist() == [False, True]

    def test_true_sharing(self):
        """P0 reads word, P1 writes THE SAME word, P0 rereads: true
        sharing miss."""
        cfg = tiny_cfg()
        proc = np.array([0, 1, 0])
        addr = np.array([0, 0, 0])
        write = np.array([False, True, False])
        c = classify_accesses(proc, addr, write, cfg)
        assert c.true_sharing.tolist() == [False, False, True]
        assert c.false_sharing.sum() == 0

    def test_false_sharing(self):
        """P1 writes a different word of the same line: false sharing."""
        cfg = tiny_cfg()
        proc = np.array([0, 1, 0])
        addr = np.array([0, 8, 0])  # words 0 and 1, same 16B line
        write = np.array([False, True, False])
        c = classify_accesses(proc, addr, write, cfg, word_bytes=8)
        assert c.false_sharing.tolist() == [False, False, True]
        assert c.true_sharing.sum() == 0

    def test_own_write_no_invalidation(self):
        cfg = tiny_cfg()
        proc = np.array([0, 0, 0])
        addr = np.array([0, 0, 0])
        write = np.array([False, True, False])
        c = classify_accesses(proc, addr, write, cfg)
        assert c.hit.tolist() == [False, True, True]

    def test_rewrite_after_other_reclaims(self):
        """P0 write, P1 write (invalidates P0), P0 read -> sharing miss;
        then P0 read again -> hit."""
        cfg = tiny_cfg()
        proc = np.array([0, 1, 0, 0])
        addr = np.array([0, 0, 0, 0])
        write = np.array([True, True, False, False])
        c = classify_accesses(proc, addr, write, cfg)
        assert c.true_sharing.tolist() == [False, False, True, False]
        assert c.hit.tolist() == [False, False, False, True]

    def test_replacement_beats_sharing_classification(self):
        """If the line was evicted by a conflict anyway, the miss is a
        replacement miss even if a remote write also occurred."""
        cfg = CacheConfig(size_bytes=32, line_bytes=16)  # 2 sets
        proc = np.array([0, 1, 0, 0])
        # line 0 and line 2 conflict in set 0 for proc 0
        addr = np.array([0, 0, 32, 0])
        write = np.array([False, True, False, False])
        c = classify_accesses(proc, addr, write, cfg)
        assert c.replacement.tolist() == [False, False, False, True]

    def test_upgrade(self):
        """P0 caches line, P1 reads it (shared), P0 writes -> upgrade."""
        cfg = tiny_cfg()
        proc = np.array([0, 1, 0])
        addr = np.array([0, 0, 0])
        write = np.array([False, False, True])
        c = classify_accesses(proc, addr, write, cfg)
        assert c.upgrade.tolist() == [False, False, True]
        assert c.hit.tolist() == [False, False, True]

    def test_empty_stream(self):
        c = classify_accesses(
            np.zeros(0, dtype=int), np.zeros(0, dtype=int),
            np.zeros(0, dtype=bool), tiny_cfg(),
        )
        assert len(c.hit) == 0


@st.composite
def trace(draw):
    n = draw(st.integers(1, 250))
    nprocs = draw(st.integers(1, 4))
    proc = draw(st.lists(st.integers(0, nprocs - 1), min_size=n, max_size=n))
    addr = draw(st.lists(st.integers(0, 31), min_size=n, max_size=n))
    write = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return (
        nprocs,
        np.array(proc),
        np.array(addr) * 8,
        np.array(write),
    )


class TestEquivalence:
    @given(trace())
    @settings(max_examples=120, deadline=None)
    def test_fast_matches_exact(self, t):
        nprocs, proc, addr, write = t
        cfg = tiny_cfg()
        fast = classify_accesses(proc, addr, write, cfg, word_bytes=8)
        exact = ExactCoherentSim(nprocs, cfg, word_bytes=8).run(
            proc, addr, write
        )
        for f in FIELDS:
            assert np.array_equal(getattr(fast, f), getattr(exact, f)), f

    @given(trace())
    @settings(max_examples=60, deadline=None)
    def test_partition_of_outcomes(self, t):
        """Every access is exactly one of: hit, cold, replacement, true
        sharing, false sharing."""
        nprocs, proc, addr, write = t
        c = classify_accesses(proc, addr, write, tiny_cfg())
        total = (
            c.hit.astype(int) + c.cold.astype(int)
            + c.replacement.astype(int) + c.true_sharing.astype(int)
            + c.false_sharing.astype(int)
        )
        assert (total == 1).all()

    @given(trace())
    @settings(max_examples=60, deadline=None)
    def test_single_processor_has_no_sharing(self, t):
        nprocs, proc, addr, write = t
        proc = np.zeros_like(proc)
        c = classify_accesses(proc, addr, write, tiny_cfg())
        assert c.true_sharing.sum() == 0
        assert c.false_sharing.sum() == 0
        assert c.upgrade.sum() == 0

    @given(trace())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_fast_matches_exact_with_l2(self, t):
        """With a second-level cache configured, the vectorized
        classifier and the event simulation must also agree on which
        first-level misses are absorbed by L2."""
        nprocs, proc, addr, write = t
        cfg = tiny_cfg()
        l2 = CacheConfig(size_bytes=256, line_bytes=16)  # 16 sets
        fast = classify_accesses(proc, addr, write, cfg, word_bytes=8,
                                 l2=l2)
        exact = ExactCoherentSim(nprocs, cfg, word_bytes=8, l2=l2).run(
            proc, addr, write
        )
        for f in FIELDS + ["l2_hit"]:
            assert np.array_equal(getattr(fast, f), getattr(exact, f)), f

    @given(trace())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_l2_hits_are_l1_misses(self, t):
        nprocs, proc, addr, write = t
        c = classify_accesses(proc, addr, write, tiny_cfg(),
                              word_bytes=8,
                              l2=CacheConfig(256, 16))
        assert not (c.l2_hit & c.hit).any()
        assert not (c.l2_hit & c.upgrade).any()


def classify_chunks(proc, addr, write, cuts, cfg, **kw):
    """Classify the stream split at ``cuts``, carrying one state."""
    state = CoherenceState()
    edges = [0] + sorted(cuts) + [len(addr)]
    parts = [
        classify_accesses(proc[a:b], addr[a:b], write[a:b], cfg,
                          state=state, **kw)
        for a, b in zip(edges, edges[1:])
    ]
    return AccessClassification(**{
        f: np.concatenate([getattr(c, f) for c in parts])
        for f in FIELDS + ["l2_hit"]
    })


@st.composite
def chunked_trace(draw):
    """A trace, 0-4 cut points (so 1-5 chunks, empty and length-1 ones
    included) and an optional reordering by address or processor, which
    makes every later chunk bring lines, words or processors the state
    has never seen."""
    nprocs, proc, addr, write = draw(trace())
    ramp = draw(st.sampled_from([None, "addr", "proc"]))
    if ramp is not None:
        idx = np.argsort(addr if ramp == "addr" else proc, kind="stable")
        proc, addr, write = proc[idx], addr[idx], write[idx]
    n = len(addr)
    cuts = draw(st.lists(st.integers(0, n), max_size=4))
    if draw(st.booleans()) and n > 1:
        cuts += [n - 1, n - 1, 1]  # an empty and two length-1 chunks
    return nprocs, proc, addr, write, cuts


def assert_same(a, b, fields=FIELDS + ["l2_hit"]):
    for f in fields:
        assert np.array_equal(getattr(a, f), getattr(b, f)), f


class TestCarriedState:
    """Classifying chunks in order with one carried state is the
    monolithic classification and the event simulation of their
    concatenation (the simulator's steady round is such a chunk)."""

    @given(chunked_trace())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_chunks_match_whole_and_exact(self, t):
        nprocs, proc, addr, write, cuts = t
        cfg = tiny_cfg()
        whole = classify_accesses(proc, addr, write, cfg, word_bytes=8)
        assert_same(classify_chunks(proc, addr, write, cuts, cfg), whole)
        exact = ExactCoherentSim(nprocs, cfg, word_bytes=8).run(
            proc, addr, write)
        assert_same(whole, exact)

    @given(chunked_trace())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_chunks_match_whole_and_exact_with_l2(self, t):
        nprocs, proc, addr, write, cuts = t
        cfg, l2 = tiny_cfg(), CacheConfig(size_bytes=256, line_bytes=16)
        whole = classify_accesses(proc, addr, write, cfg, l2=l2)
        assert_same(classify_chunks(proc, addr, write, cuts, cfg, l2=l2),
                    whole)
        exact = ExactCoherentSim(nprocs, cfg, l2=l2).run(proc, addr, write)
        assert_same(whole, exact)

    @given(chunked_trace())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_chunks_match_whole_two_way(self, t):
        """The LRU stacks carry too.  (The event simulation models
        direct-mapped caches only, so two-way is checked against the
        monolithic classification.)"""
        nprocs, proc, addr, write, cuts = t
        cfg = CacheConfig(size_bytes=64, line_bytes=16, assoc=2)
        l2 = CacheConfig(size_bytes=128, line_bytes=16, assoc=2)
        whole = classify_accesses(proc, addr, write, cfg, l2=l2)
        assert_same(classify_chunks(proc, addr, write, cuts, cfg, l2=l2),
                    whole)

    def test_words_straddling_lines(self):
        """12-byte words do not nest in 16-byte lines."""
        rng = np.random.default_rng(5)
        proc = rng.integers(0, 3, 400)
        addr = rng.integers(0, 64, 400) * 4
        write = rng.random(400) < 0.4
        cfg = tiny_cfg()
        whole = classify_accesses(proc, addr, write, cfg, word_bytes=12)
        exact = ExactCoherentSim(3, cfg, word_bytes=12).run(
            proc, addr, write)
        assert_same(whole, exact)
        assert_same(classify_chunks(proc, addr, write, [150, 151, 300],
                                    cfg, word_bytes=12), whole)

    def test_wide_keys(self):
        """More than 65536 lines and (proc, set) slots: the radix sort
        takes several 16-bit digits, and keys equal in their low digit
        (lines 65536 apart, processors 2 apart) must not merge."""
        cfg = CacheConfig(size_bytes=512 * 1024, line_bytes=16)
        assert 4 * cfg.nsets > 65536
        rng = np.random.default_rng(11)
        lines = np.array([0, 1, 65536, 65537, 131072, 70001, 5])
        proc = rng.integers(0, 4, 3000)
        addr = lines[rng.integers(0, len(lines), 3000)] * 16
        addr += rng.integers(0, 2, 3000) * 8
        write = rng.random(3000) < 0.3
        whole = classify_accesses(proc, addr, write, cfg)
        exact = ExactCoherentSim(4, cfg).run(proc, addr, write)
        assert_same(whole, exact)
        assert_same(classify_chunks(proc, addr, write, [1000, 2000], cfg),
                    whole)
        assert whole.replacement.any() and whole.true_sharing.any()


class TestAssocLru:
    @given(trace())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_assoc_one_is_direct_mapped(self, t):
        """A 1-way LRU set is exactly a direct-mapped slot: the slow
        reference and the vectorized fast path must agree flag-for-flag
        on any interleaved multi-processor stream."""
        nprocs, proc, addr, write = t
        cfg = tiny_cfg()
        assert np.array_equal(
            assoc_lru_hits(proc, addr, cfg),
            direct_mapped_hits(proc, addr, cfg),
        )

    @given(trace())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_fully_associative_hits_after_first_touch(self, t):
        """A fully associative cache big enough for the whole footprint
        never evicts: an access hits iff its (proc, line) was touched
        before."""
        nprocs, proc, addr, write = t
        # Addresses span words 0..31 (<= 16 lines of 16B); 16 ways in
        # one set hold the entire footprint per processor.
        cfg = CacheConfig(size_bytes=256, line_bytes=16, assoc=16)
        hits = assoc_lru_hits(proc, addr, cfg)
        seen = set()
        for i in range(len(addr)):
            key = (int(proc[i]), int(addr[i]) // cfg.line_bytes)
            assert hits[i] == (key in seen)
            seen.add(key)
