"""Tests for the private cache models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.cache import (
    CacheConfig,
    assoc_lru_hits,
    carry_prev,
    direct_mapped_hits,
    group_order,
)


class TestConfig:
    def test_geometry(self):
        c = CacheConfig(size_bytes=256, line_bytes=16)
        assert c.nlines == 16
        assert c.nsets == 16

    def test_assoc_geometry(self):
        c = CacheConfig(size_bytes=256, line_bytes=16, assoc=2)
        assert c.nsets == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=100, line_bytes=16)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0, line_bytes=16)

    def test_mapping(self):
        c = CacheConfig(size_bytes=64, line_bytes=16)  # 4 sets
        assert c.line_of(np.array([0, 16, 64])).tolist() == [0, 1, 4]
        assert c.set_of(np.array([0, 1, 4, 5])).tolist() == [0, 1, 0, 1]


def prev_in_group(group, value, carried, mark=None):
    """carry_prev over ``group_order``, back in stream order."""
    order = group_order(group, len(carried))
    out = np.empty(len(group), dtype=np.int64)
    out[order] = carry_prev(group[order], value[order], carried,
                            None if mark is None else mark[order])
    return out


class TestGroupCarry:
    def test_prev_equal(self):
        group = np.array([0, 0, 1, 0, 1])
        value = np.array([5, 5, 7, 6, 7])
        prev = prev_in_group(group, value, np.full(2, -1))
        assert (prev == value).tolist() == [False, True, False, False, True]

    def test_prev_position(self):
        group = np.array([0, 1, 0, 1, 0])
        carried = np.full(2, -1)
        out = prev_in_group(group, np.arange(5), carried)
        assert out.tolist() == [-1, -1, 0, 1, 2]
        # The group tails are carried into the next chunk.
        assert carried.tolist() == [4, 3]

    def test_prev_marked(self):
        """With ``mark``, each element sees the last marked element
        before it in its group (here: the last write)."""
        group = np.array([0, 0, 1, 0, 1, 0])
        mark = np.array([True, False, False, False, True, False])
        carried = np.array([-1, 9])
        out = prev_in_group(group, np.arange(10, 16), carried, mark)
        assert out.tolist() == [-1, 10, 9, 10, 9, 10]
        assert carried.tolist() == [10, 14]

    def test_empty(self):
        e = np.zeros(0, dtype=np.int64)
        assert len(group_order(e, 0)) == 0
        assert len(carry_prev(e, e, np.full(1, -1))) == 0

    def test_wide_keys_take_several_digits(self):
        group = np.array([70000, 3, 70000 + 65536, 3, 70000])
        order = group_order(group, 1 << 20)
        assert group[order].tolist() == [3, 3, 70000, 70000, 70000 + 65536]
        assert order.tolist() == [1, 3, 0, 4, 2]

    @given(st.lists(st.tuples(st.integers(0, 5), st.booleans()),
                    max_size=80),
           st.lists(st.integers(0, 80), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_chunks_match_whole(self, accesses, cuts):
        """Carrying state over any split equals one whole pass."""
        group = np.array([g for g, _ in accesses], dtype=np.int64)
        mark = np.array([m for _, m in accesses], dtype=bool)
        pos = np.arange(len(group))
        for m in (None, mark):
            whole = prev_in_group(group, pos, np.full(6, -1), m)
            carried = np.full(6, -1)
            edges = [0] + sorted(min(c, len(group)) for c in cuts)
            parts = [
                prev_in_group(group[a:b], pos[a:b], carried,
                              None if m is None else m[a:b])
                for a, b in zip(edges, edges[1:] + [len(group)])
            ]
            assert np.array_equal(np.concatenate(parts), whole)


def naive_direct_mapped(proc, addr, cfg):
    """Reference implementation: dict-based direct-mapped caches."""
    cache = {}
    hits = np.zeros(len(addr), dtype=bool)
    for i, (p, a) in enumerate(zip(proc, addr)):
        ln = a // cfg.line_bytes
        s = ln % cfg.nsets
        hits[i] = cache.get((p, s)) == ln
        cache[(p, s)] = ln
    return hits


class TestDirectMapped:
    def test_simple_reuse(self):
        cfg = CacheConfig(size_bytes=64, line_bytes=16)
        proc = np.zeros(4, dtype=np.int64)
        addr = np.array([0, 4, 8, 16])  # same line x3 then new line
        hits = direct_mapped_hits(proc, addr, cfg)
        assert hits.tolist() == [False, True, True, False]

    def test_conflict_eviction(self):
        cfg = CacheConfig(size_bytes=32, line_bytes=16)  # 2 sets
        proc = np.zeros(3, dtype=np.int64)
        # lines 0 and 2 both map to set 0
        addr = np.array([0, 32, 0])
        hits = direct_mapped_hits(proc, addr, cfg)
        assert hits.tolist() == [False, False, False]

    def test_per_processor_isolation(self):
        cfg = CacheConfig(size_bytes=64, line_bytes=16)
        proc = np.array([0, 1, 0, 1])
        addr = np.array([0, 0, 0, 0])
        hits = direct_mapped_hits(proc, addr, cfg)
        assert hits.tolist() == [False, False, True, True]

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 255)),
                 min_size=1, max_size=200)
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_naive(self, accesses):
        cfg = CacheConfig(size_bytes=64, line_bytes=16)
        proc = np.array([p for p, _ in accesses], dtype=np.int64)
        addr = np.array([a for _, a in accesses], dtype=np.int64)
        fast = direct_mapped_hits(proc, addr, cfg)
        ref = naive_direct_mapped(proc, addr, cfg)
        assert np.array_equal(fast, ref)


class TestAssocLRU:
    def test_two_way_avoids_conflict(self):
        cfg1 = CacheConfig(size_bytes=32, line_bytes=16, assoc=1)
        cfg2 = CacheConfig(size_bytes=32, line_bytes=16, assoc=2)
        proc = np.zeros(4, dtype=np.int64)
        addr = np.array([0, 32, 0, 32])  # ping-pong between 2 lines
        dm = assoc_lru_hits(proc, addr, cfg1)
        tw = assoc_lru_hits(proc, addr, cfg2)
        assert dm.tolist() == [False, False, False, False]
        assert tw.tolist() == [False, False, True, True]

    def test_lru_order(self):
        cfg = CacheConfig(size_bytes=32, line_bytes=16, assoc=2)
        proc = np.zeros(6, dtype=np.int64)
        # lines 0,2 fit the 2-way set; line 4 evicts the LRU line 0.
        addr = np.array([0, 32, 0, 32, 64, 32])
        hits = assoc_lru_hits(proc, addr, cfg)
        assert hits.tolist() == [False, False, True, True, False, True]

    def test_assoc1_matches_direct(self):
        cfg = CacheConfig(size_bytes=64, line_bytes=16)
        rng = np.random.default_rng(3)
        proc = rng.integers(0, 2, 100)
        addr = rng.integers(0, 16, 100) * 16
        assert np.array_equal(
            assoc_lru_hits(proc, addr, cfg),
            direct_mapped_hits(proc, addr, cfg),
        )
