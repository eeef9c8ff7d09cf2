"""Tests for NUMA homing, the cost model, and the DASH configs."""

import numpy as np
import pytest

from repro.machine.cost import CostParams, per_proc_cycles, phase_time
from repro.machine.dash import DashConfig, dash_machine, scaled_dash
from repro.machine.numa import NumaConfig, first_touch_homes, local_miss_mask


class TestNuma:
    def test_first_touch(self):
        cfg = NumaConfig(page_bytes=64, cluster_size=2)
        addr = np.array([0, 0, 64, 64])
        proc = np.array([0, 3, 3, 0])
        _, home = first_touch_homes(addr, proc, cfg)
        assert home.tolist() == [0, 0, 1, 1]

    def test_local_mask(self):
        cfg = NumaConfig(page_bytes=64, cluster_size=2)
        addr = np.array([0, 0, 0])
        proc = np.array([0, 1, 2])
        local = local_miss_mask(addr, proc, cfg)
        # proc 0 and 1 share cluster 0 (first toucher) -> local
        assert local.tolist() == [True, True, False]

    def test_empty(self):
        cfg = NumaConfig()
        page, home = first_touch_homes(
            np.zeros(0, dtype=int), np.zeros(0, dtype=int), cfg
        )
        assert len(page) == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_carried_homes_equal_monolithic(self, seed):
        """Homing a random page stream chunk by chunk, carrying the
        homes array, gives exactly the monolithic first-touch homes;
        a second pass over the stream (the steady round) reads them."""
        rng = np.random.default_rng(seed)
        cfg = NumaConfig(page_bytes=int(rng.choice([16, 64, 512])),
                         cluster_size=int(rng.integers(1, 4)))
        n = int(rng.integers(1, 400))
        addr = rng.integers(0, 40 * cfg.page_bytes, n)
        proc = rng.integers(0, 9, n)
        page, want = first_touch_homes(addr, proc, cfg)
        cuts = np.sort(rng.integers(0, n + 1, int(rng.integers(0, 6))))
        homes = np.full(int(addr.max()) // cfg.page_bytes + 1, -1)
        for _ in range(2):
            parts = [first_touch_homes(addr[a:b], proc[a:b], cfg, homes)
                     for a, b in zip([0, *cuts], [*cuts, n])]
            assert np.concatenate([pg for pg, _ in parts]).tolist() \
                == page.tolist()
            assert np.concatenate([h for _, h in parts]).tolist() \
                == want.tolist()
            local = np.concatenate([
                local_miss_mask(addr[a:b], proc[a:b], cfg, homes)
                for a, b in zip([0, *cuts], [*cuts, n])])
            assert local.tolist() == local_miss_mask(addr, proc, cfg).tolist()

    def test_cluster_of(self):
        cfg = NumaConfig(cluster_size=4)
        assert cfg.cluster_of(np.array([0, 3, 4, 31])).tolist() == [0, 0, 1, 7]


class TestCostParams:
    def test_barrier_scales_with_procs(self):
        p = CostParams()
        assert p.barrier_cost(1) == 0.0
        assert p.barrier_cost(32) > p.barrier_cost(2)

    def test_per_proc_cycles(self):
        p = CostParams(cpu_per_access=2.0, l1_hit=1.0, local_miss=30.0,
                       remote_miss=100.0, upgrade=50.0)
        proc = np.array([0, 0, 1, 1])
        hit = np.array([True, False, False, True])
        mloc = np.array([False, True, False, False])
        mrem = np.array([False, False, True, False])
        upg = np.array([False, False, False, True])
        acc, hits, loc, rem, up = _counts(proc, 2, None, hit, mloc, mrem, upg)
        out = per_proc_cycles(acc, hits, loc, rem, p, upgrade=up)
        assert out[0] == 2 * 2 + 1 + 30
        assert out[1] == 2 * 2 + 1 + 100 + 50

    def test_upgrades_free_on_uniprocessor(self):
        p = CostParams()
        proc = np.zeros(2, dtype=int)
        hit = np.ones(2, dtype=bool)
        z = np.zeros(2, dtype=bool)
        upg = np.ones(2, dtype=bool)
        acc, hits, zc, up = _counts(proc, 1, None, hit, z, upg)
        a = per_proc_cycles(acc, hits, zc, zc, p, upgrade=up)
        b = per_proc_cycles(acc, hits, zc, zc, p)
        assert np.allclose(a, b)

    @pytest.mark.parametrize("seed", range(6))
    def test_count_form_equals_flag_form(self, seed):
        """Cycles from per-processor counts are bit-identical to the
        per-access flag form the simulator used before it counted
        chunk by chunk (same float expression order)."""
        rng = np.random.default_rng(seed)
        nprocs = int(rng.integers(1, 6))
        n = int(rng.integers(0, 200))
        proc = rng.integers(0, nprocs, n)
        hit, mloc, mrem, upg, l2 = (rng.random((5, n)) < 0.3)
        p = CostParams(*rng.uniform(0.1, 150.0, 6))
        for with_l2 in (False, True):
            for with_upg in (False, True):
                kw = dict(upgrade=upg if with_upg else None,
                          l2_hit=l2 if with_l2 else None)
                want = _flag_form_cycles(proc, hit, mloc, mrem, nprocs, p,
                                         **kw)
                counts = {k: None if f is None else _counts(
                    proc, nprocs, f)[0] for k, f in kw.items()}
                acc, hits, loc, rem = _counts(proc, nprocs, None, hit,
                                              mloc, mrem)
                got = per_proc_cycles(acc, hits, loc, rem, p, **counts)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


def _counts(proc, nprocs, *flags):
    """The count form of per-access flags (None = every access): each
    flag's per-processor ``np.bincount``."""
    return [np.bincount(proc if f is None else proc[f], minlength=nprocs)
            for f in flags]


def _flag_form_cycles(proc, hit, miss_local, miss_remote, nprocs, params,
                      upgrade=None, l2_hit=None):
    """The per-access flag form of the cycle count, as the simulator
    computed it over a whole phase slice."""
    base = np.bincount(proc, minlength=nprocs).astype(np.float64)
    hits = np.bincount(proc[hit], minlength=nprocs).astype(np.float64)
    loc = np.bincount(proc[miss_local], minlength=nprocs).astype(np.float64)
    rem = np.bincount(proc[miss_remote], minlength=nprocs).astype(np.float64)
    out = (
        base * params.cpu_per_access
        + hits * params.l1_hit
        + loc * params.local_miss
        + rem * params.remote_miss
    )
    if l2_hit is not None:
        l2 = np.bincount(proc[l2_hit], minlength=nprocs).astype(np.float64)
        out += l2 * params.l2_hit
    if upgrade is not None and nprocs > 1:
        upg = np.bincount(proc[upgrade], minlength=nprocs).astype(np.float64)
        out += upg * params.upgrade
    return out


class TestPhaseTime:
    def test_barrier_phase(self):
        p = CostParams()
        cycles = np.array([100.0, 300.0])
        pc = phase_time("n", cycles, "barrier", barriers=2, pipelined=False,
                        seq_steps=1, nprocs=2, params=p)
        assert pc.compute_max == 300.0
        assert pc.sync == 2 * p.barrier_cost(2)
        assert pc.time == pc.compute_max + pc.sync

    def test_local_phase_no_sync(self):
        p = CostParams()
        pc = phase_time("n", np.array([50.0]), "none", 1, False, 1, 4, p)
        assert pc.sync == 0.0

    def test_neighbor(self):
        p = CostParams()
        pc = phase_time("n", np.array([50.0]), "neighbor", 1, False, 1, 4, p)
        assert pc.sync == p.neighbor_sync

    def test_uniprocessor_no_sync(self):
        p = CostParams()
        pc = phase_time("n", np.array([50.0]), "barrier", 5, False, 1, 1, p)
        assert pc.sync == 0.0

    def test_pipeline_fill_and_tiles(self):
        p = CostParams(lock_cost=10.0)
        compute = 1000.0
        pc = phase_time("n", np.array([compute]), "pipeline", 1, True,
                        seq_steps=100, nprocs=8, params=p)
        assert pc.sync > 0
        # the optimal tiling beats both extremes
        one_tile = (8 - 1) * compute / 1 + 1 * 10.0
        max_tiles = (8 - 1) * compute / 100 + 100 * 10.0
        assert pc.sync <= one_tile + 1e-9
        assert pc.sync <= max_tiles + 1e-9

    def test_pipeline_capped_by_seq_steps(self):
        p = CostParams(lock_cost=0.001)
        pc = phase_time("n", np.array([1000.0]), "pipeline", 1, True,
                        seq_steps=4, nprocs=8, params=p)
        # tiles cannot exceed seq_steps=4
        assert pc.sync >= (8 - 1) * 1000.0 / 4


class TestDashConfigs:
    def test_full_size(self):
        m = dash_machine(32)
        assert m.cache.size_bytes == 64 * 1024
        assert m.cache.line_bytes == 16
        assert m.numa.page_bytes == 4096
        assert m.numa.cluster_size == 4

    def test_scaled_keeps_line(self):
        m = scaled_dash(8, scale=16)
        assert m.cache.line_bytes == 16
        assert m.cache.size_bytes == 4096

    def test_page_override(self):
        m = scaled_dash(8, scale=16, page_bytes=1024)
        assert m.numa.page_bytes == 1024

    def test_with_procs(self):
        m = dash_machine(32).with_procs(8)
        assert m.nprocs == 8
        assert m.cache.size_bytes == 64 * 1024

    def test_floor_guard(self):
        m = scaled_dash(4, scale=10**9)
        assert m.cache.size_bytes >= m.cache.line_bytes * 16
