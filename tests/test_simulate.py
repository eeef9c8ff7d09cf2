"""Tests for the whole-program simulation driver."""

import functools
import importlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.apps import lu, simple, stencil5
from repro.codegen.spmd import Scheme
from repro.compiler import compile_program
from repro.machine import scaled_dash
from repro.machine.cache import CacheConfig
from repro.machine.simulate import simulate, simulate_scheme, speedup_curve

# ``repro.machine`` re-exports the simulate *function* under the
# submodule's name; CHUNK is patched on the module itself.
sim_module = importlib.import_module("repro.machine.simulate")


@pytest.fixture(scope="module")
def prog():
    return simple.build(n=32, time_steps=3)


def machine(p):
    return scaled_dash(p, scale=32, word_bytes=4)


class TestSimulate:
    def test_uniprocessor_schemes_agree(self, prog):
        """At P=1 all three configurations execute identical access
        streams, so their times must match exactly."""
        times = []
        for scheme in (Scheme.BASE, Scheme.COMP_DECOMP,
                       Scheme.COMP_DECOMP_DATA):
            spmd = compile_program(prog, scheme, 1)
            times.append(simulate(spmd, machine(1)).total_time)
        assert times[0] == pytest.approx(times[1])
        assert times[0] == pytest.approx(times[2])

    def test_positive_time_and_counts(self, prog):
        res = simulate(compile_program(prog, Scheme.BASE, 4), machine(4))
        assert res.total_time > 0
        assert res.n_accesses == prog.total_iterations() * 0 + res.n_accesses
        assert set(res.miss_breakdown) == {
            "cold", "replacement", "true_sharing", "false_sharing",
            "upgrade", "l2_hits", "remote", "local_miss",
        }

    def test_rounds(self, prog):
        res = simulate(compile_program(prog, Scheme.BASE, 2), machine(2))
        cold_round, steady_round = res.round_times
        assert cold_round >= steady_round  # warm caches help
        expected = cold_round + (prog.time_steps - 1) * steady_round
        assert res.total_time == pytest.approx(expected)

    def test_single_time_step_single_round(self):
        p1 = simple.build(n=16, time_steps=1)
        res = simulate(compile_program(p1, Scheme.BASE, 2), machine(2))
        assert res.round_times[0] == pytest.approx(res.round_times[1])

    def test_steady_round_is_the_doubled_stream(self):
        """The steady round, classified from the state the cold round
        left, counts exactly what classifying the doubled stream at
        once (and first-touch homing over it) counts."""
        from repro.machine.coherence import classify_accesses
        from repro.machine.numa import local_miss_mask
        from repro.machine.trace import program_traces

        m = machine(8).with_l2()
        # The stencil's partition boundaries share lines: both sharing
        # classes occur.
        spmd = compile_program(stencil5.build(n=32, time_steps=3),
                               Scheme.COMP_DECOMP, 8)
        _, traces = program_traces(spmd, m.numa.page_bytes)
        proc, addr, write = (np.tile(np.concatenate(
            [getattr(t, f) for t in traces]), 2)
            for f in ("proc", "addr", "write"))
        cls = classify_accesses(proc, addr, write, m.cache,
                                word_bytes=m.word_bytes, l2=m.l2)
        local = local_miss_mask(addr, proc, m.numa)
        miss = cls.miss & ~cls.l2_hit
        want = {
            "cold": cls.cold, "replacement": cls.replacement,
            "true_sharing": cls.true_sharing,
            "false_sharing": cls.false_sharing, "upgrade": cls.upgrade,
            "l2_hits": cls.l2_hit, "remote": miss & ~local,
            "local_miss": miss & local,
        }
        res = simulate(spmd, m)
        assert res.miss_breakdown == {k: int(v.sum())
                                      for k, v in want.items()}
        assert res.miss_breakdown["false_sharing"] > 0
        assert res.n_accesses * 2 == len(addr)

    def test_no_remote_misses_on_one_cluster(self, prog):
        """With <= cluster_size processors everything is one cluster, so
        no miss can be remote."""
        res = simulate(compile_program(prog, Scheme.BASE, 4), machine(4))
        assert res.miss_breakdown["remote"] == 0

    def test_phase_costs_cover_nests(self, prog):
        res = simulate(compile_program(prog, Scheme.BASE, 4), machine(4))
        assert [pc.nest_name for pc in res.phase_costs] == ["add", "relax"]

    def test_summary_text(self, prog):
        res = simulate(compile_program(prog, Scheme.BASE, 4), machine(4))
        assert "base" in res.summary()
        assert "P=4" in res.summary()

    def test_simulate_scheme_shortcut(self, prog):
        res = simulate_scheme(prog, Scheme.COMP_DECOMP, machine(4))
        assert res.scheme == Scheme.COMP_DECOMP.value


class TestSpeedupCurve:
    def test_baseline_normalized(self, prog):
        curves = speedup_curve(prog, [Scheme.BASE], machine, [1, 2])
        series = curves[Scheme.BASE.value]
        assert series[0] == (1, pytest.approx(1.0))
        assert series[1][1] > 1.0

    def test_all_schemes_present(self, prog):
        curves = speedup_curve(
            prog,
            [Scheme.BASE, Scheme.COMP_DECOMP, Scheme.COMP_DECOMP_DATA],
            machine,
            [1, 4],
        )
        assert len(curves) == 3
        for series in curves.values():
            assert [p for p, _ in series] == [1, 4]

    def test_zero_time_scheme_falls_back_to_neutral_speedup(self):
        """A scheme whose simulated time is zero (empty access trace)
        must report the neutral speedup 1.0, not 0.0, and log an
        observability event."""
        from repro import obs
        from repro.ir.program import Program

        empty = Program(name="empty", arrays={}, nests=[], params={},
                        time_steps=1)
        obs.enable(reset=True)
        try:
            curves = speedup_curve(empty, [Scheme.BASE], machine, [1, 2])
            assert curves[Scheme.BASE.value] == [(1, 1.0), (2, 1.0)]
            assert any(e.name == "sim.zero_time"
                       for e in obs.collector().events)
        finally:
            obs.disable()
            obs.reset()

    def test_figure1_ordering_at_scale(self, prog):
        """The Figure-1 qualitative result: with data transformation the
        program is at least as fast as comp-decomp alone at high P."""
        curves = speedup_curve(
            prog,
            [Scheme.COMP_DECOMP, Scheme.COMP_DECOMP_DATA],
            machine,
            [8],
        )
        cd = curves[Scheme.COMP_DECOMP.value][0][1]
        cdd = curves[Scheme.COMP_DECOMP_DATA.value][0][1]
        assert cdd >= cd * 0.95


def _whole(res):
    """Every field of a detailed SimResult, as exactly comparable
    plain values (floats compared bit for bit)."""
    return (
        res.total_time, res.round_times, res.time_steps, res.n_accesses,
        res.miss_breakdown, res.numa, res.array_breakdown,
        res.conflict_sets,
        [(pc.nest_name, pc.time, pc.compute_max, pc.sync,
          pc.per_proc_cycles.tolist(), pc.misses)
         for pc in res.phase_costs],
    )


def _two_way(m):
    c = m.cache
    return replace(m, cache=CacheConfig(c.size_bytes, c.line_bytes, assoc=2))


def small_cache(p):
    """A 512-byte L1: replacement misses even at n=12."""
    return scaled_dash(p, scale=128, word_bytes=4)


# name -> (program, scheme, P, machine).  simple has two phases; the
# 512-byte pages make a stencil page's first touch straddle chunks.
CHUNK_CASES = {
    "simple-T1": (lambda: simple.build(n=12, time_steps=1),
                  Scheme.COMP_DECOMP, 8, machine),
    "simple-T3-l2": (lambda: simple.build(n=12, time_steps=3),
                     Scheme.BASE, 8, lambda p: small_cache(p).with_l2()),
    "simple-T2-2way": (lambda: simple.build(n=12, time_steps=2),
                       Scheme.BASE, 8, lambda p: _two_way(small_cache(p))),
    "stencil5-page512": (lambda: stencil5.build(n=16, time_steps=2),
                         Scheme.COMP_DECOMP, 8,
                         lambda p: scaled_dash(p, scale=32, word_bytes=4,
                                               page_bytes=512)),
}


@functools.lru_cache(maxsize=None)
def _default_chunk_run(case):
    build, scheme, p, make_machine = CHUNK_CASES[case]
    spmd = compile_program(build(), scheme, p)
    m = make_machine(p)
    return spmd, m, _whole(simulate(spmd, m, detail=True))


class TestChunkedRounds:
    @pytest.mark.parametrize("case", sorted(CHUNK_CASES))
    @pytest.mark.parametrize("chunk", [1, 7, 64, 4096])
    def test_chunk_size_never_changes_the_result(self, case, chunk,
                                                 monkeypatch):
        """Walking each phase in chunks of any size gives exactly the
        result of the default chunk (one chunk per phase here)."""
        spmd, m, want = _default_chunk_run(case)
        assert max(len(t.addr) for t in
                   sim_module.program_traces(spmd, m.numa.page_bytes)[1]
                   ) < sim_module.CHUNK
        monkeypatch.setattr(sim_module, "CHUNK", chunk)
        assert _whole(simulate(spmd, m, detail=True)) == want

    def test_cases_exercise_numa_and_sharing(self):
        """The chunked cases are not vacuous: pages are homed remotely
        and both sharing classes occur somewhere."""
        results = {case: _default_chunk_run(case)[2][4]
                   for case in CHUNK_CASES}
        assert results["stencil5-page512"]["remote"] > 0
        assert any(r["false_sharing"] for r in results.values())
        assert any(r["true_sharing"] for r in results.values())
        assert results["simple-T3-l2"]["l2_hits"] > 0
        assert results["simple-T2-2way"]["replacement"] > 0

    def test_simulate_memory_is_trace_plus_chunk(self, monkeypatch):
        """simulate holds the resident trace plus O(CHUNK) classifier
        temporaries: at most 64 B per simulated access at LU n=64 P=32
        (classifying a whole round at once took about 142 B)."""
        monkeypatch.setattr(sim_module, "CHUNK", 1 << 14)
        spmd = compile_program(lu.build(n=64), Scheme.COMP_DECOMP, 32)
        m = scaled_dash(32, scale=16, word_bytes=8)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            res = simulate(spmd, m)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert res.n_accesses > 64 * (1 << 14) // 4
        assert peak / res.n_accesses <= 64
