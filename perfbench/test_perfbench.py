"""Tests of the benchmark itself: its output check, its traced run and
its independence from point order.

Run with ``python -m pytest perfbench -q`` from the root of a checkout.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run as bench

bench.import_program()

from layers import COHERENCE_ROW, Tracer  # noqa: E402
from repro.apps import ALL_APPS  # noqa: E402
from workloads import (PAIR_PROBE, TABLE1_CONFIGS, BatchCold,  # noqa: E402
                       Table1)

GOLDEN = json.loads(bench.GOLDEN.read_text())
STENCIL_ONLY = [c for c in TABLE1_CONFIGS if c[0] == "stencil5"]


def _run(workload, section, tmp, seed=0):
    workload.setup(tmp)
    return bench.Run(workload, GOLDEN[section], seed, 0, tmp)


def _accesses(section, app, **build):
    """Accesses the simulator classifies for every golden point of
    ``app``: one round for single-step programs, two otherwise."""
    rounds = 2 if ALL_APPS[app].build(**build).time_steps > 1 else 1
    return sum(rounds * c["n_accesses"]
               for label, c in GOLDEN[section].items()
               if label.startswith(f"{app}/"))


def test_perturbing_one_golden_value_makes_error_rate_positive(
        tmp_path, monkeypatch, capsys):
    golden = json.loads(bench.GOLDEN.read_text())
    golden["batch"]["stencil5/data/P4"]["total_time"] += 1.0
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(bench, "GOLDEN", path)
    bench.main(["--workload", "batch_cold", "--seed", "3", "--seconds",
                "0", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (144, 1)
    assert any("error_rate 0.006944" in line for line in lines)
    assert result["metrics"]["ok_rate"]["value"] == pytest.approx(143 / 144)
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb",
                                      "ok_rate"}


def _assert_reconciles(rows, tracer):
    local = sum(tracer.self_s.values())
    assert all(v >= -1e-9 for v in tracer.self_s.values())
    # Self times partition the outermost wrapped calls exactly.
    assert local == pytest.approx(tracer.top_s, abs=1e-6)
    wall = rows["traced_wall_s"][0]
    assert 0.0 <= rows["unattributed_s"][0] <= wall
    assert local + rows["unattributed_s"][0] == pytest.approx(wall)


def _traced(run, tmp):
    tracer = Tracer().install(Path(tempfile.mkdtemp(dir=tmp)))
    wall, rows = run.unit(tracer)
    return tracer, rows


def test_serial_trace_rows_reconcile_to_the_traced_wall(tmp_path):
    workload = Table1(STENCIL_ONLY)
    try:
        run = _run(workload, "table1", tmp_path)
        tracer, rows = _traced(run, tmp_path)
    finally:
        workload.close()
    assert run.failed == 0
    _assert_reconciles(rows, tracer)
    # The helpers were patched where simulate.py looks them up: every
    # simulated access went through the coherence row.
    assert rows["machine.accesses"][0] == _accesses(
        "table1", "stencil5", **STENCIL_ONLY[0][1])
    assert tracer.self_s[COHERENCE_ROW] > 0
    # Nearly all of a compile+simulate run sits inside wrapped layers.
    assert rows["unattributed_s"][0] < 0.1 * rows["traced_wall_s"][0]
    assert not tracer.worker_self_s


def test_parallel_trace_merges_worker_rows(tmp_path):
    run = _run(BatchCold(), "batch", tmp_path)
    tracer, rows = _traced(run, tmp_path)
    assert run.failed == 0
    _assert_reconciles(rows, tracer)
    # Compile and simulate ran only in the forked workers.
    assert COHERENCE_ROW not in tracer.self_s
    assert tracer.worker_self_s[COHERENCE_ROW] > 0
    assert rows["machine.accesses"][0] == sum(
        _accesses("batch", app, n=16) for app in ALL_APPS)
    assert rows["pipeline.store.puts"][0] == 144
    assert rows["pipeline.grid.points_executed"][0] == 144
    # header + a start and a done per point + one wave + end
    assert rows["pipeline.journal.appends"][0] == 2 * 144 + 3


def test_two_seeds_give_identical_counters(tmp_path):
    outcomes = []
    for seed in (1, 2):
        workload = BatchCold()
        workload.setup(tmp_path)
        out = workload.run(random.Random(seed))
        outcomes.append(workload.points(out))
        workload.cleanup(out)
    orders = [[label for label, _ in points] for points in outcomes]
    assert orders[0] != orders[1]
    assert dict(outcomes[0]) == dict(outcomes[1])
    assert dict(outcomes[0]) == GOLDEN["batch"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pair_probe_times_both_processes_and_reaps_them(tmp_path):
    times = PAIR_PROBE.measure(2, tmp_path)
    assert len(times) == 2 * PAIR_PROBE.procs
    assert all(t > 0 for t in times)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
