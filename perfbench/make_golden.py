"""Regenerate ``golden.json``: the counters every benchmark point must
reproduce.

Usage, from the root of a checkout::

    python3 perfbench/make_golden.py

Before writing, the fresh counters are cross-checked against two
references that were produced independently of this benchmark:

* the exact-gated ``sim`` block of ``results/bench/BENCH_baseline.json``
  (simple and stencil5 at n=16, P 1 and 4, which the batch grid shares);
* Table 1's decomposition strings, verbatim as
  ``benchmarks/test_table1_summary.py`` asserts them, and that file's
  ``CONFIGS`` must equal ``workloads.TABLE1_CONFIGS``.

Only regenerate when the simulator's results are meant to change.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import run as bench

BASELINE = bench.ROOT / "results" / "bench" / "BENCH_baseline.json"


def _points(points):
    bad = [(label, got) for label, got in points if isinstance(got, str)]
    if bad:
        sys.exit(f"make_golden: {bad[0][0]} failed:\n{bad[0][1]}")
    return dict(points)


def check_baseline(batch):
    snap = json.loads(BASELINE.read_text())
    for p in snap["points"]:
        label = f"{p['app']}/{p['scheme']}/P{p['nprocs']}"
        sim = p["sim"]
        want = {"n_accesses": sim["n_accesses"],
                "total_time": sim["total_time"], "misses": sim["misses"]}
        if batch.get(label) != want:
            sys.exit(f"make_golden: {label} disagrees with {BASELINE.name}:"
                     f" {batch.get(label)} != {want}")
    return len(snap["points"])


def check_table1_decompositions():
    from repro.compiler import restructure_program
    from repro.decomp.greedy import decompose_program
    from repro.decomp.hpf import distribute_string
    from repro.apps import ALL_APPS
    from workloads import TABLE1_CONFIGS

    sys.path.insert(0, str(bench.ROOT / "benchmarks"))
    from test_table1_summary import CONFIGS

    if CONFIGS != TABLE1_CONFIGS:
        sys.exit("make_golden: TABLE1_CONFIGS differs from "
                 "benchmarks/test_table1_summary.py::CONFIGS")
    for name, bkw, _, paper in TABLE1_CONFIGS:
        prog = ALL_APPS[name].build(**bkw)
        decomp = decompose_program(restructure_program(prog), 32)
        for arr, expected in paper.items():
            dd = decomp.data_for(arr)
            got = ("REPLICATED" if dd.replicated
                   else distribute_string(dd, decomp.foldings))
            if got != expected:
                sys.exit(f"make_golden: {name} {arr} decomposes as {got},"
                         f" the paper says {expected}")


def check_lu_cliff(lu):
    comp31 = lu["lu/comp/P31"]["total_time"]
    comp32 = lu["lu/comp/P32"]["total_time"]
    data32 = lu["lu/data/P32"]["total_time"]
    if not (comp32 > comp31 and data32 < comp32):
        sys.exit(f"make_golden: LU lost Figure 6's shape: comp P31 "
                 f"{comp31}, comp P32 {comp32}, data P32 {data32}")


def main() -> int:
    bench.import_program()
    from workloads import BatchCold, LuScale, Table1

    check_table1_decompositions()
    bench.TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="golden-", dir=bench.TMP_PARENT))
    golden = {}
    try:
        for section, workload in (("table1", Table1()),
                                  ("lu_scale", LuScale()),
                                  ("batch", BatchCold())):
            workload.setup(tmp)
            try:
                out = workload.run(random.Random(0))
                golden[section] = _points(workload.points(out))
            finally:
                workload.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    shared = check_baseline(golden["batch"])
    check_lu_cliff(golden["lu_scale"])
    bench.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                            + "\n")
    counts = ", ".join(f"{k} {len(v)}" for k, v in golden.items())
    print(f"wrote {bench.GOLDEN.name}: {counts} points; {shared} batch "
          f"points match {BASELINE.name}; Table 1 decompositions verbatim")
    return 0


if __name__ == "__main__":
    sys.exit(main())
