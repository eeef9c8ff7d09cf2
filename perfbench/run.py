"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics of the traced ones (see README.md).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
TMP_PARENT = ROOT / ".bench_build"
SETUP_REPEATS = 3
# Interpreter start-up is measured in this process and in fresh ones.
START_SAMPLES = 5

# Host-speed calibration (see workloads.Probe): probes run in batches
# between timed points, at least every PROBE_EVERY_S seconds.
PROBE_BATCH = 5
PROBE_EVERY_S = 2.0
# A unit is scaled by the probes run within this many seconds of it.
PROBE_WINDOW_S = PROBE_EVERY_S + 1.0


def process_age_s() -> float:
    """Seconds since this process started (kernel ticks, ~10 ms)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


AGE_AT_START = process_age_s()
T_START = time.perf_counter()


def age_s() -> float:
    return AGE_AT_START + time.perf_counter() - T_START


def import_program():
    """Import the package from this checkout's ``src/``, never from
    anywhere else; exit non-zero if the checkout has no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'repro'}")
    # Inherited REPRO_* settings could skip work (a warm disk cache) or
    # inject faults; the benchmark measures the default configuration.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}")


def fresh_start_s() -> float:
    """Process start to imports done, in a fresh interpreter (this
    process can only measure its own start once)."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
            "run.import_program(); import workloads; print(run.age_s())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout.split()[-1])


def check(points, golden, label_errors):
    """(attempted, failed) of one unit's labelled points against the
    golden counters."""
    failed = 0
    for label, got in points:
        if isinstance(got, str) or golden.get(label) != got:
            failed += 1
            if len(label_errors) < 5:
                label_errors.append((label, got, golden.get(label)))
    return len(points), failed


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (grid
    workers), in MiB: an upper bound on the tree's concurrent peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Run:
    """One measured run of one workload."""

    def __init__(self, workload, golden, seed, seconds, tmp):
        self.workload = workload
        self.golden = golden
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.probes = []  # (when, seconds)
        self._probed_at = float("-inf")
        self._paused = 0.0

    def calibrate(self, force=False):
        """Run a batch of probes, at most every PROBE_EVERY_S seconds
        unless forced."""
        probe = self.workload.probe
        if force or time.perf_counter() - self._probed_at >= PROBE_EVERY_S:
            t0 = time.perf_counter()
            secs = probe.measure(PROBE_BATCH, self.tmp)
            self._probed_at = time.perf_counter()
            self.probes += [((t0 + self._probed_at) / 2, s) for s in secs]
            self._paused += self._probed_at - t0

    def speed(self, start=float("-inf"), end=float("inf")) -> float:
        """Reference-host seconds per host second, from the probes run
        within PROBE_WINDOW_S of ``[start, end]``."""
        near = [s for t, s in self.probes
                if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        return self.workload.probe.ref_s / statistics.median(
            near or [s for _, s in self.probes])

    def unit(self, tracer=None, calibrated=False):
        """One timed unit: its wall seconds (probe time excluded) and,
        when ``tracer`` is installed, its per-layer metrics.  A
        ``calibrated`` unit runs probes between its points."""
        pause = ((lambda: self.calibrate(force=True)) if calibrated
                 else (lambda: None))
        cpu0 = cpu_s()
        paused0 = self._paused
        t0 = time.perf_counter()
        out = self.workload.run(self.rng, pause)
        wall = time.perf_counter() - t0 - (self._paused - paused0)
        cpu = cpu_s() - cpu0
        rows = None
        if tracer is not None:
            from layers import layer_metrics

            tracer.uninstall()
            rows = layer_metrics(tracer, out, wall, cpu)
        a, f = check(self.workload.points(out), self.golden, self.errors)
        self.attempted += a
        self.failed += f
        self.workload.cleanup(out)
        return wall, rows

    def end_to_end(self):
        deadline = time.perf_counter() + self.seconds
        units, spans = [], []
        self.calibrate(force=True)
        while True:
            t0 = time.perf_counter()
            wall = self.unit(calibrated=True)[0]
            units.append((t0, time.perf_counter(), wall))
            self.calibrate()
            spans.append(time.perf_counter() - t0)
            if time.perf_counter() + statistics.median(spans) > deadline:
                break
        self.calibrate(force=True)
        scaled = [wall * self.speed(t0, t1) for t0, t1, wall in units]
        print("host seconds of timed units @ host speed: "
              + " ".join(f"{wall:.3f}@{self.speed(t0, t1):.3f}"
                         for t0, t1, wall in units)
              + f"; run speed {self.speed():.3f} x reference "
              f"({len(self.probes)} probes)")
        return {
            "wall_s": (statistics.median(scaled), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ok_rate": (1.0 - self.failed / self.attempted, "ratio"),
        }

    def per_layer(self):
        from layers import Tracer

        deadline = time.perf_counter() + self.seconds
        plain, traced, rows = [], [], []
        while True:
            plain.append(self.unit()[0])
            worker_dir = Path(tempfile.mkdtemp(prefix="workers-",
                                               dir=self.tmp))
            wall, unit_rows = self.unit(Tracer().install(worker_dir))
            traced.append(wall)
            rows.append(unit_rows)
            left = deadline - time.perf_counter()
            if left < statistics.median(plain) + statistics.median(traced):
                break
        metrics = {name: (statistics.fmean(r[name][0] for r in rows),
                          unit)
                   for name, (_, unit) in rows[0].items()}
        overhead = statistics.median(traced) / statistics.median(plain) - 1
        metrics["trace_overhead"] = (overhead, "ratio")
        return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    golden = json.loads(GOLDEN.read_text())[workload.golden]

    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="perfbench-", dir=TMP_PARENT))
    try:
        start = age_s()
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(Path(tempfile.mkdtemp(prefix="setup-", dir=tmp)))
            setups.append(time.perf_counter() - t0)
        run = Run(workload, golden, args.seed, args.seconds, tmp)
        if args.trace:
            metrics = run.per_layer()
        else:
            metrics = run.end_to_end()
            # Fresh interpreters only after peak_rss_mb is read: their
            # RSS would count as the largest reaped child.
            starts = [start] + [fresh_start_s()
                                for _ in range(START_SAMPLES - 1)]
            setup_s = statistics.median(starts) + statistics.median(setups)
            print(f"host seconds of set-up: {setup_s:.3f}")
            metrics["setup_s"] = (setup_s * run.speed(), "s")
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)

    for label, got, want in run.errors:
        print(f"FAILED {label}: got {got!r}, golden {want!r}",
              file=sys.stderr)
    print(f"{args.workload}: {run.attempted} points attempted, "
          f"{run.failed} failed, error_rate "
          f"{run.failed / run.attempted:.6f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
