"""Persistent perf-regression harness.

The paper's claims are quantitative, so the repo tracks its own
performance trajectory: :func:`run_bench` executes a pinned
``app x scheme x procs`` grid, timing each point's simulation N times
(wall-clock percentiles) and recording the deterministic
simulated-machine metrics — miss classes, NUMA local/remote, conflict
sets, and the Section-4.3 addressing-overhead counts — into a
schema-versioned snapshot.  :func:`save_snapshot` persists snapshots as
``results/bench/BENCH_<timestamp>.json`` plus a repo-root
``BENCH_latest.json`` pointer.

``python -m repro bench --compare BENCH_latest.json`` gates a new
snapshot against a baseline and exits nonzero on regression, which CI
uses as a gate.  The comparing itself — simulated counters exact,
wall time and ledger self time noise-gated on the same host only —
lives in :mod:`repro.obs.compare`, shared with ``repro diff`` and
``repro perf diff``; :func:`series_trends` applies the same noise rule
to the appended history.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.obs import core as _obs_core
from repro.obs.compare import (
    DEFAULT_WALL_ABS_FLOOR,
    DEFAULT_WALL_TOL,
    noise_verdict,
    point_key,
)
from repro.util.atomicio import write_atomic

__all__ = [
    "SCHEMA_VERSION",
    "append_bench_series",
    "append_series",
    "host_fingerprint",
    "load_series_lines",
    "run_bench",
    "save_snapshot",
    "series_path",
    "series_trends",
]

# Schema history:
#   1 — wall/sim (misses, addressing, numa, conflict) + provenance.
#   2 — adds sim.locality (reuse-distance / set-pressure / heatmap
#       fingerprint, exact-match gated) and the non-gated "profile"
#       key (top self-time functions; no longer written — the
#       collapsed stacks under "perf" hold the same samples).
#   3 — adds the per-point "perf" key (wall-time ledger from
#       repro.obs.perf — row set and counts exact-match gated,
#       self-time columns noise-gated like wall.min — plus the
#       collapsed-stack blob, never gated) and extends the host
#       fingerprint with cpu/cores so cross-host skips are
#       explainable.  Schema-2 baselines are incomparable; regenerate.
SCHEMA_VERSION = 3

DEFAULT_APPS = ("simple", "stencil5")
DEFAULT_SCHEMES = ("base", "comp", "data")
DEFAULT_PROCS = (1, 4)
DEFAULT_N = 16
DEFAULT_REPEATS = 3
DEFAULT_SCALE = 16
DEFAULT_OUT_DIR = os.path.join("results", "bench")
LATEST_POINTER = "BENCH_latest.json"

# History cap for the append-only series.jsonl: newest N lines are
# kept on rotation (mirrors the quarantine cap in repro.util.atomicio
# — bound the on-disk history, keep the most recent evidence).
SERIES_KEEP = 256


def _cpu_model() -> str:
    """Best-effort CPU model string (``platform.processor()`` is empty
    on most Linux builds; fall back to /proc/cpuinfo)."""
    cpu = platform.processor()
    if not cpu:
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.lower().startswith(("model name", "hardware")):
                        cpu = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
    return cpu or platform.machine()


def host_fingerprint() -> Dict[str, Any]:
    """Identity of the measuring machine; wall-time comparisons are
    only meaningful between equal fingerprints.  The fields double as
    the explanation when a comparison skips its wall gate —
    :func:`repro.obs.compare.describe_host_mismatch` names exactly
    which ones differ."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "node": platform.node(),
        "cpu": _cpu_model(),
        "cores": os.cpu_count() or 0,
    }


def _bench_point(session, point, prog, repeats: int) -> Dict[str, Any]:
    """Measure one grid coordinate (a
    :class:`~repro.pipeline.grid.GridPoint`) on the shared engine's
    program/machine mapping."""
    from repro.codegen.spmd import parse_scheme
    from repro.machine.simulate import simulate
    from repro.obs.perf import measure_point
    from repro.pipeline.grid import point_machine

    scheme = parse_scheme(point.scheme)
    nprocs = point.nprocs
    machine = point_machine(point, prog)
    # One observed window (private collector, "perf.point" root span)
    # measures the compile, captures the addressing-overhead counters
    # the optimized emitter emits, runs the detail simulation for the
    # deterministic machine metrics, and yields the wall-time ledger
    # plus — from a separate sampled run — the collapsed stacks.
    m = measure_point(session, prog, scheme, nprocs, machine,
                      locality=True, collect_stacks=True)
    res = m["res"]
    compile_s = m["compile_s"]
    addressing = m["addressing"]
    prov = m["provenance"]
    sim: Dict[str, Any] = {
        "total_time": res.total_time,
        "n_accesses": res.n_accesses,
        "misses": {k: int(v) for k, v in sorted(res.miss_breakdown.items())},
        "addressing": addressing,
    }
    if res.numa:
        sim["numa"] = {
            "local_misses": int(res.numa["local_misses"]),
            "remote_misses": int(res.numa["remote_misses"]),
            "local_ratio": float(res.numa["local_ratio"]),
        }
    if res.conflict_sets:
        cs = res.conflict_sets
        sim["conflict"] = {
            "replacement_misses": int(cs["replacement_misses"]),
            "nsets": int(cs["nsets"]),
            "max_per_set": int(cs["max_per_set"]),
        }
    if res.locality:
        # Deterministic locality fingerprint: lives under "sim" so the
        # exact-match gate covers it — a simulator rewrite that changes
        # any reuse/pressure histogram fails the bench comparison.
        sim["locality"] = res.locality

    # N timed repeats of the plain simulation for wall time (obs is
    # disabled here — run_bench turned it off around the grid, and
    # measure_point restored that state).
    spmd = m["spmd"]
    samples: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        simulate(spmd, machine)
        samples.append(time.perf_counter() - t0)

    return {
        "app": point.app,
        "scheme": point.scheme,
        "nprocs": nprocs,
        # Machine geometry fingerprint (DashConfig.fingerprint).  Not
        # under "sim", so the exact-match gate never reads it; `repro
        # diff` uses it to attribute divergences to machine-config
        # changes, and the result store keys on it.
        "machine_fp": machine.fingerprint(),
        "compile_s": compile_s,
        "wall": {
            "repeats": repeats,
            "samples": samples,
            "min": min(samples),
            "p50": statistics.median(samples),
            "mean": sum(samples) / len(samples),
            "max": max(samples),
        },
        "sim": sim,
        # Schema 3: the wall-time ledger (row set + counts exact-match
        # gated, self-time noise-gated) and the collapsed-stack blob
        # (never gated; `repro perf`/flamegraphs consume it).
        "perf": {"ledger": m["ledger"], "stacks": m["stacks"]},
        # Decision provenance rides along for root-cause attribution
        # of drifted counters; it never affects the regression gate.
        "provenance": [r.as_dict() for r in prov],
    }


def run_bench(
    apps: Sequence[str] = DEFAULT_APPS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    procs: Sequence[int] = DEFAULT_PROCS,
    n: int = DEFAULT_N,
    time_steps: Optional[int] = None,
    scale: int = DEFAULT_SCALE,
    repeats: int = DEFAULT_REPEATS,
) -> Dict[str, Any]:
    """Run the grid and return one schema-versioned snapshot dict.

    The global obs state is saved and restored around the run (the
    harness uses private collectors to read compiler counters without
    polluting — or being polluted by — whatever the caller records).
    """
    from repro.codegen.spmd import parse_scheme, scheme_short_name
    from repro.pipeline.grid import GridSpec, point_program
    from repro.pipeline.session import CompileSession

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    parsed = [parse_scheme(s) for s in schemes]
    session = CompileSession()
    saved_enabled = _obs_core._enabled
    saved_collector = _obs_core._collector
    points: List[Dict[str, Any]] = []
    # The shared engine enumerates the grid; programs are built once
    # per app (they repeat across schemes/procs).
    spec = GridSpec(
        apps=tuple(apps),
        schemes=tuple(scheme_short_name(s) for s in parsed),
        procs=tuple(procs),
        n=n, time_steps=time_steps, scale=scale,
    )
    progs: Dict[str, Any] = {}
    try:
        obs.disable()
        for point in spec.points():
            if point.app not in progs:
                progs[point.app] = point_program(point)
            points.append(_bench_point(
                session, point, progs[point.app], repeats))
    finally:
        _obs_core._collector = saved_collector
        _obs_core._enabled = saved_enabled
    return {
        "schema": SCHEMA_VERSION,
        "created": datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "host": host_fingerprint(),
        "config": {
            "apps": list(apps),
            "schemes": [scheme_short_name(s) for s in parsed],
            "procs": list(procs),
            "n": n,
            "time_steps": time_steps,
            "scale": scale,
            "repeats": repeats,
        },
        "points": points,
    }


# -- persistence -------------------------------------------------------------

def save_snapshot(
    snap: Dict[str, Any],
    out_dir: os.PathLike = DEFAULT_OUT_DIR,
    latest: Optional[os.PathLike] = LATEST_POINTER,
) -> Tuple[str, Optional[str]]:
    """Write ``BENCH_<timestamp>.json`` under ``out_dir`` and refresh
    the ``latest`` pointer file; returns ``(snapshot_path,
    latest_path)``.  ``latest=None`` skips the pointer."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stamp = snap["created"].replace("-", "").replace(":", "")
    path = out / f"BENCH_{stamp}.json"
    serial = 0
    while path.exists():
        serial += 1
        path = out / f"BENCH_{stamp}-{serial}.json"
    write_atomic(path, json.dumps(snap, indent=1), fsync=False)
    latest_path: Optional[str] = None
    if latest is not None:
        pointer = {
            "schema": SCHEMA_VERSION,
            "pointer": str(path),
            "created": snap["created"],
        }
        write_atomic(latest, json.dumps(pointer, indent=1), fsync=False)
        latest_path = str(latest)
    return str(path), latest_path


def series_path() -> str:
    """The default benchmark-history file."""
    root = os.environ.get("REPRO_RESULTS_DIR", "results")
    return os.path.join(root, "bench", "series.jsonl")


def append_series(name: str, payload: Dict[str, Any],
                  path: Optional[os.PathLike] = None,
                  keep: int = SERIES_KEEP) -> str:
    """Append one experiment's measured series to the benchmark history
    (default ``$REPRO_RESULTS_DIR/bench/series.jsonl``): one
    timestamped, host-stamped JSON object per line, so every benchmark
    run grows a comparable time series next to the ``bench`` grid
    snapshots.  Returns the path written.

    The file is capped at ``keep`` lines: when an append pushes it
    over, the newest ``keep`` lines are rewritten atomically (temp file
    + rename) and the rotation is counted on the
    ``bench.series.rotated`` / ``bench.series.dropped`` obs counters.
    """
    if path is None:
        path = series_path()
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    line = {
        "schema": SCHEMA_VERSION,
        "created": datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "host": host_fingerprint(),
        "name": name,
        **payload,
    }
    with open(p, "a") as fh:
        fh.write(json.dumps(line, default=str) + "\n")
    if keep and keep > 0:
        with open(p) as fh:
            lines = fh.readlines()
        if len(lines) > keep:
            dropped = len(lines) - keep
            write_atomic(p, "".join(lines[-keep:]), fsync=False)
            obs.inc("bench.series.rotated")
            obs.counter("bench.series.dropped").add(dropped)
    return str(p)


def append_bench_series(snap: Dict[str, Any],
                        path: Optional[os.PathLike] = None) -> str:
    """Append a ``repro bench`` snapshot's per-point digest (wall p50,
    total miss count) to the series history, closing the loop that made
    ``series.jsonl`` write-only: every bench run becomes one comparable
    trend sample per grid point."""
    points = []
    for p in snap.get("points", []):
        sim = p.get("sim") or {}
        points.append({
            "point": point_key(p),
            "wall_p50": (p.get("wall") or {}).get("p50"),
            "misses": sum((sim.get("misses") or {}).values()),
        })
    return append_series("bench", {"kind": "bench", "points": points},
                         path=path)


def load_series_lines(path: Optional[os.PathLike] = None
                      ) -> List[Dict[str, Any]]:
    """Read the series history leniently: unparsable lines are dropped
    (the file is append-only across many runs; one garbled line must
    not hide the rest), a missing file is an empty history."""
    if path is None:
        path = series_path()
    lines: List[Dict[str, Any]] = []
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except OSError:
        return lines
    for text in raw:
        text = text.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except ValueError:
            continue
        if isinstance(record, dict):
            lines.append(record)
    return lines


def series_trends(lines: Sequence[Dict[str, Any]],
                  wall_tol: float = DEFAULT_WALL_TOL,
                  wall_abs_floor: float = DEFAULT_WALL_ABS_FLOOR
                  ) -> List[Dict[str, Any]]:
    """Per-metric trend rows from the series history.

    Two line shapes feed the history: ``bench`` digests (per grid
    point: wall p50 + total misses, from :func:`append_bench_series`)
    and benchmark figure curves (``series: {scheme: [[procs,
    speedup], ...]}`` from the pytest harness).  Each is rolled up by
    its natural key and the last sample is judged against the previous
    one: wall time regresses when it grows past ``wall_tol`` relative
    *and* ``wall_abs_floor`` absolute (the shared
    :func:`~repro.obs.compare.noise_verdict`), speedup regresses when
    it shrinks past ``wall_tol`` relative, and a
    drifted miss count is flagged — the simulator is deterministic, so
    any miss drift is a semantic change.
    """
    # (kind, key) -> samples, oldest first; kinds sort bench before figure.
    hist: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for line in lines:
        created = line.get("created", "")
        if line.get("kind") == "bench":
            for p in line.get("points") or []:
                key, wall = p.get("point"), p.get("wall_p50")
                if key and isinstance(wall, (int, float)):
                    hist.setdefault(("bench", str(key)), []).append({
                        "value": float(wall), "misses": p.get("misses"),
                        "created": created})
        elif isinstance(line.get("series"), dict):
            for scheme, pts in sorted(line["series"].items()):
                try:
                    procs, speedup = max(
                        ((float(p), float(s)) for p, s in pts),
                        key=lambda t: t[0])
                except (TypeError, ValueError):
                    continue
                key = f"{line.get('name', '?')}:{scheme}@P{procs:g}"
                hist.setdefault(("figure", key), []).append({
                    "value": speedup, "created": created})

    # kind -> (unit, rounding, abs floor, higher is better, regression note)
    kinds = {
        "bench": ("wall p50 s", 6, wall_abs_floor, False,
                  f"wall p50 over +{wall_tol:.0%}"),
        "figure": ("speedup", 4, 0.0, True,
                   f"speedup down >{wall_tol:.0%}"),
    }
    rows: List[Dict[str, Any]] = []
    for (kind, key), samples in sorted(hist.items()):
        unit, digits, floor, higher, why = kinds[kind]
        last = samples[-1]
        prev = samples[-2] if len(samples) > 1 else None
        status, note = "new", ""
        if prev is not None:
            status = noise_verdict(prev["value"], last["value"], wall_tol,
                                   floor, higher_is_better=higher)
            note = why if status == "regressed" else ""
            if (last.get("misses") is not None
                    and prev.get("misses") is not None
                    and last["misses"] != prev["misses"]):
                status = "changed"
                note = (f"miss count drifted "
                        f"{prev['misses']} → {last['misses']}")
        rows.append({
            "key": key, "kind": kind, "unit": unit,
            "runs": len(samples), "value": round(last["value"], digits),
            "prev": (round(prev["value"], digits)
                     if prev is not None else None),
            "misses": last.get("misses"),
            "status": status, "note": note,
            "created": last.get("created", ""),
        })
    return rows
