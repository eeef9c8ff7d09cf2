"""Run comparison: one run record, one aligner, one noise rule.

``repro bench --compare`` (OK / REGRESSED), ``repro diff`` (DIVERGED /
NOISE-ONLY) and ``repro perf diff`` (SIGNIFICANT / QUIET) are three
views, each with its own verdict, over one :class:`Comparison` built
by :func:`compare_runs`.  Its inputs are *run records*:
:func:`load_run` follows pointer files and turns a bench snapshot, a
``perf record`` payload or ``batch --json`` output into one
(:func:`run_record` does the same for an in-memory payload)::

    {"schema", "host", "config",
     "points": {point_key: {"sim": {"sim.<counter>": value},
                            "wall": min-of-N seconds | None,
                            "perf": {"ledger": ledger | None},
                            "provenance": [decision record dicts],
                            "machine_fp": str | None}}}

The aligner pairs the two records' points once (a point only in the
baseline is ``missing``, one only in the current run ``new``) and runs
the checks on each pair: simulated counters match exactly; min-of-N
wall time and per-row ledger self time follow the noise rule; ledger
row sets and counts match exactly; a point whose counters drifted is
attributed to its first diverging decision record, or to the machine
fingerprint.  The noise rule (:func:`noise_verdict`): a wall-clock
value moved only past ``tol`` relative AND ``floor`` absolute, and
only between equal host fingerprints (:func:`describe_host_mismatch`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "DEFAULT_WALL_ABS_FLOOR",
    "DEFAULT_WALL_TOL",
    "Comparison",
    "Delta",
    "compare_runs",
    "describe_host_mismatch",
    "load_run",
    "noise_verdict",
    "point_key",
    "run_record",
]

DEFAULT_WALL_TOL = 0.30
# Absolute slack under the relative rule: scheduler jitter on a
# sub-10ms measurement easily exceeds 30% relative, so a move must
# also be at least this many seconds to count.
DEFAULT_WALL_ABS_FLOOR = 0.010
FLOAT_REL_TOL = 1e-9

# Statuses that fail the bench gate: a slower wall time, a drifted
# deterministic value, a vanished grid point, an incomparable run.
FAILING = ("regressed", "changed", "missing", "incomparable")

# Config keys two bench grids must share to be comparable at all.
_SIZE_KEYS = ("n", "time_steps", "scale")
_LEDGER_FIELDS = {"kind", "name", "self_s", "count"}


def point_key(point: Mapping[str, Any]) -> str:
    """The ``app/scheme/P<procs>`` label every run format aligns on."""
    return (f"{point.get('app', '?')}/{point.get('scheme', '?')}"
            f"/P{point.get('nprocs', '?')}")


def noise_verdict(base: float, cur: float,
                  tol: float = DEFAULT_WALL_TOL,
                  floor: float = DEFAULT_WALL_ABS_FLOOR,
                  higher_is_better: bool = False) -> str:
    """``regressed`` / ``improved`` / ``ok`` for one noisy measurement:
    it moved only past ``tol`` relative AND ``floor`` absolute."""
    grew = cur > base * (1.0 + tol) and cur - base > floor
    shrank = cur < base * (1.0 - tol) and base - cur > floor
    if not (grew or shrank):
        return "ok"
    return "regressed" if grew != higher_is_better else "improved"


def describe_host_mismatch(a: Mapping[str, Any],
                           b: Mapping[str, Any]) -> str:
    """The host gate: compact ``field: x vs y`` listing of differing
    fingerprint fields, empty when wall-clock values are comparable."""
    diffs = []
    for k in sorted(set(a) | set(b)):
        va, vb = a.get(k), b.get(k)
        if va != vb:
            diffs.append(f"{k}: {va!r} vs {vb!r}")
    return "; ".join(diffs)


# -- the run record ----------------------------------------------------------

def load_run(path: os.PathLike) -> Dict[str, Any]:
    """Read a run file into a run record, following pointer files (a
    ``BENCH_latest.json`` whose ``pointer`` names the real snapshot;
    relative pointers resolve against the pointer file's directory).
    Raises ``OSError`` when unreadable, ``ValueError`` when malformed."""
    path = Path(path)
    for _ in range(4):  # pointer chains are short; bound anyway
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "pointer" not in data:
            return run_record(data, source=str(path))
        target = data["pointer"]
        if not isinstance(target, str):
            raise ValueError(f"{path}: 'pointer' is not a path")
        candidate = Path(target)
        if not candidate.is_absolute() and not candidate.exists():
            candidate = path.parent / target
        path = candidate
    raise ValueError(f"pointer chain too deep starting at {path}")


def run_record(data: Any, source: str = "run") -> Dict[str, Any]:
    """Validate a bench snapshot, ``perf record`` payload or ``batch
    --json`` output and normalize it into a run record."""
    if isinstance(data, dict) and "points" in data:
        batch, entries = False, data["points"]
    elif isinstance(data, dict) and "results" in data:
        batch, entries = True, data["results"]
    else:
        raise ValueError(
            f"{source}: not a bench snapshot, perf record or batch "
            "--json output (expected an object with a 'points' or "
            "'results' list)")
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) for e in entries):
        raise ValueError(f"{source}: 'points'/'results' must be a list "
                         "of objects")
    points = {}
    for e in entries:
        if batch:
            # batch rows nest the grid coordinate under "point".
            coord = e["point"] if isinstance(e.get("point"), dict) else e
            sim = {k: e[k] for k in ("total_time", "n_accesses") if k in e}
            misses = _typed(e, "miss_breakdown", dict, {}, source)
            if misses:
                sim["misses"] = misses
            wall, perf = e.get("elapsed"), None
        else:
            coord, sim = e, _typed(e, "sim", dict, {}, source)
            wall = _typed(e, "wall", dict, {}, source).get("min")
            perf = _typed(e, "perf", dict, {}, source).get("ledger")
        provenance = _typed(e, "provenance", list, [], source)
        if not all(isinstance(r, dict) for r in provenance):
            raise ValueError(f"{source}: malformed decision provenance")
        points[point_key(coord)] = {
            "sim": _flatten("sim", sim, {}),
            "wall": wall if _is_num(wall) else None,
            "perf": {"ledger": _check_ledger_shape(perf, source)},
            "provenance": provenance,
            "machine_fp": _typed(e, "machine_fp", str, None, source),
        }
    return {
        "schema": data.get("schema"),
        "host": _typed(data, "host", dict, {}, source),
        "config": _typed(data, "config", dict, {}, source),
        "points": points,
    }


def _typed(obj: Mapping[str, Any], key: str, typ: type, default: Any,
           source: str) -> Any:
    value = obj.get(key)
    if value is None:
        return default
    if not isinstance(value, typ):
        raise ValueError(f"{source}: '{key}' must be a {typ.__name__}, "
                         f"not {type(value).__name__}")
    return value


def _check_ledger_shape(ledger: Any, source: str) -> Optional[Dict]:
    if ledger is None:
        return None
    rows = ledger.get("rows") if isinstance(ledger, dict) else None
    if not isinstance(rows, list) or not all(
            isinstance(r, dict) and _LEDGER_FIELDS <= set(r) for r in rows):
        raise ValueError(f"{source}: malformed wall-time ledger")
    return ledger


def _flatten(prefix: str, obj: Mapping[str, Any],
             out: Dict[str, Any]) -> Dict[str, Any]:
    for key, value in obj.items():
        name = f"{prefix}.{key}"
        if isinstance(value, dict):
            _flatten(name, value, out)
        else:
            out[name] = value
    return out


def _is_num(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# -- the comparison ----------------------------------------------------------

@dataclass
class Delta:
    """One compared quantity of one aligned point.

    ``metric`` is ``sim.<counter>``, ``wall.min``, ``perf.<ledger row>``
    (row set or count drift) or ``perf.<ledger row>.self_s``; ``*``
    for a whole point; ``schema``/``config`` for an incomparable run.
    Ledger deltas carry ``self_s`` seconds (None where the row is
    absent) as baseline/current."""

    point: str
    metric: str
    baseline: Any
    current: Any
    status: str  # ok | improved | regressed | changed | skipped
                 # | missing | new | incomparable
    note: str = ""

    @property
    def row(self) -> str:
        """The ledger row label of a ``perf.*`` delta."""
        return self.metric[len("perf."):].removesuffix(".self_s")

    @property
    def delta(self) -> float:
        return ((self.current if _is_num(self.current) else 0.0)
                - (self.baseline if _is_num(self.baseline) else 0.0))

    @property
    def rel(self) -> Optional[float]:
        a, b = self.baseline, self.current
        if not (_is_num(a) and _is_num(b)) or a == 0:
            return None
        return (b - a) / abs(a)


@dataclass
class Comparison:
    """Every delta of one baseline-vs-current alignment, with one view
    (and verdict) per comparing command."""

    deltas: List[Delta] = field(default_factory=list)
    # point -> first-divergence attribution of its counter drift.
    attribution: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    n_compared: int = 0
    n_ledger_rows: int = 0
    incomparable: Optional[Delta] = None
    wall_gated: bool = True
    host_note: str = ""
    wall_tol: float = DEFAULT_WALL_TOL
    wall_abs_floor: float = DEFAULT_WALL_ABS_FLOOR

    @property
    def missing(self) -> List[str]:
        return sorted(d.point for d in self.deltas if d.status == "missing")

    @property
    def new(self) -> List[str]:
        return sorted(d.point for d in self.deltas if d.status == "new")

    # -- bench --compare: OK / REGRESSED -------------------------------------

    @property
    def gate_rows(self) -> List[Delta]:
        return [self.incomparable] if self.incomparable else self.deltas

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.gate_rows if d.status in FAILING]

    @property
    def ok(self) -> bool:
        return not self.regressions

    # -- diff: DIVERGED / NOISE-ONLY -----------------------------------------

    def changed_points(self) -> List[Tuple[str, List[Delta]]]:
        """Points whose counters or wall time changed value, ranked by
        the largest relative counter change (wall-only points last)."""
        by_point: Dict[str, List[Delta]] = {}
        for d in self.deltas:
            if d.metric.startswith("sim.") or (
                    d.metric == "wall.min" and d.baseline != d.current):
                by_point.setdefault(d.point, []).append(d)

        def score(deltas: List[Delta]) -> float:
            rels = [d.rel for d in deltas if d.metric.startswith("sim.")]
            return max((math.inf if r is None else abs(r) for r in rels),
                       default=0.0)

        return sorted(by_point.items(),
                      key=lambda kv: (-score(kv[1]), kv[0]))

    @property
    def identical(self) -> bool:
        return not (self.changed_points() or self.missing or self.new)

    @property
    def diverged(self) -> bool:
        """Wall time is noise here: only a drifted counter or a
        missing/new point diverges."""
        return bool(self.missing or self.new or self.attribution)

    def diff_dict(self) -> Dict[str, Any]:
        return {
            "n_compared": self.n_compared,
            "identical": self.identical,
            "significant": self.diverged,
            "missing_in_a": self.new,
            "missing_in_b": self.missing,
            "points": [
                {"key": key,
                 "deltas": [{"metric": d.metric, "a": d.baseline,
                             "b": d.current, "delta": d.delta,
                             "rel": d.rel} for d in deltas],
                 **self.attribution.get(key, _NO_CULPRIT)}
                for key, deltas in self.changed_points()
            ],
        }

    # -- perf diff: SIGNIFICANT / QUIET --------------------------------------

    @property
    def moved(self) -> List[Delta]:
        """Ledger rows that moved, largest self-time movement first."""
        rows = [d for d in self.deltas if d.metric.startswith("perf.")]
        return sorted(rows, key=lambda d: (-abs(d.delta), d.point, d.metric))

    @property
    def significant(self) -> bool:
        return bool(self.moved)

    def perf_notes(self) -> List[str]:
        return ([f"{k}: only in baseline run" for k in self.missing]
                + [f"{k}: only in current run" for k in self.new]
                + self.notes)

    def perf_dict(self) -> Dict[str, Any]:
        return {
            "rows": [{"point": d.point, "row": d.row,
                      "baseline": d.baseline, "current": d.current,
                      "delta": d.delta, "status": d.status,
                      "note": d.note} for d in self.moved],
            "notes": self.perf_notes(),
            "n_points": self.n_compared,
            "n_rows": self.n_ledger_rows,
            "wall_gated": self.wall_gated,
            "host_note": self.host_note,
            "wall_tol": self.wall_tol,
            "wall_abs_floor": self.wall_abs_floor,
            "significant": self.significant,
        }


def compare_runs(base: Mapping[str, Any], cur: Mapping[str, Any],
                 wall_tol: float = DEFAULT_WALL_TOL,
                 wall_abs_floor: float = DEFAULT_WALL_ABS_FLOOR
                 ) -> Comparison:
    """Align two run records and run every check on each aligned
    point pair."""
    mismatch = describe_host_mismatch(base["host"], cur["host"])
    cmp = Comparison(wall_tol=wall_tol, wall_abs_floor=wall_abs_floor,
                     wall_gated=not mismatch, host_note=mismatch,
                     incomparable=_incomparable(base, cur))
    pa, pb = base["points"], cur["points"]
    for key, a in pa.items():
        b = pb.get(key)
        if b is None:
            cmp.deltas.append(Delta(key, "*", "present", "absent",
                                    "missing", "grid point vanished"))
            continue
        cmp.n_compared += 1
        found = [d for check in CHECKS for d in check(cmp, key, a, b)]
        cmp.deltas.extend(found)
        if any(d.metric.startswith("sim.") for d in found):
            cmp.attribution[key] = _attribute(a, b)
    for key in pb:
        if key not in pa:
            cmp.deltas.append(Delta(key, "*", "absent", "present",
                                    "new", "not in baseline"))
    return cmp


def _incomparable(base: Mapping[str, Any],
                  cur: Mapping[str, Any]) -> Optional[Delta]:
    if base["schema"] != cur["schema"]:
        return Delta("*", "schema", base["schema"], cur["schema"],
                     "incomparable", "snapshot schema differs")
    size_a = {k: v for k, v in base["config"].items() if k in _SIZE_KEYS}
    size_b = {k: v for k, v in cur["config"].items() if k in _SIZE_KEYS}
    if size_a != size_b:
        return Delta("*", "config", size_a, size_b, "incomparable",
                     "grids measured at different problem sizes")
    return None


def _values_match(a: Any, b: Any) -> bool:
    if _is_num(a) and _is_num(b) and (
            isinstance(a, float) or isinstance(b, float)):
        return math.isclose(a, b, rel_tol=FLOAT_REL_TOL, abs_tol=1e-12)
    return a == b


def _check_sim(cmp: Comparison, key: str, a, b) -> List[Delta]:
    sa, sb = a["sim"], b["sim"]
    out = []
    for metric in sorted(set(sa) | set(sb)):
        if metric not in sa or metric not in sb:
            note = "metric appeared/disappeared"
        elif _values_match(sa[metric], sb[metric]):
            continue
        else:
            note = "simulated counter drifted (exact-match gate)"
        out.append(Delta(key, metric, sa.get(metric), sb.get(metric),
                         "changed", note))
    return out


def _check_wall(cmp: Comparison, key: str, a, b) -> List[Delta]:
    wa, wb = a["wall"], b["wall"]
    if wa is None or wb is None:
        return []
    if not cmp.wall_gated:
        status = "skipped"
        note = f"different host ({cmp.host_note}); wall gate off"
    else:
        status = noise_verdict(wa, wb, cmp.wall_tol, cmp.wall_abs_floor)
        note = {"regressed": f"min-of-N wall time over "
                             f"+{cmp.wall_tol:.0%} threshold",
                "improved": "consider re-baselining"}.get(status, "")
    return [Delta(key, "wall.min", wa, wb, status, note)]


def _check_ledger(cmp: Comparison, key: str, a, b) -> List[Delta]:
    la, lb = a["perf"]["ledger"], b["perf"]["ledger"]
    if la is None or lb is None:
        which = ("either run" if la is None and lb is None
                 else "baseline run" if la is None else "current run")
        cmp.notes.append(f"{key}: no ledger in {which}; skipped")
        return []
    rows_a, rows_b = _ledger_rows(la), _ledger_rows(lb)
    out = []
    for label in sorted(set(rows_a) | set(rows_b)):
        cmp.n_ledger_rows += 1
        ra, rb = rows_a.get(label), rows_b.get(label)
        sa = None if ra is None else float(ra["self_s"])
        sb = None if rb is None else float(rb["self_s"])
        metric = f"perf.{label}"
        if ra is None or rb is None:
            status, note = "changed", "ledger row appeared/disappeared"
        elif ra["kind"] != "residual" and ra["count"] != rb["count"]:
            status = "changed"
            note = (f"count drifted {ra['count']} → {rb['count']} "
                    "(exact-match gate)")
        elif not cmp.wall_gated:
            continue  # self time is incomparable across hosts
        else:
            status = noise_verdict(sa, sb, cmp.wall_tol,
                                   cmp.wall_abs_floor)
            if status == "ok":
                continue  # quiet rows are omitted
            metric += ".self_s"
            note = (f"self time over +{cmp.wall_tol:.0%} threshold"
                    if status == "regressed" else "")
        out.append(Delta(key, metric, sa, sb, status, note))
    return out


def _ledger_rows(ledger: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Ledger rows by label: ``kind/name``, the residual by its name."""
    return {(r["name"] if r["kind"] == "residual"
             else f"{r['kind']}/{r['name']}"): r for r in ledger["rows"]}


CHECKS = (_check_sim, _check_wall, _check_ledger)


def _record_identity(rec: Mapping[str, Any]) -> str:
    """A decision record's comparison key: everything except the span
    id, which depends on unrelated tracing state."""
    return json.dumps({k: v for k, v in rec.items() if k != "span_id"},
                      sort_keys=True, default=repr)


_NO_CULPRIT: Dict[str, Any] = {"culprit": None, "culprit_was": None,
                               "culprit_index": None, "note": ""}


def _attribute(a, b) -> Dict[str, Any]:
    """Blame one point's counter drift on the first diverging decision
    record (or on the machine fingerprint)."""
    out = dict(_NO_CULPRIT)
    fa, fb = a["machine_fp"], b["machine_fp"]
    if fa and fb and fa != fb:
        # Different simulated-machine geometry: the runs measured
        # different machines, so no compiler decision is to blame.
        out["note"] = (
            f"machine fingerprint differs ({fa[:12]}.. vs {fb[:12]}..); "
            "divergence attributed to a machine-config change, not a "
            "compiler decision")
        return out
    pa, pb = a["provenance"], b["provenance"]
    if not pa or not pb:
        which = ("either run" if not pa and not pb
                 else f"run {'A' if not pa else 'B'}")
        out["note"] = f"no provenance recorded in {which}; cannot attribute"
        return out
    for i, (ra, rb) in enumerate(zip_longest(pa, pb)):
        if ra is None or rb is None or (
                _record_identity(ra) != _record_identity(rb)):
            out.update(culprit_index=i, culprit_was=ra, culprit=rb)
            return out
    out["note"] = ("decision logs identical; delta not attributable to "
                   "a compiler decision")
    return out
