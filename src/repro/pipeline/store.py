"""Persistent result store: simulation results as content-addressed data.

The compiler side of the repo already treats computation as data —
pass artifacts are keyed by SHA-256 content fingerprints and replayed
from the cache.  This module extends the same model to *results*: a
:class:`ResultStore` persists one JSON document per executed grid
point, keyed by a SHA-256 digest over everything that determines the
outcome —

* the **program fingerprint** (IR content, including statement
  bytecode — editing an app changes it);
* the **scheme** and **processor count**;
* the **machine fingerprint** (:meth:`repro.machine.dash.DashConfig.fingerprint`
  — full cache/L2/NUMA/cost geometry);
* the **model version** (:data:`MODEL_VERSION`, a digest of the
  simulator's sources, so any edit to ``repro/machine`` re-keys);
* a ``kind`` namespace (``sim`` results, ``verify`` verdicts, ``bench``
  detail blocks) plus any extra flags that shape the payload.

A warm lookup therefore means "nothing that could change this result
has changed" — the grid engine (:mod:`repro.pipeline.grid`) serves the
stored result instead of re-executing the point, which is what makes
``repro batch --incremental`` re-run only the rows of a grid whose
program, machine, or model actually changed.

Invalidation is tracked per *coordinate*: every entry records the
human-readable grid coordinate it answers (``app/scheme/P4/n=16``…),
and a small ``coords.json`` index maps each coordinate to its current
key.  Storing a new key for a known coordinate deletes the stale entry
and counts an **invalidation** — the observable difference between "new
point" and "this app changed".

Durability mirrors :mod:`repro.pipeline.cache`, hardened further:

* every write goes through :func:`repro.util.atomicio.write_atomic`
  (temp file + fsync + rename + directory fsync), so a reader only
  ever sees a complete entry or none;
* every entry carries a SHA-256 **payload checksum**; reads verify it,
  and a corrupt entry (torn write, bit rot, key mismatch) is moved to
  the store's ``quarantine/`` directory — capped, like the disk
  cache's, by :func:`repro.util.atomicio.quarantine` — counted
  (``store.quarantined``) and reported as a miss, never raised;
* mutations (``put``, eviction) run under an advisory cross-process
  :class:`~repro.util.locking.FileLock` on ``<root>/.lock`` and reload
  the coordinate index from disk inside the critical section, so two
  drivers sharing one ``--store-dir`` cannot lose index updates or
  race the eviction scan.  Reads stay lock-free (atomic writes plus
  checksums make them safe).  A lock-acquisition timeout degrades the
  write (counted ``store.lock_timeouts``) instead of failing the run.

``repro fsck`` (:mod:`repro.pipeline.integrity`) audits all of the
above offline and repairs/quarantines what it finds.  Counters flow
both into :class:`StoreStats` (always on) and ``repro.obs``
(``store.*``).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

from repro import obs
from repro.errors import LockError
from repro.pipeline.fingerprint import make_key
from repro.util.atomicio import quarantine, write_atomic
from repro.util.locking import FileLock

__all__ = [
    "MODEL_VERSION",
    "SCHEMA_VERSION",
    "ResultStore",
    "StoreStats",
    "canonical_payload",
    "model_version",
    "payload_checksum",
    "resolve_store_dir",
    "result_key",
]

SCHEMA_VERSION = 1


def model_version(machine_dir: Optional[Path] = None) -> str:
    """Version of the simulated-machine model: a SHA-256 over the
    sorted ``repro/machine/*.py`` sources (names and bytes).  Any edit
    to the simulator (miss classification, cost model, trace
    generation) makes every stored result unreachable, so a warm store
    never serves results of an older simulator."""
    root = machine_dir or Path(__file__).resolve().parent.parent / "machine"
    h = hashlib.sha256()
    for path in sorted(root.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return "sim-" + h.hexdigest()[:16]


MODEL_VERSION = model_version()

# Entry-count cap (oldest evicted first), in the spirit of
# repro.util.atomicio.QUARANTINE_KEEP: bound the on-disk footprint,
# keep the most recently useful evidence.
DEFAULT_KEEP = 4096

ENV_DIR = "REPRO_STORE_DIR"
_INDEX_NAME = "coords.json"
_LOCK_NAME = ".lock"
DEFAULT_LOCK_TIMEOUT = 30.0


def canonical_payload(payload: Any) -> str:
    """The canonical JSON text a payload checksum is computed over.

    Idempotent across a JSON round trip (``dumps(loads(dumps(x)))`` is
    the same text), so a checksum written at ``put`` time can be
    verified against the parsed-back payload at read/fsck time.
    """
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":"), default=str)


def payload_checksum(payload: Any) -> str:
    """SHA-256 hex digest of the canonical payload text."""
    return hashlib.sha256(canonical_payload(payload).encode()).hexdigest()


def resolve_store_dir(explicit: Optional[str] = None) -> Path:
    """The result-store directory: an explicit path, ``$REPRO_STORE_DIR``,
    or the default ``~/.cache/repro/results``."""
    if explicit:
        return Path(explicit).expanduser()
    env_dir = os.environ.get(ENV_DIR)
    if env_dir:
        return Path(env_dir).expanduser()
    return Path("~/.cache/repro/results").expanduser()


def result_key(
    program_fp: str,
    scheme: str,
    nprocs: int,
    machine_fp: str,
    model_version: str = MODEL_VERSION,
    kind: str = "sim",
    **extras: Any,
) -> str:
    """The SHA-256 store key of one grid point's result."""
    parts = [
        "result", kind, model_version, program_fp, scheme, str(nprocs),
        machine_fp,
    ]
    for name in sorted(extras):
        parts.append(f"{name}={extras[name]}")
    return make_key(parts)


@dataclass
class StoreStats:
    """Counters for one store instance (always on, like CacheStats)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0
    evictions: int = 0
    corrupt: int = 0
    quarantined: int = 0
    lock_timeouts: int = 0
    errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
            "lock_timeouts": self.lock_timeouts,
            "errors": self.errors,
        }


class ResultStore:
    """Atomic on-disk JSON store of grid-point results.

    The store is driver-side only (workers never touch it), but two
    *drivers* may share one directory: mutations take the store's
    cross-process file lock and re-read the coordinate index inside
    the critical section, so concurrent drivers interleave safely.
    """

    def __init__(self, root: os.PathLike, keep: int = DEFAULT_KEEP,
                 lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
                 fsync: bool = True):
        if keep <= 0:
            raise ValueError("store keep cap must be positive")
        self.root = Path(root).expanduser()
        self.keep = keep
        self.lock_timeout = lock_timeout
        self.fsync = fsync
        self.stats = StoreStats()
        self._index: Optional[Dict[str, str]] = None

    # -- paths -------------------------------------------------------------

    @property
    def _dir(self) -> Path:
        return self.root / f"v{SCHEMA_VERSION}"

    def _path(self, key: str) -> Path:
        return self._dir / key[:2] / f"{key}.json"

    def _index_path(self) -> Path:
        return self._dir / _INDEX_NAME

    def _quarantine_dir(self) -> Path:
        return self._dir / "quarantine"

    def _lock(self) -> FileLock:
        return FileLock(self.root / _LOCK_NAME, timeout=self.lock_timeout)

    # -- coordinate index --------------------------------------------------

    def _load_index(self, refresh: bool = False) -> Dict[str, str]:
        """The coordinate index.  ``refresh`` re-reads it from disk —
        mandatory inside locked sections, where another process may
        have written a newer version since we last looked."""
        if self._index is not None and not refresh:
            return self._index
        try:
            with open(self._index_path()) as fh:
                data = json.load(fh)
            self._index = {str(k): str(v) for k, v in data.items()}
        except (OSError, ValueError):
            self._index = {}
        return self._index

    def _save_index(self) -> None:
        if self._index is None:
            return
        try:
            write_atomic(
                self._index_path(),
                json.dumps(self._index, indent=0, sort_keys=True),
                fsync=self.fsync,
            )
        except OSError:
            self.stats.errors += 1
            obs.inc("store.errors")

    # -- lookup ------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` on a miss.

        A corrupt entry (truncated, garbage, checksum or key mismatch)
        is *quarantined* — moved into the store's ``quarantine/``
        directory for post-mortem, never silently deleted — counted,
        and reported as a miss.  A read never raises.
        """
        path = self._path(key)
        try:
            with open(path) as fh:
                entry = json.load(fh)
            if entry.get("key") != key:
                raise ValueError("key mismatch")
            payload = entry["payload"]
            recorded = entry.get("sha256")
            if recorded is not None \
                    and recorded != payload_checksum(payload):
                raise ValueError("payload checksum mismatch")
        except OSError:
            self.stats.misses += 1
            obs.inc("store.misses")
            return None
        except Exception as exc:
            self.stats.corrupt += 1
            self.stats.misses += 1
            obs.inc("store.corrupt")
            obs.inc("store.misses")
            obs.event("store.corrupt", cat="store", key=key,
                      error=str(exc))
            self.quarantine(path)
            return None
        self.stats.hits += 1
        obs.inc("store.hits")
        return payload

    def quarantine(self, path: Path) -> None:
        """Move a corrupt entry into the capped ``quarantine/``
        directory (:func:`repro.util.atomicio.quarantine`)."""
        pruned = quarantine(path, self._quarantine_dir())
        if pruned is None:
            return
        self.stats.quarantined += 1
        obs.inc("store.quarantined")
        if pruned:
            obs.inc("store.quarantine.evicted", pruned)

    def put(self, key: str, payload: Dict[str, Any],
            coord: Optional[str] = None) -> None:
        """Store ``payload`` under ``key`` (atomic, fsync'd, checksummed;
        failures counted, never raised).

        ``coord`` is the grid coordinate this entry answers; when the
        coordinate previously mapped to a *different* key, the stale
        entry is deleted and counted as an invalidation.  The whole
        mutation runs under the store's cross-process lock, with the
        index re-read inside the critical section, so concurrent
        drivers cannot lose each other's updates.
        """
        try:
            lock = self._lock().acquire()
        except LockError:
            self.stats.lock_timeouts += 1
            self.stats.errors += 1
            obs.inc("store.lock_timeouts")
            obs.event("store.error", cat="store", op="put", key=key,
                      error="LockError")
            return
        try:
            self._put_locked(key, payload, coord)
        finally:
            lock.release()

    def _put_locked(self, key: str, payload: Dict[str, Any],
                    coord: Optional[str]) -> None:
        path = self._path(key)
        entry = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "coord": coord,
            "sha256": payload_checksum(payload),
            "payload": payload,
        }
        try:
            write_atomic(
                path, json.dumps(entry, sort_keys=True, default=str),
                fsync=self.fsync,
            )
        except Exception as exc:
            self.stats.errors += 1
            obs.inc("store.errors")
            obs.event("store.error", cat="store", op="put", key=key,
                      error=type(exc).__name__)
            return
        self.stats.stores += 1
        obs.inc("store.stores")
        if coord is not None:
            index = self._load_index(refresh=True)
            stale = index.get(coord)
            if stale is not None and stale != key:
                self.stats.invalidations += 1
                obs.inc("store.invalidations")
                obs.event("store.invalidated", cat="store", coord=coord,
                          old=stale, new=key)
                try:
                    os.unlink(self._path(stale))
                except OSError:
                    pass
            if stale != key:
                index[coord] = key
                self._save_index()
        self._evict()
        obs.gauge("store.bytes").set(self.bytes())

    # -- maintenance -------------------------------------------------------

    def _entries(self) -> Iterable[Path]:
        try:
            return [p for p in self._dir.glob("??/*.json") if p.is_file()]
        except OSError:
            return []

    def _evict(self) -> None:
        """Drop oldest entries (by mtime) beyond the ``keep`` cap.
        Caller holds the store lock (this mutates the index)."""
        entries = list(self._entries())
        if len(entries) <= self.keep:
            return
        entries.sort(key=lambda p: p.stat().st_mtime, reverse=True)
        index = self._load_index()
        by_key = {v: k for k, v in index.items()}
        changed = False
        for stale in entries[self.keep:]:
            try:
                os.unlink(stale)
            except OSError:
                continue
            self.stats.evictions += 1
            obs.inc("store.evictions")
            coord = by_key.get(stale.stem)
            if coord is not None:
                index.pop(coord, None)
                changed = True
        if changed:
            self._save_index()

    def __len__(self) -> int:
        return len(list(self._entries()))

    def bytes(self) -> int:
        """Total on-disk size of stored entries (excluding the index)."""
        total = 0
        for p in self._entries():
            try:
                total += p.stat().st_size
            except OSError:
                continue
        return total

    def stats_dict(self) -> Dict[str, int]:
        """JSON-ready statistics including the current footprint."""
        out = self.stats.as_dict()
        out["entries"] = len(self)
        out["bytes"] = self.bytes()
        return out
