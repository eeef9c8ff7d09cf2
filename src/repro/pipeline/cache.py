"""Content-addressed artifact cache: in-memory LRU + optional disk.

Keys are SHA-256 digests built by the passes
(:mod:`repro.pipeline.fingerprint`); values are arbitrary pass
artifacts.  Every cache holds an in-memory LRU; a disk store is layered
underneath when a directory is configured, so artifacts survive the
process and are shared across the batch driver's worker processes.

Disk location resolution (:func:`resolve_disk_dir`):

* ``REPRO_CACHE_DIR=<path>`` — use that directory;
* ``REPRO_CACHE=1`` (or an explicit CLI ``--cache``) — use the default
  ``~/.cache/repro``;
* otherwise the cache is memory-only.

Disk entries are namespaced by cache schema and interpreter version
(the serializer marshals compute bytecode, which is only stable within
one Python version).  Disk failures are never fatal: an artifact that
cannot be pickled simply stays memory-only, an unreadable disk entry is
treated as a miss, and a *corrupt* entry (truncated, garbage, or
unpicklable bytes) is quarantined — moved aside into the store's
``quarantine/`` directory, counted in ``CacheStats.corrupt`` and the
``pipeline.cache.corrupt`` obs counter — and recomputed, never raised.

Fault injection (:mod:`repro.faults`) hooks both disk directions:
``cache.read`` corrupts loaded bytes (exercising the quarantine path)
and ``cache.write`` fails the store (exercising the memory-only
fallback).
"""

from __future__ import annotations

import os
import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro import faults, obs
from repro.errors import CacheError
from repro.pipeline import serde
from repro.util.atomicio import quarantine, write_atomic

__all__ = ["MISS", "ArtifactCache", "CacheStats", "resolve_disk_dir"]

MISS = object()
"""Sentinel returned by :meth:`ArtifactCache.get` on a miss."""

SCHEMA_VERSION = 1
DEFAULT_CAPACITY = 256
ENV_DIR = "REPRO_CACHE_DIR"
ENV_FLAG = "REPRO_CACHE"


def resolve_disk_dir(explicit: Optional[str] = None) -> Optional[Path]:
    """The disk-store directory implied by ``explicit``/environment, or
    ``None`` for a memory-only cache."""
    if explicit:
        return Path(explicit).expanduser()
    env_dir = os.environ.get(ENV_DIR)
    if env_dir:
        return Path(env_dir).expanduser()
    flag = os.environ.get(ENV_FLAG, "").lower()
    if flag not in ("", "0", "false", "no"):
        return Path("~/.cache/repro").expanduser()
    return None


@dataclass
class CacheStats:
    """Counters for one cache instance (always on, unlike obs)."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    stores: int = 0
    disk_stores: int = 0
    disk_errors: int = 0
    corrupt: int = 0
    evictions: int = 0
    quarantine_evicted: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "stores": self.stores,
            "disk_stores": self.disk_stores,
            "disk_errors": self.disk_errors,
            "corrupt": self.corrupt,
            "evictions": self.evictions,
            "quarantine_evicted": self.quarantine_evicted,
        }


class ArtifactCache:
    """LRU over ``key -> artifact`` with an optional disk layer."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 disk_dir: Optional[os.PathLike] = None):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.stats = CacheStats()
        self._mem: "OrderedDict[str, Any]" = OrderedDict()

    @classmethod
    def from_env(cls, capacity: int = DEFAULT_CAPACITY) -> "ArtifactCache":
        return cls(capacity=capacity, disk_dir=resolve_disk_dir())

    def __len__(self) -> int:
        return len(self._mem)

    def __contains__(self, key: str) -> bool:
        return key in self._mem

    # -- lookup ------------------------------------------------------------

    def get(self, key: str) -> Any:
        """The cached artifact, or :data:`MISS`."""
        if key in self._mem:
            self._mem.move_to_end(key)
            self.stats.hits += 1
            obs.inc("pipeline.cache.hits")
            return self._mem[key]
        value = self._disk_get(key)
        if value is not MISS:
            self.stats.hits += 1
            self.stats.disk_hits += 1
            obs.inc("pipeline.cache.hits")
            obs.inc("pipeline.cache.disk_hits")
            self._mem_put(key, value)
            return value
        self.stats.misses += 1
        obs.inc("pipeline.cache.misses")
        return MISS

    def put(self, key: str, value: Any) -> None:
        self.stats.stores += 1
        self._mem_put(key, value)
        self._disk_put(key, value)

    def clear(self) -> None:
        """Drop the in-memory layer (disk entries are left in place)."""
        self._mem.clear()

    # -- memory layer ------------------------------------------------------

    def _mem_put(self, key: str, value: Any) -> None:
        self._mem[key] = value
        self._mem.move_to_end(key)
        while len(self._mem) > self.capacity:
            self._mem.popitem(last=False)
            self.stats.evictions += 1
            obs.inc("pipeline.cache.evictions")

    # -- disk layer --------------------------------------------------------

    def _disk_path(self, key: str) -> Path:
        tag = f"v{SCHEMA_VERSION}-py{sys.version_info[0]}{sys.version_info[1]}"
        return self.disk_dir / tag / key[:2] / f"{key}.pkl"

    def _disk_get(self, key: str) -> Any:
        if self.disk_dir is None:
            return MISS
        try:
            path = self._disk_path(key)
            data = path.read_bytes()
        except OSError:
            return MISS
        except Exception as exc:  # unexpected; a read must never crash
            self.stats.disk_errors += 1
            obs.event("pipeline.cache.disk_error", cat="pipeline",
                      op="load", key=key, error=type(exc).__name__)
            return MISS
        data = faults.corrupt(data, "cache.read")
        try:
            return serde.loads(data)
        except Exception as exc:
            # Truncated / garbage / unpicklable entry: quarantine it so
            # it is never retried, count it, and recompute.
            self.stats.corrupt += 1
            obs.inc("pipeline.cache.corrupt")
            obs.event("pipeline.cache.corrupt", cat="pipeline",
                      key=key, error=type(exc).__name__)
            self._quarantine(path)
            return MISS

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry out of the lookup path, into the
        capped ``quarantine/`` directory
        (:func:`repro.util.atomicio.quarantine`)."""
        pruned = quarantine(path, path.parent.parent / "quarantine")
        if pruned:
            self.stats.quarantine_evicted += pruned
            obs.inc("cache.quarantine.evicted", pruned)

    def _disk_put(self, key: str, value: Any) -> None:
        if self.disk_dir is None:
            return
        path = self._disk_path(key)
        try:
            if faults.should_fire("cache.write"):
                raise CacheError("injected disk-store write fault", key=key)
            data = serde.dumps(value)
            # Artifacts are recomputable, so skip the fsync: a crash at
            # worst loses a cache entry, never corrupts one (the rename
            # is still atomic and torn entries quarantine on read).
            write_atomic(path, data, fsync=False)
            self.stats.disk_stores += 1
            obs.inc("pipeline.cache.disk_stores")
        except Exception as exc:
            # Unpicklable artifact or unwritable directory: stay
            # memory-only rather than fail the compile.
            self.stats.disk_errors += 1
            obs.event("pipeline.cache.disk_error", cat="pipeline",
                      op="store", key=key, error=type(exc).__name__)
