"""NUMA memory homing (DASH clusters + first-touch pages).

DASH groups 4 processors per cluster; the OS allocates memory to
clusters at page granularity, assigning each page to the cluster that
first touches it (Section 6.1).  A cache miss is *local* when the
missing processor's cluster homes the page, else *remote* — the 30 vs
100-130 cycle distinction that makes data placement matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class NumaConfig:
    page_bytes: int = 4096
    cluster_size: int = 4

    def cluster_of(self, proc: np.ndarray) -> np.ndarray:
        return proc // self.cluster_size


def first_touch_homes(
    addr: np.ndarray, proc: np.ndarray, cfg: NumaConfig,
    homes: "np.ndarray | None" = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """First-touch page homing over a globally-ordered stream.

    Returns ``(page_ids, home_cluster_per_access)``: for every access,
    the cluster that homes its page (the cluster of the processor that
    touched the page first).  ``homes`` carries the home cluster of
    every page (-1 = not yet touched) from one chunk of a stream into
    the next and is updated in place; it must cover every page of the
    stream.  Homing a stream's chunks in order with one ``homes`` gives
    exactly the homes of their concatenation (None = one whole stream).
    """
    if len(addr) == 0:
        e = np.zeros(0, dtype=np.int64)
        return e, e
    page = addr // cfg.page_bytes
    if homes is None:
        homes = np.full(int(page.max()) + 1, -1, dtype=np.int64)
    new = np.flatnonzero(homes[page] < 0)
    if len(new):
        # Dense first-touch position per page (exact, no sort).
        first = np.full(len(homes), len(addr), dtype=np.int64)
        np.minimum.at(first, page[new], new)
        touched = np.flatnonzero(first < len(addr))
        homes[touched] = cfg.cluster_of(proc[first[touched]])
    return page, homes[page]


def local_miss_mask(
    addr: np.ndarray, proc: np.ndarray, cfg: NumaConfig,
    homes: "np.ndarray | None" = None,
) -> np.ndarray:
    """True where an access's page is homed in the accessor's cluster
    (``homes`` as in :func:`first_touch_homes`)."""
    _, home = first_touch_homes(addr, proc, cfg, homes)
    return home == cfg.cluster_of(proc)
