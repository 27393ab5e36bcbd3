"""Set-associative LRU caches and the private-L1/L2 + shared-LLC hierarchy.

The paper's fluctuations of interest are partly cache-warmth effects
(Section II-A), and Section V-D extends the tracer to count cache misses per
function per data-item.  This module provides a genuine (not statistical)
cache model: inclusive-enough set-associative LRU levels over 64-byte lines.

Implementation notes (measured on the ``llc-contention`` perfbench
workload, where this module is nearly all of an op's time):

* Each set is a plain Python list of the resident line addresses in LRU
  order, least recent first.  A hit moves its entry to the end (skipped
  when it is already there); a miss on a full set drops the first entry.
  With 8–16 ways a list scan beats NumPy's per-call overhead by an order
  of magnitude, and lists take less memory than one dict per set.
* Entries are keyed by the line address itself, not by a tag: the
  address is unique within its set, and every level holding a line
  shares the same int object.
* ``CacheHierarchy.access_lines`` walks each address once through
  L1 -> L2 -> LLC, stopping at the first hit.  Within one call the levels
  hold independent state, so this is the same per-level access sequence
  as running whole batches level by level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.machine.config import CacheLevelSpec, MachineSpec

LINE_BYTES = 64


class SetAssocCache:
    """One level of set-associative cache with true-LRU replacement.

    Addresses given to :meth:`access` are *line* addresses (byte address
    divided by 64).
    """

    def __init__(self, spec: CacheLevelSpec, line_bytes: int = LINE_BYTES) -> None:
        self.spec = spec
        n_lines = spec.size_bytes // line_bytes
        if n_lines % spec.ways != 0:
            raise ConfigError(
                f"{n_lines} lines not divisible by {spec.ways} ways"
            )
        self.n_sets = n_lines // spec.ways
        self.ways = spec.ways
        # One list of resident line addresses per set, LRU first, MRU last.
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (contents are kept)."""
        self.hits = 0
        self.misses = 0

    def flush(self) -> None:
        """Invalidate every line and zero statistics."""
        for s in self._sets:
            s.clear()
        self.reset_stats()

    def access(self, line_addr: int) -> bool:
        """Access one line; return True on hit.  Misses fill via LRU."""
        s = self._sets[line_addr % self.n_sets]
        if line_addr in s:
            if s[-1] != line_addr:
                s.remove(line_addr)
                s.append(line_addr)
            self.hits += 1
            return True
        if len(s) == self.ways:
            del s[0]
        s.append(line_addr)
        self.misses += 1
        return False

    def contains(self, line_addr: int) -> bool:
        """Return True if the line is resident (no state change)."""
        return line_addr in self._sets[line_addr % self.n_sets]

    def access_lines(self, line_addrs: np.ndarray) -> np.ndarray:
        """Access many lines in order; return a boolean hit mask."""
        access = self.access
        return np.array([access(a) for a in line_addrs.tolist()], dtype=bool)

    @property
    def occupancy(self) -> float:
        """Fraction of ways currently holding a valid line."""
        return sum(map(len, self._sets)) / (self.n_sets * self.ways)


@dataclass(frozen=True)
class AccessResult:
    """Aggregate outcome of a batch of memory accesses through a hierarchy."""

    accesses: int
    l1_misses: int
    l2_misses: int
    llc_misses: int
    penalty_cycles: int


class CacheHierarchy:
    """Private L1 + L2 in front of a (possibly shared) LLC.

    The L1 hit latency is considered part of the core's base IPC; the
    *penalty* charged for an access is the additional latency of the level
    that eventually hits.
    """

    def __init__(self, spec: MachineSpec, llc: SetAssocCache | None = None) -> None:
        self.spec = spec
        self.l1 = SetAssocCache(spec.l1)
        self.l2 = SetAssocCache(spec.l2)
        self.llc = llc if llc is not None else SetAssocCache(spec.llc)

    def flush(self) -> None:
        """Invalidate the private levels and the LLC reference."""
        self.l1.flush()
        self.l2.flush()
        self.llc.flush()

    def access_lines(self, line_addrs: np.ndarray) -> AccessResult:
        """Run the address stream through L1 -> L2 -> LLC -> DRAM.

        Each address walks the levels in turn and stops at the first hit.
        Returns aggregate miss counts and the total penalty in cycles.
        """
        l1, l2, llc = self.l1.access, self.l2.access, self.llc.access
        addrs = line_addrs.tolist()
        l1_misses = l2_misses = llc_misses = 0
        for addr in addrs:
            if l1(addr):
                continue
            l1_misses += 1
            if l2(addr):
                continue
            l2_misses += 1
            if not llc(addr):
                llc_misses += 1
        spec = self.spec
        penalty = (
            (l1_misses - l2_misses) * spec.l2.latency_cycles
            + (l2_misses - llc_misses) * spec.llc.latency_cycles
            + llc_misses * spec.dram_latency_cycles
        )
        return AccessResult(
            accesses=len(addrs),
            l1_misses=l1_misses,
            l2_misses=l2_misses,
            llc_misses=llc_misses,
            penalty_cycles=penalty,
        )
