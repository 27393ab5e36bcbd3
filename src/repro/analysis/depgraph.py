"""Waiting-dependency graphs: why a slow item's core was *not* running.

Per-function latency attribution (:mod:`repro.analysis.diagnose`) names
the code that ran; this module names the code that made a core wait.
Following DepGraph (arxiv 2103.04933), each recorded
:class:`~repro.runtime.waitedge.WaitColumns` edge is one arc of a
waiting-dependency graph — waiter core → queue/lock → blocking core and
the function it was executing — and the diagnosis question "why is item
N slow?" becomes a heaviest-path query over the arcs that overlap item
N's residency window.

The answer is a ``blocked_by`` chain of :class:`WaitHop` entries::

    core 1 waited 65,430 cy on lock:shared [lock] <- core 0 in locked_update
    core 0 waited 12,800 cy on pipe [queue-full] <- core 2 in slow_drain

Hop 0 is the waiter's own heaviest wait inside the window; each further
hop recurses into the blocking core's waits over the same span, so a
convoy (A waits on B, B waits on C) is followed to its true upstream
cause.  Weights are wait cycles *clipped to the window*, so an edge
half inside the window contributes only its overlapping part.

Containers without the optional wait member yield empty chains — never
an error — which keeps every diagnosis path valid on v1/v2 containers
and on journal-recovered ones.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.core.records import WindowColumns
from repro.runtime.waitedge import WaitColumns, kind_name

#: Chains stop after this many hops even if the graph goes deeper — a
#: wait cycle among cores (A on B on A) would otherwise never terminate.
MAX_CHAIN_DEPTH = 4


@dataclass(frozen=True)
class WaitHop:
    """One hop of a blocked-by chain: who waited, on what, behind whom."""

    waiter_core: int
    #: Blocker kind name: lock | queue-full | queue-empty | producer.
    kind: str
    #: Name of the queue (or lock token queue) waited on.
    queue: str
    #: Core of the blocking side (-1 when never observed).
    blocker_core: int
    #: Symbolised function the blocker last executed ("?" when unknown).
    blocker_fn: str
    #: Wait cycles inside the queried window (clipped overlap).
    wait_cycles: int
    #: Number of wait edges merged into this hop.
    n_edges: int

    def to_dict(self) -> dict:
        return {
            "waiter_core": self.waiter_core,
            "kind": self.kind,
            "queue": self.queue,
            "blocker_core": self.blocker_core,
            "blocker_fn": self.blocker_fn,
            "wait_cycles": self.wait_cycles,
            "n_edges": self.n_edges,
        }

    def describe(self) -> str:
        blocker = (
            f"core {self.blocker_core} in {self.blocker_fn}"
            if self.blocker_core >= 0
            else "unknown blocker"
        )
        return (
            f"core {self.waiter_core} waited {self.wait_cycles:,} cy on "
            f"{self.queue} [{self.kind}] <- {blocker}"
        )


def _symbolize(symtab, ip: int) -> str:
    if ip == 0 or symtab is None:
        return "?"
    try:
        name = symtab.lookup(int(ip))
    except Exception:
        return "?"
    return str(name) if name is not None else "?"


def _overlap_slice(w: WaitColumns, t0: int, t1: int):
    """(index array, clipped cycles) of edges overlapping [t0, t1).

    Per-core edges are recorded in that core's virtual-time order, so
    both ``ts`` and ``ends`` ascend and the overlapping run is
    contiguous: one binary search over ``ends`` finds the first edge
    ending after ``t0``, one over ``ts`` the first starting at or after
    ``t1`` — no scan.
    """
    if len(w) == 0 or t1 <= t0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    ends = w.ends
    lo = int(np.searchsorted(ends, t0, side="right"))
    hi = int(np.searchsorted(w.ts, t1, side="left"))
    if hi <= lo:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    idx = np.arange(lo, hi, dtype=np.int64)
    clipped = np.minimum(ends[lo:hi], t1) - np.maximum(w.ts[lo:hi], t0)
    keep = clipped > 0
    return idx[keep], clipped[keep].astype(np.int64)


def heaviest_wait(
    w: WaitColumns, t0: int, t1: int, symtab=None
) -> WaitHop | None:
    """The dominant wait group of one core inside [t0, t1), or None.

    Edges are grouped by (kind, queue, blocker core, blocker function)
    and the group with the most clipped wait cycles wins — one noisy
    short spin cannot outvote a sustained convoy.
    """
    idx, clipped = _overlap_slice(w, t0, t1)
    if idx.shape[0] == 0:
        return None
    groups: dict[tuple, list[int]] = {}
    for pos, cyc in zip(idx.tolist(), clipped.tolist()):
        key = (
            int(w.kind[pos]),
            int(w.queue[pos]),
            int(w.blocker_core[pos]),
            int(w.blocker_ip[pos]),
        )
        acc = groups.setdefault(key, [0, 0])
        acc[0] += int(cyc)
        acc[1] += 1
    (kind, qidx, b_core, b_ip), (cycles, n) = max(
        groups.items(), key=lambda kv: (kv[1][0], -kv[0][0])
    )
    queue = (
        w.queue_names[qidx] if 0 <= qidx < len(w.queue_names) else f"queue#{qidx}"
    )
    waiter_core = -1  # filled by the caller, who knows which core w is
    return WaitHop(
        waiter_core=waiter_core,
        kind=kind_name(kind),
        queue=queue,
        blocker_core=b_core,
        blocker_fn=_symbolize(symtab, b_ip),
        wait_cycles=int(cycles),
        n_edges=int(n),
    )


def blocked_by_chain(
    waits_by_core: dict[int, WaitColumns],
    core: int,
    t0: int,
    t1: int,
    *,
    symtab=None,
    max_depth: int = MAX_CHAIN_DEPTH,
) -> tuple[WaitHop, ...]:
    """Critical-wait-path extraction for one window of one core.

    Hop 0 is ``core``'s heaviest wait group inside [t0, t1); subsequent
    hops follow the blocking core's own heaviest wait over the same
    span (the convoy's upstream).  The walk stops at ``max_depth``, at a
    core with no recorded waits in the span, or when it would revisit a
    core (a wait cycle).
    """
    chain: list[WaitHop] = []
    visited: set[int] = set()
    current = core
    for _ in range(max_depth):
        if current in visited:
            break
        visited.add(current)
        w = waits_by_core.get(current)
        if w is None or len(w) == 0:
            break
        hop = heaviest_wait(w, t0, t1, symtab)
        if hop is None:
            break
        chain.append(dataclasses.replace(hop, waiter_core=current))
        if hop.blocker_core < 0 or hop.blocker_core == current:
            break
        current = hop.blocker_core
    return tuple(chain)


def item_wait_cycles(
    w: WaitColumns, windows: WindowColumns
) -> tuple[np.ndarray, np.ndarray]:
    """Per-item wait totals on one core: (item ids asc, clipped cycles).

    The contention-vs-code split in :mod:`repro.analysis.differential`
    compares the median of these totals between two runs against the
    growth of total residency: a regression whose growth is wait-borne
    is contention, the rest is code.

    Each window's total is what :func:`_overlap_slice` would sum, for all
    windows at once: over the overlapping run ``[lo, hi)`` an edge
    contributes ``min(end, t1) - max(ts, t0)``, and since ``ts`` and
    ``ends`` ascend, the edges clipped at ``t1`` form a suffix of the run
    and those clipped at ``t0`` a prefix.  Two more binary searches find
    them; prefix sums of ``ts`` and ``ends`` give the rest.  The sums may
    wrap in int64 on a long trace, but the arithmetic is modular and each
    window's total fits, so the totals are exact.  O((windows + edges)
    log edges).
    """
    if len(windows) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    order, items, start = windows.by_item()
    if len(w) == 0:
        return items, np.zeros(items.shape[0], dtype=np.int64)
    ts = w.ts.astype(np.int64, copy=False)
    ends = w.ends.astype(np.int64, copy=False)
    t0 = windows.t_start.astype(np.int64, copy=False)
    t1 = windows.t_end.astype(np.int64, copy=False)
    lo = np.searchsorted(ends, t0, side="right")
    hi = np.searchsorted(ts, t1, side="left")
    # Edges in [lo, j1) end before t1; edges in [j0, hi) start after t0.
    # With t1 > t0 the run is never inverted (no edge ends before it
    # starts); windows with t1 <= t0 are zeroed below.
    j1 = np.clip(np.searchsorted(ends, t1, side="left"), lo, hi)
    j0 = np.clip(np.searchsorted(ts, t0, side="right"), lo, hi)
    cum_ts = np.concatenate(([0], np.cumsum(ts)))
    cum_ends = np.concatenate(([0], np.cumsum(ends)))
    clipped = (
        (cum_ends[j1] - cum_ends[lo])
        + t1 * (hi - j1)
        - (cum_ts[hi] - cum_ts[j0])
        - t0 * (j0 - lo)
    )
    per_window = np.where(t1 > t0, clipped, 0)
    return items, np.add.reduceat(per_window[order], start)


def item_hulls(
    windows: WindowColumns,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[t_start, t_end) hull of every item's windows, in one pass.

    Returns ``(items asc, hull starts, hull ends)``; an item split over
    several windows (timer switching) gets the span from its first
    start to its last end.
    """
    if len(windows) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    order, items, start = windows.by_item()
    return (
        items,
        np.minimum.reduceat(windows.t_start[order], start).astype(np.int64),
        np.maximum.reduceat(windows.t_end[order], start).astype(np.int64),
    )


def window_of_item(windows: WindowColumns, item_id: int) -> tuple[int, int] | None:
    """[t_start, t_end) hull of one item's windows, or None if absent."""
    items, lo, hi = item_hulls(windows)
    pos = int(np.searchsorted(items, item_id))
    if pos == items.shape[0] or items[pos] != item_id:
        return None
    return int(lo[pos]), int(hi[pos])


def describe_chain(chain: tuple[WaitHop, ...]) -> str:
    """Multi-line rendering of a blocked-by chain (CLI `--why` output)."""
    if not chain:
        return "no recorded waits inside this item's window"
    lines = []
    for depth, hop in enumerate(chain):
        lines.append("  " * depth + ("blocked by: " if depth else "waited:    ") + hop.describe())
    return "\n".join(lines)


__all__ = [
    "MAX_CHAIN_DEPTH",
    "WaitHop",
    "heaviest_wait",
    "blocked_by_chain",
    "item_wait_cycles",
    "item_hulls",
    "window_of_item",
    "describe_chain",
]
