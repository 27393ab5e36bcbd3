"""Typed wait edges: who waited on whom, for how long, and why.

Per-function latency attribution (the paper's axis) sees only *code
that ran*; a slow item whose core sat in a poll loop shows up as time
in ``poll``/``ring_wait`` symbols with no hint of the thread on the
other side.  DepGraph-style waiting-dependency diagnosis needs the
edge itself: *this* core waited on *that* queue, and the party
responsible was the thread whose last retired function was *f* on
core *c*.

The scheduler records one :class:`WaitEdge` per blocking spin, at the
moment the spin's length becomes known (conservative simulation knows
the exact virtual wait).  Edges are typed by blocker kind:

``lock``
    pop spin on a lock's token queue (see :mod:`repro.runtime.lock`);
    the blocker is the previous holder, identified by the function it
    executed while holding.
``queue-full``
    push spin under backpressure; the blocker is the consumer that
    frees ring slots.
``queue-empty``
    pop that found the queue empty and parked; the blocker is the
    producer that eventually pushed the head item.
``producer``
    pop of an in-flight item (queued, but its availability timestamp
    is still in the waiter's future): the waiter is pacing behind the
    producer's latency rather than an empty ring.

Columns are plain numpy arrays so the capture layer can append them to
the trace container as an *optional* member set — old readers ignore it,
new readers treat absence as "no wait data", never an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Blocker-kind names, index == on-disk code.
WAIT_KINDS = ("lock", "queue-full", "queue-empty", "producer")

WAIT_LOCK = 0
WAIT_QUEUE_FULL = 1
WAIT_QUEUE_EMPTY = 2
WAIT_PRODUCER = 3


def kind_name(code: int) -> str:
    """Human name of a blocker-kind code (``"?"`` for unknown codes)."""
    return WAIT_KINDS[code] if 0 <= code < len(WAIT_KINDS) else "?"


@dataclass(frozen=True)
class WaitColumns:
    """One core's wait edges as parallel arrays (container layout).

    ``queue`` indexes into ``queue_names``; ``blocker_core`` is -1 and
    ``blocker_ip`` 0 when the blocking side was never seen (e.g. a wait
    on a queue nothing had touched yet).
    """

    ts: np.ndarray  # int64 — waiter clock when the spin began
    cycles: np.ndarray  # int64 — virtual length of the spin
    kind: np.ndarray  # int8  — WAIT_* code
    queue: np.ndarray  # int32 — index into queue_names
    blocker_core: np.ndarray  # int32 — -1 unknown
    blocker_ip: np.ndarray  # int64 — 0 unknown
    waiter_ip: np.ndarray  # int64 — waiter's last function, 0 unknown
    queue_names: tuple[str, ...] = ()

    def __len__(self) -> int:
        return int(self.ts.shape[0])

    @cached_property
    def ends(self) -> np.ndarray:
        """Edge end times ``ts + cycles``, computed once per column set."""
        return self.ts + self.cycles

    @classmethod
    def empty(cls) -> "WaitColumns":
        return cls(
            ts=np.zeros(0, dtype=np.int64),
            cycles=np.zeros(0, dtype=np.int64),
            kind=np.zeros(0, dtype=np.int8),
            queue=np.zeros(0, dtype=np.int32),
            blocker_core=np.zeros(0, dtype=np.int32),
            blocker_ip=np.zeros(0, dtype=np.int64),
            waiter_ip=np.zeros(0, dtype=np.int64),
            queue_names=(),
        )


class WaitEdgeLog:
    """Append-only recorder the scheduler feeds during a run.

    The hot path is one tuple append per *blocking* spin — items that
    never wait record nothing, so the overhead scales with contention,
    not throughput (the <5% PR 3 budget is gated by
    ``benchmarks/bench_ext_depgraph.py``).
    """

    def __init__(self) -> None:
        self._by_core: dict[int, list[tuple]] = {}
        self._queue_idx: dict[str, int] = {}
        self.queue_names: list[str] = []

    def record(
        self,
        core: int,
        ts: int,
        kind: int,
        queue_name: str,
        cycles: int,
        blocker_core: int,
        blocker_ip: int,
        waiter_ip: int,
    ) -> None:
        qidx = self._queue_idx.get(queue_name)
        if qidx is None:
            qidx = self._queue_idx[queue_name] = len(self.queue_names)
            self.queue_names.append(queue_name)
        self._by_core.setdefault(core, []).append(
            (ts, cycles, kind, qidx, blocker_core, blocker_ip, waiter_ip)
        )

    @property
    def n_edges(self) -> int:
        return sum(len(rows) for rows in self._by_core.values())

    def per_core_columns(self) -> dict[int, WaitColumns]:
        """Finalize into container-ready per-core column arrays."""
        names = tuple(self.queue_names)
        out: dict[int, WaitColumns] = {}
        for core, rows in sorted(self._by_core.items()):
            arr = np.asarray(rows, dtype=np.int64)
            out[core] = WaitColumns(
                ts=arr[:, 0].copy(),
                cycles=arr[:, 1].copy(),
                kind=arr[:, 2].astype(np.int8),
                queue=arr[:, 3].astype(np.int32),
                blocker_core=arr[:, 4].astype(np.int32),
                blocker_ip=arr[:, 5].copy(),
                waiter_ip=arr[:, 6].copy(),
                queue_names=names,
            )
        return out


__all__ = [
    "WAIT_KINDS",
    "WAIT_LOCK",
    "WAIT_QUEUE_FULL",
    "WAIT_QUEUE_EMPTY",
    "WAIT_PRODUCER",
    "kind_name",
    "WaitColumns",
    "WaitEdgeLog",
]
