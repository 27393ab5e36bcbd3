"""Trace record types produced by instrumentation.

A :class:`SwitchRecords` accumulates ``(timestamp, item_id, kind)`` triples
per core — exactly what the paper's marking function logs (Section III-C).
:func:`build_windows` pairs starts with ends into per-item residency
windows, validating the pairing discipline (no nesting: one item at a time
per core, the defining property of the Fig 5 architecture).

Under the self-switching architecture an item has exactly one window per
core; under timer-switching (Section V-A) an item may have several
disjoint windows — ``build_windows`` supports both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.runtime.actions import SwitchKind


@dataclass(frozen=True)
class ItemWindow:
    """One residency of a data-item on a core: [t_start, t_end]."""

    item_id: int
    t_start: int
    t_end: int

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise TraceError(
                f"item {self.item_id}: window end {self.t_end} before start {self.t_start}"
            )

    @property
    def duration(self) -> int:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class WindowColumns:
    """Array-backed window columns: the object-free twin of ``list[ItemWindow]``.

    The streaming pipeline carries windows in this form so that
    million-item shards never materialise one Python object per window
    (two switch marks per data-item make windows the largest per-item
    population in a trace).  :meth:`to_windows` converts when
    object-level access is wanted; :class:`~repro.core.hybrid.HybridTrace`
    does that lazily on first touch of ``.windows``.
    """

    item_id: np.ndarray
    t_start: np.ndarray
    t_end: np.ndarray

    def __len__(self) -> int:
        return int(self.item_id.shape[0])

    @classmethod
    def from_windows(cls, windows: list[ItemWindow]) -> "WindowColumns":
        return cls(
            item_id=np.asarray([w.item_id for w in windows], dtype=np.int64),
            t_start=np.asarray([w.t_start for w in windows], dtype=np.int64),
            t_end=np.asarray([w.t_end for w in windows], dtype=np.int64),
        )

    def to_windows(self) -> list[ItemWindow]:
        return [
            ItemWindow(item_id=i, t_start=a, t_end=b)
            for i, a, b in zip(
                self.item_id.tolist(), self.t_start.tolist(), self.t_end.tolist()
            )
        ]

    def by_item(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(order, items ascending, start of each item's run in ``order``).

        ``order`` sorts the windows by item id, stably, so an item's
        windows stay in their recorded order; per-item reductions are one
        ``reduceat`` over ``column[order]`` at the run starts.
        """
        order = np.argsort(self.item_id, kind="stable")
        items, start = np.unique(self.item_id[order], return_index=True)
        return order, items.astype(np.int64), start

    def as_sorted_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, ends, item_ids) sorted by start, overlap-checked.

        Array-native equivalent of :func:`windows_as_arrays`.
        """
        if not len(self):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        order = np.argsort(self.t_start, kind="stable")
        starts = self.t_start[order]
        ends = self.t_end[order]
        items = self.item_id[order]
        if np.any(starts[1:] < ends[:-1]):
            raise TraceError("item windows overlap on one core")
        return starts, ends, items


def item_totals(cols: WindowColumns) -> tuple[np.ndarray, np.ndarray]:
    """Per-item total residency from window columns: (items, totals).

    Items ascend; an item occupying several windows (timer switching)
    has its durations summed — one ``argsort`` + ``reduceat``, no Python
    loop over windows.
    """
    if len(cols) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    order, items, start = cols.by_item()
    return items, np.add.reduceat((cols.t_end - cols.t_start)[order], start)


class SwitchRecords:
    """Append-only log of data-item switch marks for one core."""

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        self._ts: list[int] = []
        self._item: list[int] = []
        self._kind: list[SwitchKind] = []

    @classmethod
    def from_arrays(
        cls,
        core_id: int,
        ts: np.ndarray,
        item: np.ndarray,
        kinds: list[SwitchKind],
    ) -> "SwitchRecords":
        """Build a log from column data (trace-file loading, generators)."""
        if not (ts.shape[0] == item.shape[0] == len(kinds)):
            raise TraceError(
                f"core {core_id}: switch columns disagree in length "
                f"({ts.shape[0]}, {item.shape[0]}, {len(kinds)})"
            )
        r = cls(core_id)
        r._ts = [int(t) for t in ts.tolist()]
        r._item = [int(i) for i in item.tolist()]
        r._kind = list(kinds)
        return r

    def append(self, ts: int, item_id: int, kind: SwitchKind) -> None:
        self._ts.append(ts)
        self._item.append(item_id)
        self._kind.append(kind)

    def __len__(self) -> int:
        return len(self._ts)

    @property
    def ts(self) -> np.ndarray:
        return np.asarray(self._ts, dtype=np.int64)

    @property
    def item(self) -> np.ndarray:
        return np.asarray(self._item, dtype=np.int64)

    @property
    def kinds(self) -> list[SwitchKind]:
        return list(self._kind)


def build_windows(records: SwitchRecords) -> list[ItemWindow]:
    """Pair START/END marks into windows, enforcing one-item-at-a-time.

    Raises :class:`~repro.errors.TraceError` on a malformed log: an END
    without a START, a START while another item is open, mismatched ids,
    or a dangling START at the end of the log.
    """
    windows: list[ItemWindow] = []
    open_item: int | None = None
    open_ts = 0
    for ts, item, kind in zip(records._ts, records._item, records._kind):
        if kind is SwitchKind.ITEM_START:
            if open_item is not None:
                raise TraceError(
                    f"core {records.core_id}: item {item} started at {ts} while "
                    f"item {open_item} is still open (one item per core at a time)"
                )
            open_item = item
            open_ts = ts
        elif kind is SwitchKind.ITEM_END:
            if open_item is None:
                raise TraceError(
                    f"core {records.core_id}: item {item} ended at {ts} with no open item"
                )
            if open_item != item:
                raise TraceError(
                    f"core {records.core_id}: item {item} ended at {ts} but "
                    f"item {open_item} was open"
                )
            windows.append(ItemWindow(item_id=item, t_start=open_ts, t_end=ts))
            open_item = None
        else:  # pragma: no cover - exhaustive enum
            raise TraceError(f"unknown switch kind {kind!r}")
    if open_item is not None:
        raise TraceError(
            f"core {records.core_id}: item {open_item} never ended (dangling START)"
        )
    return windows


def pair_switch_columns(
    core_id: int,
    ts: np.ndarray,
    item: np.ndarray,
    kind_codes: np.ndarray,
    *,
    start_code: int = 0,
    end_code: int = 1,
) -> WindowColumns:
    """Vectorised window pairing straight from switch column arrays.

    A *valid* one-item-at-a-time log is strictly alternating
    START, END, START, END, … with matching item ids, so the pairing can
    be checked with a handful of array comparisons instead of a
    per-record Python loop — this is the streaming-ingest hot path for
    traces with millions of data-items (two marks per item).  Any log
    that fails the vectorised checks is re-run through the per-record
    :func:`build_windows` state machine, which raises the precise
    :class:`~repro.errors.TraceError` for the first offending record.
    """
    n = int(ts.shape[0])
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return WindowColumns(item_id=empty, t_start=empty.copy(), t_end=empty.copy())
    ts = np.asarray(ts, dtype=np.int64)
    item = np.asarray(item, dtype=np.int64)
    kind_codes = np.asarray(kind_codes)
    valid = (
        n % 2 == 0
        and bool(np.all(kind_codes[0::2] == start_code))
        and bool(np.all(kind_codes[1::2] == end_code))
        and bool(np.all(item[0::2] == item[1::2]))
        and bool(np.all(ts[1::2] >= ts[0::2]))
    )
    if not valid:
        # Fall back to the state machine for exact error reporting.
        kinds = [
            SwitchKind.ITEM_START if c == start_code else SwitchKind.ITEM_END
            for c in kind_codes.tolist()
        ]
        return WindowColumns.from_windows(
            build_windows(SwitchRecords.from_arrays(core_id, ts, item, kinds))
        )
    return WindowColumns(
        item_id=item[0::2].copy(), t_start=ts[0::2].copy(), t_end=ts[1::2].copy()
    )


def build_windows_from_arrays(
    core_id: int,
    ts: np.ndarray,
    item: np.ndarray,
    kind_codes: np.ndarray,
    *,
    start_code: int = 0,
    end_code: int = 1,
) -> list[ItemWindow]:
    """Like :func:`pair_switch_columns`, but materialised as objects."""
    return pair_switch_columns(
        core_id, ts, item, kind_codes, start_code=start_code, end_code=end_code
    ).to_windows()


@dataclass(frozen=True)
class LenientWindows:
    """Outcome of best-effort pairing over a possibly-corrupt switch log.

    ``affected_items`` are the items whose marks were dropped or whose
    window boundaries had to be guessed — their residency windows are not
    trustworthy ground truth and degraded reports flag them.
    """

    windows: WindowColumns
    total_marks: int
    dropped_marks: int
    affected_items: tuple[int, ...]

    @property
    def coverage(self) -> float:
        """Fraction of switch marks that paired into usable windows."""
        if self.total_marks == 0:
            return 1.0
        return 1.0 - self.dropped_marks / self.total_marks


def pair_switch_columns_lenient(
    core_id: int,
    ts: np.ndarray,
    item: np.ndarray,
    kind_codes: np.ndarray,
    *,
    start_code: int = 0,
    end_code: int = 1,
) -> LenientWindows:
    """Best-effort column pairing for corrupt or lossy switch logs.

    Well-formed logs take the same vectorised fast path as
    :func:`pair_switch_columns` and report zero drops.  Malformed logs
    fall back to the :func:`build_windows_lenient` policy (an END with no
    open START is dropped; a START over an open item drops the open one;
    a dangling START is dropped), extended for *corrupt* — not merely
    lossy — data: a window whose end precedes its start, or that overlaps
    the previous window after sorting, is dropped too.  Every drop is
    charged to the item(s) involved so coverage can name them.
    """
    n = int(ts.shape[0])
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return LenientWindows(
            WindowColumns(item_id=empty, t_start=empty.copy(), t_end=empty.copy()),
            total_marks=0,
            dropped_marks=0,
            affected_items=(),
        )
    ts = np.asarray(ts, dtype=np.int64)
    item = np.asarray(item, dtype=np.int64)
    kind_codes = np.asarray(kind_codes)
    strictly_valid = (
        n % 2 == 0
        and bool(np.all(kind_codes[0::2] == start_code))
        and bool(np.all(kind_codes[1::2] == end_code))
        and bool(np.all(item[0::2] == item[1::2]))
        and bool(np.all(ts[1::2] >= ts[0::2]))
        and bool(np.all(ts[2::2] >= ts[1:-1:2]))
    )
    if strictly_valid:
        return LenientWindows(
            WindowColumns(
                item_id=item[0::2].copy(), t_start=ts[0::2].copy(), t_end=ts[1::2].copy()
            ),
            total_marks=n,
            dropped_marks=0,
            affected_items=(),
        )
    win_item: list[int] = []
    win_start: list[int] = []
    win_end: list[int] = []
    dropped = 0
    affected: set[int] = set()
    open_item: int | None = None
    open_ts = 0
    for t, it, code in zip(ts.tolist(), item.tolist(), kind_codes.tolist()):
        if code == start_code:
            if open_item is not None:
                dropped += 1  # the open item's END was evidently lost
                affected.add(open_item)
            open_item = it
            open_ts = t
        else:
            if open_item == it:
                if t < open_ts:  # corrupt timestamp: window ends before it starts
                    dropped += 2
                    affected.add(it)
                else:
                    win_item.append(it)
                    win_start.append(open_ts)
                    win_end.append(t)
                open_item = None
            else:
                dropped += 1
                affected.add(it)
                if open_item is not None:
                    # A mismatched END also invalidates the open window.
                    dropped += 1
                    affected.add(open_item)
                    open_item = None
    if open_item is not None:
        dropped += 1
        affected.add(open_item)
    cols = WindowColumns(
        item_id=np.asarray(win_item, dtype=np.int64),
        t_start=np.asarray(win_start, dtype=np.int64),
        t_end=np.asarray(win_end, dtype=np.int64),
    )
    # Overlap pruning: corrupt timestamps can pair into windows that
    # overlap after sorting, which the integration cannot accept.  Keep
    # the earlier-starting window, drop each later one that intrudes.
    if len(cols):
        order = np.argsort(cols.t_start, kind="stable")
        items_s = cols.item_id[order]
        starts_s = cols.t_start[order]
        ends_s = cols.t_end[order]
        keep = np.ones(len(cols), dtype=bool)
        last_end = None
        for i in range(len(cols)):
            if last_end is not None and int(starts_s[i]) < last_end:
                keep[i] = False
                dropped += 2
                affected.add(int(items_s[i]))
            else:
                last_end = int(ends_s[i])
        if not np.all(keep):
            cols = WindowColumns(
                item_id=items_s[keep], t_start=starts_s[keep], t_end=ends_s[keep]
            )
        else:
            cols = WindowColumns(item_id=items_s, t_start=starts_s, t_end=ends_s)
    return LenientWindows(
        windows=cols,
        total_marks=n,
        dropped_marks=dropped,
        affected_items=tuple(sorted(affected)),
    )


def build_windows_lenient(records: SwitchRecords) -> tuple[list[ItemWindow], int]:
    """Best-effort pairing for *lossy* switch logs.

    A production marking path can drop records (log-buffer overruns,
    sampled logging).  Policy: an END with no matching open START is
    dropped; a START arriving while another item is open drops the open
    one (its END was evidently lost); a dangling START at end-of-log is
    dropped.  Returns ``(windows, dropped_marks)`` — every returned
    window corresponds to a genuinely paired START/END of one item, so
    integration stays sound and merely loses the affected items.
    """
    windows: list[ItemWindow] = []
    dropped = 0
    open_item: int | None = None
    open_ts = 0
    for ts, item, kind in zip(records._ts, records._item, records._kind):
        if kind is SwitchKind.ITEM_START:
            if open_item is not None:
                dropped += 1  # the open item's END was lost
            open_item = item
            open_ts = ts
        else:  # ITEM_END
            if open_item == item:
                windows.append(ItemWindow(item_id=item, t_start=open_ts, t_end=ts))
                open_item = None
            else:
                dropped += 1
                if open_item is not None:
                    # Mismatched END also invalidates the open window.
                    open_item = None
                    dropped += 1
    if open_item is not None:
        dropped += 1
    return windows, dropped


def windows_as_arrays(windows: list[ItemWindow]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column view (starts, ends, item_ids) sorted by start time.

    Validates that windows do not overlap — they cannot, on one core, if
    the marking discipline was followed.
    """
    if not windows:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    starts = np.asarray([w.t_start for w in windows], dtype=np.int64)
    ends = np.asarray([w.t_end for w in windows], dtype=np.int64)
    items = np.asarray([w.item_id for w in windows], dtype=np.int64)
    order = np.argsort(starts, kind="stable")
    starts, ends, items = starts[order], ends[order], items[order]
    if np.any(starts[1:] < ends[:-1]):
        raise TraceError("item windows overlap on one core")
    return starts, ends, items
