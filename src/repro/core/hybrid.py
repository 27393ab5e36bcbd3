"""Hybrid integration: PEBS samples × switch records × symbol table.

Paper Section III-D, steps 2 and 3:

2. Each PEBS sample's timestamp is compared with the timestamps recorded
   at data-item switches to find the data-item it belongs to, and its
   instruction pointer is compared with the symbol table to find the
   function it was taken in.
3. The elapsed time of function *f* for data-item *M* is the difference
   between the timestamps of the first and the last sample belonging to
   {f, M}.

The whole integration is vectorised: one ``searchsorted`` maps every
sample to a window, one maps every ip to a symbol, and a lexsort +
``reduceat``-style grouping computes first/last/count per (window,
function) — the per-sample hot path never enters a Python loop.

Under timer-switching an item can occupy several windows; per-window
estimates are summed per (item, function), matching how the paper's
method would treat resumed items.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.integrity import CoverageStats
from repro.core.records import (
    ItemWindow,
    SwitchRecords,
    WindowColumns,
    build_windows,
    item_totals,
    pair_switch_columns_lenient,
    windows_as_arrays,
)
from repro.core.symbols import UNKNOWN, SymbolTable
from repro.errors import IntegrationError
from repro.machine.pebs import SampleArrays
from repro.obs.spans import span
from repro.runtime.actions import SwitchKind


@dataclass(frozen=True)
class Estimate:
    """Estimated elapsed time of one function for one data-item."""

    item_id: int
    fn_name: str
    n_samples: int
    elapsed_cycles: int
    t_first: int
    t_last: int


class _ItemIndex:
    """Per-item facts of one trace, built once in time linear in its size.

    ``window_total`` maps every item that has a window to its summed
    window durations (one stable sort + ``reduceat``, see
    :func:`~repro.core.records.item_totals`).  :meth:`rows` lays the
    estimate rows out by item, in row order, with rows under a
    ``min_samples`` floor dropped; that layout is built once per floor
    asked for.  Every per-item query on :class:`HybridTrace` is then a
    dict lookup plus a slice.
    """

    def __init__(self, trace: "HybridTrace") -> None:
        items, totals = item_totals(trace.window_columns)
        self.window_total: dict[int, int] = dict(zip(items.tolist(), totals.tolist()))
        self._trace_rows = (
            trace.item_ids,
            trace.fn_idx,
            trace.n_samples,
            trace.elapsed,
            trace.symtab.names,
        )
        self._by_floor: dict = {}

    def rows(
        self, min_samples: int
    ) -> tuple[dict[int, tuple[int, int]], list[str], list[int]]:
        """(item -> [lo, hi) span, function name per row, elapsed per row)."""
        got = self._by_floor.get(min_samples)
        if got is None:
            item_ids, fn_idx, n_samples, elapsed, names = self._trace_rows
            kept = np.flatnonzero(n_samples >= min_samples)
            order = kept[np.argsort(item_ids[kept], kind="stable")]
            uniq, start = np.unique(item_ids[order], return_index=True)
            end = np.append(start[1:], order.shape[0])
            got = (
                dict(zip(uniq.tolist(), zip(start.tolist(), end.tolist()))),
                [names[f] for f in fn_idx[order].tolist()],
                elapsed[order].tolist(),
            )
            self._by_floor[min_samples] = got
        return got


class HybridTrace:
    """Result of the integration: per-(item, function) estimates.

    ``estimable`` (Section V-B1): a (item, function) pair needs at least
    two samples for an elapsed-time estimate; pairs seen once are kept
    with ``elapsed_cycles == 0`` and can be filtered via ``min_samples``
    arguments on the query methods.

    ``windows`` may be handed in as ``list[ItemWindow]`` or as
    :class:`~repro.core.records.WindowColumns`; the other form is built
    once, on first access, and held — ingestion pipelines that only
    consume whole columns never pay for one Python object per window.

    Per-item queries (:meth:`breakdown`, :meth:`item_window_cycles`,
    :meth:`unattributed_cycles`) read one per-item index built lazily on
    the first of them, so asking for every item costs time linear in the
    trace, not quadratic.  The trace's arrays are treated as immutable.
    """

    def __init__(
        self,
        *,
        symtab: SymbolTable,
        windows: list[ItemWindow] | WindowColumns,
        item_ids: np.ndarray,
        fn_idx: np.ndarray,
        n_samples: np.ndarray,
        elapsed: np.ndarray,
        t_first: np.ndarray,
        t_last: np.ndarray,
        total_samples: int,
        unmapped_samples: int,
        unknown_ip_samples: int,
    ) -> None:
        self.symtab = symtab
        columnar = isinstance(windows, WindowColumns)
        self._window_cols: WindowColumns | None = windows if columnar else None
        self._window_list: list[ItemWindow] | None = None if columnar else windows
        self.item_ids = item_ids
        self.fn_idx = fn_idx
        self.n_samples = n_samples
        self.elapsed = elapsed
        self.t_first = t_first
        self.t_last = t_last
        self.total_samples = total_samples
        self.unmapped_samples = unmapped_samples
        self.unknown_ip_samples = unknown_ip_samples
        self._by_key_cache: dict[tuple[int, int], int] | None = None
        self._index_cache: _ItemIndex | None = None

    @property
    def windows(self) -> list[ItemWindow]:
        if self._window_list is None:
            self._window_list = self._window_cols.to_windows()
        return self._window_list

    @property
    def window_columns(self) -> WindowColumns:
        """Windows as columns, whichever representation was handed in."""
        if self._window_cols is None:
            self._window_cols = WindowColumns.from_windows(self._window_list)
        return self._window_cols

    @property
    def _by_key(self) -> dict[tuple[int, int], int]:
        # Built lazily on the first point query: ingestion pipelines create
        # (and merge, and pickle) many traces whose rows are only ever
        # consumed as whole columns.
        if self._by_key_cache is None:
            self._by_key_cache = {
                key: row
                for row, key in enumerate(
                    zip(self.item_ids.tolist(), self.fn_idx.tolist())
                )
            }
        return self._by_key_cache

    @property
    def _index(self) -> _ItemIndex:
        if self._index_cache is None:
            self._index_cache = _ItemIndex(self)
        return self._index_cache

    # Pickle windows as columns, so a trace saved or shipped to another
    # process costs array-speed instead of one dataclass per window.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_by_key_cache"] = None
        state["_index_cache"] = None
        state["_window_cols"] = self.window_columns
        state["_window_list"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # -- queries ---------------------------------------------------------
    def items(self) -> list[int]:
        """Distinct item ids with at least one mapped sample, ascending."""
        return sorted(set(int(i) for i in self.item_ids))

    def functions(self) -> list[str]:
        """Function names observed in the trace, in symbol order."""
        idx = sorted(set(int(i) for i in self.fn_idx))
        return [self.symtab.names[i] for i in idx]

    def estimate(self, item_id: int, fn_name: str) -> Estimate | None:
        """The estimate for one (item, function), or None if unsampled."""
        fi = self.symtab.index_of(fn_name)
        row = self._by_key.get((item_id, fi))
        if row is None:
            return None
        return Estimate(
            item_id=item_id,
            fn_name=fn_name,
            n_samples=int(self.n_samples[row]),
            elapsed_cycles=int(self.elapsed[row]),
            t_first=int(self.t_first[row]),
            t_last=int(self.t_last[row]),
        )

    def elapsed_cycles(self, item_id: int, fn_name: str, min_samples: int = 2) -> int:
        """Elapsed cycles of a function for an item (0 when not estimable)."""
        est = self.estimate(item_id, fn_name)
        if est is None or est.n_samples < min_samples:
            return 0
        return est.elapsed_cycles

    def breakdown(self, item_id: int, min_samples: int = 2) -> dict[str, int]:
        """Per-function elapsed cycles for one item (Fig 8's stacked bars).

        Functions come in row order; rows with fewer than ``min_samples``
        samples are left out.
        """
        spans, names, elapsed = self._index.rows(min_samples)
        span = spans.get(item_id)
        if span is None:
            return {}
        lo, hi = span
        return dict(zip(names[lo:hi], elapsed[lo:hi]))

    def unattributed_cycles(self, item_id: int, min_samples: int = 2) -> int:
        """Window time no function estimate covers (clamped at zero).

        Off-CPU and stall-dominated stretches (a synchronous page read, a
        lock wait) retire almost no micro-ops, so a retirement-event PEBS
        counter takes (almost) no samples there: the time is real — it is
        inside the item's instrumented window — but no function claims
        it.  A large unattributed share is therefore the *signature of
        stalls* under this method; the paper's Section V-D event-swapping
        can then identify the stall source.
        """
        gap = self.item_window_cycles(item_id) - sum(
            self.breakdown(item_id, min_samples=min_samples).values()
        )
        return max(0, gap)

    def item_window_cycles(self, item_id: int) -> int:
        """Instrumented ground-truth residency of the item (window length)."""
        total = self._index.window_total.get(item_id)
        if total is None:
            raise IntegrationError(f"no window recorded for item {item_id}")
        return total

    def rows(self, min_samples: int = 2) -> list[Estimate]:
        """All estimates as a flat list, ordered by (item, function)."""
        out: list[Estimate] = []
        order = np.lexsort((self.fn_idx, self.item_ids))
        for row in order:
            if int(self.n_samples[row]) < min_samples:
                continue
            out.append(
                Estimate(
                    item_id=int(self.item_ids[row]),
                    fn_name=self.symtab.names[int(self.fn_idx[row])],
                    n_samples=int(self.n_samples[row]),
                    elapsed_cycles=int(self.elapsed[row]),
                    t_first=int(self.t_first[row]),
                    t_last=int(self.t_last[row]),
                )
            )
        return out

    @property
    def mapped_fraction(self) -> float:
        """Fraction of samples that landed in a window with a known symbol."""
        if self.total_samples == 0:
            return 0.0
        mapped = self.total_samples - self.unmapped_samples - self.unknown_ip_samples
        return mapped / self.total_samples


def _group_min_max_count(
    keys: np.ndarray, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For sorted-by-key ``keys`` return (uniq, count, t_min, t_max).

    ``ts`` must be time-ordered within equal keys (guaranteed by a stable
    sort of time-sorted samples).
    """
    uniq, start = np.unique(keys, return_index=True)
    counts = np.diff(np.append(start, keys.shape[0]))
    t_min = ts[start]
    t_max = ts[start + counts - 1]
    return uniq, counts, t_min, t_max


def finalize_window_groups(
    symtab: SymbolTable,
    windows: list[ItemWindow] | WindowColumns,
    win_items: np.ndarray,
    keys: np.ndarray,
    counts: np.ndarray,
    t_min: np.ndarray,
    t_max: np.ndarray,
    *,
    total_samples: int,
    unmapped_samples: int,
    unknown_ip_samples: int,
) -> HybridTrace:
    """Turn per-(window, function) groups into the final per-item trace.

    ``keys`` are unique, ascending ``window_index * len(symtab) + fn_index``
    group keys with their sample ``counts`` and first/last timestamps.
    This is the single construction point shared by one-shot
    :func:`integrate` and the chunked path in :mod:`repro.core.streaming`,
    which is what makes streaming results bitwise-identical to one-shot.
    """
    nfn = len(symtab)
    if keys.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return HybridTrace(
            symtab=symtab,
            windows=windows,
            item_ids=empty,
            fn_idx=empty.copy(),
            n_samples=empty.copy(),
            elapsed=empty.copy(),
            t_first=empty.copy(),
            t_last=empty.copy(),
            total_samples=total_samples,
            unmapped_samples=unmapped_samples,
            unknown_ip_samples=unknown_ip_samples,
        )
    win_of = (keys // nfn).astype(np.int64)
    fn_of = (keys % nfn).astype(np.int64)
    item_of = win_items[win_of]
    per_win_elapsed = t_max - t_min

    # Aggregate windows of the same item (timer-switching): sum elapsed,
    # sum counts, min/max the boundary timestamps.
    combined2 = item_of * nfn + fn_of
    order2 = np.argsort(combined2, kind="stable")
    uniq2, start2 = np.unique(combined2[order2], return_index=True)
    item_ids = (uniq2 // nfn).astype(np.int64)
    fn_rows = (uniq2 % nfn).astype(np.int64)
    agg_counts = np.add.reduceat(counts[order2], start2)
    agg_elapsed = np.add.reduceat(per_win_elapsed[order2], start2)
    agg_first = np.minimum.reduceat(t_min[order2], start2)
    agg_last = np.maximum.reduceat(t_max[order2], start2)

    return HybridTrace(
        symtab=symtab,
        windows=windows,
        item_ids=item_ids,
        fn_idx=fn_rows,
        n_samples=agg_counts,
        elapsed=agg_elapsed,
        t_first=agg_first,
        t_last=agg_last,
        total_samples=total_samples,
        unmapped_samples=unmapped_samples,
        unknown_ip_samples=unknown_ip_samples,
    )


def traces_equal(a: HybridTrace, b: HybridTrace) -> bool:
    """Bitwise equality of two traces (arrays, windows, and counters)."""
    return (
        a.symtab.names == b.symtab.names
        and a.windows == b.windows
        and np.array_equal(a.item_ids, b.item_ids)
        and np.array_equal(a.fn_idx, b.fn_idx)
        and np.array_equal(a.n_samples, b.n_samples)
        and np.array_equal(a.elapsed, b.elapsed)
        and np.array_equal(a.t_first, b.t_first)
        and np.array_equal(a.t_last, b.t_last)
        and a.total_samples == b.total_samples
        and a.unmapped_samples == b.unmapped_samples
        and a.unknown_ip_samples == b.unknown_ip_samples
    )


def merge_traces(traces: list[HybridTrace]) -> HybridTrace:
    """Combine per-core traces into one (multi-worker applications).

    Items processed on different cores are simply concatenated; if the
    same (item, function) pair appears on several cores (an item migrated
    between residencies), counts and elapsed times are summed like
    multiple windows of one item.
    """
    if not traces:
        raise IntegrationError("need at least one trace to merge")
    symtab = traces[0].symtab
    for t in traces[1:]:
        if t.symtab is not symtab and t.symtab.names != symtab.names:
            raise IntegrationError("traces to merge must share a symbol table")
    nfn = len(symtab)
    item_ids = np.concatenate([t.item_ids for t in traces])
    fn_idx = np.concatenate([t.fn_idx for t in traces])
    n_samples = np.concatenate([t.n_samples for t in traces])
    elapsed = np.concatenate([t.elapsed for t in traces])
    t_first = np.concatenate([t.t_first for t in traces])
    t_last = np.concatenate([t.t_last for t in traces])

    combined = item_ids * nfn + fn_idx
    order = np.argsort(combined, kind="stable")
    uniq, start = np.unique(combined[order], return_index=True)
    out_items = (uniq // nfn).astype(np.int64)
    out_fns = (uniq % nfn).astype(np.int64)
    if uniq.shape[0]:
        out_counts = np.add.reduceat(n_samples[order], start)
        out_elapsed = np.add.reduceat(elapsed[order], start)
        out_first = np.minimum.reduceat(t_first[order], start)
        out_last = np.maximum.reduceat(t_last[order], start)
    else:  # all-empty shards (e.g. cores that took no mapped samples)
        out_counts = np.empty(0, dtype=np.int64)
        out_elapsed = np.empty(0, dtype=np.int64)
        out_first = np.empty(0, dtype=np.int64)
        out_last = np.empty(0, dtype=np.int64)

    merged_cols = [t.window_columns for t in traces]
    return HybridTrace(
        symtab=symtab,
        windows=WindowColumns(
            item_id=np.concatenate([c.item_id for c in merged_cols]),
            t_start=np.concatenate([c.t_start for c in merged_cols]),
            t_end=np.concatenate([c.t_end for c in merged_cols]),
        ),
        item_ids=out_items,
        fn_idx=out_fns,
        n_samples=out_counts,
        elapsed=out_elapsed,
        t_first=out_first,
        t_last=out_last,
        total_samples=sum(t.total_samples for t in traces),
        unmapped_samples=sum(t.unmapped_samples for t in traces),
        unknown_ip_samples=sum(t.unknown_ip_samples for t in traces),
    )


def integrate(
    samples: SampleArrays,
    switches: SwitchRecords,
    symtab: SymbolTable,
) -> HybridTrace:
    """Merge one core's PEBS samples and switch records into a trace.

    Samples whose timestamp falls outside every item window (busy-poll
    spinning, scheduler code) are counted in ``unmapped_samples``; samples
    inside a window whose ip resolves to no symbol are counted in
    ``unknown_ip_samples``.

    Window boundaries are inclusive on both ends; when two windows share a
    boundary instant (item N's END and item N+1's START logged at the same
    timestamp) a sample exactly there is assigned to the **later** window —
    at that instant the marking function has already recorded the new
    item's start.
    """
    with span("integrate.core", core=switches.core_id, samples=int(samples.ts.shape[0])):
        windows = build_windows(switches)
        ts = samples.ts
        if ts.shape[0] and np.any(np.diff(ts) < 0):
            raise IntegrationError("sample timestamps must be sorted")
        return _integrate_columns(samples, windows, symtab)


def _integrate_columns(
    samples: SampleArrays,
    windows: list[ItemWindow] | WindowColumns,
    symtab: SymbolTable,
) -> HybridTrace:
    """Steps 2–3 of the integration over already-built, sorted inputs.

    Shared by strict :func:`integrate` (which validates first) and
    :func:`integrate_degraded` (which repairs first); the sample
    timestamps must already be non-decreasing and the windows
    non-overlapping.
    """
    if isinstance(windows, WindowColumns):
        starts, ends, win_items = windows.as_sorted_arrays()
    else:
        starts, ends, win_items = windows_as_arrays(windows)
    ts = samples.ts
    n = int(ts.shape[0])
    nfn = len(symtab)
    if n == 0 or starts.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return finalize_window_groups(
            symtab,
            windows,
            win_items,
            empty,
            empty.copy(),
            empty.copy(),
            empty.copy(),
            total_samples=n,
            unmapped_samples=n,
            unknown_ip_samples=0,
        )
    # Step 2a: sample timestamp -> window (t_start <= ts <= t_end).
    widx = np.searchsorted(starts, ts, side="right") - 1
    in_window = (widx >= 0) & (ts <= ends[np.clip(widx, 0, None)])
    # Step 2b: sample ip -> function.
    fidx = symtab.lookup_many(samples.ip)
    known = fidx != UNKNOWN
    valid = in_window & known
    unmapped = int(np.count_nonzero(~in_window))
    unknown_ip = int(np.count_nonzero(in_window & ~known))

    wv = widx[valid]
    fv = fidx[valid]
    tv = ts[valid]
    # Step 3 per (window, function): first/last sample timestamps.
    combined = wv * nfn + fv
    order = np.argsort(combined, kind="stable")
    uniq, counts, t_min, t_max = _group_min_max_count(combined[order], tv[order])
    return finalize_window_groups(
        symtab,
        windows,
        win_items,
        uniq,
        counts,
        t_min,
        t_max,
        total_samples=n,
        unmapped_samples=unmapped,
        unknown_ip_samples=unknown_ip,
    )


def integrate_degraded(
    samples: SampleArrays,
    switches: SwitchRecords,
    symtab: SymbolTable,
) -> tuple[HybridTrace, CoverageStats]:
    """One-shot integration of possibly-damaged inputs, with coverage.

    Where :func:`integrate` raises on the failure modes a real deployment
    produces — clock skew leaving sample timestamps out of order, switch
    marks dropped by a log-buffer overrun — this variant repairs what it
    can and accounts for what it cannot:

    * out-of-order sample timestamps are stably sorted (clock skew
      reorders observations but loses none, so no samples are dropped);
    * the switch log goes through best-effort pairing
      (:func:`~repro.core.records.pair_switch_columns_lenient`): every
      window used is a genuinely paired START/END, dropped marks are
      counted, and the items involved land in
      :attr:`~repro.core.integrity.CoverageStats.degraded_items`.

    Returns the trace together with the :class:`CoverageStats` that a
    degraded report must carry.
    """
    coverage = CoverageStats(core=switches.core_id)
    kind_codes = np.asarray(
        [0 if k is SwitchKind.ITEM_START else 1 for k in switches.kinds],
        dtype=np.int8,
    )
    lw = pair_switch_columns_lenient(
        switches.core_id, switches.ts, switches.item, kind_codes
    )
    coverage.switch_marks = lw.total_marks
    coverage.switch_marks_dropped = lw.dropped_marks
    if lw.dropped_marks:
        coverage.mark_degraded(lw.affected_items)
    ts = samples.ts
    if ts.shape[0] and np.any(np.diff(ts) < 0):
        order = np.argsort(ts, kind="stable")
        samples = SampleArrays(
            ts=ts[order], ip=samples.ip[order], tag=samples.tag[order]
        )
        coverage.chunks_repaired += 1
    coverage.samples_kept = int(samples.ts.shape[0])
    return _integrate_columns(samples, lw.windows, symtab), coverage
