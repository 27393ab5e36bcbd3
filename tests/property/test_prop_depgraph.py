"""Property tests: per-item wait totals and hulls equal the per-window scans.

``item_wait_cycles`` sums every window's clipped wait overlap with
binary searches and prefix sums, and ``item_hulls`` spans every item's
windows in one pass.  The loops they replaced — one ``_overlap_slice``
per window, one mask over all windows per item (kept here only) — must
give the same integers on every input the recorder can produce: edges
in time order (overlapping ones included, with ascending ends),
zero-cycle edges, zero-length windows, items split over several
windows, and no windows or no edges at all.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.depgraph import (
    _overlap_slice,
    item_hulls,
    item_wait_cycles,
    window_of_item,
)
from repro.core.records import WindowColumns
from repro.runtime.waitedge import WaitColumns


def reference_item_wait_cycles(w: WaitColumns, windows: WindowColumns):
    if len(windows) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    uniq = np.unique(windows.item_id)
    totals = np.zeros(uniq.shape[0], dtype=np.int64)
    slot = np.searchsorted(uniq, windows.item_id)
    for row in range(len(windows)):
        _idx, clipped = _overlap_slice(
            w, int(windows.t_start[row]), int(windows.t_end[row])
        )
        totals[slot[row]] += int(clipped.sum())
    return uniq.astype(np.int64), totals


def reference_hull(windows: WindowColumns, item_id: int):
    mask = windows.item_id == item_id
    if not np.any(mask):
        return None
    return int(windows.t_start[mask].min()), int(windows.t_end[mask].max())


@st.composite
def wait_columns(draw) -> WaitColumns:
    """Edges with ascending ``ts`` and ascending ``ts + cycles``."""
    n = draw(st.integers(min_value=0, max_value=12))
    ts, cycles = [], []
    t = draw(st.integers(min_value=0, max_value=1_000_000))
    end = t
    for _ in range(n):
        t += draw(st.integers(min_value=0, max_value=60))
        end = max(t + draw(st.integers(min_value=0, max_value=80)), end)
        ts.append(t)
        cycles.append(end - t)
    z = np.zeros(n, dtype=np.int64)
    return WaitColumns(
        ts=np.asarray(ts, dtype=np.int64),
        cycles=np.asarray(cycles, dtype=np.int64),
        kind=z.astype(np.int8),
        queue=z.astype(np.int32),
        blocker_core=z.astype(np.int32),
        blocker_ip=z,
        waiter_ip=z,
        queue_names=("q",),
    )


@st.composite
def window_columns(draw, origin: int) -> WindowColumns:
    """Sequential windows near ``origin``; item ids repeat, lengths may be 0."""
    n = draw(st.integers(min_value=0, max_value=10))
    items, starts, ends = [], [], []
    t = origin + draw(st.integers(min_value=-200, max_value=200))
    for _ in range(n):
        t += draw(st.integers(min_value=0, max_value=50))
        items.append(draw(st.integers(min_value=1, max_value=5)))
        starts.append(t)
        t += draw(st.integers(min_value=0, max_value=150))
        ends.append(t)
    return WindowColumns(
        item_id=np.asarray(items, dtype=np.int64),
        t_start=np.asarray(starts, dtype=np.int64),
        t_end=np.asarray(ends, dtype=np.int64),
    )


@st.composite
def waits_and_windows(draw):
    w = draw(wait_columns())
    origin = int(w.ts[0]) if len(w) else 0
    return w, draw(window_columns(origin))


@settings(max_examples=400, deadline=None)
@given(data=waits_and_windows())
def test_item_wait_cycles_match_per_window_reference(data):
    w, windows = data
    ids, totals = item_wait_cycles(w, windows)
    want_ids, want_totals = reference_item_wait_cycles(w, windows)
    assert ids.dtype == totals.dtype == np.int64
    assert ids.tolist() == want_ids.tolist()
    assert totals.tolist() == want_totals.tolist()


@settings(max_examples=200, deadline=None)
@given(windows=window_columns(0))
def test_hulls_match_per_item_reference(windows):
    items, lo, hi = item_hulls(windows)
    assert items.tolist() == sorted(set(windows.item_id.tolist()))
    for item, a, b in zip(items.tolist(), lo.tolist(), hi.tolist()):
        assert (a, b) == reference_hull(windows, item)
    for item in range(0, 7):
        assert window_of_item(windows, item) == reference_hull(windows, item)


def test_totals_exact_where_prefix_sums_pass_int64():
    """Edges 2**61 cycles apart: prefix sums of their times wrap in
    int64; the totals (a few hundred cycles each) must still be exact."""
    gap = 2**61
    ts = np.asarray([k * gap for k in range(4)], dtype=np.int64)
    z = np.zeros(4, dtype=np.int64)
    w = WaitColumns(
        ts=ts,
        cycles=np.asarray([100, 200, 300, 400], dtype=np.int64),
        kind=z.astype(np.int8),
        queue=z.astype(np.int32),
        blocker_core=z.astype(np.int32),
        blocker_ip=z,
        waiter_ip=z,
        queue_names=("q",),
    )
    windows = WindowColumns(
        item_id=np.asarray([1, 2, 1, 3], dtype=np.int64),
        t_start=ts + 50,
        t_end=ts + 250,
    )
    ids, totals = item_wait_cycles(w, windows)
    want_ids, want_totals = reference_item_wait_cycles(w, windows)
    assert totals.dtype == np.int64
    assert ids.tolist() == want_ids.tolist() == [1, 2, 3]
    assert totals.tolist() == want_totals.tolist() == [50 + 200, 150, 200]
