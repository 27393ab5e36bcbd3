"""Property tests: the per-item index answers what the old scans answered.

``HybridTrace.breakdown``, ``item_window_cycles`` and
``unattributed_cycles`` read one per-item index built once per trace.
The per-item scans they replaced (a mask over every row, a walk over
every window — kept here only) must agree with them on every item, at
every ``min_samples`` floor, down to dict insertion order and the
error for an item with no window.  Generated traces mix items split
over several windows (timer switching), items with windows but no
sample, and zero-length windows.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hybrid import HybridTrace, integrate, traces_equal
from repro.core.records import SwitchRecords
from repro.core.symbols import SymbolTable
from repro.errors import IntegrationError
from repro.machine.pebs import SampleArrays
from repro.runtime.actions import SwitchKind

SYMTAB = SymbolTable.from_ranges(
    {"f0": (0, 100), "f1": (100, 200), "f2": (200, 300), "f3": (300, 400)}
)
FLOORS = (0, 2, 3)


def reference_breakdown(t: HybridTrace, item_id: int, min_samples: int) -> dict:
    out: dict[str, int] = {}
    for row in np.nonzero(t.item_ids == item_id)[0]:
        if int(t.n_samples[row]) < min_samples:
            continue
        out[t.symtab.names[int(t.fn_idx[row])]] = int(t.elapsed[row])
    return out


def reference_window_cycles(t: HybridTrace, item_id: int) -> int:
    total = sum(w.duration for w in t.windows if w.item_id == item_id)
    if total == 0 and all(w.item_id != item_id for w in t.windows):
        raise IntegrationError(f"no window recorded for item {item_id}")
    return total


def reference_unattributed(t: HybridTrace, item_id: int, min_samples: int) -> int:
    gap = reference_window_cycles(t, item_id) - sum(
        reference_breakdown(t, item_id, min_samples).values()
    )
    return max(0, gap)


@st.composite
def traces(draw) -> HybridTrace:
    """One core's trace: sequential windows whose item ids may repeat."""
    n_items = draw(st.integers(min_value=0, max_value=6))
    n_windows = draw(st.integers(min_value=0, max_value=12)) if n_items else 0
    records = SwitchRecords(0)
    t = 0
    for _ in range(n_windows):
        item = draw(st.integers(min_value=1, max_value=n_items))
        start = t + draw(st.integers(min_value=0, max_value=40))
        t = start + draw(st.integers(min_value=0, max_value=300))
        records.append(start, item, SwitchKind.ITEM_START)
        records.append(t, item, SwitchKind.ITEM_END)
    n = draw(st.integers(min_value=0, max_value=80))
    ts = sorted(draw(st.lists(st.integers(0, t + 50), min_size=n, max_size=n)))
    ips = draw(st.lists(st.integers(0, 450), min_size=n, max_size=n))
    samples = SampleArrays(
        ts=np.asarray(ts, dtype=np.int64),
        ip=np.asarray(ips, dtype=np.int64),
        tag=np.full(n, -1, dtype=np.int64),
    )
    return integrate(samples, records, SYMTAB)


def column_twin(t: HybridTrace) -> HybridTrace:
    """The same trace, built from window columns instead of a list."""
    return HybridTrace(
        symtab=t.symtab,
        windows=t.window_columns,
        item_ids=t.item_ids,
        fn_idx=t.fn_idx,
        n_samples=t.n_samples,
        elapsed=t.elapsed,
        t_first=t.t_first,
        t_last=t.t_last,
        total_samples=t.total_samples,
        unmapped_samples=t.unmapped_samples,
        unknown_ip_samples=t.unknown_ip_samples,
    )


@settings(max_examples=300, deadline=None)
@given(t=traces())
def test_per_item_queries_match_reference(t):
    twin = column_twin(t)
    windowed = {w.item_id for w in t.windows}
    absent = max(windowed | set(t.items()) | {0}) + 1
    for got in (t, twin):
        for item in sorted(windowed | set(t.items()) | {absent}):
            for floor in FLOORS:
                want = reference_breakdown(t, item, floor)
                bd = got.breakdown(item, min_samples=floor)
                assert list(bd.items()) == list(want.items())
            if item not in windowed:
                with pytest.raises(IntegrationError, match=f"item {item}"):
                    got.item_window_cycles(item)
                with pytest.raises(IntegrationError, match=f"item {item}"):
                    got.unattributed_cycles(item)
                continue
            assert got.item_window_cycles(item) == reference_window_cycles(t, item)
            for floor in FLOORS:
                assert got.unattributed_cycles(
                    item, min_samples=floor
                ) == reference_unattributed(t, item, floor)


@settings(max_examples=100, deadline=None)
@given(t=traces())
def test_index_survives_pickle(t):
    for item in t.items():
        t.breakdown(item)
    back = pickle.loads(pickle.dumps(t))
    assert traces_equal(back, t)
    for item in t.items():
        for floor in FLOORS:
            assert back.breakdown(item, min_samples=floor) == t.breakdown(
                item, min_samples=floor
            )
        assert back.item_window_cycles(item) == t.item_window_cycles(item)
