"""The verdict path does linear work: counted, not timed.

``diagnose_trace``, ``diff_traces``, ``item_wait_cycles`` and the
``blocked_by`` attachment run over synthetic column-built traces of
1,500 and 6,000 items whose arrays count every whole-array numpy pass
made over them (ufuncs, reductions, sorts, ``np.unique``, ...; binary
searches are O(log n) and do not count).  A per-item scan — a mask over
every row or window, recomputed edge ends — adds one pass per item, so
the pass count would grow with the trace.  It must not: both sizes make
exactly the same number of passes.  Python-level work is counted as
function calls: work linear in items, plus any fixed overhead, makes at
most 4x the calls for 4x the items, and a loop over a group's members
per outlier makes more.  On top of that, each trace builds its per-item
index at most once, and no one materialises the per-window object list
(``WindowColumns.to_windows`` raises).
"""

from __future__ import annotations

import collections
import sys

import numpy as np
import pytest

import repro.api as api
from repro.analysis import depgraph
from repro.analysis.diagnose import diagnose_trace
from repro.analysis.differential import diff_traces
from repro.core import hybrid
from repro.core.hybrid import HybridTrace
from repro.core.records import WindowColumns
from repro.core.symbols import SymbolTable
from repro.runtime.waitedge import WAIT_LOCK, WaitColumns

SIZES = (1_500, 6_000)
#: Binary searches touch O(log n) elements; they are not passes.
SUBLINEAR = {np.searchsorted}
SYMTAB = SymbolTable.from_ranges(
    {"parse": (0, 100), "lookup": (100, 200), "slow_path": (200, 300)}
)


class PassMeter:
    """Counts numpy calls that take a whole counted array as input."""

    active: "PassMeter | None" = None

    def __init__(self, full: int) -> None:
        self.full = full
        self.by_call: collections.Counter = collections.Counter()

    @property
    def passes(self) -> int:
        return sum(self.by_call.values())

    def note(self, name: str, operands) -> None:
        if any(isinstance(a, Counted) and a.size >= self.full for a in _flat(operands)):
            self.by_call[name] += 1


def _flat(obj):
    if isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _flat(x)
    elif isinstance(obj, dict):
        yield from _flat(list(obj.values()))
    else:
        yield obj


def _plain(obj):
    if isinstance(obj, Counted):
        return obj.view(np.ndarray)
    if isinstance(obj, (list, tuple)):
        return type(obj)(_plain(x) for x in obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    return obj


def _counted(obj):
    meter = PassMeter.active
    if isinstance(obj, np.ndarray) and meter is not None and obj.size >= meter.full:
        return obj.view(Counted)
    if isinstance(obj, tuple):
        return tuple(_counted(x) for x in obj)
    return obj


class Counted(np.ndarray):
    """An array whose whole-array numpy passes the active meter counts;
    full-size results stay counted, so derived arrays count too."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if PassMeter.active is not None:
            PassMeter.active.note(f"{ufunc.__name__}.{method}", inputs)
        result = getattr(ufunc, method)(*_plain(inputs), **_plain(kwargs))
        return _counted(result)

    def __array_function__(self, func, types, args, kwargs):
        if PassMeter.active is not None and func not in SUBLINEAR:
            PassMeter.active.note(func.__name__, (args, kwargs))
        return _counted(func(*_plain(args), **_plain(kwargs)))


def _c(values) -> Counted:
    return np.asarray(values, dtype=np.int64).view(Counted)


def synthetic(
    n: int, slow: int, regress: int
) -> tuple[HybridTrace, WaitColumns, WaitColumns]:
    """``n`` items in three groups; every 50th is an outlier whose excess
    (``slow`` cycles) sits in ``slow_path``, and every item spends
    ``regress`` more cycles there; every 4th is split over two windows;
    every 3rd waits on a lock held by core 1, which itself waits."""
    items = np.arange(1, n + 1, dtype=np.int64)
    dur = 1_000 + regress + (items * 37) % 50 + np.where(items % 50 == 0, slow, 0)
    start = items * 10_000
    split = items[items % 4 == 0]
    win_item = np.concatenate((items, split))
    win_start = np.concatenate((start, start[split - 1] + 5_000))
    win_end = np.concatenate((start + dur, start[split - 1] + 5_100))
    fn_of = np.tile(np.arange(3, dtype=np.int64), n)
    row_item = np.repeat(items, 3)
    elapsed = np.where(
        fn_of == 2, 100 + regress + np.where(row_item % 50 == 0, slow, 0), 200
    )
    n_samples = np.where((row_item % 7 == 0) & (fn_of == 0), 1, 3)
    trace = HybridTrace(
        symtab=SYMTAB,
        windows=WindowColumns(item_id=_c(win_item), t_start=_c(win_start), t_end=_c(win_end)),
        item_ids=_c(row_item),
        fn_idx=_c(fn_of),
        n_samples=_c(n_samples),
        elapsed=_c(elapsed),
        t_first=_c(np.repeat(start, 3)),
        t_last=_c(np.repeat(start, 3) + elapsed),
        total_samples=int(n_samples.sum()),
        unmapped_samples=0,
        unknown_ip_samples=0,
    )
    waiters = items[items % 3 == 0]

    def waits(ts, blocker_core):
        k = ts.shape[0]
        return WaitColumns(
            ts=_c(ts),
            cycles=_c(np.full(k, 300)),
            kind=np.full(k, WAIT_LOCK, dtype=np.int8).view(Counted),
            queue=np.zeros(k, dtype=np.int32).view(Counted),
            blocker_core=np.full(k, blocker_core, dtype=np.int32).view(Counted),
            blocker_ip=_c(np.full(k, 150)),
            waiter_ip=_c(np.full(k, 50)),
            queue_names=("lock:shared",),
        )

    return trace, waits(start[waiters - 1] + 100, 1), waits(start[waiters - 1] + 50, -1)


@pytest.fixture
def builds(monkeypatch):
    """Every per-item index built, and every hull pass, by trace."""
    built: list = []

    class CountingIndex(hybrid._ItemIndex):
        def __init__(self, trace):
            built.append(("index", id(trace)))
            super().__init__(trace)

    real_hulls = depgraph.item_hulls

    def counting_hulls(windows):
        built.append(("hulls", id(windows)))
        return real_hulls(windows)

    def no_windows(self):
        raise AssertionError("the verdict path materialised trace.windows")

    monkeypatch.setattr(hybrid, "_ItemIndex", CountingIndex)
    monkeypatch.setattr(depgraph, "item_hulls", counting_hulls)
    monkeypatch.setattr(WindowColumns, "to_windows", no_windows)
    return built


def verdict_path(n: int, built: list) -> tuple[PassMeter, int]:
    """Run the verdict path over ``n`` items: (numpy passes, Python calls)."""
    base, base_w0, _ = synthetic(n, slow=0, regress=0)
    other, w0, w1 = synthetic(n, slow=6_000, regress=400)
    # Per-item slices hold a few elements; every population here (rows,
    # windows, edges, a group's items) holds at least n / 10.
    meter = PassMeter(full=n // 10)
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    PassMeter.active = meter
    previous = sys.getprofile()
    sys.setprofile(count_calls)
    try:
        report = diagnose_trace(other, lambda i: i % 3, reset_value=500)
        assert len(report.verdicts) == n
        assert {v.item_id for v in report.outliers} == set(range(50, n + 1, 50))
        assert all(v.culprit == "slow_path" for v in report.outliers)
        report = api._attach_blocked_by(report, other, {0: w0, 1: w1}, 0)
        chained = [v for v in report.verdicts if v.blocked_by]
        assert [v.item_id for v in chained] == list(range(3, n + 1, 3))
        assert all(len(v.blocked_by) == 2 for v in chained)
        _ids, base_waits = depgraph.item_wait_cycles(base_w0, base.window_columns)
        _ids, other_waits = depgraph.item_wait_cycles(w0, other.window_columns)
        delta = diff_traces(
            base,
            other,
            base_item_waits=base_waits,
            other_item_waits=other_waits,
        )
        assert delta.top is not None and delta.top.fn_name == "slow_path"
    finally:
        sys.setprofile(previous)
        PassMeter.active = None
    assert built.count(("index", id(other))) == 1
    assert built.count(("hulls", id(other.window_columns))) == 1
    assert len(built) == len(set(built)), "a per-trace index was built twice"
    return meter, calls


def test_verdict_passes_do_not_grow_with_items(builds):
    runs = {}
    for n in SIZES:
        builds.clear()
        runs[n] = verdict_path(n, builds)
    (small, small_calls), (large, large_calls) = (runs[n] for n in SIZES)
    assert large.passes > 0
    assert large.by_call == small.by_call
    assert large_calls <= SIZES[1] // SIZES[0] * small_calls
