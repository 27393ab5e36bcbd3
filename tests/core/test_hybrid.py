"""Tests for the hybrid integration (the paper's Section III-D steps 2-3)."""

import pickle

import numpy as np
import pytest

from repro.core.hybrid import HybridTrace, integrate, traces_equal
from repro.core.records import SwitchRecords
from repro.core.symbols import SymbolTable
from repro.errors import IntegrationError
from repro.machine.pebs import SampleArrays
from repro.runtime.actions import SwitchKind

S, E = SwitchKind.ITEM_START, SwitchKind.ITEM_END


def make_samples(entries) -> SampleArrays:
    """entries: list of (ts, ip) or (ts, ip, tag)."""
    ts = np.asarray([e[0] for e in entries], dtype=np.int64)
    ip = np.asarray([e[1] for e in entries], dtype=np.int64)
    tag = np.asarray([e[2] if len(e) > 2 else -1 for e in entries], dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    return SampleArrays(ts=ts[order], ip=ip[order], tag=tag[order])


def make_switches(events) -> SwitchRecords:
    r = SwitchRecords(core_id=0)
    for ts, item, kind in events:
        r.append(ts, item, kind)
    return r


SYMTAB = SymbolTable.from_ranges({"f": (100, 200), "g": (200, 300)})


class TestPaperExample:
    def test_figure6_mapping(self):
        """Recreates Fig 6: sample t_a in (t_0, t_1) belongs to item 0 etc."""
        switches = make_switches([(0, 0, S), (100, 0, E), (100, 1, S), (250, 1, E)])
        samples = make_samples([(10, 150), (60, 150), (120, 250), (200, 250)])
        trace = integrate(samples, switches, SYMTAB)
        assert trace.elapsed_cycles(0, "f") == 50  # 60 - 10
        assert trace.elapsed_cycles(1, "g") == 80  # 200 - 120

    def test_step3_first_last_difference(self):
        switches = make_switches([(0, 7, S), (1000, 7, E)])
        samples = make_samples([(100, 110), (400, 110), (900, 110)])
        trace = integrate(samples, switches, SYMTAB)
        est = trace.estimate(7, "f")
        assert est.n_samples == 3
        assert est.elapsed_cycles == 800
        assert (est.t_first, est.t_last) == (100, 900)


class TestMappingRules:
    def test_sample_outside_windows_unmapped(self):
        switches = make_switches([(100, 1, S), (200, 1, E)])
        samples = make_samples([(50, 150), (150, 150), (250, 150)])
        trace = integrate(samples, switches, SYMTAB)
        assert trace.unmapped_samples == 2
        assert trace.estimate(1, "f").n_samples == 1

    def test_sample_with_unknown_ip(self):
        switches = make_switches([(0, 1, S), (100, 1, E)])
        samples = make_samples([(10, 999), (20, 150)])
        trace = integrate(samples, switches, SYMTAB)
        assert trace.unknown_ip_samples == 1

    def test_window_boundaries_inclusive(self):
        switches = make_switches([(100, 1, S), (200, 1, E)])
        samples = make_samples([(100, 150), (200, 150)])
        trace = integrate(samples, switches, SYMTAB)
        assert trace.estimate(1, "f").n_samples == 2

    def test_single_sample_not_estimable(self):
        # Section V-B1: one sample -> no elapsed-time estimate.
        switches = make_switches([(0, 1, S), (100, 1, E)])
        samples = make_samples([(50, 150)])
        trace = integrate(samples, switches, SYMTAB)
        assert trace.elapsed_cycles(1, "f") == 0  # filtered at min_samples=2
        assert trace.estimate(1, "f").elapsed_cycles == 0

    def test_two_functions_in_one_item(self):
        switches = make_switches([(0, 1, S), (1000, 1, E)])
        samples = make_samples([(10, 150), (200, 150), (300, 250), (700, 250)])
        trace = integrate(samples, switches, SYMTAB)
        bd = trace.breakdown(1)
        assert bd == {"f": 190, "g": 400}

    def test_multi_window_aggregation(self):
        # Timer-switching: item 1 in two windows; elapsed sums per window,
        # excluding the time item 2 ran in between.
        switches = make_switches(
            [(0, 1, S), (100, 1, E), (100, 2, S), (200, 2, E), (200, 1, S), (300, 1, E)]
        )
        samples = make_samples(
            [(10, 150), (90, 150), (210, 150), (290, 150), (110, 150), (190, 150)]
        )
        trace = integrate(samples, switches, SYMTAB)
        assert trace.elapsed_cycles(1, "f") == 80 + 80
        assert trace.elapsed_cycles(2, "f") == 80
        assert trace.item_window_cycles(1) == 200

    def test_interleaved_function_overestimates(self):
        """Known limitation (Section V-B2): f's estimate spans a g call
        sandwiched between f samples."""
        switches = make_switches([(0, 1, S), (1000, 1, E)])
        samples = make_samples([(100, 150), (500, 250), (900, 150)])
        trace = integrate(samples, switches, SYMTAB)
        assert trace.elapsed_cycles(1, "f") == 800  # includes g's time


class TestQueries:
    def trace(self) -> HybridTrace:
        switches = make_switches([(0, 1, S), (500, 1, E), (500, 2, S), (900, 2, E)])
        samples = make_samples(
            [(10, 150), (100, 150), (600, 250), (700, 250), (800, 250)]
        )
        return integrate(samples, switches, SYMTAB)

    def test_items(self):
        assert self.trace().items() == [1, 2]

    def test_functions(self):
        assert self.trace().functions() == ["f", "g"]

    def test_estimate_missing_pair(self):
        assert self.trace().estimate(1, "g") is None

    def test_estimate_unknown_fn_raises(self):
        from repro.errors import SymbolError

        with pytest.raises(SymbolError):
            self.trace().estimate(1, "nope")

    def test_rows_ordering_and_filtering(self):
        rows = self.trace().rows(min_samples=2)
        assert [(r.item_id, r.fn_name) for r in rows] == [(1, "f"), (2, "g")]
        rows1 = self.trace().rows(min_samples=1)
        assert len(rows1) == 2

    def test_item_window_cycles_unknown_item(self):
        with pytest.raises(IntegrationError):
            self.trace().item_window_cycles(42)

    def test_mapped_fraction(self):
        t = self.trace()
        assert t.mapped_fraction == 1.0

    def test_breakdown_min_samples_filter(self):
        switches = make_switches([(0, 1, S), (500, 1, E)])
        samples = make_samples([(10, 150), (100, 150), (300, 250)])
        t = integrate(samples, switches, SYMTAB)
        assert t.breakdown(1, min_samples=2) == {"f": 90}
        assert t.breakdown(1, min_samples=1) == {"f": 90, "g": 0}


class TestEdgeCases:
    def test_no_samples(self):
        switches = make_switches([(0, 1, S), (100, 1, E)])
        t = integrate(make_samples([]), switches, SYMTAB)
        assert t.items() == []
        assert t.total_samples == 0

    def test_no_windows(self):
        samples = make_samples([(10, 150)])
        t = integrate(samples, make_switches([]), SYMTAB)
        assert t.unmapped_samples == 1

    def test_unsorted_samples_rejected(self):
        switches = make_switches([(0, 1, S), (100, 1, E)])
        bad = SampleArrays(
            ts=np.asarray([50, 10], dtype=np.int64),
            ip=np.asarray([150, 150], dtype=np.int64),
            tag=np.asarray([-1, -1], dtype=np.int64),
        )
        with pytest.raises(IntegrationError, match="sorted"):
            integrate(bad, switches, SYMTAB)

    def test_mapped_fraction_empty(self):
        t = integrate(make_samples([]), make_switches([]), SYMTAB)
        assert t.mapped_fraction == 0.0


class TestWindowForms:
    """A trace holds each window form once, whichever it was built from."""

    def trace(self) -> HybridTrace:
        switches = make_switches(
            [(0, 1, S), (100, 1, E), (100, 2, S), (250, 2, E), (300, 1, S), (350, 1, E)]
        )
        samples = make_samples([(10, 150), (60, 150), (120, 250), (310, 150)])
        return integrate(samples, switches, SYMTAB)

    def test_columns_held_after_windows_touched(self):
        t = self.trace()
        assert isinstance(t.windows, list)
        cols = t.window_columns
        assert t.window_columns is cols
        assert t.windows is t.windows
        assert cols.item_id.tolist() == [w.item_id for w in t.windows]

    def test_pickle_round_trip_keeps_trace_equal(self):
        t = self.trace()
        t.window_columns
        assert t.item_window_cycles(1) == 150
        back = pickle.loads(pickle.dumps(t))
        assert traces_equal(back, t)
        assert back.window_columns is back.window_columns
        assert back.item_window_cycles(1) == 150
