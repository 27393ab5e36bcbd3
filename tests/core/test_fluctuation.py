"""Fluctuation diagnosis on hand-built traces: which item deviates from
its similar items, and which function caused it (the batch rule of
:mod:`repro.analysis.diagnose`)."""

import numpy as np
import pytest

from repro.analysis.diagnose import diagnose_trace
from repro.core.hybrid import integrate
from repro.core.records import SwitchRecords
from repro.core.symbols import SymbolTable
from repro.machine.pebs import SampleArrays
from repro.runtime.actions import SwitchKind

SYMTAB = SymbolTable.from_ranges({"fast": (0, 100), "slow": (100, 200)})


def synthetic_trace(item_windows, sample_points):
    """item_windows: [(item, start, end)]; sample_points: [(ts, ip)]."""
    r = SwitchRecords(0)
    for item, start, end in item_windows:
        r.append(start, item, SwitchKind.ITEM_START)
        r.append(end, item, SwitchKind.ITEM_END)
    ts = np.asarray([p[0] for p in sample_points], dtype=np.int64)
    ip = np.asarray([p[1] for p in sample_points], dtype=np.int64)
    order = np.argsort(ts)
    s = SampleArrays(ts=ts[order], ip=ip[order], tag=np.full(len(ts), -1, dtype=np.int64))
    return integrate(s, r, SYMTAB)


def uniform_group_trace(slow_item=1):
    """4 same-group items, one of which takes 5x longer in 'slow'."""
    windows = []
    samples = []
    t = 0
    for item in (1, 2, 3, 4):
        dur = 5000 if item == slow_item else 1000
        windows.append((item, t, t + dur))
        # 'fast' occupies the first 400 cycles for everyone.
        samples += [(t + 10, 50), (t + 390, 50)]
        # 'slow' spans the remainder.
        samples += [(t + 410, 150), (t + dur - 10, 150)]
        t += dur + 100
    return synthetic_trace(windows, samples)


class TestDiagnose:
    def test_outlier_found_and_attributed(self):
        trace = uniform_group_trace()
        rep = diagnose_trace(trace, lambda i: "g")
        assert rep.fluctuating
        assert len(rep.outliers) == 1
        o = rep.outliers[0]
        assert o.item_id == 1
        assert o.culprit == "slow"
        assert o.total_cycles / o.center_cycles == pytest.approx(5000 / 1000)

    def test_no_outliers_in_uniform_group(self):
        trace = uniform_group_trace(slow_item=-1)  # nobody slow
        rep = diagnose_trace(trace, lambda i: "g")
        assert not rep.fluctuating

    def test_group_stats(self):
        trace = uniform_group_trace()
        rep = diagnose_trace(trace, lambda i: "g")
        assert len(rep.baselines) == 1
        g = rep.baselines[0]
        assert g.n_items == 4
        assert g.center == 1000
        assert g.lo < 1000 < g.hi < 5000

    def test_mapping_based_grouping(self):
        trace = uniform_group_trace()
        groups = {1: "x", 2: "x", 3: "x", 4: "y"}
        rep = diagnose_trace(trace, groups)
        # Item 1 is judged against the median of {1, 2, 3} = 1000.
        assert [o.item_id for o in rep.outliers] == [1]
        assert rep.outliers[0].group == "x"
        assert sorted(b.group for b in rep.baselines) == ["x", "y"]

    def test_empty_trace(self):
        trace = synthetic_trace([], [])
        rep = diagnose_trace(trace, lambda i: "g")
        assert rep.outliers == [] and rep.baselines == ()

    def test_describe_mentions_culprit(self):
        trace = uniform_group_trace()
        rep = diagnose_trace(trace, lambda i: "g")
        text = rep.outliers[0].describe()
        assert "slow" in text and "item 1" in text

    def test_per_fn_excess_signs(self):
        trace = uniform_group_trace()
        rep = diagnose_trace(trace, lambda i: "g")
        excess = {a.fn_name: a.excess_cycles for a in rep.outliers[0].attributions}
        assert excess["slow"] > 0
        assert excess.get("fast", 0) < 100  # fast is ~equal everywhere

    def test_outliers_sorted_by_ratio(self):
        windows = [(1, 0, 10_000), (2, 11_000, 14_000), (3, 15_000, 16_000), (4, 17_000, 18_000)]
        samples = []
        for item, a, b in windows:
            samples += [(a + 1, 150), (b - 1, 150)]
        trace = synthetic_trace(windows, samples)
        # A narrow band (k_sigma=0.5) flags both slow items.
        rep = diagnose_trace(trace, lambda i: "g", k_sigma=0.5)
        assert sorted(o.item_id for o in rep.outliers) == [1, 2]
        ratios = [o.total_cycles / o.center_cycles for o in rep.outliers]
        assert ratios == sorted(ratios, reverse=True)
