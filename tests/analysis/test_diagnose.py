"""Unit tests for the one-shot and online diagnosis engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import diagnose as diagnose_mod
from repro.analysis.diagnose import (
    UNATTRIBUTED,
    StreamingDiagnoser,
    diagnose_trace,
    grouped_mad,
    grouped_median,
    grouped_percentile,
    item_totals,
    sample_confidence,
)
from repro.core.hybrid import integrate
from repro.core.records import SwitchRecords
from repro.core.symbols import SymbolTable
from repro.errors import TraceError
from repro.machine.pebs import SampleArrays
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.runtime.actions import SwitchKind

SYMTAB = SymbolTable.from_ranges(
    {"f0": (0, 100), "f1": (100, 200), "f2": (200, 300)}
)
FN_IP = {"f0": 50, "f1": 150, "f2": 250}


def build_trace(items):
    """One-core trace from (item_id, duration, {fn: (first, last, n)}) specs.

    ``first``/``last`` are sample offsets inside the item's window, so the
    per-(item, fn) elapsed estimate is exactly ``last - first``.
    """
    records = SwitchRecords(0)
    ts, ips = [], []
    t = 0
    for item_id, dur, spans in items:
        start = t + 10
        records.append(start, item_id, SwitchKind.ITEM_START)
        records.append(start + dur, item_id, SwitchKind.ITEM_END)
        for fn, (first, last, n) in spans.items():
            for off in np.linspace(first, last, n):
                ts.append(start + int(off))
                ips.append(FN_IP[fn])
        t = start + dur
    order = np.argsort(np.asarray(ts, dtype=np.int64), kind="stable")
    samples = SampleArrays(
        ts=np.asarray(ts, dtype=np.int64)[order],
        ip=np.asarray(ips, dtype=np.int64)[order],
        tag=np.full(len(ts), -1, dtype=np.int64),
    )
    return integrate(samples, records, SYMTAB)


def one_outlier_trace():
    """Five 1000-cycle items plus one 5000-cycle item whose extra time
    sits in f1 — the classic single-culprit fluctuation."""
    normal = {"f0": (0, 900, 4)}
    spike = {"f0": (0, 900, 4), "f1": (1000, 4900, 8)}
    return build_trace(
        [(i, 1000, normal) for i in range(1, 6)] + [(6, 5000, spike)]
    )


class TestGroupedStats:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grouped_median_matches_numpy(self, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 5, size=200)
        codes[:5] = np.arange(5)  # every group populated
        values = rng.normal(1000, 100, size=200)
        got = grouped_median(codes, values)
        for g in range(5):
            assert got[g] == pytest.approx(np.median(values[codes == g]))

    def test_grouped_mad_matches_numpy(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 4, size=120)
        codes[:4] = np.arange(4)
        values = rng.normal(0, 50, size=120)
        centers = grouped_median(codes, values)
        got = grouped_mad(codes, values, centers)
        for g in range(4):
            member = values[codes == g]
            assert got[g] == pytest.approx(
                np.median(np.abs(member - np.median(member)))
            )

    def test_grouped_percentile_nearest_rank(self):
        codes = np.zeros(10, dtype=np.int64)
        values = np.arange(10, 110, 10).astype(np.float64)
        assert grouped_percentile(codes, values, 100.0)[0] == 100.0
        assert grouped_percentile(codes, values, 50.0)[0] == 50.0
        assert grouped_percentile(codes, values, 1.0)[0] == 10.0

    def test_empty_group_rejected(self):
        with pytest.raises(TraceError):
            grouped_median(np.array([0, 2]), np.array([1.0, 2.0]))

    def test_item_totals_sums_split_windows(self):
        trace = build_trace(
            [(1, 300, {"f0": (0, 200, 2)}), (1, 700, {"f0": (0, 600, 2)})]
        )
        items, totals = item_totals(trace.window_columns)
        assert items.tolist() == [1]
        assert totals.tolist() == [1000]


class TestSampleConfidence:
    def test_zero_cases(self):
        assert sample_confidence(0, 10, 8000) == 0.0
        assert sample_confidence(-5, 10, 8000) == 0.0
        assert sample_confidence(100, 0, 8000) == 0.0

    def test_monotone_in_excess_and_samples(self):
        base = sample_confidence(1000, 4, 8000)
        assert sample_confidence(2000, 4, 8000) > base
        assert sample_confidence(1000, 16, 8000) > base
        # a finer sampling period (smaller R) resolves the same excess better
        assert sample_confidence(1000, 4, 2000) > base

    def test_bounded(self):
        assert 0.0 < sample_confidence(10**9, 100, 8000) < 1.0


class TestDiagnoseTrace:
    def test_flags_the_spike_and_names_f1(self):
        report = diagnose_trace(one_outlier_trace(), reset_value=500)
        assert report.fluctuating
        outs = report.outliers
        assert [v.item_id for v in outs] == [6]
        v = outs[0]
        assert v.is_outlier and v.culprit == "f1"
        assert v.excess_cycles == 4000
        shares = [a.share for a in v.attributions]
        assert sum(shares) == pytest.approx(1.0)
        assert all(a.excess_cycles > 0 for a in v.attributions)
        assert 0.0 < v.attributions[0].confidence < 1.0

    def test_non_outliers_carry_no_attributions(self):
        report = diagnose_trace(one_outlier_trace())
        for v in report.verdicts:
            if not v.is_outlier:
                assert v.attributions == ()

    def test_deviation_normalised_to_band_widths(self):
        report = diagnose_trace(one_outlier_trace(), k_sigma=3.5)
        (band,) = report.baselines
        v = report.outliers[0]
        # MAD degenerates to 0 here, so the min_ratio floor sets the band:
        # hi = 1.2 * 1000, and the deviation is measured in widths of it.
        assert band.hi == pytest.approx(1200.0)
        expected = (v.total_cycles - band.center) / ((band.hi - band.center) / 3.5)
        assert v.deviation == pytest.approx(expected)

    def test_at_band_edge_is_not_an_outlier(self):
        spans = {"f0": (0, 900, 4)}
        trace = build_trace(
            [(i, 1000, spans) for i in range(1, 6)] + [(6, 1200, spans)]
        )
        report = diagnose_trace(trace)  # hi = 1200, outlier needs total > hi
        assert not report.fluctuating

    def test_grouping_separates_baselines(self):
        small = {"f0": (0, 900, 4)}
        big = {"f0": (0, 4500, 4)}
        trace = build_trace(
            [(i, 1000, small) for i in range(1, 8)]
            + [(i, 5000, big) for i in range(8, 11)]
        )
        groups = {i: ("small" if i < 8 else "big") for i in range(1, 11)}
        report = diagnose_trace(trace, groups)
        assert not report.fluctuating  # constant within each group
        centers = {b.group: b.center for b in report.baselines}
        assert centers == {"small": 1000.0, "big": 5000.0}
        # collapsing the groups makes the big minority look like outliers
        collapsed = diagnose_trace(trace)
        assert sorted(v.item_id for v in collapsed.outliers) == [8, 9, 10]

    def test_percentile_method_agrees_on_the_spike(self):
        report = diagnose_trace(
            one_outlier_trace(), method="percentile", percentile=75.0
        )
        assert [v.item_id for v in report.outliers] == [6]
        assert report.outliers[0].culprit == "f1"

    def test_unattributed_pseudo_function_appears(self):
        # All of the spike's extra time is *unsampled* → stall signature.
        normal = {"f0": (0, 900, 4)}
        trace = build_trace(
            [(i, 1000, normal) for i in range(1, 6)] + [(6, 5000, normal)]
        )
        report = diagnose_trace(trace)
        v = report.outliers[0]
        assert v.culprit == UNATTRIBUTED

    def test_to_json_and_describe(self):
        report = diagnose_trace(one_outlier_trace())
        text = report.describe()
        assert "OUTLIER" in text and "f1" in text
        assert '"item_id": 6' in report.to_json()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "nope"},
            {"k_sigma": 0.0},
            {"min_ratio": 0.5},
            {"percentile": 0.0},
        ],
    )
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(TraceError):
            diagnose_trace(one_outlier_trace(), **kwargs)

    def test_empty_trace(self):
        trace = build_trace([])
        report = diagnose_trace(trace)
        assert report.verdicts == () and not report.fluctuating


class TestStreamingDiagnoser:
    def test_needs_baseline_before_flagging(self):
        sd = StreamingDiagnoser(min_baseline=5)
        # an extreme first item must not be flagged — nothing to judge by
        assert sd.observe_item(0, {"f0": 90_000}, 240) is None
        for i in range(1, 6):
            assert sd.observe_item(i, {"f0": 1000}, 240) is None
        assert sd.verdicts == []

    def test_flags_spike_and_names_culprit(self):
        seen = []
        sd = StreamingDiagnoser(
            reset_value=500, on_verdict=seen.append, min_baseline=5
        )
        for i in range(1, 7):
            sd.observe_item(i, {"f0": 1000 + i}, 240)
        v = sd.observe_item(7, {"f0": 1000, "f1": 9000}, 10 * 240)
        assert v is not None and v.is_outlier
        assert v.culprit == "f1"
        assert v.attributions[0].confidence > 0
        assert seen == [v] and sd.verdicts == [v]
        assert sd.summary()["items_observed"] == 7
        assert sd.summary()["items_dumped"] == 1

    def test_groups_are_independent(self):
        sd = StreamingDiagnoser({i: i % 2 for i in range(100)}, min_baseline=3)
        for i in range(8):  # evens cost 1000+i, odds cost 9000+i
            sd.observe_item(i, {"f0": (1000 if i % 2 == 0 else 9000) + i}, 240)
        # a 9000-cycle item is normal for the odd group
        assert sd.observe_item(9, {"f0": 9005}, 240) is None
        # ... and a clear spike in the even group is flagged
        assert sd.observe_item(10, {"f0": 50_000}, 240) is not None

    def test_min_baseline_validated(self):
        with pytest.raises(TraceError):
            StreamingDiagnoser(min_baseline=1)

    @pytest.mark.parametrize("kwargs", [{"k_sigma": 0.0}, {"min_ratio": 0.5}])
    def test_band_arguments_validated(self, kwargs):
        with pytest.raises(TraceError):
            StreamingDiagnoser(**kwargs)

    def test_mapping_groups_judge_within_group(self):
        groups = {i: "x" if i < 6 else "y" for i in range(12)}
        sd = StreamingDiagnoser(groups, min_baseline=3)
        for i in range(6):
            sd.observe_item(i, {"f0": 1000 + i % 2}, 240)
        # The first "y" items have no baseline yet, however slow.
        assert sd.observe_item(6, {"f0": 50_000}, 240) is None
        v = sd.observe_item(5, {"f0": 50_000}, 240)
        assert v is not None and v.group == "x"
        assert sd.summary()["groups"] == 2

    def test_nothing_observed(self):
        sd = StreamingDiagnoser()
        assert sd.verdicts == []
        assert sd.summary() == {
            "items_observed": 0,
            "items_dumped": 0,
            "items_discarded": 0,
            "verdicts_evicted": 0,
            "bytes_dumped": 0,
            "bytes_discarded": 0,
            "reduction_factor": 1.0,
            "groups": 0,
        }

    def test_rarely_run_function_judged_against_zero(self):
        # As in the batch group medians, members that never ran f1 count
        # as 0 for it: the item's 8000 cycles in f1 outweigh its +4000 in
        # f0, although the one earlier item that ran f1 spent 5000 there.
        sd = StreamingDiagnoser(min_baseline=5)
        sd.observe_item(0, {"f0": 1000}, 240)
        sd.observe_item(1, {"f0": 1000, "f1": 5000}, 240)
        for i in range(2, 10):
            sd.observe_item(i, {"f0": 1000}, 240)
        v = sd.observe_item(10, {"f0": 5000, "f1": 8000}, 240)
        assert v is not None and v.culprit == "f1"

    def test_describe_names_culprit(self):
        sd = StreamingDiagnoser(min_baseline=3)
        for i in range(4):
            sd.observe_item(i, {"f0": 1000 + i}, 240)
        v = sd.observe_item(4, {"f0": 1000, "f2": 8000}, 240)
        text = v.describe()
        assert "item 4" in text and "OUTLIER" in text and "f2" in text

    def test_retention_accounting(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            sd = StreamingDiagnoser(min_baseline=3)
            for i in range(9):
                sd.observe_item(i, {"f0": 1000 + i % 2}, 240)
            sd.observe_item(9, {"f0": 40_000}, 480)
        summary = sd.summary()
        assert summary["items_observed"] == 10
        assert summary["items_dumped"] == 1
        assert summary["items_discarded"] == 9
        assert summary["bytes_dumped"] == 480
        assert summary["bytes_discarded"] == 9 * 240
        assert summary["reduction_factor"] == pytest.approx((480 + 2160) / 480)
        assert reg.value("repro_online_items_total") == 10
        assert reg.value("repro_online_items_dumped_total") == 1
        assert reg.value("repro_online_bytes_dumped_total") == 480
        assert reg.value("repro_online_bytes_discarded_total") == 2160

    def test_verdict_log_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(diagnose_mod, "MAX_ONLINE_VERDICTS", 2)
        reg = MetricsRegistry()
        with use_registry(reg):
            sd = StreamingDiagnoser(min_baseline=3)
            for i in range(20):
                sd.observe_item(i, {"f0": 1000}, 240)
            # Each spike dwarfs the last, so none is absorbed by the band.
            for k, i in enumerate(range(20, 24)):
                assert sd.observe_item(i, {"f0": 10 ** (5 + k)}, 240) is not None
        assert [v.item_id for v in sd.verdicts] == [22, 23]
        assert sd.verdicts_evicted == 2
        # The aggregate counters do not forget what the log evicted.
        assert sd.summary()["items_dumped"] == 4
        assert reg.value("repro_online_decisions_dropped_total") == 2
