"""Online divergence-triggered dumping (Section IV-C3): an item's raw
samples are kept exactly when the streaming diagnoser flags it."""

import pytest

from repro.analysis.diagnose import StreamingDiagnoser
from repro.errors import TraceError


class TestOnlineDiagnoser:
    def test_baseline_items_never_dumped(self):
        d = StreamingDiagnoser(min_baseline=5)
        for i in range(5):
            assert d.observe_item(i, {"f": 1000}, raw_bytes=100) is None
        assert d.items_dumped == 0

    def test_anomaly_dumped_after_baseline(self):
        d = StreamingDiagnoser(k_sigma=3.0, min_baseline=5)
        for i in range(10):
            d.observe_item(i, {"f": 1000 + (i % 3)}, raw_bytes=100)
        v = d.observe_item(99, {"f": 50_000}, raw_bytes=100)
        assert v is not None
        assert v.culprit == "f"

    def test_normal_item_discarded(self):
        d = StreamingDiagnoser(k_sigma=3.0, min_baseline=5)
        for i in range(10):
            d.observe_item(i, {"f": 1000 + (i % 5)}, raw_bytes=100)
        assert d.observe_item(99, {"f": 1002}, raw_bytes=100) is None

    def test_byte_accounting(self):
        d = StreamingDiagnoser(k_sigma=2.0, min_baseline=3)
        for i in range(6):
            d.observe_item(i, {"f": 100 + i % 2}, raw_bytes=50)
        d.observe_item(7, {"f": 10_000}, raw_bytes=80)
        assert d.bytes_dumped == 80
        assert d.bytes_discarded == 300

    def test_reduction_factor(self):
        d = StreamingDiagnoser(k_sigma=2.0, min_baseline=3)
        for i in range(9):
            d.observe_item(i, {"f": 100 + i % 2}, raw_bytes=100)
        d.observe_item(10, {"f": 99_999}, raw_bytes=100)
        assert d.reduction_factor == pytest.approx(10.0)

    def test_reduction_factor_nothing_dumped(self):
        d = StreamingDiagnoser()
        d.observe_item(1, {"f": 10}, raw_bytes=5)
        assert d.reduction_factor == float("inf")

    def test_zero_variance_never_triggers(self):
        d = StreamingDiagnoser(min_baseline=2)
        for i in range(10):
            d.observe_item(i, {"f": 500}, raw_bytes=1)
        # std == 0 -> only the min_ratio floor is left, and 500 is inside it.
        assert d.observe_item(11, {"f": 500}, raw_bytes=1) is None

    def test_unseen_function_triggers_by_default(self):
        # A code path that never ran during the baseline and makes the
        # item diverge is the dump trigger.
        d = StreamingDiagnoser(min_baseline=3)
        for i in range(10):
            d.observe_item(i, {"f": 100 + i % 2}, raw_bytes=1)
        v = d.observe_item(11, {"g": 1_000_000}, raw_bytes=1)
        assert v is not None
        assert v.culprit == "g"

    def test_unseen_function_during_baseline_does_not_trigger(self):
        d = StreamingDiagnoser(min_baseline=5)
        d.observe_item(1, {"f": 100}, raw_bytes=1)
        assert d.observe_item(2, {"g": 100}, raw_bytes=1) is None

    def test_invalid_config(self):
        with pytest.raises(TraceError):
            StreamingDiagnoser(k_sigma=0)
        with pytest.raises(TraceError):
            StreamingDiagnoser(min_baseline=0)

    def test_decisions_recorded(self):
        d = StreamingDiagnoser(min_baseline=2)
        for i in range(3):
            d.observe_item(i, {"f": 100}, raw_bytes=10)
        v = d.observe_item(3, {"f": 10_000}, raw_bytes=10)
        assert d.verdicts == [v]
        assert d.verdicts[0].item_id == 3
