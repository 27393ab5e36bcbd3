"""Tests for PMU counter arithmetic and overflow interpolation."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.machine.events import HWEvent, event_vector
from repro.machine.pmu import PMU, CounterConfig


class RecordingSink:
    """Overflow sink capturing timestamps; charges a fixed cost."""

    def __init__(self, cost: int = 0):
        self.cost = cost
        self.timestamps: list[int] = []
        self.ips: list[int] = []
        self.tags: list[int] = []

    def on_overflows(self, timestamps, ip, tag):
        self.timestamps.extend(int(t) for t in timestamps)
        self.ips.extend([ip] * len(timestamps))
        self.tags.extend([tag] * len(timestamps))
        return self.cost * len(timestamps)


def make_pmu(reset: int, sink: RecordingSink) -> PMU:
    pmu = PMU()
    pmu.add_counter(CounterConfig(HWEvent.UOPS_RETIRED_ALL, reset), sink)
    return pmu


class TestCounterArithmetic:
    def test_no_overflow_below_reset(self):
        sink = RecordingSink()
        pmu = make_pmu(100, sink)
        pmu.process_block(0, 0, 10, event_vector({HWEvent.UOPS_RETIRED_ALL: 99}), -1)
        assert sink.timestamps == []

    def test_exact_reset_overflows_once(self):
        sink = RecordingSink()
        pmu = make_pmu(100, sink)
        pmu.process_block(0, 0, 100, event_vector({HWEvent.UOPS_RETIRED_ALL: 100}), -1)
        assert len(sink.timestamps) == 1

    def test_remaining_carries_across_blocks(self):
        sink = RecordingSink()
        pmu = make_pmu(100, sink)
        pmu.process_block(0, 0, 10, event_vector({HWEvent.UOPS_RETIRED_ALL: 60}), -1)
        assert sink.timestamps == []
        pmu.process_block(0, 10, 10, event_vector({HWEvent.UOPS_RETIRED_ALL: 60}), -1)
        assert len(sink.timestamps) == 1

    def test_multiple_overflows_in_one_block(self):
        sink = RecordingSink()
        pmu = make_pmu(100, sink)
        pmu.process_block(0, 0, 1000, event_vector({HWEvent.UOPS_RETIRED_ALL: 450}), -1)
        assert len(sink.timestamps) == 4  # at events 100, 200, 300, 400

    def test_overflow_count_over_many_blocks(self):
        sink = RecordingSink()
        pmu = make_pmu(128, sink)
        total = 0
        for i in range(57):
            k = 31 + (i * 7) % 64
            total += k
            pmu.process_block(
                0, i * 100, 100, event_vector({HWEvent.UOPS_RETIRED_ALL: k}), -1
            )
        assert len(sink.timestamps) == total // 128
        assert pmu.total_overflows() == total // 128

    def test_timestamps_interpolated_within_block(self):
        sink = RecordingSink()
        pmu = make_pmu(100, sink)
        # 400 events uniformly over 1000 cycles from t=5000: overflows at
        # event 100/200/300/400 -> cycles 250/500/750/1000.
        pmu.process_block(
            0, 5000, 1000, event_vector({HWEvent.UOPS_RETIRED_ALL: 400}), -1
        )
        assert sink.timestamps == [5250, 5500, 5750, 6000]

    def test_timestamps_monotone_across_blocks(self):
        sink = RecordingSink()
        pmu = make_pmu(37, sink)
        t = 0
        for i in range(100):
            cycles = 50 + (i % 13)
            pmu.process_block(
                0, t, cycles, event_vector({HWEvent.UOPS_RETIRED_ALL: 97}), -1
            )
            t += cycles
        ts = np.asarray(sink.timestamps)
        assert np.all(np.diff(ts) >= 0)

    def test_ip_and_tag_passed_through(self):
        sink = RecordingSink()
        pmu = make_pmu(10, sink)
        pmu.process_block(
            0xABC, 0, 10, event_vector({HWEvent.UOPS_RETIRED_ALL: 10}), 42
        )
        assert sink.ips == [0xABC]
        assert sink.tags == [42]

    def test_sink_cost_returned(self):
        sink = RecordingSink(cost=7)
        pmu = make_pmu(10, sink)
        extra = pmu.process_block(
            0, 0, 100, event_vector({HWEvent.UOPS_RETIRED_ALL: 35}), -1
        )
        assert extra == 3 * 7

    def test_event_not_counted_is_ignored(self):
        sink = RecordingSink()
        pmu = make_pmu(10, sink)
        pmu.process_block(0, 0, 100, event_vector({HWEvent.BR_RETIRED: 1000}), -1)
        assert sink.timestamps == []

    def test_no_counters_costs_nothing(self):
        pmu = PMU()
        assert pmu.process_block(
            0, 0, 10, event_vector({HWEvent.UOPS_RETIRED_ALL: 1000}), -1
        ) == 0

    def test_two_counters_different_events(self):
        s1, s2 = RecordingSink(), RecordingSink()
        pmu = PMU()
        pmu.add_counter(CounterConfig(HWEvent.UOPS_RETIRED_ALL, 50), s1)
        pmu.add_counter(CounterConfig(HWEvent.BR_RETIRED, 10), s2)
        pmu.process_block(
            0,
            0,
            100,
            event_vector({HWEvent.UOPS_RETIRED_ALL: 100, HWEvent.BR_RETIRED: 25}),
            -1,
        )
        assert len(s1.timestamps) == 2
        assert len(s2.timestamps) == 2

    def test_reset_value_validation(self):
        with pytest.raises(ConfigError):
            CounterConfig(HWEvent.UOPS_RETIRED_ALL, 0)

    def test_mean_interval_tracks_reset_value(self):
        """Doubling R doubles the achieved interval (the 'Ideal' line of Fig 4)."""
        intervals = {}
        for reset in (100, 200, 400):
            sink = RecordingSink()
            pmu = make_pmu(reset, sink)
            t = 0
            for _ in range(2000):
                pmu.process_block(
                    0, t, 25, event_vector({HWEvent.UOPS_RETIRED_ALL: 100}), -1
                )
                t += 25
            iv = np.diff(np.asarray(sink.timestamps))
            intervals[reset] = iv.mean()
        assert intervals[200] == pytest.approx(2 * intervals[100], rel=0.01)
        assert intervals[400] == pytest.approx(4 * intervals[100], rel=0.01)
