"""Property tests: counter overflow arithmetic."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.events import HWEvent, event_vector
from repro.machine.pmu import PMU, CounterConfig


class CountingSink:
    def __init__(self):
        self.timestamps: list[int] = []

    def on_overflows(self, timestamps, ip, tag):
        self.timestamps.extend(int(t) for t in timestamps)
        return 0


@settings(max_examples=200, deadline=None)
@given(
    reset=st.integers(min_value=1, max_value=10_000),
    counts=st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=50),
)
def test_overflow_count_equals_total_events_div_reset(reset, counts):
    """Across any block partitioning, overflows == floor(total / R)."""
    sink = CountingSink()
    pmu = PMU()
    pmu.add_counter(CounterConfig(HWEvent.UOPS_RETIRED_ALL, reset), sink)
    t = 0
    for k in counts:
        if k > 0:
            pmu.process_block(
                0, t, max(1, k // 2), event_vector({HWEvent.UOPS_RETIRED_ALL: k}), -1
            )
        t += max(1, k // 2)
    assert len(sink.timestamps) == sum(counts) // reset


@settings(max_examples=200, deadline=None)
@given(
    reset=st.integers(min_value=1, max_value=1000),
    blocks=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=2000),  # events
            st.integers(min_value=1, max_value=500),  # cycles
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_timestamps_sorted_and_within_blocks(reset, blocks):
    sink = CountingSink()
    pmu = PMU()
    pmu.add_counter(CounterConfig(HWEvent.UOPS_RETIRED_ALL, reset), sink)
    t = 0
    bounds = []
    for k, c in blocks:
        pmu.process_block(0, t, c, event_vector({HWEvent.UOPS_RETIRED_ALL: k}), -1)
        bounds.append((t, t + c))
        t += c
    ts = np.asarray(sink.timestamps)
    assert np.all(np.diff(ts) >= 0)
    # Every timestamp lies within the union of block spans.
    for x in ts:
        assert any(a <= x <= b for a, b in bounds)


@settings(max_examples=100, deadline=None)
@given(
    reset=st.integers(min_value=2, max_value=5000),
    k=st.integers(min_value=1, max_value=50_000),
)
def test_partitioning_invariance(reset, k):
    """Splitting one block into two yields the same overflow count."""
    whole = CountingSink()
    pmu1 = PMU()
    pmu1.add_counter(CounterConfig(HWEvent.UOPS_RETIRED_ALL, reset), whole)
    pmu1.process_block(0, 0, 100, event_vector({HWEvent.UOPS_RETIRED_ALL: k}), -1)

    split = CountingSink()
    pmu2 = PMU()
    pmu2.add_counter(CounterConfig(HWEvent.UOPS_RETIRED_ALL, reset), split)
    a = k // 2
    if a:
        pmu2.process_block(0, 0, 50, event_vector({HWEvent.UOPS_RETIRED_ALL: a}), -1)
    pmu2.process_block(0, 50, 50, event_vector({HWEvent.UOPS_RETIRED_ALL: k - a}), -1)
    assert len(whole.timestamps) == len(split.timestamps)
