"""Property tests: the simulator's per-block fast paths change no bit.

* ``PEBSUnit.on_overflows`` appends a batch that fits in the buffer in
  one step.  A per-sample reference (the loop every batch used to take,
  kept here only) must agree with it on every list, every returned cycle
  count and all drain, stall, shed and controller state — across buffer
  boundaries, double buffering, overload shedding, the checkpoint
  barrier and adaptive reset-value backoff.
* ``PMU.process_block`` computes overflow timestamps with Python ints;
  they must equal the ``np.arange`` formula they replaced.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.config import MachineSpec
from repro.machine.events import HWEvent, event_vector
from repro.machine.overload import AdaptiveResetController, OverloadPolicy
from repro.machine.pebs import PEBSConfig, PEBSUnit
from repro.machine.pmu import PMU, CounterConfig

EVENT = HWEvent.UOPS_RETIRED_ALL


def reference_on_overflows(unit: PEBSUnit, timestamps, ip: int, tag: int) -> int:
    """The per-sample PEBS path: one record, one fill check at a time."""
    unit._finalized = None
    extra = 0
    for t in timestamps:
        now = int(t) + extra
        unit._ts.append(now)
        unit._ip.append(ip)
        unit._tag.append(tag)
        extra += unit._assist_cycles
        unit._buffered += 1
        if unit._buffered >= unit.spec.pebs_buffer_records:
            records = unit.spec.pebs_buffer_records
            if unit.config.double_buffered:
                extra += unit._switch_cycles
                pressured = now < unit._drain_busy_until
                if pressured and unit.overload is not None and (
                    unit.overload.shed_on_stall
                ):
                    unit._shed(records)
                else:
                    if pressured:
                        stall = unit._drain_busy_until - now
                        extra += stall
                        unit.stall_cycles += stall
                    unit._drain_busy_until = (
                        max(now, unit._drain_busy_until)
                        + unit._drain_cost_cycles(records)
                    )
                    unit._account_drain(records)
                if unit.controller is not None:
                    unit.controller.on_buffer_fill(now, pressured)
            else:
                extra += unit._drain_cost_cycles(records)
                unit._account_drain(records)
            unit._buffered = 0
    return extra


def _make_unit(records, double_buffered, policy, drain_ns):
    spec = MachineSpec(pebs_buffer_records=records, pebs_drain_base_ns=drain_ns)
    unit = PEBSUnit(PEBSConfig(EVENT, 1000, double_buffered=double_buffered), spec)
    resets: list[int] = []
    if policy is not None:
        unit.overload = policy
        unit.controller = AdaptiveResetController(policy, 1000, resets.append)
    return unit, resets


def _state(unit: PEBSUnit, resets: list[int]) -> tuple:
    controller = unit.controller
    return (
        unit._ts, unit._ip, unit._tag, unit._buffered, unit._drain_busy_until,
        unit.drains, unit.bytes_written, unit.stall_cycles,
        unit.shed_samples, unit.shed_spans, unit.checkpoint_barrier,
        None if controller is None else controller.history, resets,
    )


batches = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),  # samples in the batch
        st.integers(min_value=1, max_value=3000),  # gap between samples
        st.integers(min_value=0, max_value=2),  # advance the barrier?
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(
    records=st.integers(min_value=1, max_value=24),
    double_buffered=st.booleans(),
    overload=st.sampled_from(["none", "shed", "shed+adaptive", "stall+adaptive"]),
    drain_ns=st.sampled_from([500.0, 5_000.0, 200_000.0]),
    batches=batches,
)
def test_batched_append_matches_per_sample_reference(
    records, double_buffered, overload, drain_ns, batches
):
    policy = {
        "none": None,
        "shed": OverloadPolicy(adaptive_reset=False, raise_after_fills=1),
        "shed+adaptive": OverloadPolicy(raise_after_fills=1, restore_after_calm=1),
        "stall+adaptive": OverloadPolicy(shed_on_stall=False, raise_after_fills=1),
    }[overload]
    fast, fast_resets = _make_unit(records, double_buffered, policy, drain_ns)
    ref, ref_resets = _make_unit(records, double_buffered, policy, drain_ns)
    t = 0
    for i, (n, gap, barrier) in enumerate(batches):
        ts = list(range(t, t + n * gap, gap))
        t += n * gap + 1
        if barrier == 2:
            # The watchdog seals everything captured so far.
            fast.checkpoint_barrier = len(fast._ts)
            ref.checkpoint_barrier = len(ref._ts)
        as_array = i % 2 == 1  # sinks also accept ndarrays
        arg = np.asarray(ts, dtype=np.int64) if as_array else ts
        got = fast.on_overflows(arg, 0x100 + i, i)
        want = reference_on_overflows(ref, list(ts), 0x100 + i, i)
        assert got == want
        assert _state(fast, fast_resets) == _state(ref, ref_resets)
        assert all(type(x) is int for x in fast._ts)
    assert len(fast.finalize()) == fast.sample_count


def _arange_formula(remaining, k, reset, start, cycles):
    """The vectorised overflow positions ``process_block`` used to compute."""
    n_over = 1 + (k - remaining) // reset
    positions = remaining + reset * np.arange(n_over, dtype=np.int64)
    timestamps = start + (cycles * positions) // k
    return timestamps.tolist(), reset - (k - int(positions[-1]))


class _Sink:
    def __init__(self):
        self.calls: list[list[int]] = []

    def on_overflows(self, timestamps, ip, tag):
        self.calls.append(list(timestamps))
        return 0


@settings(max_examples=500, deadline=None)
@given(
    reset=st.integers(min_value=1, max_value=10**7),
    data=st.data(),
    # Overflows past the first: 0 is the single-overflow case; many
    # means k >> R.  Bounded so one example stays small in memory.
    more=st.one_of(
        st.just(0),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2000),
    ),
    start=st.integers(min_value=0, max_value=10**12),
    cycles=st.integers(min_value=0, max_value=10**6),
)
def test_python_int_positions_match_arange_formula(
    reset, data, more, start, cycles
):
    remaining = data.draw(st.integers(min_value=1, max_value=reset))
    k = remaining + more * reset + data.draw(st.integers(0, reset - 1))
    sink = _Sink()
    pmu = PMU()
    pmu.add_counter(CounterConfig(EVENT, reset), sink)
    state = pmu._counters[0]
    state.remaining = remaining
    pmu.process_block(0, start, cycles, event_vector({EVENT: k}), -1)
    want_ts, want_remaining = _arange_formula(remaining, k, reset, start, cycles)
    assert len(want_ts) == more + 1
    assert sink.calls == [want_ts]
    assert all(type(x) is int for x in sink.calls[0])
    assert state.remaining == want_remaining
    assert state.overflows == len(want_ts)
