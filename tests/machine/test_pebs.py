"""Tests for the PEBS unit: assist costs, buffering, drains, finalize."""

import numpy as np
import pytest

from repro.machine.block import Block
from repro.machine.config import MachineSpec
from repro.machine.core import SimCore
from repro.machine.events import HWEvent
from repro.machine.pebs import TAG_NONE, PEBSConfig, PEBSUnit, Sample
from repro.machine.pmu import CounterConfig
from repro.units import ns_to_cycles


def make_unit(reset=1000, **spec_kw) -> PEBSUnit:
    spec = MachineSpec(**spec_kw)
    return PEBSUnit(PEBSConfig(HWEvent.UOPS_RETIRED_ALL, reset), spec)


class TestAssistCost:
    def test_cost_is_250ns_per_sample(self):
        unit = make_unit()
        assist = ns_to_cycles(250.0, 3.0)
        extra = unit.on_overflows(np.asarray([100]), 0x1, TAG_NONE)
        assert extra == assist

    def test_cost_scales_with_sample_count(self):
        unit = make_unit()
        assist = ns_to_cycles(250.0, 3.0)
        extra = unit.on_overflows(np.asarray([10, 20, 30]), 0x1, TAG_NONE)
        assert extra == 3 * assist

    def test_later_samples_shifted_by_earlier_assists(self):
        # Sample i is delayed by i assists: the microcode assist really
        # stretches the sampled code.
        unit = make_unit()
        assist = ns_to_cycles(250.0, 3.0)
        unit.on_overflows(np.asarray([100, 200, 300]), 0x1, TAG_NONE)
        s = unit.finalize()
        assert s.ts.tolist() == [100, 200 + assist, 300 + 2 * assist]


class TestBuffering:
    def test_no_drain_until_buffer_full(self):
        unit = make_unit(pebs_buffer_records=10)
        unit.on_overflows(np.arange(9), 0, TAG_NONE)
        assert unit.drains == 0
        assert unit.bytes_written == 0

    def test_drain_on_buffer_full(self):
        unit = make_unit(pebs_buffer_records=10)
        unit.on_overflows(np.arange(10), 0, TAG_NONE)
        assert unit.drains == 1
        assert unit.bytes_written == 10 * unit.spec.pebs_record_bytes

    def test_drain_cost_charged(self):
        unit = make_unit(pebs_buffer_records=4)
        base = unit.on_overflows(np.arange(3), 0, TAG_NONE)
        unit2 = make_unit(pebs_buffer_records=4)
        with_drain = unit2.on_overflows(np.arange(4), 0, TAG_NONE)
        assert with_drain > base + ns_to_cycles(250.0, 3.0)

    def test_multiple_drains_in_one_call(self):
        unit = make_unit(pebs_buffer_records=4)
        unit.on_overflows(np.arange(9), 0, TAG_NONE)
        assert unit.drains == 2

    def test_flush_drains_partial_buffer(self):
        unit = make_unit(pebs_buffer_records=100)
        unit.on_overflows(np.arange(7), 0, TAG_NONE)
        cost = unit.flush()
        assert cost > 0
        assert unit.bytes_written == 7 * unit.spec.pebs_record_bytes
        assert unit.flush() == 0  # idempotent when empty


class TestFinalize:
    def test_samples_sorted_and_complete(self):
        unit = make_unit()
        unit.on_overflows(np.asarray([500]), 0xA, 1)
        unit.on_overflows(np.asarray([900, 1200]), 0xB, 2)
        s = unit.finalize()
        assert len(s) == 3
        assert np.all(np.diff(s.ts) >= 0)
        assert s.ip.tolist()[0] == 0xA

    def test_getitem_returns_sample(self):
        unit = make_unit()
        unit.on_overflows(np.asarray([5]), 0xC, 9)
        s = unit.finalize()
        assert s[0] == Sample(ts=5, ip=0xC, tag=9)

    def test_finalize_is_cached(self):
        unit = make_unit()
        unit.on_overflows(np.asarray([5]), 0, TAG_NONE)
        assert unit.finalize() is unit.finalize()

    def test_empty_unit_finalizes_empty(self):
        s = make_unit().finalize()
        assert len(s) == 0

    def test_sample_count_property(self):
        unit = make_unit()
        unit.on_overflows(np.arange(5), 0, TAG_NONE)
        assert unit.sample_count == 5


class TestFinalizeAfterMoreSamples:
    def test_finalize_sees_samples_appended_after_it(self):
        """A second ``finalize()`` must not return the first call's cache."""
        core = SimCore(0, MachineSpec())
        unit = PEBSUnit(PEBSConfig(HWEvent.UOPS_RETIRED_ALL, 100), core.spec)
        core.pmu.add_counter(CounterConfig(HWEvent.UOPS_RETIRED_ALL, 100), unit)
        core.execute(Block(ip=0x1, uops=1000))
        assert len(unit.finalize()) == 10
        core.execute(Block(ip=0x2, uops=1000))
        assert unit.sample_count == 20
        arrays = unit.finalize()
        assert len(arrays) == 20
        assert arrays.ip.tolist() == [0x1] * 10 + [0x2] * 10

    def test_finalize_sees_samples_after_a_buffer_fill(self):
        unit = make_unit(pebs_buffer_records=4)
        unit.on_overflows(np.arange(3), 0, TAG_NONE)
        assert len(unit.finalize()) == 3
        unit.on_overflows(np.arange(10, 16), 0, TAG_NONE)  # crosses a fill
        assert len(unit.finalize()) == unit.sample_count == 9
