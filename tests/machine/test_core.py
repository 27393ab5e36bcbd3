"""Tests for SimCore: clock, block costing, spin, event counts."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.machine.block import Block, MemRef
from repro.machine.cache import CacheHierarchy
from repro.machine.config import MachineSpec
from repro.machine.core import SimCore
from repro.machine.events import HWEvent, event_vector
from repro.machine.pebs import PEBSConfig, PEBSUnit
from repro.machine.pmu import CounterConfig


def make_core(with_cache=False, spec=None) -> SimCore:
    spec = spec or MachineSpec()
    h = CacheHierarchy(spec) if with_cache else None
    return SimCore(0, spec, hierarchy=h)


class TestBlockCosting:
    def test_base_cost_is_uops_over_ipc(self):
        core = make_core()
        out = core.execute(Block(ip=0, uops=400))
        assert out.cycles == math.ceil(400 / 4.0)

    def test_ceil_rounding(self):
        core = make_core()
        assert core.execute(Block(ip=0, uops=1)).cycles == 1
        assert core.execute(Block(ip=0, uops=5)).cycles == 2

    def test_mispredict_penalty_added(self):
        core = make_core()
        clean = core.execute(Block(ip=0, uops=400)).cycles
        dirty = core.execute(Block(ip=0, uops=400, branches=10, mispredicts=2)).cycles
        assert dirty == clean + 2 * core.spec.branch_miss_penalty_cycles

    def test_extra_cycles_added(self):
        core = make_core()
        out = core.execute(Block(ip=0, uops=4, extra_cycles=123))
        assert out.cycles == 1 + 123

    def test_clock_advances_by_end(self):
        core = make_core()
        out = core.execute(Block(ip=0, uops=4000))
        assert core.clock == out.end
        before = core.clock
        out2 = core.execute(Block(ip=0, uops=4000))
        assert out2.start == before

    def test_cache_penalty_charged(self):
        core = make_core(with_cache=True)
        cold = core.execute(Block(ip=0, uops=4, mem=MemRef(0, 1))).cycles
        warm = core.execute(Block(ip=0, uops=4, mem=MemRef(0, 1))).cycles
        assert cold == warm + core.spec.dram_latency_cycles

    def test_no_cache_hierarchy_means_no_penalty(self):
        core = make_core(with_cache=False)
        out = core.execute(Block(ip=0, uops=4, mem=MemRef(0, 100)))
        assert out.cycles == 1

    def test_stats_accumulate(self):
        core = make_core()
        core.execute(Block(ip=0, uops=100))
        core.execute(Block(ip=0, uops=200))
        assert core.blocks_executed == 2
        assert core.uops_retired == 300


class TestEventCounts:
    def test_all_events_reported(self):
        core = make_core(with_cache=True)
        out = core.execute(
            Block(ip=0, uops=100, mem=MemRef(0, 3), branches=10, mispredicts=1)
        )
        ec = out.event_counts
        assert ec[HWEvent.UOPS_RETIRED_ALL] == 100
        assert ec[HWEvent.BR_RETIRED] == 10
        assert ec[HWEvent.BR_MISP_RETIRED] == 1
        assert ec[HWEvent.MEM_LOAD_RETIRED_ALL] == 3
        assert ec[HWEvent.MEM_LOAD_RETIRED_L3_MISS] == 3  # cold
        assert ec[HWEvent.CYCLES] == out.cycles

    def test_event_counts_is_a_read_only_view_of_the_vector(self):
        core = make_core(with_cache=True)
        out = core.execute(Block(ip=0, uops=100, mem=MemRef(0, 3), branches=4))
        assert out.counts == event_vector(out.event_counts)
        with pytest.raises(TypeError):
            out.event_counts[HWEvent.BR_RETIRED] = 0

    def test_block_without_memory_counts_no_loads(self):
        core = make_core(with_cache=True)
        out = core.execute(Block(ip=0, uops=100))
        for event in (
            HWEvent.MEM_LOAD_RETIRED_ALL,
            HWEvent.MEM_LOAD_RETIRED_L1_MISS,
            HWEvent.MEM_LOAD_RETIRED_L3_MISS,
        ):
            assert out.event_counts[event] == 0

    def test_warm_rerun_has_no_miss_events(self):
        core = make_core(with_cache=True)
        core.execute(Block(ip=0, uops=4, mem=MemRef(0, 3)))
        out = core.execute(Block(ip=0, uops=4, mem=MemRef(0, 3)))
        assert out.event_counts[HWEvent.MEM_LOAD_RETIRED_L1_MISS] == 0


class TestAdvanceAndSpin:
    def test_advance_to_moves_clock_idle(self):
        core = make_core()
        core.advance_to(5000)
        assert core.clock == 5000
        assert core.idle_cycles == 5000

    def test_advance_backwards_rejected(self):
        core = make_core()
        core.advance_to(100)
        with pytest.raises(SimulationError):
            core.advance_to(50)

    def test_spin_reaches_target(self):
        core = make_core()
        core.spin_until(10_000, spin_ip=0x99)
        assert core.clock >= 10_000

    def test_spin_noop_when_past_target(self):
        core = make_core()
        core.advance_to(100)
        assert core.spin_until(50, spin_ip=0) is None
        assert core.clock == 100

    def test_spin_retires_uops(self):
        core = make_core()
        core.spin_until(1000, spin_ip=0x99)
        assert core.uops_retired == 1000  # ~1 uop per cycle pause loop

    def test_spin_generates_samples_at_spin_ip(self):
        spec = MachineSpec()
        core = make_core(spec=spec)
        unit = PEBSUnit(PEBSConfig(HWEvent.UOPS_RETIRED_ALL, 500), spec)
        core.pmu.add_counter(CounterConfig(HWEvent.UOPS_RETIRED_ALL, 500), unit)
        core.spin_until(10_000, spin_ip=0x99)
        s = unit.finalize()
        assert len(s) > 0
        assert set(s.ip.tolist()) == {0x99}

    def test_idle_generates_no_samples(self):
        spec = MachineSpec()
        core = make_core(spec=spec)
        unit = PEBSUnit(PEBSConfig(HWEvent.UOPS_RETIRED_ALL, 500), spec)
        core.pmu.add_counter(CounterConfig(HWEvent.UOPS_RETIRED_ALL, 500), unit)
        core.advance_to(1_000_000)
        assert unit.sample_count == 0


class TestOverheadAccounting:
    def test_pebs_overhead_extends_clock(self):
        spec = MachineSpec()
        plain = make_core(spec=spec)
        plain.execute(Block(ip=0, uops=100_000))
        sampled = make_core(spec=spec)
        unit = PEBSUnit(PEBSConfig(HWEvent.UOPS_RETIRED_ALL, 1000), spec)
        sampled.pmu.add_counter(CounterConfig(HWEvent.UOPS_RETIRED_ALL, 1000), unit)
        sampled.execute(Block(ip=0, uops=100_000))
        assert sampled.clock > plain.clock
        # 100 samples at 750 cycles each.
        assert sampled.clock - plain.clock == 100 * 750

    def test_outcome_overhead_field(self):
        spec = MachineSpec()
        core = make_core(spec=spec)
        unit = PEBSUnit(PEBSConfig(HWEvent.UOPS_RETIRED_ALL, 1000), spec)
        core.pmu.add_counter(CounterConfig(HWEvent.UOPS_RETIRED_ALL, 1000), unit)
        out = core.execute(Block(ip=0, uops=5000))
        assert out.overhead_cycles == 5 * 750
        assert out.end == out.start + out.cycles + out.overhead_cycles
