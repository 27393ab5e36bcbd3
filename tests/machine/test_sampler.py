"""Tests for the perf-style software sampler: handler cost, drops, floor."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.machine.block import Block
from repro.machine.config import MachineSpec
from repro.machine.events import HWEvent
from repro.machine.machine import Machine
from repro.machine.pebs import TAG_NONE
from repro.machine.sampler import SoftwareSampler, SoftwareSamplerConfig
from repro.units import ns_to_cycles


def make_sampler(reset=1000, throttle=None, **spec_kw) -> SoftwareSampler:
    spec = MachineSpec(**spec_kw)
    cfg = SoftwareSamplerConfig(
        HWEvent.UOPS_RETIRED_ALL, reset, throttle_max_rate_hz=throttle
    )
    return SoftwareSampler(cfg, spec)


class TestHandlerCost:
    def test_serviced_overflow_charges_handler(self):
        s = make_sampler()
        handler = ns_to_cycles(9500.0, 3.0)
        assert s.on_overflows(np.asarray([100]), 0, TAG_NONE) == handler

    def test_overflow_during_handler_is_dropped(self):
        s = make_sampler()
        handler = ns_to_cycles(9500.0, 3.0)
        s.on_overflows(np.asarray([100]), 0, TAG_NONE)
        extra = s.on_overflows(np.asarray([100 + handler // 2]), 0, TAG_NONE)
        assert extra == 0
        assert s.dropped == 1
        assert s.sample_count == 1

    def test_overflow_after_handler_serviced(self):
        s = make_sampler()
        handler = ns_to_cycles(9500.0, 3.0)
        s.on_overflows(np.asarray([100]), 0, TAG_NONE)
        s.on_overflows(np.asarray([100 + handler + 1]), 0, TAG_NONE)
        assert s.sample_count == 2
        assert s.dropped == 0

    def test_interval_floor_equals_handler_time(self):
        """However small R, achieved intervals never go below handler time
        — the Fig 4 software-sampling floor."""
        s = make_sampler()
        handler = ns_to_cycles(9500.0, 3.0)
        # Overflow every 100 cycles for a long stretch.
        for t in range(0, 500_000, 100):
            s.on_overflows(np.asarray([t]), 0, TAG_NONE)
        iv = np.diff(s.finalize().ts)
        assert iv.min() >= handler

    def test_within_call_shifting(self):
        s = make_sampler()
        handler = ns_to_cycles(9500.0, 3.0)
        # Two overflows in one block, far enough apart pre-shift that the
        # second would be serviceable, but the handler pushes it out.
        s.on_overflows(np.asarray([0, handler + 10]), 0, TAG_NONE)
        ts = s.finalize().ts
        assert ts.tolist() == [0, 2 * handler + 10]


class TestThrottle:
    def test_throttle_caps_rate(self):
        # 3 GHz, 10 kHz cap -> min gap 300_000 cycles.
        s = make_sampler(throttle=10_000.0)
        for t in range(0, 3_000_000, 50_000):
            s.on_overflows(np.asarray([t]), 0, TAG_NONE)
        iv = np.diff(s.finalize().ts)
        assert iv.min() >= 300_000

    def test_invalid_throttle_rejected(self):
        with pytest.raises(ConfigError):
            SoftwareSamplerConfig(HWEvent.UOPS_RETIRED_ALL, 100, throttle_max_rate_hz=0)

    def test_zero_reset_rejected(self):
        with pytest.raises(ConfigError):
            SoftwareSamplerConfig(HWEvent.UOPS_RETIRED_ALL, 0)


class TestSoftwareVsCyclesEvent:
    def test_cycles_event_allowed_for_software_sampling(self):
        # Traditional counters CAN count cycles (unlike PEBS).
        cfg = SoftwareSamplerConfig(HWEvent.CYCLES, 1000)
        assert cfg.event is HWEvent.CYCLES


class TestFinalizeAfterMoreSamples:
    def test_finalize_sees_samples_appended_after_it(self):
        """A second ``finalize()`` must not return the first call's cache."""
        m = Machine(n_cores=1)
        s = m.attach_software_sampler(
            0, SoftwareSamplerConfig(HWEvent.UOPS_RETIRED_ALL, 100)
        )
        core = m.core(0)
        core.execute(Block(ip=0x1, uops=1000))
        first = len(s.finalize())
        assert first == s.sample_count > 0
        core.execute(Block(ip=0x2, uops=1000))
        assert s.sample_count > first
        arrays = s.finalize()
        assert len(arrays) == s.sample_count
        assert arrays.ip.tolist()[-1] == 0x2
