"""Tests for hardware event definitions and PEBS capability rules."""

import pytest

from repro.errors import ConfigError
from repro.machine.events import (
    EVENT_INDEX,
    PEBS_CAPABLE_EVENTS,
    HWEvent,
    event_vector,
    pebs_supports,
)
from repro.machine.pebs import PEBSConfig


class TestPEBSCapability:
    def test_uops_retired_is_pebs_capable(self):
        assert pebs_supports(HWEvent.UOPS_RETIRED_ALL)

    def test_cycles_is_not_pebs_capable(self):
        # Section V-C: PEBS does not support counting bare cycles.
        assert not pebs_supports(HWEvent.CYCLES)

    def test_cache_miss_events_are_pebs_capable(self):
        # Section V-D extends the method to cache-miss events.
        assert pebs_supports(HWEvent.MEM_LOAD_RETIRED_L3_MISS)
        assert pebs_supports(HWEvent.MEM_LOAD_RETIRED_L1_MISS)

    def test_capable_set_excludes_only_cycles(self):
        assert set(HWEvent) - PEBS_CAPABLE_EVENTS == {HWEvent.CYCLES}

    def test_pebs_config_rejects_cycles(self):
        with pytest.raises(ConfigError, match="cannot sample"):
            PEBSConfig(HWEvent.CYCLES, 1000)

    def test_pebs_config_accepts_uops(self):
        cfg = PEBSConfig(HWEvent.UOPS_RETIRED_ALL, 8000)
        assert cfg.reset_value == 8000

    def test_pebs_config_rejects_zero_reset(self):
        with pytest.raises(ConfigError, match="reset value"):
            PEBSConfig(HWEvent.UOPS_RETIRED_ALL, 0)

    def test_event_values_are_stable_strings(self):
        assert HWEvent.UOPS_RETIRED_ALL.value == "uops_retired.all"
        assert str(HWEvent.UOPS_RETIRED_ALL) == "uops_retired.all"


class TestEventVector:
    def test_vector_follows_declaration_order(self):
        counts = {e: 10 * i + 1 for i, e in enumerate(HWEvent)}
        assert event_vector(counts) == tuple(counts[e] for e in HWEvent)
        assert [EVENT_INDEX[e] for e in HWEvent] == list(range(len(HWEvent)))

    def test_absent_events_count_zero(self):
        vec = event_vector({HWEvent.BR_RETIRED: 7})
        assert len(vec) == len(HWEvent)
        assert vec[EVENT_INDEX[HWEvent.BR_RETIRED]] == 7
        assert sum(vec) == 7
