"""Tests for the shared-LLC contention workload."""

import statistics

import numpy as np
import pytest

from repro.core.instrument import MarkingTracer
from repro.core.records import build_windows
from repro.errors import WorkloadError
from repro.machine.machine import Machine
from repro.runtime.scheduler import Scheduler
from repro.workloads.contention import ContentionApp, ContentionConfig

#: A small, fast configuration for unit tests (bench uses the default).
FAST = ContentionConfig(
    n_items=500,
    aggressor_burst_blocks=170,
    aggressor_idle_cycles=3_000_000,
)


def run(config, with_aggressor) -> list[int]:
    app = ContentionApp(config, with_aggressor=with_aggressor)
    machine = Machine(spec=app.machine_spec(), n_cores=2, with_caches=True)
    tracer = MarkingTracer(mark_ip=app.mark_ip, cost_ns=0.0)
    Scheduler(machine, app.threads(), tracer=tracer, lockstep=True).run()
    windows = build_windows(tracer.records_for_core(ContentionApp.VICTIM_CORE))
    return [w.duration for w in windows]


class TestConfigValidation:
    def test_bad_items(self):
        with pytest.raises(WorkloadError):
            ContentionConfig(n_items=0)

    def test_region_too_small(self):
        with pytest.raises(WorkloadError):
            ContentionConfig(victim_region_bytes=64, victim_lines_per_item=10)

    def test_bad_mlp(self):
        with pytest.raises(WorkloadError):
            ContentionConfig(aggressor_mlp=0)


class TestVictimAlone:
    def test_steady_state_is_warm(self):
        durs = run(FAST, with_aggressor=False)
        # After the first sweep everything hits the LLC: durations settle.
        steady = durs[150:]
        assert max(steady) == min(steady)

    def test_first_sweep_is_cold(self):
        durs = run(FAST, with_aggressor=False)
        assert durs[0] > 1.5 * durs[-1]


class TestContention:
    def test_aggressor_slows_victim(self):
        alone = statistics.mean(run(FAST, False)[150:])
        contended = statistics.mean(run(FAST, True)[150:])
        assert contended > 1.2 * alone

    def test_fluctuation_is_bursty(self):
        """Identical items split into fast (between bursts) and slow
        (during/after bursts) populations."""
        durs = run(FAST, True)[150:]
        alone = statistics.mean(run(FAST, False)[150:])
        fast_items = [d for d in durs if d < 1.1 * alone]
        slow_items = [d for d in durs if d > 1.5 * alone]
        assert fast_items and slow_items

    def test_no_aggressor_thread_when_disabled(self):
        app = ContentionApp(FAST, with_aggressor=False)
        assert [t.name for t in app.threads()] == ["victim"]

    def test_group_of(self):
        app = ContentionApp(FAST)
        assert app.group_of(1) == "packet"

    def test_determinism(self):
        a = run(FAST, True)
        b = run(FAST, True)
        assert a == b


class TestWalkOffsets:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("region_bytes", [768 * 1024, 200 * 64, 4 * 1024 * 1024])
    def test_one_draw_equals_per_item_draws(self, seed, region_bytes):
        """The offsets drawn in one call are the values (and Python ints)
        that one bounded scalar draw per item gives from the same seed."""
        cfg = ContentionConfig(n_items=200, victim_region_bytes=region_bytes)
        app = ContentionApp(cfg, rng=np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        region_lines = region_bytes // 64
        expected = [int(rng.integers(0, region_lines)) for _ in range(cfg.n_items)]
        assert app._walk_offsets == expected
        assert all(type(o) is int for o in app._walk_offsets)
