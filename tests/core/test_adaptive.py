"""Tests for the adaptive reset-value controller."""

import pytest

from repro.core.adaptive import EpochObservation, OverheadBudgetController
from repro.errors import ConfigError


class TestValidation:
    def test_target_range(self):
        with pytest.raises(ConfigError):
            OverheadBudgetController(target_overhead=0.0)
        with pytest.raises(ConfigError):
            OverheadBudgetController(target_overhead=1.5)

    def test_cost_positive(self):
        with pytest.raises(ConfigError):
            OverheadBudgetController(0.05, per_sample_cycles=0)

    def test_smoothing_range(self):
        with pytest.raises(ConfigError):
            OverheadBudgetController(0.05, smoothing=0.0)

    def test_clamps(self):
        with pytest.raises(ConfigError):
            OverheadBudgetController(0.05, min_reset=10, max_reset=5)
        c = OverheadBudgetController(0.05, initial_reset_value=1, min_reset=100)
        assert c.reset_value == 100

    def test_negative_observation(self):
        c = OverheadBudgetController(0.05)
        with pytest.raises(ConfigError):
            c.observe_epoch(-1, 100)


class TestConvergence:
    def simulate(self, controller, rate, epochs=6, epoch_work_cycles=1_000_000):
        """Analytic plant: a steady workload with the given event rate."""
        overheads = []
        for _ in range(epochs):
            r = controller.reset_value
            samples = int(rate * epoch_work_cycles / r)
            cycles = epoch_work_cycles + samples * controller.per_sample_cycles
            controller.observe_epoch(samples, int(cycles))
            overheads.append(
                samples * controller.per_sample_cycles / cycles
            )
        return overheads

    def test_converges_to_budget(self):
        c = OverheadBudgetController(0.05, initial_reset_value=500)
        overheads = self.simulate(c, rate=2.5)
        assert overheads[-1] == pytest.approx(0.05, rel=0.1)
        assert c.converged

    def test_converges_from_above_and_below(self):
        for r0 in (100, 1_000_000):
            c = OverheadBudgetController(0.02, initial_reset_value=r0)
            overheads = self.simulate(c, rate=1.8)
            assert overheads[-1] == pytest.approx(0.02, rel=0.15)

    def test_tracks_rate_change(self):
        c = OverheadBudgetController(0.05, initial_reset_value=1000)
        self.simulate(c, rate=1.0, epochs=4)
        overheads = self.simulate(c, rate=4.0, epochs=4)
        assert overheads[-1] == pytest.approx(0.05, rel=0.15)

    def test_zero_sample_epoch_keeps_r(self):
        c = OverheadBudgetController(0.05, initial_reset_value=777)
        assert c.observe_epoch(0, 1_000_000) == 777

    def test_history_recorded(self):
        c = OverheadBudgetController(0.05)
        c.observe_epoch(10, 100_000)
        assert len(c.history) == 1
        assert isinstance(c.history[0], EpochObservation)

    def test_event_rate_property(self):
        obs = EpochObservation(reset_value=1000, samples=20, cycles=10_000)
        assert obs.event_rate_per_cycle == 2.0
        assert EpochObservation(1000, 5, 0).event_rate_per_cycle == 0.0

    def test_not_converged_initially(self):
        assert not OverheadBudgetController(0.05).converged


class TestEndToEndWithSimulator:
    def test_converges_on_real_workload(self):
        """Epochs = repeated SPEC kernel runs; controller holds a 5% budget."""
        from repro.machine.events import HWEvent
        from repro.machine.machine import Machine
        from repro.machine.pebs import PEBSConfig
        from repro.runtime.scheduler import Scheduler
        from repro.workloads.spec import SpecKernel

        c = OverheadBudgetController(0.05, initial_reset_value=400)
        base = None
        for _ in range(4):
            kernel = SpecKernel("bzip2", duration_cycles=1_000_000)
            machine = Machine(n_cores=1)
            machine.attach_pebs(
                0, PEBSConfig(HWEvent.UOPS_RETIRED_ALL, c.reset_value)
            )
            unit = machine.pebs_units(0)[0]
            Scheduler(machine, kernel.threads()).run()
            if base is None:
                plain = Machine(n_cores=1)
                Scheduler(plain, SpecKernel("bzip2", duration_cycles=1_000_000).threads()).run()
                base = plain.core(0).clock
            c.observe_epoch(unit.sample_count, machine.core(0).clock)
        # Final epoch's true overhead near the budget.
        final = Machine(n_cores=1)
        final.attach_pebs(0, PEBSConfig(HWEvent.UOPS_RETIRED_ALL, c.reset_value))
        Scheduler(final, SpecKernel("bzip2", duration_cycles=1_000_000).threads()).run()
        overhead = (final.core(0).clock - base) / base
        assert overhead == pytest.approx(0.05, rel=0.25)
