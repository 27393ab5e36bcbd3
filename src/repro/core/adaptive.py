"""Closed-loop reset-value control (automating Section V-C).

The paper's workflow for picking R is manual: measure the event rate,
know the per-sample cost (ref [6]), solve for the R that meets an
overhead budget.  This module closes the loop: run short epochs, observe
how many samples each actually took, and update R so the *measured*
sampling overhead converges to the budget — robust to workload phase
changes that shift the event rate.

The update is exact rather than incremental: one epoch's
``(samples, R, cycles)`` determines the event rate, and the budget
equation ``rate * cost / R <= budget`` gives the next R directly, with
an optional smoothing factor for noisy epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass
class EpochObservation:
    """What one epoch measured."""

    reset_value: int
    samples: int
    cycles: int

    @property
    def event_rate_per_cycle(self) -> float:
        """Events per cycle implied by the samples taken at this R."""
        if self.cycles <= 0:
            return 0.0
        return self.samples * self.reset_value / self.cycles


@dataclass
class OverheadBudgetController:
    """Adapts R between epochs to hold a sampling-overhead budget.

    Parameters
    ----------
    target_overhead:
        Budget as a fraction of execution time (e.g. 0.05).
    per_sample_cycles:
        Cost of one sample (the PEBS assist; ref [6]'s fitted slope).
    initial_reset_value:
        Starting R for the first epoch.
    smoothing:
        Exponential smoothing of the measured event rate in (0, 1];
        1.0 = trust the last epoch completely.
    min_reset / max_reset:
        Clamp for the recommendation.
    """

    target_overhead: float
    per_sample_cycles: float = 750.0
    initial_reset_value: int = 1000
    smoothing: float = 1.0
    min_reset: int = 100
    max_reset: int = 10_000_000
    history: list[EpochObservation] = field(default_factory=list)
    _rate: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.target_overhead < 1.0:
            raise ConfigError(
                f"target overhead must be in (0, 1), got {self.target_overhead}"
            )
        if self.per_sample_cycles <= 0:
            raise ConfigError("per-sample cost must be positive")
        if not 0.0 < self.smoothing <= 1.0:
            raise ConfigError(f"smoothing must be in (0, 1], got {self.smoothing}")
        if not 1 <= self.min_reset <= self.max_reset:
            raise ConfigError("need 1 <= min_reset <= max_reset")
        self._next = max(self.min_reset, min(self.initial_reset_value, self.max_reset))

    @property
    def reset_value(self) -> int:
        """The R to use for the next epoch."""
        return self._next

    def measured_overhead(self, obs: EpochObservation) -> float:
        """Overhead fraction an epoch paid under the linear cost model."""
        if obs.cycles <= 0:
            return 0.0
        return obs.samples * self.per_sample_cycles / obs.cycles

    def observe_epoch(self, samples: int, cycles: int) -> int:
        """Feed one epoch's outcome; returns the recommended next R."""
        if samples < 0 or cycles < 0:
            raise ConfigError("samples and cycles must be >= 0")
        obs = EpochObservation(
            reset_value=self._next, samples=samples, cycles=cycles
        )
        self.history.append(obs)
        # The event rate must be computed against the *application's* own
        # cycles: the epoch's wall cycles include the sampling overhead
        # itself, which would bias the rate (and hence R) low exactly
        # when the overhead is far from budget.
        app_cycles = cycles - samples * self.per_sample_cycles
        if app_cycles <= 0:
            app_cycles = cycles
        rate = samples * obs.reset_value / app_cycles if app_cycles > 0 else 0.0
        if rate > 0:
            if self._rate is None:
                self._rate = rate
            else:
                self._rate += self.smoothing * (rate - self._rate)
            ideal = self._rate * self.per_sample_cycles / self.target_overhead
            self._next = int(max(self.min_reset, min(self.max_reset, round(ideal))))
        return self._next

    @property
    def converged(self) -> bool:
        """True once the last epoch's overhead was within 20% of target."""
        if not self.history:
            return False
        last = self.history[-1]
        oh = self.measured_overhead(last)
        return abs(oh - self.target_overhead) <= 0.2 * self.target_overhead
