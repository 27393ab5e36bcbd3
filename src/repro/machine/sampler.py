"""Software (perf-style) sampling via traditional performance counters.

The traditional counters are hardware, but *sampling program state* on
overflow is done by software: the counter raises an interrupt, the OS
suspends the target thread, and a handler walks its state (paper Sections
III-B and VI-B).  Two consequences, both reproduced here:

* every serviced overflow steals the handler time (~ 10 µs class) from the
  interrupted thread, and
* overflows arriving while the handler is busy cannot be serviced — so
  however small the reset value, the achieved sample interval is floored by
  the handler time.  This is the Fig 4 phenomenon that motivates PEBS.

An optional throttle models perf's ``kernel.perf_event_max_sample_rate``
auto-throttling (disabled in the paper's Fig 4 experiment and by default
here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.machine.config import MachineSpec
from repro.machine.events import HWEvent
from repro.machine.pebs import SampleArrays
from repro.obs.instrumented import pipeline as _obs
from repro.units import ns_to_cycles


@dataclass(frozen=True)
class SoftwareSamplerConfig:
    """Configuration of the perf-like sampler.

    ``throttle_max_rate_hz`` caps serviced samples per second of virtual
    time when not None (perf's default behaviour); the paper disables it.
    """

    event: HWEvent
    reset_value: int
    throttle_max_rate_hz: float | None = None
    #: Bound on retained samples (None = unbounded, the historical
    #: behaviour).  A long overloaded run must not grow the sample lists
    #: without limit; overflows past the bound are dropped *and counted*.
    capacity: int | None = None

    def __post_init__(self) -> None:
        if self.reset_value < 1:
            raise ConfigError(f"reset value must be >= 1, got {self.reset_value}")
        if self.throttle_max_rate_hz is not None and self.throttle_max_rate_hz <= 0:
            raise ConfigError("throttle_max_rate_hz must be positive when set")
        if self.capacity is not None and self.capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {self.capacity}")


class SoftwareSampler:
    """Interrupt-driven sampler; plugs into the PMU as an overflow sink."""

    def __init__(self, config: SoftwareSamplerConfig, spec: MachineSpec) -> None:
        self.config = config
        self.spec = spec
        self._handler_cycles = ns_to_cycles(spec.sw_handler_ns, spec.freq_ghz)
        if self.config.throttle_max_rate_hz is not None:
            min_gap_s = 1.0 / self.config.throttle_max_rate_hz
            self._throttle_gap = ns_to_cycles(min_gap_s * 1e9, spec.freq_ghz)
        else:
            self._throttle_gap = 0
        self._busy_until = -1
        self._ts: list[int] = []
        self._ip: list[int] = []
        self._tag: list[int] = []
        self.dropped = 0
        #: Optional online observer ``drop_listener(serviced, dropped)``
        #: called per overflow block — a live sample-rate-collapse signal
        #: (the achieved rate flooring of Fig 4, observed as it happens).
        self.drop_listener = None
        self._finalized: SampleArrays | None = None

    # -- OverflowSink protocol -------------------------------------------
    def on_overflows(self, timestamps: Sequence[int], ip: int, tag: int) -> int:
        """Service what the handler can; drop the rest.  Returns cycle cost.

        Like the PEBS unit, each serviced interrupt shifts later overflow
        positions within the same block by the handler time already spent —
        the target thread really was suspended for that long.
        """
        ins = _obs()
        extra = 0
        serviced = 0
        busy_drops = 0
        capacity_drops = 0
        cap = self.config.capacity
        min_gap = max(self._handler_cycles, self._throttle_gap)
        for t in timestamps:
            t = int(t) + extra
            if t < self._busy_until:
                self.dropped += 1
                busy_drops += 1
                continue
            if cap is not None and len(self._ts) >= cap:
                # The retained-sample bound is hit: the handler still runs
                # (the interrupt fired) but the record is discarded.
                self.dropped += 1
                capacity_drops += 1
                self._busy_until = t + min_gap
                extra += self._handler_cycles
                continue
            self._ts.append(t)
            self._ip.append(ip)
            self._tag.append(tag)
            self._busy_until = t + min_gap
            serviced += 1
            extra += self._handler_cycles
        if serviced:
            self._finalized = None
            ins.sw_samples.inc(serviced)
        if busy_drops:
            ins.sw_dropped.inc(busy_drops)
            ins.sw_drop_reason("busy").inc(busy_drops)
        if capacity_drops:
            ins.sw_dropped.inc(capacity_drops)
            ins.sw_drop_reason("capacity").inc(capacity_drops)
        if self.drop_listener is not None and (busy_drops or capacity_drops):
            self.drop_listener(serviced, busy_drops + capacity_drops)
        return extra

    # -- host-side access --------------------------------------------------
    def finalize(self) -> SampleArrays:
        """Return serviced samples as sorted column arrays (cached)."""
        if self._finalized is None:
            ts = np.asarray(self._ts, dtype=np.int64)
            ip = np.asarray(self._ip, dtype=np.int64)
            tag = np.asarray(self._tag, dtype=np.int64)
            order = np.argsort(ts, kind="stable")
            self._finalized = SampleArrays(ts=ts[order], ip=ip[order], tag=tag[order])
        return self._finalized

    @property
    def sample_count(self) -> int:
        return len(self._ts)
