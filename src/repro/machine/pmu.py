"""Programmable per-core performance counters.

A counter is configured with a hardware event and a reset value R (paper
Section III-B): the register starts at -R, increments once per event
occurrence, and on overflow the attached *sink* (the PEBS unit or the
software sampler) takes a sample and the register resets to -R.  We track
the equivalent "events remaining until overflow" scalar.

Event occurrences inside a block are assumed uniformly spread over the
block's cycles, so the k-th event of a block executing ``cycles`` cycles
from ``start`` happens at ``start + cycles * k / total``.  Only the overflow
positions are materialised — one exact integer timestamp per overflow, in a
plain list (never a Python loop over events).  A block with a few overflows
is the common case, where list arithmetic on Python ints beats allocating
NumPy arrays.

Event counts arrive as an *event vector* (see
:mod:`repro.machine.events`): each counter caches its event's index once,
so the per-block path indexes a tuple instead of hashing enum members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.errors import ConfigError
from repro.machine.events import EVENT_INDEX, HWEvent


class OverflowSink(Protocol):
    """Receiver of counter overflows (PEBS unit or software sampler)."""

    def on_overflows(self, timestamps: Sequence[int], ip: int, tag: int) -> int:
        """Handle overflow samples; return extra cycles charged to the core."""
        ...


@dataclass(frozen=True)
class CounterConfig:
    """Event + reset value pair, as configured into the PMU."""

    event: HWEvent
    reset_value: int

    def __post_init__(self) -> None:
        if self.reset_value < 1:
            raise ConfigError(f"reset value must be >= 1, got {self.reset_value}")


class _CounterState:
    __slots__ = ("config", "sink", "index", "remaining", "overflows")

    def __init__(self, config: CounterConfig, sink: OverflowSink) -> None:
        self.config = config
        self.sink = sink
        #: Position of the counted event in an event vector.
        self.index = EVENT_INDEX[config.event]
        self.remaining = config.reset_value
        self.overflows = 0


class PMU:
    """The performance monitoring unit of one core.

    The paper uses a single (event, reset value) pair; we allow several
    simultaneous counters, each with its own sink, which is what lets the
    extension experiments sample cache misses alongside uops.
    """

    def __init__(self) -> None:
        self._counters: list[_CounterState] = []

    def add_counter(self, config: CounterConfig, sink: OverflowSink) -> None:
        """Program a counter; counting starts with the next executed block."""
        self._counters.append(_CounterState(config, sink))

    def set_reset_value(self, sink: OverflowSink, reset_value: int) -> None:
        """Reprogram the reset value of the counter feeding ``sink``.

        This is the adaptive-backoff hook: under sustained overflow the
        overload controller raises R mid-run (and later restores it).
        Takes effect from the next overflow — the in-flight countdown
        (``remaining``) is deliberately left alone, exactly as rewriting
        the reset MSR on real hardware leaves the live counter register.
        """
        if reset_value < 1:
            raise ConfigError(f"reset value must be >= 1, got {reset_value}")
        for state in self._counters:
            if state.sink is sink:
                state.config = CounterConfig(state.config.event, reset_value)
                return
        raise ConfigError("no counter is attached to that sink")

    @property
    def counter_count(self) -> int:
        return len(self._counters)

    def total_overflows(self) -> int:
        """Total overflow (sample) events across all counters."""
        return sum(c.overflows for c in self._counters)

    def process_block(
        self,
        ip: int,
        start: int,
        cycles: int,
        counts: Sequence[int],
        tag: int,
    ) -> int:
        """Advance every counter over one executed block.

        ``counts`` is the block's event vector.  Returns the total extra
        cycles the sinks charged (PEBS assists, buffer drains, software
        interrupt handlers).
        """
        extra = 0
        for state in self._counters:
            k = counts[state.index]
            first = state.remaining
            if k < first:
                if k > 0:
                    state.remaining = first - k
                continue
            reset = state.config.reset_value
            # 1-indexed positions (in event occurrences) of each overflow.
            last = k - (k - first) % reset
            timestamps = [
                start + (cycles * p) // k for p in range(first, last + 1, reset)
            ]
            state.remaining = reset - (k - last)
            state.overflows += len(timestamps)
            extra += state.sink.on_overflows(timestamps, ip, tag)
        return extra
