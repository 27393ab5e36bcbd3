"""Precise Event Based Sampling (PEBS) model.

Semantics follow paper Section III-B and the simple-pebs prototype of
Section III-E:

* On counter overflow the *hardware* stores a record — timestamp (TSC),
  instruction pointer, general-purpose registers — into the PEBS buffer.
  The running program pays a microcode-assist cost of ~250 ns per sample
  (ref [6]) but is **not** interrupted.
* Only when the buffer becomes full does the CPU raise an interrupt; the
  kernel module + helper program copy the buffer out (we charge a drain
  cost and account the bytes written, which feeds the Section IV-C3 data
  rate analysis).
* PEBS can only sample a pre-defined record: there is no way to make the
  hardware record the data-item ID (the technical issue the paper's hybrid
  integration solves).  The record *does* include GP registers, which the
  Section V-A extension exploits by parking the item ID in r13; our sample
  record therefore carries the core's tag register value.

Samples are accumulated in Python lists and converted to NumPy arrays once
at :meth:`PEBSUnit.finalize` (append-then-convert beats per-sample ndarray
growth; see the HPC guide on avoiding repeated reallocation).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from operator import add
from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.machine.config import MachineSpec
from repro.machine.events import HWEvent, pebs_supports
from repro.obs.instrumented import pipeline as _obs
from repro.units import ns_to_cycles

#: Tag-register value meaning "no data-item ID parked in the register".
TAG_NONE = -1


@dataclass(frozen=True)
class PEBSConfig:
    """User-visible PEBS configuration: one (event, reset value) pair.

    ``double_buffered`` enables the Section III-E future-work
    optimisation: on buffer-full the hardware flips to a spare buffer and
    the helper drains the full one asynchronously; the traced program
    only stalls if the spare also fills before that drain completes.
    """

    event: HWEvent
    reset_value: int
    double_buffered: bool = False

    def __post_init__(self) -> None:
        if self.reset_value < 1:
            raise ConfigError(f"reset value must be >= 1, got {self.reset_value}")
        if not pebs_supports(self.event):
            raise ConfigError(
                f"PEBS cannot sample on {self.event} (the paper notes PEBS "
                "does not support counting bare cycles, Section V-C)"
            )


@dataclass(frozen=True)
class Sample:
    """One PEBS record as seen by the analysis side."""

    ts: int
    ip: int
    tag: int = TAG_NONE


@dataclass(frozen=True)
class SampleArrays:
    """Column-oriented view of all samples taken by one PEBS unit."""

    ts: np.ndarray
    ip: np.ndarray
    tag: np.ndarray

    def __len__(self) -> int:
        return int(self.ts.shape[0])

    def __getitem__(self, idx: int) -> Sample:
        return Sample(int(self.ts[idx]), int(self.ip[idx]), int(self.tag[idx]))

    @property
    def nbytes(self) -> int:
        """Raw in-memory size of the three columns."""
        return int(self.ts.nbytes + self.ip.nbytes + self.tag.nbytes)

    def slice(self, start: int, stop: int) -> "SampleArrays":
        """A zero-copy view of samples ``[start, stop)``."""
        return SampleArrays(
            ts=self.ts[start:stop], ip=self.ip[start:stop], tag=self.tag[start:stop]
        )

    def iter_chunks(self, chunk_size: int):
        """Yield bounded-size views in timestamp order (streaming ingest)."""
        if chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        for start in range(0, len(self), chunk_size):
            yield self.slice(start, start + chunk_size)


class PEBSUnit:
    """Per-core PEBS machinery: buffer, assist cost, drain interrupts.

    ``overload`` (an :class:`~repro.machine.overload.OverloadPolicy`) and
    ``controller`` (an
    :class:`~repro.machine.overload.AdaptiveResetController`) are bound
    by :meth:`Machine.attach_pebs <repro.machine.machine.Machine.attach_pebs>`
    when overload-graceful capture is requested; both default to off,
    preserving the historical stall-on-overrun behaviour.
    """

    def __init__(self, config: PEBSConfig, spec: MachineSpec) -> None:
        if not spec.pebs_has_timestamps:
            raise ConfigError(
                "this CPU's PEBS records carry no timestamp; sampling "
                "timestamps with PEBS is only supported since Skylake "
                "(paper Table II) — the hybrid method cannot run here"
            )
        self.config = config
        self.spec = spec
        self._assist_cycles = ns_to_cycles(spec.pebs_assist_ns, spec.freq_ghz)
        self._switch_cycles = ns_to_cycles(spec.pebs_switch_ns, spec.freq_ghz)
        self._ts: list[int] = []
        self._ip: list[int] = []
        self._tag: list[int] = []
        self._buffered = 0
        self.drains = 0
        self.bytes_written = 0
        #: Virtual time the asynchronous drain finishes (double buffering).
        self._drain_busy_until = 0
        #: Cycles the core stalled waiting for the spare buffer.
        self.stall_cycles = 0
        #: Overload handling (bound by Machine.attach_pebs; see class doc).
        self.overload = None
        self.controller = None
        #: Samples shed by the overload policy, and their [lo, hi]
        #: timestamp spans — the degraded-capture record diagnosis uses.
        self.shed_samples = 0
        self.shed_spans: list[tuple[int, int]] = []
        #: Samples [0, barrier) are durably checkpointed and must never be
        #: shed (the watchdog advances this after each sealed delta).
        self.checkpoint_barrier = 0
        #: Optional online observer ``shed_listener(lo, hi, n)`` called
        #: the instant a span is shed (the shed-burst anomaly checker).
        self.shed_listener = None
        self._finalized: SampleArrays | None = None

    # -- OverflowSink protocol -------------------------------------------
    def on_overflows(self, timestamps: Sequence[int], ip: int, tag: int) -> int:
        """Record hardware samples; return cycles charged to the core.

        ``timestamps`` are the overflow positions on the *unperturbed*
        block timeline; each sample's recorded timestamp is shifted by the
        assist/drain overhead accrued earlier in the same block, so the
        cost of sampling stretches the sampled function's observed elapsed
        time exactly as a real microcode assist would.

        A batch that fits in the buffer without filling it (the common
        case: a few samples per block, thousands of records per buffer)
        only pays assists, so it is appended in one step per column.
        """
        if isinstance(timestamps, np.ndarray):
            # Keep the recorded columns Python ints, as the PMU sends them.
            timestamps = timestamps.tolist()
        n = len(timestamps)
        ins = _obs()
        ins.pebs_samples.inc(n)
        self._finalized = None
        if self._buffered + n < self.spec.pebs_buffer_records:
            assist = self._assist_cycles
            self._ts.extend(map(add, timestamps, count(0, assist)))
            self._ip.extend([ip] * n)
            self._tag.extend([tag] * n)
            self._buffered += n
            return n * assist
        extra = 0
        for t in timestamps:
            now = int(t) + extra
            self._ts.append(now)
            self._ip.append(ip)
            self._tag.append(tag)
            extra += self._assist_cycles
            self._buffered += 1
            if self._buffered >= self.spec.pebs_buffer_records:
                records = self.spec.pebs_buffer_records
                ins.pebs_buffer_fills.inc()
                if self.config.double_buffered:
                    extra += self._switch_cycles
                    pressured = now < self._drain_busy_until
                    if pressured and self.overload is not None and (
                        self.overload.shed_on_stall
                    ):
                        # Shed: the spare filled while the previous drain
                        # was still running.  Discard the full buffer
                        # (with span accounting) instead of stalling the
                        # traced core — degrade the data, not the
                        # measurement.
                        self._shed(records)
                    else:
                        if pressured:
                            # The spare filled before the previous drain
                            # finished: stall until the buffer frees.
                            stall = self._drain_busy_until - now
                            extra += stall
                            self.stall_cycles += stall
                            ins.pebs_stall_cycles.inc(stall)
                        self._drain_busy_until = (
                            max(now, self._drain_busy_until)
                            + self._drain_cost_cycles(records)
                        )
                        self._account_drain(records)
                    if self.controller is not None:
                        self.controller.on_buffer_fill(now, pressured)
                else:
                    extra += self._drain_cost_cycles(records)
                    self._account_drain(records)
                self._buffered = 0
        return extra

    def _shed(self, records: int) -> None:
        """Drop the just-filled buffer's samples (never below the
        durability barrier — sealed samples are already on disk)."""
        n = min(records, len(self._ts) - self.checkpoint_barrier)
        if n > 0:
            lo, hi = self._ts[-n], self._ts[-1]
            self.shed_spans.append((lo, hi))
            del self._ts[-n:]
            del self._ip[-n:]
            del self._tag[-n:]
            self.shed_samples += n
            self._finalized = None
            _obs().overflow_drops.inc(n)
            if self.shed_listener is not None:
                self.shed_listener(lo, hi, n)

    # -- host-side access --------------------------------------------------
    def flush(self) -> int:
        """Drain a partially-filled buffer (end of run); return cycle cost."""
        if self._buffered == 0:
            return 0
        cost = self._drain_cost_cycles(self._buffered)
        self._account_drain(self._buffered)
        self._buffered = 0
        return cost

    def finalize(self) -> SampleArrays:
        """Return all samples as sorted column arrays (cached)."""
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

    def snapshot_since(self, start: int) -> SampleArrays:
        """Copy of the samples appended at index ``start`` onward.

        The watchdog's checkpoint delta: per-core appends are monotone in
        virtual time, so ``[start:]`` is a valid sorted chunk without
        re-sorting (and without disturbing the live lists — capture
        continues while the copy is sealed).
        """
        return SampleArrays(
            ts=np.asarray(self._ts[start:], dtype=np.int64),
            ip=np.asarray(self._ip[start:], dtype=np.int64),
            tag=np.asarray(self._tag[start:], dtype=np.int64),
        )

    def _drain_cost_cycles(self, records: int) -> int:
        kb = records * self.spec.pebs_record_bytes / 1024.0
        ns = self.spec.pebs_drain_base_ns + kb * self.spec.pebs_drain_per_kb_ns
        return ns_to_cycles(ns, self.spec.freq_ghz)

    def _account_drain(self, records: int) -> None:
        self.drains += 1
        self.bytes_written += records * self.spec.pebs_record_bytes
