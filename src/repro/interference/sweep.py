"""Diagnostic sweeps: recover hidden machine geometry from observed cliffs.

SMTcheck-style end-to-end checks that the simulator behaves like
hardware: instead of reading the :class:`~repro.machine.config.MachineSpec`,
each sweep stresses the machine through its public execution surface and
reads the geometry back from performance cliffs —

* :func:`sweep_cache_geometry` — walk working sets of growing size; a
  sequential sweep under LRU collapses to 0 % hits the moment the set
  exceeds a level's capacity, so cycles/access jumps at each capacity;
* :func:`sweep_queue_depth` — push against a stalled consumer; the first
  push that blocks reveals the ring capacity;
* :func:`sweep_sampler_saturation` — shrink the software sampler's
  period R; the achieved inter-sample interval floors at the handler
  cost (the paper's Fig 4 ≥10 µs saturation).

If a sweep's estimate disagrees with the spec it ran on, either the
machine model or the measurement path is broken — which is exactly what
the interference matrix needs to trust before scoring attribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InterferenceError
from repro.machine.block import LINE_BYTES, Block, MemRef, timed_block
from repro.machine.config import CacheLevelSpec, MachineSpec
from repro.machine.events import HWEvent
from repro.machine.machine import Machine
from repro.machine.sampler import SoftwareSamplerConfig
from repro.runtime.actions import Exec, IdleUntil, Pop, Push
from repro.runtime.queue import SPSCQueue
from repro.runtime.scheduler import Scheduler
from repro.runtime.thread import AppThread

#: Scaled-down spec the default cache sweep probes.  The cache model walks
#: each line access in Python, so the sweep's cost follows the largest
#: probed region (4x the LLC): this geometry sweeps in ~0.04 s, the
#: default 8 MB-LLC machine in ~3 s (2-vCPU x86_64, Python 3.11).
SMALL_GEOMETRY = MachineSpec(
    l1=CacheLevelSpec(8 * 1024, 8, 4),
    l2=CacheLevelSpec(32 * 1024, 8, 12),
    llc=CacheLevelSpec(128 * 1024, 16, 42),
)


@dataclass(frozen=True)
class Cliff:
    """One observed jump in the cycles/access curve."""

    size_before: int
    size_after: int
    cycles_before: float
    cycles_after: float

    @property
    def jump(self) -> float:
        return self.cycles_after / self.cycles_before - 1.0


@dataclass(frozen=True)
class CacheSweepResult:
    """Cycles/access curve over working-set size, with detected cliffs."""

    sizes: tuple[int, ...]
    cycles_per_access: tuple[float, ...]
    cliffs: tuple[Cliff, ...]

    @property
    def estimates(self) -> dict[str, int]:
        """Recovered capacities: first three cliffs → l1, l2, llc."""
        names = ("l1", "l2", "llc")
        return {
            name: cliff.size_before for name, cliff in zip(names, self.cliffs)
        }

    def describe(self) -> str:
        lines = ["cache sweep (cycles/access by working-set size):"]
        for size, cpa in zip(self.sizes, self.cycles_per_access):
            lines.append(f"  {size / 1024:8.0f} KiB  {cpa:7.2f}")
        for name, cap in self.estimates.items():
            lines.append(f"  recovered {name} capacity ~ {cap / 1024:.0f} KiB")
        return "\n".join(lines)


def sweep_cache_geometry(
    spec: MachineSpec = SMALL_GEOMETRY,
    sizes: tuple[int, ...] | None = None,
    min_jump: float = 0.3,
) -> CacheSweepResult:
    """Recover cache capacities from latency cliffs of a sequential sweep.

    For each working-set size the sweep walks the region once to warm it,
    then measures a second pass.  Under true LRU a sequential re-walk of
    a region even one line larger than a level's capacity misses that
    level on *every* access (the classic LRU pathology), so the curve
    steps sharply at each capacity; with power-of-two probe sizes the
    last size before a jump *is* the capacity.
    """
    if sizes is None:
        lo = min(spec.l1.size_bytes, 8 * 1024) // 2
        hi = spec.llc.size_bytes * 4
        out = []
        s = lo
        while s <= hi:
            out.append(s)
            s *= 2
        sizes = tuple(out)
    cpa: list[float] = []
    for size in sizes:
        n_lines = max(1, size // LINE_BYTES)
        machine = Machine(spec=spec, n_cores=1, with_caches=True)
        core = machine.core(0)
        ref = MemRef(base=0x1000_0000, count=n_lines, stride=LINE_BYTES)
        core.execute(Block(ip=0x40_0000, uops=n_lines, mem=ref))  # warm pass
        outcome = core.execute(Block(ip=0x40_0000, uops=n_lines, mem=ref))
        cpa.append(outcome.cycles / n_lines)
    cliffs = [
        Cliff(sizes[i], sizes[i + 1], cpa[i], cpa[i + 1])
        for i in range(len(sizes) - 1)
        if cpa[i] > 0 and cpa[i + 1] / cpa[i] - 1.0 > min_jump
    ]
    return CacheSweepResult(
        sizes=tuple(sizes),
        cycles_per_access=tuple(cpa),
        cliffs=tuple(cliffs),
    )


@dataclass(frozen=True)
class QueueSweepResult:
    """Per-push producer timestamps against a stalled consumer."""

    push_start_ts: tuple[int, ...]
    #: Number of pushes that completed before the first blocking one —
    #: the recovered ring capacity (None: never blocked within max_pushes).
    recovered_depth: int | None

    def describe(self) -> str:
        depth = "unbounded (never blocked)" if self.recovered_depth is None else str(
            self.recovered_depth
        )
        return f"queue sweep: {len(self.push_start_ts)} pushes, recovered depth {depth}"


def sweep_queue_depth(
    capacity: int | None,
    max_pushes: int = 64,
    stall_threshold_cycles: int = 100_000,
) -> QueueSweepResult:
    """Recover a ring's capacity by pushing against a stalled consumer.

    The consumer idles far in the future before draining; the producer
    timestamps each push attempt.  Pushes 1..capacity complete
    back-to-back; push capacity+1 blocks until the consumer's first pop,
    visible as a huge gap in the timestamp series.
    """
    if max_pushes < 2:
        raise InterferenceError("max_pushes must be >= 2")
    far_future = 50_000_000
    q = SPSCQueue("probe", capacity=capacity)
    stamps: list[int] = []

    def producer():
        for i in range(max_pushes):
            outcome = yield Exec(timed_block(0x40_0000, 10))
            stamps.append(outcome.start)
            yield Push(q, i)

    def consumer():
        yield IdleUntil(far_future)
        for _ in range(max_pushes):
            yield Pop(q)

    machine = Machine(spec=MachineSpec(), n_cores=2)
    Scheduler(
        machine,
        [
            AppThread("probe-tx", 0, producer, 0x40_0000),
            AppThread("probe-rx", 1, consumer, 0x40_0400),
        ],
    ).run()
    gaps = np.diff(np.asarray(stamps, dtype=np.int64))
    blocked = np.nonzero(gaps > stall_threshold_cycles)[0]
    # gaps[i] spans Exec i+1's start minus Exec i's start, i.e. it contains
    # Push i; the first oversized gap marks the first *blocking* push, and
    # the pushes before it — exactly its 0-based index — all completed.
    recovered = int(blocked[0]) if blocked.size else None
    return QueueSweepResult(push_start_ts=tuple(stamps), recovered_depth=recovered)


@dataclass(frozen=True)
class SamplerSweepResult:
    """Achieved inter-sample interval by requested period R (Fig 4)."""

    #: requested R -> median achieved inter-sample interval (cycles).
    achieved: dict[int, float]
    #: The floor the interval saturates at (cycles).
    floor_cycles: float

    def describe(self, freq_ghz: float = 3.0) -> str:
        lines = ["sampler sweep (requested R -> achieved interval, cycles):"]
        for r in sorted(self.achieved, reverse=True):
            lines.append(f"  R={r:>7}  {self.achieved[r]:10.0f}")
        lines.append(
            f"  saturation floor ~ {self.floor_cycles:.0f} cycles "
            f"({self.floor_cycles / freq_ghz / 1000:.1f} us)"
        )
        return "\n".join(lines)


def sweep_sampler_saturation(
    spec: MachineSpec = MachineSpec(),
    reset_values: tuple[int, ...] = (200_000, 100_000, 50_000, 20_000, 8_000, 2_000),
    total_cycles: int = 3_000_000,
) -> SamplerSweepResult:
    """Recover the software sampler's handler-cost floor (Fig 4's ≥10 µs).

    Runs a fixed retirement-heavy workload under an interrupt-driven
    sampler at decreasing periods; below the handler cost the *achieved*
    interval stops following R and floors at roughly the handler time.
    """
    achieved: dict[int, float] = {}
    for r in reset_values:
        machine = Machine(spec=spec, n_cores=1)
        sampler = machine.attach_software_sampler(
            0, SoftwareSamplerConfig(HWEvent.UOPS_RETIRED_ALL, r)
        )
        core = machine.core(0)
        block_uops = 20_000
        n_blocks = max(1, int(total_cycles * spec.ipc) // block_uops)
        for _ in range(n_blocks):
            core.execute(Block(ip=0x40_0000, uops=block_uops))
        ts = sampler.finalize().ts
        if ts.shape[0] >= 2:
            achieved[r] = float(np.median(np.diff(ts)))
        else:
            achieved[r] = float("inf")
    finite = [v for v in achieved.values() if np.isfinite(v)]
    if not finite:
        raise InterferenceError("sampler sweep produced no samples")
    return SamplerSweepResult(achieved=achieved, floor_cycles=min(finite))
