"""One simulated CPU core: clock, block execution, PMU integration.

A core owns an integer cycle clock (its TSC — invariant and synchronised
across cores, as on real Skylake), optionally a private cache hierarchy, and
a PMU.  It executes :class:`~repro.machine.block.Block` quanta: charging
base cycles (``ceil(uops / ipc)``), cache penalties, branch-miss penalties,
then letting the PMU advance its counters and charge sampling overhead.

``tag_register`` models the general-purpose register (r13 in the paper's
Section V-A discussion) where a timer-switching runtime can park the
current data-item ID; PEBS records capture it.
"""

from __future__ import annotations

import math

from repro.errors import SimulationError
from repro.machine.block import Block, BlockOutcome
from repro.machine.cache import CacheHierarchy
from repro.machine.config import MachineSpec
from repro.machine.pebs import TAG_NONE
from repro.machine.pmu import PMU


class SimCore:
    """A single core with its own clock, caches, and PMU."""

    def __init__(
        self,
        core_id: int,
        spec: MachineSpec,
        hierarchy: CacheHierarchy | None = None,
        pmu: PMU | None = None,
    ) -> None:
        self.core_id = core_id
        self.spec = spec
        self.hierarchy = hierarchy
        self.pmu = pmu if pmu is not None else PMU()
        self.clock: int = 0
        self.tag_register: int = TAG_NONE
        self.blocks_executed = 0
        self.uops_retired = 0
        self.idle_cycles = 0

    @property
    def tsc(self) -> int:
        """Current timestamp-counter value (cycles)."""
        return self.clock

    def execute(self, block: Block) -> BlockOutcome:
        """Run one block to retirement; advance the clock; feed the PMU."""
        start = self.clock
        n_lines = penalty = l1_miss = l2_miss = llc_miss = 0
        if block.mem is not None:
            lines = block.line_addresses()
            n_lines = int(lines.shape[0])
            if n_lines and self.hierarchy is not None:
                mem = self.hierarchy.access_lines(lines)
                penalty = math.ceil(mem.penalty_cycles / block.mem_mlp)
                l1_miss, l2_miss, llc_miss = (
                    mem.l1_misses, mem.l2_misses, mem.llc_misses
                )
        spec = self.spec
        uops = block.uops
        cycles = (
            math.ceil(uops / spec.ipc)
            + penalty
            + block.mispredicts * spec.branch_miss_penalty_cycles
            + block.extra_cycles
        )
        # The event vector, in HWEvent declaration order.
        counts = (
            uops,
            block.resolved_insts,
            cycles,
            block.branches,
            block.mispredicts,
            n_lines,
            l1_miss,
            l2_miss,
            llc_miss,
        )
        overhead = self.pmu.process_block(
            block.ip, start, cycles, counts, self.tag_register
        )
        self.clock = start + cycles + overhead
        self.blocks_executed += 1
        self.uops_retired += uops
        return BlockOutcome(start, cycles, overhead, counts)

    def advance_to(self, t: int) -> None:
        """Jump the clock forward to ``t`` without retiring anything.

        Used for genuinely idle time (a source thread pacing its input).
        No events occur, so attached samplers see nothing — unlike
        :meth:`spin_until`, which models busy-polling.
        """
        if t < self.clock:
            raise SimulationError(
                f"core {self.core_id}: cannot advance clock backwards "
                f"({self.clock} -> {t})"
            )
        self.idle_cycles += t - self.clock
        self.clock = t

    def spin_until(self, t: int, spin_ip: int) -> BlockOutcome | None:
        """Busy-poll (retiring pause-loop uops at ~1 uop/cycle) until ``t``.

        This is how a pinned DPDK-style worker waits on an empty queue: it
        keeps retiring instructions, so PEBS keeps sampling, and those
        samples carry the poll loop's ip.  Returns the outcome of the
        aggregated spin block, or None if no wait was needed.
        """
        gap = t - self.clock
        if gap <= 0:
            return None
        base = math.ceil(gap / self.spec.ipc)
        block = Block(ip=spin_ip, uops=gap, extra_cycles=gap - base)
        return self.execute(block)
