"""The execution quantum of the simulated machine.

Application code does not execute instruction-by-instruction (that would be
hopeless in Python, per the HPC guidance: keep the hot loop out of the
interpreter).  Instead it emits :class:`Block` quanta — "this stretch of code
at instruction pointer ``ip`` retired ``uops`` micro-ops, touched this
memory, and took this many branches".  The core charges cycles for a block
as a whole and the PMU interpolates event positions *inside* the block, so
sample timestamps still have sub-block resolution.

Memory accesses are expressed either as an explicit array of byte addresses
or as a :class:`MemRef` descriptor (base/count/stride) that the cache expands
lazily — a view-like representation that avoids materialising large arrays
for regular access patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from repro.errors import SimulationError
from repro.machine.events import HWEvent

#: Cache line size used throughout the simulated machine (bytes).
LINE_BYTES = 64


@dataclass(frozen=True)
class MemRef:
    """A strided memory access pattern: ``count`` accesses from ``base``.

    ``stride`` is in bytes.  ``base`` is a byte address.  A stride of zero
    means the same address is touched repeatedly (e.g. a lock word).
    """

    base: int
    count: int
    stride: int = LINE_BYTES

    def __post_init__(self) -> None:
        if self.count < 0:
            raise SimulationError(f"MemRef count must be >= 0, got {self.count}")
        if self.base < 0:
            raise SimulationError(f"MemRef base must be >= 0, got {self.base}")

    def addresses(self) -> np.ndarray:
        """Materialise the byte addresses of this pattern (int64 array)."""
        if self.count == 0:
            return np.empty(0, dtype=np.int64)
        return self.base + self.stride * np.arange(self.count, dtype=np.int64)

    def line_addresses(self) -> np.ndarray:
        """Cache-line addresses touched, in access order (int64 array)."""
        return self.addresses() // LINE_BYTES


def _as_line_array(mem: "MemRef | np.ndarray | None") -> np.ndarray:
    """Normalise a block's memory description to an array of line addresses."""
    if mem is None:
        return np.empty(0, dtype=np.int64)
    if isinstance(mem, MemRef):
        return mem.line_addresses()
    arr = np.asarray(mem, dtype=np.int64)
    if arr.ndim != 1:
        raise SimulationError(f"memory address array must be 1-D, got shape {arr.shape}")
    return arr // LINE_BYTES


@dataclass(frozen=True)
class Block:
    """A straight-line stretch of retired work attributed to one ip.

    Parameters
    ----------
    ip:
        Representative instruction-pointer value for the stretch.  Samples
        taken inside the block carry this ip; the symbol table maps it back
        to a function.
    uops:
        Micro-ops retired by the block (must be >= 1).
    mem:
        Memory accessed by the block, as a :class:`MemRef`, an array of byte
        addresses, or None.
    branches:
        Number of retired branch instructions.
    mispredicts:
        Number of mispredicted branches (each costs the machine's
        misprediction penalty).
    insts:
        Retired instructions; defaults to ``ceil(uops / 1.2)`` (Skylake-ish
        fused-uop ratio) when not given.
    extra_cycles:
        Additional stall cycles the emitting code wants to charge directly
        (e.g. an I/O wait modelled by the application).
    mem_mlp:
        Memory-level parallelism: how many outstanding misses the code
        sustains (hardware prefetching / independent loads).  Cache *state*
        and miss *counts* are unaffected; only the charged miss penalty is
        divided by this factor.  1 = fully serial (pointer chasing);
        streaming kernels reach 8-16.
    """

    ip: int
    uops: int
    mem: MemRef | np.ndarray | None = None
    branches: int = 0
    mispredicts: int = 0
    insts: int | None = None
    extra_cycles: int = 0
    mem_mlp: int = 1

    def __post_init__(self) -> None:
        if self.uops < 1:
            raise SimulationError(f"Block must retire at least one uop, got {self.uops}")
        if self.ip < 0:
            raise SimulationError(f"Block ip must be >= 0, got {self.ip}")
        if self.branches < 0 or self.mispredicts < 0:
            raise SimulationError("branch counts must be >= 0")
        if self.mispredicts > self.branches:
            raise SimulationError(
                f"mispredicts ({self.mispredicts}) cannot exceed branches ({self.branches})"
            )
        if self.extra_cycles < 0:
            raise SimulationError(f"extra_cycles must be >= 0, got {self.extra_cycles}")
        if self.mem_mlp < 1:
            raise SimulationError(f"mem_mlp must be >= 1, got {self.mem_mlp}")

    @property
    def resolved_insts(self) -> int:
        """Retired instruction count (defaulted from uops when unset)."""
        if self.insts is not None:
            return self.insts
        return max(1, math.ceil(self.uops / 1.2))

    def line_addresses(self) -> np.ndarray:
        """Cache-line addresses touched by this block, in order."""
        return _as_line_array(self.mem)


def timed_block(ip: int, cycles: int, ipc: float = 4.0) -> Block:
    """A block that takes exactly ``cycles`` cycles, retiring 1 uop/cycle.

    Convenience for cost-modelled code (queue operations, marking calls,
    syscall-ish stretches) where the wall time is the specification and
    the uop count just has to keep event-based sampling realistic.
    """
    if cycles < 1:
        raise SimulationError(f"timed_block needs >= 1 cycle, got {cycles}")
    base = math.ceil(cycles / ipc)
    return Block(ip=ip, uops=cycles, extra_cycles=cycles - base)


class BlockOutcome(NamedTuple):
    """What happened when a core executed a block.

    ``start`` and ``cycles`` describe the position of the block on the core's
    clock *excluding* sampling overhead charged after it; ``overhead_cycles``
    is the sampling/interrupt cost appended by the PMU.  ``counts`` is the
    event vector (per-event occurrence counts in :class:`HWEvent`
    declaration order) the counters advanced by.
    """

    start: int
    cycles: int
    overhead_cycles: int
    counts: tuple[int, ...] = ()

    @property
    def end(self) -> int:
        """Core clock value after the block and its sampling overhead."""
        return self.start + self.cycles + self.overhead_cycles

    @property
    def event_counts(self) -> Mapping[HWEvent, int]:
        """Read-only per-event view of :attr:`counts` (built on demand)."""
        return MappingProxyType(dict(zip(HWEvent, self.counts)))
