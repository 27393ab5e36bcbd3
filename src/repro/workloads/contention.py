"""Shared-LLC contention: the paper's second motivating fluctuation.

Paper Section I cites Dobrescu et al.: *"the performance of a software
packet-processing platform drops by 27% in the worst case due to shared
resource contentions"*.  This workload reproduces that mechanism with
the real cache model:

* the **victim** is a packet-processing worker whose lookup table (a
  rotating window sweeps it) fits the shared LLC when it runs alone, so
  items are fast after the first sweep;
* the **aggressor** is a streaming kernel on another core scanning a
  much larger array with high memory-level parallelism, continuously
  evicting the victim's lines from the shared LLC.

Running the victim with and without the aggressor gives the throughput
drop; tracing the victim per item shows *where* it goes (the table-walk
function's time and its LLC-miss samples grow, Section V-D).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.symbols import AddressAllocator, SymbolTable
from repro.errors import WorkloadError
from repro.machine.block import LINE_BYTES, Block, MemRef
from repro.machine.config import CacheLevelSpec, MachineSpec
from repro.runtime.actions import Exec, FnEnter, FnLeave, IdleUntil, Mark, SwitchKind
from repro.runtime.lock import SimLock
from repro.runtime.thread import AppThread


@dataclass(frozen=True)
class ContentionConfig:
    """Victim and aggressor shapes.

    Defaults are calibrated so the victim loses roughly a quarter of its
    throughput under contention on the default machine — the order of
    Dobrescu et al.'s 27 %.
    """

    n_items: int = 2000
    victim_region_bytes: int = 768 * 1024  # > L2, well inside the (scaled) LLC
    victim_lines_per_item: int = 96
    victim_base_uops: int = 16_000
    aggressor_region_bytes: int = 64 * 1024 * 1024
    aggressor_lines_per_block: int = 512
    aggressor_mlp: int = 16
    aggressor_uops_per_block: int = 2_048
    #: The aggressor alternates thrash bursts with idle phases (a
    #: co-located batch job's duty cycle).  A steady low rate would not
    #: contend at all — LRU protects the victim's recently-refreshed
    #: lines until the insertion rate crosses the associativity cliff —
    #: so bursty interference is both the realistic and the fluctuation-
    #: producing shape: identical packets are fast between bursts and
    #: slow during them.  A burst must outlast the victim's refresh
    #: period (one sweep of its region) to actually evict.
    aggressor_burst_blocks: int = 170
    aggressor_idle_cycles: int = 9_500_000
    #: LLC size for this study.  Scaled to 2 MB so that crossing the
    #: LRU associativity cliff needs ~20 K insertions per victim sweep
    #: instead of ~130 K — same physics, tractable simulation.
    llc_bytes: int = 2 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.n_items < 1:
            raise WorkloadError("need at least one item")
        if self.victim_lines_per_item < 1:
            raise WorkloadError("victim must touch at least one line per item")
        if self.victim_region_bytes < self.victim_lines_per_item * LINE_BYTES:
            raise WorkloadError("victim region smaller than one item's window")
        if self.aggressor_mlp < 1:
            raise WorkloadError("aggressor_mlp must be >= 1")


class ContentionApp:
    """Victim worker (+ optional aggressor) on a shared-LLC machine.

    Build the machine with ``with_caches=True``; the contention is real
    LLC state, not a cost model.
    """

    VICTIM_CORE = 0
    AGGRESSOR_CORE = 1

    def __init__(
        self,
        config: ContentionConfig = ContentionConfig(),
        with_aggressor: bool = True,
        rng=None,
    ) -> None:
        self.config = config
        self.with_aggressor = with_aggressor
        # Walk offsets are drawn once here (not in the body) so threads()
        # can be called repeatedly without consuming generator state: the
        # same seeded rng always yields the same bit-identical run.
        region_lines = config.victim_region_bytes // LINE_BYTES
        if rng is None:
            self._walk_offsets = [
                (item * config.victim_lines_per_item) % region_lines
                for item in range(1, config.n_items + 1)
            ]
        else:
            # One bounded draw of n_items gives the same values as n_items
            # scalar draws (PCG64 keeps its 32-bit buffer in the bit
            # generator), at a fraction of the cost.
            self._walk_offsets = rng.integers(
                0, region_lines, size=config.n_items
            ).tolist()
        alloc = AddressAllocator()
        self.victim_poll_ip = alloc.add("victim_loop")
        self.process_ip = alloc.add("process_packet")
        self.walk_ip = alloc.add("table_walk")
        self.aggr_ip = alloc.add("stream_scan")
        self.mark_ip = alloc.add("__mark")
        self.symtab: SymbolTable = alloc.table()
        #: Set by the victim when it finishes; the aggressor stops at the
        #: next block boundary after observing it.
        self._victim_done = False
        self.victim_base = 0x4000_0000
        self.aggr_base = 0x8000_0000

    def machine_spec(self) -> MachineSpec:
        """The machine this study runs on (scaled LLC; see config)."""
        return MachineSpec(
            llc=CacheLevelSpec(self.config.llc_bytes, 16, 42)
        )

    def _victim(self):
        cfg = self.config
        region_lines = cfg.victim_region_bytes // LINE_BYTES
        for item in range(1, cfg.n_items + 1):
            yield Mark(SwitchKind.ITEM_START, item)
            yield FnEnter(self.process_ip)
            yield Exec(
                Block(ip=self.process_ip, uops=cfg.victim_base_uops, branches=200)
            )
            yield FnLeave(self.process_ip)
            # The table walk: a window over the victim's region (rotating
            # by default, randomised when the app was built with an rng).
            first = self._walk_offsets[item - 1]
            count = min(cfg.victim_lines_per_item, region_lines - first)
            yield FnEnter(self.walk_ip)
            yield Exec(
                Block(
                    ip=self.walk_ip,
                    uops=count * 40,
                    mem=MemRef(
                        base=self.victim_base + first * LINE_BYTES,
                        count=count,
                        stride=LINE_BYTES,
                    ),
                    branches=count,
                )
            )
            yield FnLeave(self.walk_ip)
            yield Mark(SwitchKind.ITEM_END, item)
        self._victim_done = True

    def _aggressor(self):
        cfg = self.config
        region_lines = cfg.aggressor_region_bytes // LINE_BYTES
        offset = 0
        # Hard cap so a mis-configured run can never spin forever.
        for _ in range(2_000_000):
            if self._victim_done:
                return
            outcome = None
            for _ in range(cfg.aggressor_burst_blocks):
                count = min(cfg.aggressor_lines_per_block, region_lines - offset)
                outcome = yield Exec(
                    Block(
                        ip=self.aggr_ip,
                        uops=cfg.aggressor_uops_per_block,
                        mem=MemRef(
                            base=self.aggr_base + offset * LINE_BYTES,
                            count=count,
                            stride=LINE_BYTES,
                        ),
                        mem_mlp=cfg.aggressor_mlp,
                    )
                )
                offset = (offset + count) % region_lines
            if cfg.aggressor_idle_cycles > 0 and outcome is not None:
                yield IdleUntil(outcome.end + cfg.aggressor_idle_cycles)

    def threads(self) -> list[AppThread]:
        threads = [
            AppThread("victim", self.VICTIM_CORE, self._victim, self.victim_poll_ip)
        ]
        if self.with_aggressor:
            threads.append(
                AppThread("aggressor", self.AGGRESSOR_CORE, self._aggressor, self.aggr_ip)
            )
        return threads

    def group_of(self, item_id: int) -> str:
        """All victim items are identical — one similarity group."""
        return "packet"


@dataclass(frozen=True)
class LockConvoyConfig:
    """Shapes of the lock-convoy study.

    Defaults make the hog hold the lock ~30× longer than the victim
    needs it, so nearly every victim item queues behind a full hog
    critical section — the convoy the waiting-dependency diagnosis must
    name (`repro diagnose --why` should blame ``locked_update`` on the
    hog's core, not any victim code).
    """

    n_items: int = 24
    #: Cycles the hog spends inside the critical section per acquisition.
    hog_hold_uops: int = 60_000
    #: Cycles the victim spends inside the critical section per item.
    victim_hold_uops: int = 2_000
    #: Victim work outside the lock (keeps items non-degenerate).
    victim_prep_uops: int = 1_500
    #: Hog pause between acquisitions (lets the victim in sometimes).
    hog_gap_uops: int = 500

    def __post_init__(self) -> None:
        if self.n_items < 1:
            raise WorkloadError("need at least one item")
        if min(self.hog_hold_uops, self.victim_hold_uops) < 1:
            raise WorkloadError("critical sections must cost at least one uop")


class LockConvoyApp:
    """Two cores convoying on one lock — the second contention mechanism.

    Unlike :class:`ContentionApp` (cache interference, invisible to any
    queue), this fluctuation is *waiting*: the victim's items are slow
    because core 0 holds ``lock:shared`` inside ``locked_update``.  The
    recorded wait edges let ``repro diagnose --why`` name exactly that.
    """

    HOG_CORE = 0
    VICTIM_CORE = 1

    def __init__(self, config: LockConvoyConfig = LockConvoyConfig()) -> None:
        self.config = config
        alloc = AddressAllocator()
        self.poll_ip = alloc.add("convoy_loop")
        self.hog_ip = alloc.add("locked_update")
        self.victim_ip = alloc.add("handle_item")
        self.prep_ip = alloc.add("prepare_item")
        self.mark_ip = alloc.add("__mark")
        self.symtab: SymbolTable = alloc.table()
        self.lock = SimLock("shared")
        self._victim_done = False

    def _hog(self):
        cfg = self.config
        for _ in range(cfg.n_items * 4):
            if self._victim_done:
                return
            yield self.lock.acquire()
            yield FnEnter(self.hog_ip)
            yield Exec(Block(ip=self.hog_ip, uops=cfg.hog_hold_uops))
            yield FnLeave(self.hog_ip)
            yield self.lock.release()
            yield Exec(Block(ip=self.poll_ip, uops=cfg.hog_gap_uops))

    def _victim(self):
        cfg = self.config
        for item in range(1, cfg.n_items + 1):
            yield Mark(SwitchKind.ITEM_START, item)
            yield FnEnter(self.prep_ip)
            yield Exec(Block(ip=self.prep_ip, uops=cfg.victim_prep_uops))
            yield FnLeave(self.prep_ip)
            yield self.lock.acquire()
            yield FnEnter(self.victim_ip)
            yield Exec(Block(ip=self.victim_ip, uops=cfg.victim_hold_uops))
            yield FnLeave(self.victim_ip)
            yield self.lock.release()
            yield Mark(SwitchKind.ITEM_END, item)
        self._victim_done = True

    def threads(self) -> list[AppThread]:
        return [
            AppThread("hog", self.HOG_CORE, self._hog, self.poll_ip),
            AppThread("victim", self.VICTIM_CORE, self._victim, self.poll_ip),
        ]

    def group_of(self, item_id: int) -> str:
        """All victim items are identical — one similarity group."""
        return "item"
