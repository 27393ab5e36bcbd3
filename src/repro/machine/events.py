"""Hardware performance events counted by the simulated PMU.

The paper configures PEBS with ``UOPS_RETIRED.ALL`` for all experiments and
notes (Section V-D) that other per-core events — cache misses, branch
mispredictions, loads — can be sampled the same way.  Section V-C notes that
PEBS cannot count bare cycles; we preserve that restriction
(:data:`HWEvent.CYCLES` is valid for traditional counters but rejected by
the PEBS unit).

Per-block event counts travel as an *event vector*: a tuple of counts in
:class:`HWEvent` declaration order, indexed by :data:`EVENT_INDEX`.  The
simulator's per-block path uses it instead of a dict keyed by enum
members, which would hash nine enum members per executed block.
"""

from __future__ import annotations

import enum
from typing import Mapping


class HWEvent(enum.Enum):
    """Events a counter can be programmed with.

    Values are short stable strings used in reports and trace metadata.
    """

    UOPS_RETIRED_ALL = "uops_retired.all"
    INST_RETIRED = "inst_retired.any"
    CYCLES = "cpu_clk_unhalted"
    BR_RETIRED = "br_inst_retired.all"
    BR_MISP_RETIRED = "br_misp_retired.all"
    MEM_LOAD_RETIRED_ALL = "mem_load_retired.all"
    MEM_LOAD_RETIRED_L1_MISS = "mem_load_retired.l1_miss"
    MEM_LOAD_RETIRED_L2_MISS = "mem_load_retired.l2_miss"
    MEM_LOAD_RETIRED_L3_MISS = "mem_load_retired.l3_miss"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Position of each event in an event vector (declaration order).
EVENT_INDEX: dict[HWEvent, int] = {e: i for i, e in enumerate(HWEvent)}


def event_vector(counts: Mapping[HWEvent, int]) -> tuple[int, ...]:
    """Turn a per-event mapping into an event vector (absent events are 0)."""
    return tuple(int(counts.get(e, 0)) for e in HWEvent)


#: Events PEBS hardware can sample on.  Mirrors the paper's observation that
#: PEBS counts retirement-class events but not bare cycles.
PEBS_CAPABLE_EVENTS = frozenset(
    {
        HWEvent.UOPS_RETIRED_ALL,
        HWEvent.INST_RETIRED,
        HWEvent.BR_RETIRED,
        HWEvent.BR_MISP_RETIRED,
        HWEvent.MEM_LOAD_RETIRED_ALL,
        HWEvent.MEM_LOAD_RETIRED_L1_MISS,
        HWEvent.MEM_LOAD_RETIRED_L2_MISS,
        HWEvent.MEM_LOAD_RETIRED_L3_MISS,
    }
)


def pebs_supports(event: HWEvent) -> bool:
    """Return True if the simulated PEBS unit can sample on ``event``."""
    return event in PEBS_CAPABLE_EVENTS


#: Short spellings accepted wherever an event is named by string — the
#: CLI's ``--event`` flag, trace metadata, and :func:`repro.api.record`.
EVENT_ALIASES: dict[str, HWEvent] = {
    "uops": HWEvent.UOPS_RETIRED_ALL,
    "insts": HWEvent.INST_RETIRED,
    "branches": HWEvent.BR_RETIRED,
    "l3-miss": HWEvent.MEM_LOAD_RETIRED_L3_MISS,
}


def resolve_event(event: "HWEvent | str") -> HWEvent:
    """Accept an :class:`HWEvent`, an alias ("uops"), or a value string."""
    if isinstance(event, HWEvent):
        return event
    if event in EVENT_ALIASES:
        return EVENT_ALIASES[event]
    for e in HWEvent:
        if e.value == event:
            return e
    raise ValueError(
        f"unknown event {event!r}; aliases: {sorted(EVENT_ALIASES)}"
    )
