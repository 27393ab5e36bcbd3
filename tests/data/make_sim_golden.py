"""Generator for the simulator-output golden (``sim_golden.json``).

The trace goldens (``golden_*.npz``) are hand-built sample streams: they
pin what the *analysis* side computes, not what the simulator produces.
This golden pins the simulator itself.  Each scenario runs a small,
fully deterministic capture and hashes what the machine produced:

* per core: clock, blocks executed, uops retired, counter overflows;
* per sampling unit: the ``finalize()`` ts/ip/tag columns, plus
  ``stall_cycles``, ``drains``, ``bytes_written``, ``shed_samples``,
  ``shed_spans``, the software sampler's ``dropped`` count and the
  adaptive controller's R history.

Any optimisation of the per-block path (core → PMU → PEBS) must leave
every digest unchanged.

Run ``PYTHONPATH=src python tests/data/make_sim_golden.py`` to regenerate
``sim_golden.json``; only do so when the simulated output is *meant* to
change.  ``--print`` writes the digests to stdout as JSON instead (the
hash-seed independence test runs that in subprocesses).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

import numpy as np

DATA_DIR = pathlib.Path(__file__).parent
GOLDEN = DATA_DIR / "sim_golden.json"

#: Scalar per-unit state folded into the digest (absent ones hash as None).
UNIT_FIELDS = ("stall_cycles", "drains", "bytes_written", "shed_samples", "dropped")


def _int_tuple(values) -> tuple:
    return tuple(int(v) for v in values)


def digest(machine, sinks) -> str:
    """sha256 over a machine's per-core state and its sampling units.

    ``sinks`` is a list of ``(label, unit)`` pairs in a fixed order.
    """
    h = hashlib.sha256()
    for core in machine.cores:
        h.update(repr(_int_tuple((
            core.core_id,
            core.clock,
            core.blocks_executed,
            core.uops_retired,
            core.pmu.total_overflows(),
        ))).encode())
    for label, unit in sinks:
        h.update(repr(label).encode())
        arrays = unit.finalize()
        for column in (arrays.ts, arrays.ip, arrays.tag):
            h.update(np.ascontiguousarray(column, dtype="<i8").tobytes())
        fields = tuple(
            None if getattr(unit, f, None) is None else int(getattr(unit, f))
            for f in UNIT_FIELDS
        )
        spans = tuple(_int_tuple(s) for s in getattr(unit, "shed_spans", ()))
        controller = getattr(unit, "controller", None)
        history = (
            tuple(_int_tuple(e) for e in controller.history)
            if controller is not None
            else None
        )
        h.update(repr((fields, spans, history)).encode())
    return h.hexdigest()


def _session_digest(session) -> str:
    machine = session.machine
    sinks = [
        ((c, i), unit)
        for c in range(len(machine.cores))
        for i, unit in enumerate(machine.pebs_units(c))
    ]
    return digest(machine, sinks)


# ---------------------------------------------------------------------------
# Scenarios


def scenario_acl() -> str:
    """Seeded ACL traffic at the paper-fixture reset value R=500."""
    from repro.session import trace
    from repro.workloads import build_workload

    app, _groups = build_workload("acl", items=150, seed=1)
    return _session_digest(trace(app, reset_value=500))


def scenario_sampleapp() -> str:
    """The deterministic sample application at its default settings."""
    from repro.session import trace
    from repro.workloads import build_workload

    app, _groups = build_workload("sampleapp")
    return _session_digest(trace(app))


def scenario_contention() -> str:
    """Victim + aggressor on a shared LLC, caches on, lockstep."""
    from repro.session import trace
    from repro.workloads.contention import ContentionApp, ContentionConfig

    app = ContentionApp(
        ContentionConfig(n_items=40), with_aggressor=True,
        rng=np.random.default_rng(1),
    )
    session = trace(
        app, reset_value=8000, spec=app.machine_spec(),
        with_caches=True, lockstep=True,
    )
    return _session_digest(session)


def scenario_dbpool() -> str:
    """The 4-core dbpool (dispatcher + three workers)."""
    from repro.session import trace
    from repro.workloads import build_workload

    app, _groups = build_workload("dbpool", items=150, seed=1)
    return _session_digest(trace(app, reset_value=2000))


def scenario_overload() -> str:
    """Double-buffered PEBS under sustained pressure: the unit sheds
    whole buffers and the adaptive controller backs R off and back."""
    from repro.machine.config import MachineSpec
    from repro.machine.overload import OverloadPolicy
    from repro.session import trace
    from repro.workloads import build_workload

    app, _groups = build_workload("acl", items=150, seed=2)
    spec = MachineSpec(pebs_buffer_records=32, pebs_drain_base_ns=40_000.0)
    session = trace(
        app, reset_value=200, spec=spec, double_buffered=True,
        overload=OverloadPolicy(),
    )
    units = list(session.units.values())
    if not any(u.shed_samples for u in units):
        raise AssertionError("overload scenario no longer sheds")
    if not any(u.controller.history for u in units):
        raise AssertionError("overload scenario no longer adjusts R")
    return _session_digest(session)


def scenario_double_buffer_stall() -> str:
    """Double-buffered PEBS without an overload policy: the spare buffer
    fills before the previous drain finishes, so the core stalls."""
    from repro.machine.config import MachineSpec
    from repro.session import trace
    from repro.workloads import build_workload

    app, _groups = build_workload("sampleapp")
    spec = MachineSpec(pebs_buffer_records=8, pebs_drain_base_ns=20_000.0)
    session = trace(app, reset_value=2000, spec=spec, double_buffered=True)
    if not any(u.stall_cycles for u in session.units.values()):
        raise AssertionError("double-buffer scenario no longer stalls")
    return _session_digest(session)


def _block_stream(seed: int, n: int, with_mem: bool):
    from repro.machine.block import Block, MemRef

    rng = np.random.default_rng(seed)
    for i in range(n):
        branches = int(rng.integers(0, 200))
        mem = None
        if with_mem and i % 3:
            mem = MemRef(int(rng.integers(0, 1 << 24)) * 64, int(rng.integers(1, 48)))
        yield Block(
            ip=0x1000 + 0x40 * int(rng.integers(0, 8)),
            uops=int(rng.integers(1, 6000)),
            mem=mem,
            branches=branches,
            mispredicts=int(rng.integers(0, branches + 1)),
            extra_cycles=int(rng.integers(0, 50)),
        )


def scenario_software_sampler() -> str:
    """perf-style interrupt sampling: busy drops and a capacity bound."""
    from repro.machine.events import HWEvent
    from repro.machine.machine import Machine
    from repro.machine.sampler import SoftwareSamplerConfig

    machine = Machine(n_cores=1)
    sampler = machine.attach_software_sampler(
        0, SoftwareSamplerConfig(HWEvent.UOPS_RETIRED_ALL, 700, capacity=400)
    )
    core = machine.core(0)
    for i, block in enumerate(_block_stream(3, 1500, with_mem=False)):
        core.tag_register = i // 10
        core.execute(block)
    if not sampler.dropped:
        raise AssertionError("software-sampler scenario no longer drops")
    return digest(machine, [("sw", sampler)])


def scenario_two_counters() -> str:
    """A uops counter and an LLC-miss counter on one core with caches."""
    from repro.machine.events import HWEvent
    from repro.machine.machine import Machine
    from repro.machine.pebs import PEBSConfig

    machine = Machine(n_cores=1, with_caches=True)
    uops = machine.attach_pebs(0, PEBSConfig(HWEvent.UOPS_RETIRED_ALL, 1000))
    miss = machine.attach_pebs(0, PEBSConfig(HWEvent.MEM_LOAD_RETIRED_L3_MISS, 7))
    core = machine.core(0)
    for i, block in enumerate(_block_stream(4, 1500, with_mem=True)):
        core.tag_register = i // 10
        core.execute(block)
    machine.flush_pebs()
    return digest(machine, [("uops", uops), ("l3-miss", miss)])


SCENARIOS = {
    "acl": scenario_acl,
    "sampleapp": scenario_sampleapp,
    "contention": scenario_contention,
    "dbpool": scenario_dbpool,
    "overload": scenario_overload,
    "double_buffer_stall": scenario_double_buffer_stall,
    "software_sampler": scenario_software_sampler,
    "two_counters": scenario_two_counters,
}


def all_digests() -> dict[str, str]:
    return {name: fn() for name, fn in SCENARIOS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--print", action="store_true",
        help="write the digests to stdout instead of sim_golden.json",
    )
    args = ap.parse_args(argv)
    digests = all_digests()
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    if args.print:
        sys.stdout.write(text)
    else:
        GOLDEN.write_text(text)
        print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
