"""The benchmark's three workloads.

Each workload builds its inputs from the seed in :meth:`setup` and runs
one closed-loop op per call of :meth:`op` (one client, one process; the
ingest daemon runs in-process on the op's own asyncio loop).  An op times
its stages through the :class:`~perfbench.tracing.Recorder`, counts what
it simulated and saved, and returns its per-op checks, which the runner
counts against the attempts.

Every op runs the same stages, so every end-to-end metric exists on
every workload, but each workload loads a different layer:

* ``acl-regress`` — the simulator core (per-block execution, PMU, PEBS);
  no cache model;
* ``llc-contention`` — the cache model, with few blocks and samples;
* ``dbpool-ingest`` — storage, service and analysis; its ops simulate
  nothing (the trace is captured in set-up, which is where its
  ``trace_s_p50`` and ``sim_blocks_per_s`` are measured).
"""

from __future__ import annotations

import asyncio
import pathlib
import zlib
from dataclasses import dataclass, field

import numpy as np

import repro.api as api
from repro.acl.app import ACLApp, ACLAppConfig
from repro.acl.rules import small_ruleset
from repro.acl.traffic import random_traffic
from repro.core.hybrid import traces_equal
from repro.machine.events import HWEvent
from repro.runtime.actions import Exec
from repro.service.client import push_segments
from repro.service.daemon import IngestDaemon
from repro.service.sources import iter_journal_segments, journal_from_container
from repro.service.store import TraceStore
from repro.session import trace as session_trace
from repro.workloads import build_workload
from repro.workloads.contention import ContentionApp, ContentionConfig

#: Sample rows per container chunk (the chunked, crc-checked layout).
CHUNK_ROWS = 4096
RUN_ID = "bench"


@dataclass
class OpResult:
    """What one op carried and whether its outputs were right."""

    items: int
    checks: dict[str, bool]
    #: Simulated statistics and container crcs; identical on every op
    #: (and every set-up repetition) for a fixed seed.
    digest: dict = field(default_factory=dict)


def container_meta(workload: str, reset_value: int, groups: dict) -> dict:
    """The metadata :func:`repro.api.record` writes for a named workload."""
    return {
        "workload": workload,
        "reset_value": reset_value,
        "event": "uops",
        "groups": {str(k): str(v) for k, v in groups.items()},
    }


def record_capture(rec, session) -> dict:
    """Count one capture's simulated statistics; return them as a digest."""
    m = session.machine
    hierarchies = [c.hierarchy for c in m.cores if c.hierarchy is not None]
    stats = {
        "blocks": sum(c.blocks_executed for c in m.cores),
        "uops": sum(c.uops_retired for c in m.cores),
        "overflows": sum(c.pmu.total_overflows() for c in m.cores),
        "samples": sum(u.sample_count for u in session.units.values()),
        "stall_cycles": sum(u.stall_cycles for u in session.units.values()),
        "marks": session.tracer.calls,
        "cycles": m.max_clock,
        "l1_misses": sum(h.l1.misses for h in hierarchies),
        "l2_misses": sum(h.l2.misses for h in hierarchies),
        "llc_misses": m.llc.misses if m.llc is not None else 0,
    }
    for key, value in stats.items():
        rec.count(f"sim.{key}", value)
    return stats


def saved(rec, path: pathlib.Path) -> int:
    """Count a saved container's bytes; return its crc32."""
    data = path.read_bytes()
    rec.count("container.bytes", len(data))
    return zlib.crc32(data)


def commit(rec, container: pathlib.Path, workdir: pathlib.Path):
    """Push a container to an in-process daemon until committed, then
    sync the primary store to a follower store.

    Returns ``(push_report, follower_container, crcs_match)``.
    """
    with rec.stage("journal"):
        jdir = journal_from_container(container, workdir / "journal")
        segments = list(iter_journal_segments(jdir))
    rec.count("service.segments", len(segments))
    primary, follower = workdir / "primary", workdir / "follower"
    report = asyncio.run(_push(rec, primary, segments))
    with rec.stage("sync"):
        api.sync(primary, follower)
    want = TraceStore(primary).container_crc(RUN_ID)
    fstore = TraceStore(follower)
    same = want is not None and want == fstore.container_crc(RUN_ID)
    return report, fstore.container_path(RUN_ID), same


async def _push(rec, root: pathlib.Path, segments):
    daemon = IngestDaemon(TraceStore(root))
    await daemon.start()
    try:
        with rec.stage("push"):
            reader, writer = await daemon.connect()
            report = await push_segments(
                reader, writer, RUN_ID, segments, reply_timeout=120.0
            )
        writer.close()
    finally:
        await daemon.shutdown()
    return report


class ACLRegress:
    """Vanilla vs regressed ACL build over one seeded random stream.

    Chosen because the simulator does nearly all of the work and the
    cache model none: a simulator hot-path fix shows here, and only here.
    ``RESET_VALUE`` is the fixture's 500; at the default 8000 the diff's
    top function is ``(unattributed/stall)``.
    """

    name = "acl-regress"
    PACKETS = 1500
    RESET_VALUE = 500
    CONFIGS = {
        "base": ACLAppConfig(max_rules_per_trie=None),
        "regress": ACLAppConfig(max_rules_per_trie=2),
    }

    def setup(self, seed: int, rec, workdir: pathlib.Path) -> None:
        with rec.stage("build"):
            self.rules = small_ruleset(8, 8)
            self.packets = random_traffic(self.PACKETS, seed=seed)
            self.groups = {p.pkt_id: p.ptype for p in self.packets}
            # Tries are built once; each op wires a fresh app around them.
            self.classifiers = {
                case: ACLApp(self.rules, self.packets, config=cfg).classifier
                for case, cfg in self.CONFIGS.items()
            }

    def op(self, rec, workdir: pathlib.Path) -> OpResult:
        meta = container_meta("acl", self.RESET_VALUE, self.groups)
        paths, digest = {}, {}
        for case, cfg in self.CONFIGS.items():
            paths[case] = workdir / f"{case}.npz"
            with rec.stage("capture"):
                app = ACLApp(
                    self.rules, self.packets, config=cfg,
                    classifier=self.classifiers[case],
                )
                session = api.record(
                    app, reset_value=self.RESET_VALUE, groups=self.groups
                )
            with rec.stage("save"):
                session.save(paths[case], meta=meta, chunk_size=CHUNK_ROWS)
            digest[case] = record_capture(rec, session)
            digest[case]["crc32"] = saved(rec, paths[case])
        with rec.stage("verdict"):
            report = api.diagnose(paths["regress"])
            delta = api.diff(paths["base"], paths["regress"])
        pushed, _copy, same_crc = commit(rec, paths["regress"], workdir)
        top = delta.top
        return OpResult(
            items=2 * self.PACKETS,
            checks={
                "diff_top_is_classify": top is not None
                and top.fn_name == "rte_acl_classify"
                and top.confidence > 0,
                "every_packet_has_verdict": len(report.verdicts) == self.PACKETS,
                "committed": pushed.committed,
                "follower_crc": same_crc,
            },
            digest=digest,
        )


class _VictimMissCounter(ContentionApp):
    """The contention app, counting the LLC misses of the victim's blocks
    from the outcomes the scheduler sends back into its body."""

    victim_llc_misses = 0

    def _victim(self):
        body = super()._victim()
        outcome = None
        while True:
            try:
                action = body.send(outcome)
            except StopIteration:
                return
            outcome = yield action
            if isinstance(action, Exec) and outcome is not None:
                self.victim_llc_misses += outcome.event_counts[
                    HWEvent.MEM_LOAD_RETIRED_L3_MISS
                ]


class LLCContention:
    """A victim packet worker beside a streaming aggressor on a shared LLC.

    Chosen because the cache model dominates while blocks and samples are
    few: a per-block simulator fix reads flat here, and a cache-model fix
    shows only here.  At 200 items an op is one aggressor burst (370
    cache-hierarchy calls); 500 items take four bursts and about four
    times as long, with the same mix.
    """

    name = "llc-contention"
    ITEMS = 200
    RESET_VALUE = 8000

    def setup(self, seed: int, rec, workdir: pathlib.Path) -> None:
        with rec.stage("build"):
            self.seed = seed
            self.config = ContentionConfig(n_items=self.ITEMS)
            self.spec = self._app().machine_spec()
            self.groups = {i: "packet" for i in range(1, self.ITEMS + 1)}

    def _app(self) -> _VictimMissCounter:
        # The app is single-use (its aggressor stops once the victim is
        # done), so every op draws the same walk offsets into a new one.
        return _VictimMissCounter(
            self.config, with_aggressor=True, rng=np.random.default_rng(self.seed)
        )

    def op(self, rec, workdir: pathlib.Path) -> OpResult:
        path = workdir / "contention.npz"
        victim = ContentionApp.VICTIM_CORE
        with rec.stage("capture"):
            app = self._app()
            session = session_trace(
                app, reset_value=self.RESET_VALUE, spec=self.spec,
                with_caches=True, lockstep=True,
            )
        with rec.stage("save"):
            session.save(
                path,
                meta=container_meta("contention", self.RESET_VALUE, self.groups),
                chunk_size=CHUNK_ROWS,
            )
        digest = {"capture": record_capture(rec, session)}
        digest["capture"]["crc32"] = saved(rec, path)
        with rec.stage("verdict"):
            streamed = api.integrate(path)
            report = api.diagnose(
                streamed.per_core[victim],
                group_of=self.groups,
                reset_value=self.RESET_VALUE,
            )
        pushed, _copy, same_crc = commit(rec, path, workdir)
        return OpResult(
            items=self.ITEMS,
            checks={
                "streamed_equals_in_memory": set(streamed.per_core)
                == set(session.traces)
                and all(
                    traces_equal(streamed.per_core[c], t)
                    for c, t in session.traces.items()
                ),
                "every_item_has_verdict": {v.item_id for v in report.verdicts}
                == set(self.groups),
                "victim_llc_misses": app.victim_llc_misses > 0,
                "committed": pushed.committed,
                "follower_crc": same_crc,
            },
            digest=digest,
        )


class DBPoolIngest:
    """A sample-dense dbpool trace through save, service and analysis.

    Chosen because its ops simulate nothing and put writes (save, seal,
    fsync'd commit, replicate) beside reads (load, stream-integrate,
    diagnose) on the storage, service and analysis layers.
    """

    name = "dbpool-ingest"
    QUERIES = 2000
    RESET_VALUE = 8000

    def setup(self, seed: int, rec, workdir: pathlib.Path) -> None:
        with rec.stage("build"):
            app, groups = build_workload("dbpool", items=self.QUERIES, seed=seed)
        with rec.stage("capture"):
            session = api.record(app, reset_value=self.RESET_VALUE, groups=groups)
        self.meta = container_meta("dbpool", self.RESET_VALUE, groups)
        path = workdir / "dbpool.npz"
        with rec.stage("save"):
            session.save(path, meta=self.meta, chunk_size=CHUNK_ROWS)
        self.capture = record_capture(rec, session)
        with rec.stage("reference"):
            # The core diagnose() picks by default: the most switch marks.
            core = max(
                session.units, key=lambda c: len(session.tracer.records_for_core(c))
            )
            reference = api.diagnose(
                session.trace_for(core),
                group_of=groups,
                reset_value=self.RESET_VALUE,
            )
        self.reference = sorted(v.item_id for v in reference.outliers)
        self.session = session

    def op(self, rec, workdir: pathlib.Path) -> OpResult:
        path = workdir / "dbpool.npz"
        with rec.stage("save"):
            self.session.save(path, meta=self.meta, chunk_size=CHUNK_ROWS)
        digest = {"capture": dict(self.capture, crc32=saved(rec, path))}
        pushed, copy, same_crc = commit(rec, path, workdir)
        with rec.stage("verdict"):
            report = api.diagnose(copy, stream=True)
        return OpResult(
            items=self.QUERIES,
            checks={
                "committed": pushed.committed,
                "follower_crc": same_crc,
                "outliers_match_reference": sorted(
                    v.item_id for v in report.outliers
                )
                == self.reference,
            },
            digest=digest,
        )


WORKLOADS = {w.name: w for w in (ACLRegress, LLCContention, DBPoolIngest)}
