"""Replication and anti-entropy: primary→follower sync over the wire.

The contract under test is byte-identity: every run the primary has
committed must end up on the follower as the *same container bytes*, a
second sync must ship nothing, and verify-mode (the scrub) must detect
and repair whatever corruption the follower's disk invents — bit flips,
truncation, deleted containers, lying sealed segments.  Auth, the
replication ledger, shed-resend backoff, and ENOSPC degradation ride
the same scenarios.
"""

from __future__ import annotations

import asyncio
import pathlib

import numpy as np
import pytest

from repro.core.tracefile import load_trace
from repro.errors import ReplicationError, StoreError, TraceError
from repro.obs.anomaly import KIND_REPLICA_LAG, AnomalyLog, AnomalyConfig, ReplicaLagChecker
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.service.client import push_segments
from repro.service.daemon import DaemonConfig, IngestDaemon
from repro.service.replica import (
    Replicator,
    auth_proof,
    record_replication,
    replica_confirmations,
    scrub_local,
    sync_once,
)
from repro.service.store import TraceStore
from repro.testing.faults import ENOSPCIO
from tests.service.conftest import corrupt_covered_member, run_async

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"
COMMITTED = ("rA", "rB")
OPEN = "rO"


def build_primary(root, segments, *, open_count=3):
    """Two committed runs (full fixture content) plus one open run."""
    store = TraceStore(root)
    for rid in COMMITTED:
        for rec, data in segments:
            store.append_segment(rid, rec, data)
        store.finish_run(rid)
        store.compact_run(rid)
    for rec, data in segments[:open_count]:
        store.append_segment(OPEN, rec, data)
    return store


async def follower(root, *, config=None, io=None):
    store = TraceStore(root, io=io)
    daemon = IngestDaemon(store, config or DaemonConfig())
    await daemon.start()
    return store, daemon


async def sync_with(primary, daemon, **kw):
    reader, writer = await daemon.connect()
    try:
        return await sync_once(primary, reader, writer, **kw)
    finally:
        writer.close()


def assert_replicated(primary_root, follower_root):
    p, f = TraceStore(primary_root), TraceStore(follower_root)
    for run_id in p.catalog():
        assert f.committed(run_id), run_id
        assert (
            f.container_path(run_id).read_bytes()
            == p.container_path(run_id).read_bytes()
        ), f"container of {run_id} not byte-identical"
    for run_id in p.open_runs():
        assert f.sealed_seqs(run_id) == p.sealed_seqs(run_id)


class TestSync:
    def test_first_sync_ships_everything_byte_identical(self, tmp_path, segments):
        primary = build_primary(tmp_path / "p", segments)

        async def scenario():
            fstore, daemon = await follower(tmp_path / "f")
            try:
                return await sync_with(primary, daemon, seed=1)
            finally:
                await daemon.shutdown()

        report = run_async(scenario())
        assert_replicated(tmp_path / "p", tmp_path / "f")
        assert report.runs == 3
        assert report.containers_shipped == 2
        assert report.segments_shipped == 3
        assert report.confirmed == 2
        assert report.lag == 0
        assert report.follower == TraceStore(tmp_path / "f").store_id()
        # Both commits are in the fsync'd ledger under the follower's id.
        confirmed = replica_confirmations(primary)
        assert set(confirmed) == set(COMMITTED)
        assert all(report.follower in ids for ids in confirmed.values())

    def test_second_sync_resumes_from_have_set_and_ships_nothing(
        self, tmp_path, segments
    ):
        primary = build_primary(tmp_path / "p", segments)

        async def scenario():
            fstore, daemon = await follower(tmp_path / "f")
            try:
                await sync_with(primary, daemon, seed=1)
                return await sync_with(primary, daemon, seed=2)
            finally:
                await daemon.shutdown()

        report = run_async(scenario())
        assert report.containers_shipped == 0
        assert report.segments_shipped == 0
        assert report.confirmed == 2
        assert report.lag == 0

    def test_incremental_open_run_then_commit(self, tmp_path, segments):
        primary = build_primary(tmp_path / "p", segments, open_count=2)

        async def scenario():
            fstore, daemon = await follower(tmp_path / "f")
            try:
                await sync_with(primary, daemon, seed=1)
                # Producer seals two more segments, then the run commits.
                for rec, data in segments[2:4]:
                    primary.append_segment(OPEN, rec, data)
                mid = await sync_with(primary, daemon, seed=2)
                for rec, data in segments[4:]:
                    primary.append_segment(OPEN, rec, data)
                primary.finish_run(OPEN)
                primary.compact_run(OPEN)
                late = await sync_with(primary, daemon, seed=3)
                return mid, late
            finally:
                await daemon.shutdown()

        mid, late = run_async(scenario())
        assert mid.segments_shipped == 2  # only the delta crossed the wire
        assert late.containers_shipped == 1
        assert_replicated(tmp_path / "p", tmp_path / "f")
        assert TraceStore(tmp_path / "f").committed(OPEN)

    def test_push_commit_sync_parses_no_npy_header(
        self, tmp_path, segments, monkeypatch
    ):
        # Segments, containers and frames all hold raw members, so the
        # service path never runs numpy's .npy header parser.
        fmt = getattr(np.lib, "_format_impl", np.lib.format)
        parse = fmt._read_array_header
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return parse(*args, **kwargs)

        monkeypatch.setattr(fmt, "_read_array_header", counted)

        async def scenario():
            primary = TraceStore(tmp_path / "p")
            pdaemon = IngestDaemon(primary, DaemonConfig())
            await pdaemon.start()
            _, fdaemon = await follower(tmp_path / "f")
            try:
                conn = await pdaemon.connect()
                pushed = await push_segments(*conn, "r1", segments)
                synced = await sync_with(primary, fdaemon, seed=1)
                return pushed, synced
            finally:
                await pdaemon.shutdown()
                await fdaemon.shutdown()

        pushed, synced = run_async(scenario())
        assert pushed.committed
        assert synced.containers_shipped == 1
        assert_replicated(tmp_path / "p", tmp_path / "f")
        assert calls == []
        load_trace(DATA / "acl_spike.npz")  # version 3: the counter works
        assert calls


class TestScrub:
    def _sync_then_corrupt_then_scrub(self, tmp_path, segments, corrupt):
        primary = build_primary(tmp_path / "p", segments)
        froot = tmp_path / "f"

        async def scenario():
            fstore, daemon = await follower(froot)
            try:
                await sync_with(primary, daemon, seed=1)
            finally:
                await daemon.shutdown()
            corrupt(TraceStore(froot))
            fstore, daemon = await follower(froot)
            try:
                return await sync_with(primary, daemon, seed=2, verify=True)
            finally:
                await daemon.shutdown()

        report = run_async(scenario())
        assert_replicated(tmp_path / "p", froot)
        return report

    def test_repairs_bit_flipped_container(self, tmp_path, segments):
        def corrupt(f):
            path = f.container_path("rA")
            raw = bytearray(path.read_bytes())
            raw[len(raw) // 2] ^= 0xFF
            path.write_bytes(bytes(raw))

        report = self._sync_then_corrupt_then_scrub(tmp_path, segments, corrupt)
        assert report.containers_repaired == 1
        assert report.containers_shipped == 1

    def test_repairs_truncated_and_deleted_containers(self, tmp_path, segments):
        def corrupt(f):
            path = f.container_path("rA")
            path.write_bytes(path.read_bytes()[: 100])
            f.container_path("rB").unlink()

        report = self._sync_then_corrupt_then_scrub(tmp_path, segments, corrupt)
        assert report.containers_repaired == 2
        assert report.containers_shipped == 2

    def test_prunes_and_reships_corrupt_sealed_segment(self, tmp_path, segments):
        rec, data = segments[1]

        def corrupt(f):
            bad = corrupt_covered_member(rec, data)
            (f.journal_dir(OPEN) / rec["file"]).write_bytes(bad)

        report = self._sync_then_corrupt_then_scrub(tmp_path, segments, corrupt)
        assert report.segments_pruned == 1
        assert report.segments_shipped == 1

    def test_clean_scrub_repairs_nothing(self, tmp_path, segments):
        report = self._sync_then_corrupt_then_scrub(
            tmp_path, segments, lambda f: None
        )
        assert report.containers_repaired == 0
        assert report.containers_shipped == 0
        assert report.segments_pruned == 0
        assert report.segments_shipped == 0


class TestScrubLocal:
    def test_bootstraps_then_repairs_destination(self, tmp_path, segments):
        build_primary(tmp_path / "p", segments)
        first = scrub_local(tmp_path / "p", tmp_path / "f")
        assert first.containers_shipped == 2
        assert first.segments_shipped == 3
        assert_replicated(tmp_path / "p", tmp_path / "f")

        dst = TraceStore(tmp_path / "f")
        path = dst.container_path("rB")
        raw = bytearray(path.read_bytes())
        raw[0] ^= 1
        path.write_bytes(bytes(raw))
        rec, data = segments[0]
        (dst.journal_dir(OPEN) / rec["file"]).write_bytes(
            corrupt_covered_member(rec, data)
        )

        second = scrub_local(tmp_path / "p", tmp_path / "f")
        assert second.containers_repaired == 1
        assert second.segments_pruned == 1
        assert_replicated(tmp_path / "p", tmp_path / "f")

    def test_refuses_to_propagate_a_primary_hole(self, tmp_path, segments):
        primary = build_primary(tmp_path / "p", segments)
        scrub_local(tmp_path / "p", tmp_path / "f")
        primary.container_path("rA").unlink()
        with pytest.raises(StoreError, match="refusing to propagate a hole"):
            scrub_local(tmp_path / "p", tmp_path / "f")
        # The follower's good copy was not harmed by the refusal.
        assert TraceStore(tmp_path / "f").committed("rA")


class TestLedger:
    def test_torn_ledger_tail_never_counts_toward_quorum(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        record_replication(store, "r1", "replica-a")
        record_replication(store, "r2", "replica-a")
        path = store.root / "replication.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        confirmed = replica_confirmations(store)
        assert confirmed == {"r1": {"replica-a"}}

    @pytest.mark.parametrize("restart", [False, True])
    def test_confirmations_after_torn_tail_count(self, tmp_path, restart):
        store = TraceStore(tmp_path / "s")
        record_replication(store, "r1", "replica-a")
        with open(store.root / "replication.jsonl", "ab") as fh:
            fh.write(b'{"replica": "replica-a", "ru')  # crash mid-append
        if restart:
            store = TraceStore(store.root)
            store.recover_store()
        record_replication(store, "r2", "replica-a")
        record_replication(store, "r2", "replica-b")
        assert replica_confirmations(store) == {
            "r1": {"replica-a"},
            "r2": {"replica-a", "replica-b"},
        }


class TestAuth:
    TOKEN = b"swordfish"

    def test_proof_is_deterministic_hmac(self):
        assert auth_proof(b"k", "nonce") == auth_proof(b"k", "nonce")
        assert auth_proof(b"k", "nonce") != auth_proof(b"k2", "nonce")

    def test_sync_with_token_succeeds(self, tmp_path, segments):
        primary = build_primary(tmp_path / "p", segments)
        config = DaemonConfig(auth_token=self.TOKEN)

        async def scenario():
            fstore, daemon = await follower(tmp_path / "f", config=config)
            try:
                return await sync_with(
                    primary, daemon, token=self.TOKEN, seed=1
                )
            finally:
                await daemon.shutdown()

        report = run_async(scenario())
        assert report.confirmed == 2
        assert_replicated(tmp_path / "p", tmp_path / "f")

    def test_wrong_and_missing_tokens_are_refused(self, tmp_path, segments):
        primary = build_primary(tmp_path / "p", segments)
        config = DaemonConfig(auth_token=self.TOKEN)

        async def scenario(token):
            fstore, daemon = await follower(tmp_path / "f", config=config)
            try:
                return await sync_with(primary, daemon, token=token, seed=1)
            finally:
                await daemon.shutdown()

        reg = MetricsRegistry()
        with use_registry(reg):
            with pytest.raises(ReplicationError, match="unauthorized"):
                run_async(scenario(b"wrong"))
            with pytest.raises(ReplicationError, match="requires authentication"):
                run_async(scenario(None))
        assert "repro_service_auth_failures_total 1" in reg.to_prometheus()
        # Nothing landed on the follower without a valid proof.
        assert TraceStore(tmp_path / "f").catalog() == {}

    def test_authenticated_ingest_push(self, tmp_path, segments):
        config = DaemonConfig(auth_token=self.TOKEN)

        async def scenario(token):
            store, daemon = await follower(tmp_path / "f", config=config)
            try:
                reader, writer = await daemon.connect()
                report = await push_segments(
                    reader, writer, "r1", segments, token=token, seed=1
                )
                writer.close()
                return report
            finally:
                await daemon.shutdown()

        with pytest.raises(TraceError, match="unauthorized"):
            run_async(scenario(b"wrong"))
        report = run_async(scenario(self.TOKEN))
        assert report.committed


class TestEnospc:
    def test_follower_degrades_to_nacks_and_recovers(self, tmp_path, segments):
        primary = build_primary(tmp_path / "p", segments)
        froot = tmp_path / "f"

        async def starved():
            fstore, daemon = await follower(froot, io=ENOSPCIO(2048))
            try:
                return await sync_with(
                    primary, daemon, seed=1,
                    backoff_s=0.001, max_backoff_s=0.01, max_resends=2,
                )
            finally:
                await daemon.shutdown()

        with pytest.raises(ReplicationError, match="shed 3 resends") as exc:
            run_async(starved())
        assert exc.value.report.resends == 3

        # The refusal corrupted nothing: a healthy restart fully recovers
        # and the next sync converges to byte-identity.
        probe = TraceStore(froot)
        probe.recover_store()

        async def healthy():
            fstore, daemon = await follower(froot)
            try:
                return await sync_with(primary, daemon, seed=2)
            finally:
                await daemon.shutdown()

        report = run_async(healthy())
        assert report.containers_shipped == 2
        assert report.lag == 0
        assert_replicated(tmp_path / "p", froot)


async def wait_for(pred, timeout=20.0, interval=0.02):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if pred():
            return True
        await asyncio.sleep(interval)
    return False


class TestDaemonReplication:
    def test_replicate_to_streams_commits_over_unix_socket(
        self, tmp_path, segments
    ):
        sock = tmp_path / "f.sock"
        addr = f"unix:{sock}"

        async def scenario():
            fstore, fd = await follower(tmp_path / "f")
            await fd.serve_unix(str(sock))
            pstore = TraceStore(tmp_path / "p")
            pd = IngestDaemon(
                pstore,
                DaemonConfig(replicate_to=(addr,), sync_interval_s=0.05),
            )
            await pd.start()
            try:
                reader, writer = await pd.connect()
                report = await push_segments(reader, writer, "r1", segments)
                assert report.committed
                writer.close()
                probe = lambda: TraceStore(tmp_path / "f").committed("r1")
                assert await wait_for(probe), "follower never converged"
                assert await wait_for(
                    lambda: pd._lag_by_follower.get(addr) == 0
                ), "replication lag never reported back to the primary"
            finally:
                await pd.shutdown()
                await fd.shutdown()

        run_async(scenario(), timeout=120.0)
        assert_replicated(tmp_path / "p", tmp_path / "f")

    def test_replicator_absorbs_unreachable_follower_as_lag(
        self, tmp_path, segments
    ):
        primary = build_primary(tmp_path / "p", segments)
        lags = []
        rep = Replicator(
            primary,
            "unix:/nonexistent/nowhere.sock",
            interval_s=0.01,
            seed=1,
            on_lag=lambda addr, lag: lags.append((addr, lag)),
        )

        async def scenario():
            task = asyncio.ensure_future(rep.run())
            assert await wait_for(lambda: len(lags) >= 2)
            await rep.stop()
            await task

        run_async(scenario())
        assert all(lag == len(primary.catalog()) for _, lag in lags)
        assert rep.last_error is not None


class TestReplicaLagChecker:
    def test_fires_once_per_excursion_and_rearms(self):
        log = AnomalyLog(16)
        checker = ReplicaLagChecker(
            log, AnomalyConfig(enabled=True, replica_lag_runs=3)
        )
        checker.on_lag("unix:f", 1, 10)
        checker.on_lag("unix:f", 2, 10)
        assert log.events(KIND_REPLICA_LAG) == []
        checker.on_lag("unix:f", 3, 10)
        checker.on_lag("unix:f", 7, 10)  # same excursion: no second event
        events = log.events(KIND_REPLICA_LAG)
        assert len(events) == 1
        assert events[0].severity == "critical"
        assert events[0].evidence["follower"] == "unix:f"
        checker.on_lag("unix:f", 0, 10)  # caught up: re-arm
        checker.on_lag("unix:f", 5, 10)
        assert len(log.events(KIND_REPLICA_LAG)) == 2
