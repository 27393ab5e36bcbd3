"""Store-to-store replication and anti-entropy scrub.

A primary :class:`~repro.service.store.TraceStore` replicates two kinds
of durable state to follower stores, over the same crc-covered framing
the ingest path uses:

* **sealed segments** of still-open runs stream across as they land, so
  a follower is a warm standby — losing the primary mid-run loses at
  most the segments not yet shipped, never anything committed;
* **catalog commits** ship as the committed container's *exact bytes*
  plus the primary's catalog entry, adopted verbatim on the follower
  (:meth:`~repro.service.store.TraceStore.adopt_container`).  Shipping
  bytes rather than re-compacting is what makes a replicated run
  byte-identical across stores — and what lets the scrub compare one
  crc32 per run instead of re-reading members.

The wire dialect is three frames.  ``SYNC_REQ {run, verify}`` asks a
follower for one run's durable state; ``SYNC_HAVE`` answers with the
follower's store id, the sealed seqs it holds, and (in verify mode) the
committed container's crc32.  ``REPLICATE`` ships either one sealed
segment (``op: segment``) or one bounded chunk of a committed container
(``op: container``); the follower answers with the ordinary ACK/NACK
vocabulary, so backpressure, storage trouble, and poison all reuse the
ingest path's shed accounting.  The replicator sends one frame at a
time and retries retryable NACKs with seeded, jittered exponential
backoff and a bounded resend budget — past the budget it raises
:class:`~repro.errors.ReplicationError` and the next round starts over
from the follower's have-set.

Every follower confirmation is appended to the primary's fsync'd
**replication ledger** (``replication.jsonl``), which is what the
retention engine consults for its quorum rule: a run with fewer ledger
confirmations than ``RetentionPolicy.quorum`` cannot be retired, ever.

:func:`scrub_local` is the same anti-entropy pass for two stores on one
filesystem (``repro sync --from DIR --to DIR``): it diffs catalogs and
per-segment crcs directly and repairs the destination from the source.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import pathlib
import random
import zlib
from dataclasses import dataclass

from repro.core.durable import AppendLog
from repro.errors import (
    CorruptionError,
    ProtocolError,
    ReplicationError,
    RunCommittedError,
    StoreError,
    TraceError,
    TraceWriteError,
)
from repro.obs.instrumented import pipeline as _obs
from repro.service.protocol import (
    KIND_ACK,
    KIND_AUTH,
    KIND_CHALLENGE,
    KIND_NACK,
    KIND_SYNC_HAVE,
    KIND_SYNC_REQ,
    KIND_REPLICATE,
    Frame,
    encode_frame,
)
from repro.service.sources import StreamSource, iter_journal_segments
from repro.service.store import TraceStore

_LEDGER_FILE = "replication.jsonl"

#: Default bound on one REPLICATE container chunk.  Well under the
#: frame ceiling; small enough that a resend after a shed is cheap.
CONTAINER_CHUNK_BYTES = 8 * 1024 * 1024


def auth_proof(token: bytes, nonce: str) -> str:
    """The shared-secret HMAC answer to a CHALLENGE nonce."""
    return hmac.new(token, nonce.encode("utf-8"), hashlib.sha256).hexdigest()


# -- the replication ledger (primary side) ----------------------------------


class LedgerLog(AppendLog):
    """``replication.jsonl``: one line per follower confirmation."""

    REQUIRED = ("run", "replica")
    SORT_KEYS = True
    READ_ERROR = StoreError


def _ledger(store: TraceStore) -> LedgerLog:
    return LedgerLog(store.root / _LEDGER_FILE, store._io)


def record_replication(store: TraceStore, run_id: str, replica_id: str) -> None:
    """Durably note that ``replica_id`` holds ``run_id``'s container.

    Append-only and fsync'd like the catalog: the quorum rule must
    survive a primary restart, or retention could delete the only copy
    of a run whose replication the crash forgot.
    """
    _ledger(store).append({"run": run_id, "replica": replica_id})


def replica_confirmations(store: TraceStore) -> dict[str, set[str]]:
    """run id → set of replica store ids confirmed in the ledger.

    Torn tails (crash mid-append) end the parse, exactly like the
    catalog: a half-written confirmation never counts toward quorum.
    """
    out: dict[str, set[str]] = {}
    for rec in _ledger(store).read()[0]:
        out.setdefault(rec["run"], set()).add(rec["replica"])
    return out


# -- follower side (runs inside the daemon's store task) --------------------


class FollowerSessions:
    """Per-daemon replication state: container staging + frame handling.

    Container chunks stage in memory per ``(connection, run)`` — nothing
    touches the follower's disk until the final chunk's crc proves the
    assembly, so a replicator dying mid-container leaves no partial
    state to clean up.  All store writes happen on the daemon's store
    task, through the store's swappable IO: the chaos suite kills the
    follower at every one of these operations.
    """

    def __init__(self, store: TraceStore) -> None:
        self.store = store
        self._staging: dict[tuple[int, str], bytearray] = {}

    def discard(self, conn) -> None:
        """Drop any half-staged containers of a closed connection."""
        key = id(conn)
        for conn_id, run in list(self._staging):
            if conn_id == key:
                del self._staging[(conn_id, run)]

    def on_sync_req(self, conn, frame: Frame) -> None:
        run_id = frame.meta.get("run")
        verify = bool(frame.meta.get("verify", False))
        try:
            committed = self.store.committed(run_id)
        except StoreError as exc:
            conn.send(Frame(KIND_NACK, {
                "op": "sync", "run": run_id, "reason": "poison",
                "retry": False, "credit": 0, "detail": str(exc),
            }))
            return
        meta = {
            "run": run_id,
            "store": self.store.store_id(),
            "committed": committed,
            "have": [],
            "crc": None,
        }
        if committed:
            if verify:
                meta["crc"] = self.store.container_crc(run_id)
        else:
            have = sorted(self.store.sealed_seqs(run_id))
            if verify and have:
                healthy = self.store.verify_sealed(run_id, have)
                meta["pruned"] = len(have) - len(healthy)
                have = healthy
            meta["have"] = have
        conn.send(Frame(KIND_SYNC_HAVE, meta))

    def on_replicate(self, conn, frame: Frame) -> None:
        op = frame.meta.get("op")
        if op == "segment":
            self._on_segment(conn, frame)
        elif op == "container":
            self._on_container(conn, frame)
        else:
            raise ProtocolError(f"REPLICATE frame with unknown op {op!r}")

    def _on_segment(self, conn, frame: Frame) -> None:
        run_id = frame.meta.get("run")
        record = frame.meta.get("record")
        seq = record.get("seq") if isinstance(record, dict) else None
        reply = {"op": "segment", "run": run_id, "seq": seq}
        try:
            self.store.append_segment(run_id, record, frame.body)
        except RunCommittedError:
            # The follower already holds the committed run — a resend
            # raced a commit.  Not an error worth a repair round.
            conn.send(Frame(KIND_ACK, {**reply, "committed": True}))
            return
        except CorruptionError as exc:
            conn.send(Frame(KIND_NACK, {
                **reply, "reason": "poison", "retry": False, "credit": 0,
                "detail": str(exc),
            }))
            _obs().svc_nacks("poison").inc()
            return
        except (TraceWriteError, StoreError) as exc:
            _obs().svc_storage_errors.inc()
            conn.send(Frame(KIND_NACK, {
                **reply, "reason": "storage", "retry": True, "credit": 0,
                "detail": str(exc),
            }))
            _obs().svc_nacks("storage").inc()
            return
        conn.send(Frame(KIND_ACK, reply))

    def _on_container(self, conn, frame: Frame) -> None:
        meta = frame.meta
        run_id = meta.get("run")
        key = (id(conn), str(run_id))
        reply = {"op": "container", "run": run_id, "offset": meta.get("offset")}
        if meta.get("offset") == 0:
            self._staging[key] = bytearray()
        buf = self._staging.get(key)
        if buf is None or len(buf) != meta.get("offset"):
            # Lost a chunk (or never saw offset 0): make the replicator
            # start this container over rather than commit a splice.
            self._staging.pop(key, None)
            conn.send(Frame(KIND_NACK, {
                **reply, "reason": "poison", "retry": False, "credit": 0,
                "detail": "container chunks arrived out of order",
            }))
            return
        buf.extend(frame.body)
        if not meta.get("last", False):
            conn.send(Frame(KIND_ACK, reply))
            return
        data = bytes(self._staging.pop(key))
        entry = meta.get("entry")
        if (
            len(data) != meta.get("size")
            or zlib.crc32(data) != meta.get("crc")
            or not isinstance(entry, dict)
        ):
            conn.send(Frame(KIND_NACK, {
                **reply, "reason": "poison", "retry": False, "credit": 0,
                "detail": "assembled container failed its crc32/size check",
            }))
            _obs().svc_nacks("poison").inc()
            return
        repaired = self.store.committed(run_id)
        try:
            self.store.adopt_container(run_id, entry, data)
        except (TraceWriteError, StoreError) as exc:
            _obs().svc_storage_errors.inc()
            conn.send(Frame(KIND_NACK, {
                **reply, "reason": "storage", "retry": True, "credit": 0,
                "detail": str(exc),
            }))
            _obs().svc_nacks("storage").inc()
            return
        if repaired:
            _obs().svc_scrub_repairs.inc()
        conn.send(Frame(KIND_ACK, {
            "op": "commit", "run": run_id, "crc": meta.get("crc"),
            "store": self.store.store_id(),
        }))


# -- primary side -----------------------------------------------------------


@dataclass
class SyncReport:
    """What one anti-entropy round did, in repair-accounting detail."""

    follower: str | None = None
    runs: int = 0
    confirmed: int = 0
    containers_shipped: int = 0
    containers_repaired: int = 0
    segments_shipped: int = 0
    segments_pruned: int = 0
    resends: int = 0
    #: Committed-on-primary runs the follower still lacks after this
    #: round (0 after any complete round — the replication lag).
    lag: int = 0

    def to_dict(self) -> dict:
        return {
            "follower": self.follower,
            "runs": self.runs,
            "confirmed": self.confirmed,
            "containers_shipped": self.containers_shipped,
            "containers_repaired": self.containers_repaired,
            "segments_shipped": self.segments_shipped,
            "segments_pruned": self.segments_pruned,
            "resends": self.resends,
            "lag": self.lag,
        }


async def sync_once(
    store: TraceStore,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    *,
    verify: bool = False,
    token: bytes | None = None,
    runs: list[str] | None = None,
    chunk_bytes: int = CONTAINER_CHUNK_BYTES,
    reply_timeout: float = 30.0,
    backoff_s: float = 0.01,
    max_backoff_s: float = 1.0,
    max_resends: int = 8,
    seed: int | None = None,
    ledger: bool = True,
) -> SyncReport:
    """Drive one full primary→follower sync over an open connection.

    Walks every committed run (catalog order) and every open run of
    ``store``, asks the follower what it holds, and ships the
    difference.  ``verify=True`` is the anti-entropy scrub: the follower
    re-checks its bytes against their crcs, and committed containers are
    compared crc-to-crc and re-shipped on mismatch.  Raises
    :class:`~repro.errors.ReplicationError` (carrying ``.report``) when
    the follower refuses permanently or keeps shedding past
    ``max_resends``; the connection dying raises the underlying
    :class:`~repro.errors.TraceError` — both leave the follower
    consistent, and the next round resumes from its have-set.
    """
    report = SyncReport()
    src = StreamSource(reader)
    rng = random.Random(seed)
    ins = _obs()

    def fail(message: str) -> ReplicationError:
        exc = ReplicationError(f"replication sync: {message}")
        exc.report = report
        return exc

    async def reply() -> Frame:
        try:
            return await asyncio.wait_for(src.__anext__(), reply_timeout)
        except StopAsyncIteration:
            raise fail("follower closed the connection mid-sync") from None
        except asyncio.TimeoutError:
            raise fail(
                f"no reply from follower within {reply_timeout:g}s"
            ) from None

    authed = False

    async def call(frame: Frame) -> Frame:
        """One request/response, absorbing auth and retryable NACKs."""
        nonlocal authed
        backoff = backoff_s
        resends = 0
        while True:
            writer.write(encode_frame(frame))
            await writer.drain()
            answer = await reply()
            if answer.kind == KIND_CHALLENGE and not authed:
                if token is None:
                    raise fail(
                        "follower requires authentication and no token "
                        "was given"
                    )
                writer.write(encode_frame(Frame(
                    KIND_AUTH, {"proof": auth_proof(token, answer.meta.get("nonce", ""))}
                )))
                await writer.drain()
                authed = True
                answer = await reply()
            if answer.kind == KIND_NACK and answer.meta.get("retry", False):
                resends += 1
                report.resends += 1
                ins.svc_replication_resends.inc()
                if resends > max_resends:
                    raise fail(
                        f"follower shed {resends} resends "
                        f"({answer.meta.get('reason')}); giving up"
                    )
                # Jittered exponential backoff: simultaneous replicators
                # must not hammer a struggling follower in lockstep.
                await asyncio.sleep(backoff * (0.5 + rng.random()))
                backoff = min(backoff * 2, max_backoff_s)
                continue
            return answer

    def confirm(run_id: str, replica_id: str | None) -> None:
        report.confirmed += 1
        if ledger and replica_id:
            record_replication(store, run_id, replica_id)

    committed = list(store.catalog()) if runs is None else []
    open_runs = store.open_runs() if runs is None else []
    targets = runs if runs is not None else committed + [
        r for r in open_runs if r not in set(committed)
    ]

    for run_id in targets:
        report.runs += 1
        have_frame = await call(Frame(KIND_SYNC_REQ, {"run": run_id, "verify": verify}))
        if have_frame.kind == KIND_NACK:
            raise fail(
                f"follower refused sync of run {run_id!r}: "
                f"{have_frame.meta.get('reason')}"
            )
        if have_frame.kind != KIND_SYNC_HAVE:
            raise ProtocolError(
                f"expected SYNC_HAVE, got {have_frame.kind_name}"
            )
        follower_id = have_frame.meta.get("store")
        report.follower = follower_id
        report.segments_pruned += int(have_frame.meta.get("pruned", 0) or 0)

        if store.committed(run_id):
            entry = store.catalog()[run_id]
            if have_frame.meta.get("committed"):
                if not verify:
                    confirm(run_id, follower_id)
                    continue
                want = store.container_crc(run_id)
                if have_frame.meta.get("crc") == want and want is not None:
                    confirm(run_id, follower_id)
                    continue
                report.containers_repaired += 1
                ins.svc_scrub_repairs.inc()
            await _ship_container(
                store, run_id, entry, call, chunk_bytes, fail
            )
            report.containers_shipped += 1
            ins.svc_replicated_runs.inc()
            confirm(run_id, follower_id)
        else:
            have = set(have_frame.meta.get("have", []))
            jdir = store.journal_dir(run_id)
            if not jdir.is_dir():
                continue
            for record, data in iter_journal_segments(jdir):
                if record.get("seq") in have:
                    continue
                answer = await call(Frame(
                    KIND_REPLICATE,
                    {"op": "segment", "run": run_id, "record": record},
                    data,
                ))
                if answer.kind == KIND_NACK:
                    raise fail(
                        f"follower refused segment {record.get('seq')} of "
                        f"run {run_id!r}: {answer.meta.get('reason')}"
                    )
                if answer.kind != KIND_ACK:
                    raise ProtocolError(
                        f"expected ACK for a segment, got {answer.kind_name}"
                    )
                if answer.meta.get("committed"):
                    break  # follower already holds the committed run
                report.segments_shipped += 1
                ins.svc_replicated_segments.inc()

    if runs is None and report.follower is not None and ledger:
        confirmed = replica_confirmations(store)
        report.lag = sum(
            1
            for r in store.catalog()
            if report.follower not in confirmed.get(r, set())
        )
    return report


async def _ship_container(store, run_id, entry, call, chunk_bytes, fail):
    """Ship one committed container's exact bytes in bounded chunks."""
    path = store.container_path(run_id)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise fail(
            f"cannot read committed container for run {run_id!r}: {exc}"
        ) from exc
    crc = zlib.crc32(data)
    size = len(data)
    offset = 0
    while True:
        chunk = data[offset : offset + chunk_bytes]
        last = offset + len(chunk) >= size
        meta = {
            "op": "container",
            "run": run_id,
            "offset": offset,
            "size": size,
            "crc": crc,
            "last": last,
        }
        if last:
            meta["entry"] = entry
        answer = await call(Frame(KIND_REPLICATE, meta, chunk))
        if answer.kind == KIND_NACK:
            raise fail(
                f"follower refused container of run {run_id!r}: "
                f"{answer.meta.get('reason')} "
                f"({answer.meta.get('detail', '')})"
            )
        if answer.kind != KIND_ACK:
            raise ProtocolError(
                f"expected ACK for a container chunk, got {answer.kind_name}"
            )
        if last:
            return
        offset += len(chunk)


class Replicator:
    """The primary daemon's per-follower replication task.

    Sleeps until kicked (a run committed) or the sync interval elapses,
    then drives :func:`sync_once` over a fresh connection.  Every
    ``scrub_every``-th round runs in verify mode — the periodic
    anti-entropy scrub.  Failures (follower down, mid-sync death) are
    absorbed: the lag they leave behind is published through ``on_lag``
    and the next round repairs it from the follower's have-set.
    """

    def __init__(
        self,
        store: TraceStore,
        addr: str,
        *,
        interval_s: float = 30.0,
        scrub_every: int = 8,
        token: bytes | None = None,
        seed: int | None = None,
        connect=None,
        on_lag=None,
        reply_timeout: float = 30.0,
    ) -> None:
        self.store = store
        self.addr = addr
        self.interval_s = interval_s
        self.scrub_every = max(1, scrub_every)
        self.token = token
        self.seed = seed
        self._connect = connect
        self._on_lag = on_lag
        self.reply_timeout = reply_timeout
        self._kicked = asyncio.Event()
        self._stopping = False
        self._rounds = 0
        self.last_report: SyncReport | None = None
        self.last_error: str | None = None

    def kick(self) -> None:
        """Wake the task now (a run just committed on the primary)."""
        self._kicked.set()

    async def stop(self) -> None:
        self._stopping = True
        self._kicked.set()

    async def sync(self, *, verify: bool = False) -> SyncReport:
        """One connect-sync-disconnect round (used by the task and tests)."""
        if self._connect is not None:
            reader, writer = await self._connect()
        else:
            from repro.service.client import open_transport

            reader, writer = await open_transport(self.addr)
        try:
            report = await sync_once(
                self.store,
                reader,
                writer,
                verify=verify,
                token=self.token,
                seed=self.seed,
                reply_timeout=self.reply_timeout,
            )
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover - transport teardown
                pass
        self.last_report = report
        self.last_error = None
        return report

    async def run(self) -> None:
        """Task body: sync on kick or interval until stopped."""
        while not self._stopping:
            self._rounds += 1
            verify = (self._rounds % self.scrub_every) == 0
            lag = None
            try:
                report = await self.sync(verify=verify)
                lag = report.lag
            except (TraceError, OSError) as exc:
                # Follower unreachable or died mid-sync: every committed
                # run it lacks is lag until the next successful round.
                self.last_error = str(exc)
                lag = len(self.store.catalog())
            if self._on_lag is not None and lag is not None:
                self._on_lag(self.addr, lag)
            if self._stopping:
                break
            self._kicked.clear()
            try:
                await asyncio.wait_for(self._kicked.wait(), self.interval_s)
            except asyncio.TimeoutError:
                pass


# -- local (same-filesystem) scrub ------------------------------------------


def scrub_local(
    src_root: str | pathlib.Path,
    dst_root: str | pathlib.Path,
    *,
    verify: bool = True,
    ledger: bool = True,
) -> SyncReport:
    """Anti-entropy pass between two stores on one filesystem.

    The offline half of ``repro sync``: diff the catalogs, verify
    per-run container crcs and per-segment crcs, and repair ``dst`` from
    ``src`` — missing runs, corrupted containers (bit flips, truncation,
    deletion), and missing or corrupted sealed segments of open runs.
    """
    src = TraceStore(src_root)
    dst = TraceStore(dst_root)
    report = SyncReport(follower=dst.store_id())
    ins = _obs()

    for run_id, entry in src.catalog().items():
        report.runs += 1
        want = src.container_crc(run_id)
        if want is None:
            raise StoreError(
                f"primary container for run {run_id!r} is unreadable; "
                "refusing to propagate a hole"
            )
        if dst.committed(run_id):
            if not verify:
                report.confirmed += 1
                continue
            if dst.container_crc(run_id) == want:
                report.confirmed += 1
                continue
            report.containers_repaired += 1
            ins.svc_scrub_repairs.inc()
        data = src.container_path(run_id).read_bytes()
        dst.adopt_container(run_id, entry, data)
        report.containers_shipped += 1
        ins.svc_replicated_runs.inc()
        report.confirmed += 1
        if ledger:
            record_replication(src, run_id, report.follower)

    for run_id in src.open_runs():
        if dst.committed(run_id):
            continue
        report.runs += 1
        have = dst.sealed_seqs(run_id)
        if verify and have:
            healthy = dst.verify_sealed(run_id, sorted(have))
            report.segments_pruned += len(have) - len(healthy)
            have = set(healthy)
        for record, data in iter_journal_segments(src.journal_dir(run_id)):
            if record.get("seq") in have:
                continue
            dst.append_segment(run_id, record, data)
            report.segments_shipped += 1
            ins.svc_replicated_segments.inc()
    return report


__all__ = [
    "CONTAINER_CHUNK_BYTES",
    "FollowerSessions",
    "Replicator",
    "SyncReport",
    "auth_proof",
    "record_replication",
    "replica_confirmations",
    "scrub_local",
    "sync_once",
]
