"""Crash-safe multi-run trace store behind the ingestion daemon.

Layout under the store root::

    catalog.jsonl                  append-only commit log (fsync'd)
    runs/<run-id>/journal/         PR 5 journal dir while the run is open
    runs/<run-id>/trace.npz        compacted v4 container once committed
    quarantine/<run-id>/           journals compaction refused (poison)

Durability is two nested commit points, both inherited from
:mod:`repro.core.durable`:

* **Segment commit** — a pushed segment is validated against its own
  crc *before* anything touches disk, then sealed with the exact
  write→fsync→rename→fsync(dir)→journal-append→fsync discipline of
  :class:`~repro.core.durable.DurableTraceWriter` (both seal through
  :meth:`~repro.core.durable.AppendLog.append`).  The daemon ACKs only
  after this returns, so *ACKed ⊆ journal-sealed*: a kill at any instant
  loses at most a segment that was never acknowledged.
* **Run commit** — compaction replays the run's journal through
  :func:`~repro.core.durable.recover` (atomic temp + rename) and then
  appends one fsync'd line to ``catalog.jsonl``.  The catalog line is
  when the run becomes visible to ``repro diff``; a crash anywhere
  before it re-runs compaction idempotently on the next start, a crash
  after it only re-deletes the leftover journal.

Every syscall the store issues goes through the swappable
:class:`~repro.core.durable.RecorderIO`, so the chaos suite can
enumerate and kill at every single operation offset.
"""

from __future__ import annotations

import json
import pathlib
import re
import time
import uuid
import zlib

from repro.core.durable import (
    KIND_SEG_MANIFEST,
    KIND_SEG_META,
    KIND_SEG_SAMPLES,
    KIND_SEG_SWITCH,
    SEGMENT_READ_ERRORS,
    AppendLog,
    JournalLog,
    RecorderIO,
    _seg_name,
    decode_segment,
    recover,
    segment_crc_failures,
)
from repro.core.integrity import POLICY_STRICT
from repro.core.options import IngestOptions
from repro.errors import (
    CorruptionError,
    RecoveryError,
    RunCommittedError,
    StoreError,
    TraceWriteError,
)
from repro.obs.instrumented import pipeline as _obs

_JOURNAL_FILE = "journal.jsonl"
_CATALOG_FILE = "catalog.jsonl"
_STORE_ID_FILE = "store.id"
_SEG_KINDS = (KIND_SEG_MANIFEST, KIND_SEG_SAMPLES, KIND_SEG_SWITCH, KIND_SEG_META)

#: Run ids become directory names; this shape excludes separators,
#: dotfiles, and anything a shell or URL would mangle.
RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class CatalogLog(AppendLog):
    """``catalog.jsonl``: one commit line per run, plus retire tombstones."""

    REQUIRED = ("run",)
    SORT_KEYS = True
    READ_ERROR = StoreError


class RunJournalLog(JournalLog):
    """A store run's journal: the recording journal's records, key-sorted."""

    SORT_KEYS = True


def _fold_catalog(records: list[dict]) -> dict[str, dict]:
    """Committed runs, in commit order, from the catalog's records."""
    entries: dict[str, dict] = {}
    for rec in records:
        if rec.get("op") == "retire":
            # Retention tombstone: the run moved to cold storage.  A
            # later commit line for the same id (a deliberate re-push)
            # makes it live again, so order matters here.
            entries.pop(rec["run"], None)
        else:
            entries.setdefault(rec["run"], rec)
    return entries


def check_run_id(run_id: str) -> str:
    if not isinstance(run_id, str) or not RUN_ID_RE.match(run_id):
        raise StoreError(
            f"invalid run id {run_id!r} (need 1-64 chars of [A-Za-z0-9._-], "
            "not starting with a separator or dot)"
        )
    return run_id


def _crc_signature(record: dict) -> str:
    """A segment's identity for idempotence: its member crcs, canonical."""
    return json.dumps(record.get("crc") or {}, sort_keys=True)


def validate_segment(record: dict, data: bytes) -> None:
    """Admission check: the bytes must prove the record's claims.

    Raises :class:`~repro.errors.CorruptionError` (the poison-shard
    path) on any mismatch; nothing is written before this passes, so a
    poison segment can never enter a run journal.
    """
    if not isinstance(record, dict) or record.get("op") != "seal":
        raise CorruptionError("segment record is not a seal record")
    seq = record.get("seq")
    if not isinstance(seq, int) or seq < 0:
        raise CorruptionError(f"segment record has invalid seq {seq!r}")
    if record.get("kind") not in _SEG_KINDS:
        raise CorruptionError(
            f"segment record has unknown kind {record.get('kind')!r}"
        )
    core = record.get("core")
    if record["kind"] in (KIND_SEG_SAMPLES, KIND_SEG_SWITCH) and not isinstance(
        core, int
    ):
        raise CorruptionError(f"segment record has invalid core {core!r}")
    if record.get("file") != _seg_name(seq):
        # Also forecloses path traversal: the stored name is derived,
        # never taken from the wire.
        raise CorruptionError(
            f"segment record file {record.get('file')!r} does not match "
            f"its seq (expected {_seg_name(seq)})"
        )
    crc = record.get("crc")
    if not isinstance(crc, dict) or not crc:
        raise CorruptionError("segment record carries no member crcs")
    try:
        _, arrays = decode_segment(data)
    except SEGMENT_READ_ERRORS as exc:
        raise CorruptionError(f"segment bytes are not a loadable npz: {exc}") from exc
    bad = segment_crc_failures(crc, arrays)
    if bad:
        raise CorruptionError(
            f"segment {record['file']}: crc32 mismatch in {', '.join(sorted(bad))}"
        )


class TraceStore:
    """The daemon's durable state: per-run journals + commit catalog."""

    def __init__(
        self,
        root: str | pathlib.Path,
        *,
        io: RecorderIO | None = None,
        options: IngestOptions | None = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.options = options if options is not None else IngestOptions()
        self._io = io if io is not None else RecorderIO()
        self._catalog = CatalogLog(self.root / _CATALOG_FILE, self._io)
        #: run id -> {seq: crc signature} for every open run journal,
        #: loaded lazily; the dedupe map behind idempotent re-push.
        self._seals: dict[str, dict[int, str]] = {}
        #: run id -> its journal's log, reused so appends skip re-parsing.
        self._journals: dict[str, RunJournalLog] = {}
        self._committed: dict[str, dict] | None = None
        try:
            self._io.makedirs(self.root / "runs")
            self._io.makedirs(self.root / "quarantine")
        except OSError as exc:
            raise TraceWriteError(f"cannot create store at {self.root}: {exc}") from exc

    # -- paths -----------------------------------------------------------
    def run_dir(self, run_id: str) -> pathlib.Path:
        return self.root / "runs" / check_run_id(run_id)

    def journal_dir(self, run_id: str) -> pathlib.Path:
        return self.run_dir(run_id) / "journal"

    def container_path(self, run_id: str) -> pathlib.Path:
        return self.run_dir(run_id) / "trace.npz"

    # -- catalog ---------------------------------------------------------
    def catalog(self) -> dict[str, dict]:
        """Committed runs (cached; invalidated by commits/recovery)."""
        if self._committed is None:
            self._committed = _fold_catalog(self._catalog.read()[0])
        return self._committed

    def committed(self, run_id: str) -> bool:
        return check_run_id(run_id) in self.catalog()

    def runs(self) -> list[str]:
        """Every committed run id, in commit order."""
        return list(self.catalog())

    def path_for(self, run_id: str) -> pathlib.Path:
        """The committed container for ``run_id`` (for ``repro diff``)."""
        if not self.committed(run_id):
            known = ", ".join(self.runs()) or "(none)"
            raise StoreError(
                f"run {run_id!r} is not committed in {self.root} "
                f"(committed runs: {known})"
            )
        return self.container_path(run_id)

    def _commit(self, entry: dict) -> None:
        self._catalog.append(entry)
        if self._committed is not None:
            self._committed.setdefault(entry["run"], entry)

    # -- segment admission ----------------------------------------------
    def _journal(self, run_id: str) -> RunJournalLog:
        log = self._journals.get(run_id)
        if log is None:
            log = RunJournalLog(self.journal_dir(run_id) / _JOURNAL_FILE, self._io)
            self._journals[run_id] = log
        return log

    def _forget(self, run_id: str) -> None:
        """Drop the cached state of a run whose journal went away."""
        self._seals.pop(run_id, None)
        self._journals.pop(run_id, None)

    def _seal_records(self, run_id: str) -> dict[int, dict]:
        """seq -> seal record, from the run journal's trusted prefix."""
        return {
            r["seq"]: r
            for r in self._journal(run_id).read()[0]
            if r.get("op") == "seal" and isinstance(r.get("seq"), int)
        }

    def _load_seals(self, run_id: str) -> dict[int, str]:
        if run_id not in self._seals:
            self._seals[run_id] = {
                seq: _crc_signature(r) for seq, r in self._seal_records(run_id).items()
            }
        return self._seals[run_id]

    def sealed_seqs(self, run_id: str) -> set[int]:
        """Seqs already durably sealed for an open run (resume hint)."""
        if self.committed(run_id):
            return set()
        if not self.journal_dir(run_id).is_dir():
            return set()
        return set(self._load_seals(run_id))

    def finished(self, run_id: str) -> bool:
        """True once the run journal carries its finish marker."""
        records, _ = self._journal(run_id).read()
        return any(r.get("op") == "finalize" for r in records)

    def append_segment(self, run_id: str, record: dict, data: bytes) -> bool:
        """Validate + durably seal one pushed segment.

        Returns ``True`` when the segment was newly sealed, ``False``
        for an idempotent duplicate (same seq, same crcs — the resend
        after a lost ACK).  Raises :class:`CorruptionError` for poison
        (bytes failing their own crcs, or a seq resent with *different*
        content) and :class:`RunCommittedError` when the run is already
        visible to ``diff`` — accepting more would fork it.
        """
        check_run_id(run_id)
        if self.committed(run_id):
            raise RunCommittedError(
                f"run {run_id!r} is already committed; a re-push would "
                "create a duplicate run"
            )
        validate_segment(record, data)
        seals = self._load_seals(run_id)
        seq = record["seq"]
        sig = _crc_signature(record)
        if seq in seals:
            if seals[seq] != sig:
                raise CorruptionError(
                    f"run {run_id!r} seq {seq} resent with different content "
                    "(conflicting producer or corrupted resend)"
                )
            return False
        jdir = self.journal_dir(run_id)
        try:
            self._io.makedirs(jdir)
        except OSError as exc:
            raise TraceWriteError(
                f"store {self.root}: sealing {run_id}/{record['file']} "
                f"failed: {exc}"
            ) from exc
        self._journal(run_id).append(record, file=(jdir / record["file"], data))
        seals[seq] = sig
        return True

    # -- run completion --------------------------------------------------
    def finish_run(self, run_id: str) -> None:
        """Durably mark a run complete (the producer sent FINISH).

        After this line lands, startup recovery knows the run must be
        compacted even if the daemon dies before compaction starts.
        Idempotent; raises :class:`RunCommittedError` once committed.
        """
        check_run_id(run_id)
        if self.committed(run_id):
            raise RunCommittedError(f"run {run_id!r} is already committed")
        jdir = self.journal_dir(run_id)
        if not jdir.is_dir():
            raise StoreError(f"run {run_id!r} has no journal to finish")
        if self.finished(run_id):
            return
        self._journal(run_id).append(
            {"op": "finalize", "out": str(self.container_path(run_id))}
        )
        _obs().journal_fsyncs.inc()

    @staticmethod
    def _container_bytes(path: pathlib.Path) -> int | None:
        """On-disk size of a committed container (None if unreadable)."""
        try:
            return path.stat().st_size
        except OSError:
            return None

    @staticmethod
    def _was_interrupted(path: pathlib.Path) -> bool:
        """Whether the committed container's meta marks a cut-short run."""
        from repro.core.tracefile import TraceReader

        try:
            with TraceReader(path) as reader:
                return reader.meta.get("interrupted") is not None
        except Exception:
            return False

    def compact_run(self, run_id: str) -> pathlib.Path:
        """Replay a finished run's journal into its committed container.

        Strict replay — every sealed segment was validated at admission,
        so a segment failing now means the store's own disk corrupted it,
        which must surface, not be salvaged silently.  Idempotent at
        every crash point: recover() writes atomically, the catalog
        append dedupes, and the journal removal is last.
        """
        check_run_id(run_id)
        if self.committed(run_id):
            # Crash landed between catalog append and journal cleanup.
            self._io.rmtree(self.journal_dir(run_id))
            return self.container_path(run_id)
        jdir = self.journal_dir(run_id)
        out = self.container_path(run_id)
        try:
            report = recover(jdir, out=out, policy=POLICY_STRICT, _finalizing=True)
        except RecoveryError as exc:
            raise StoreError(
                f"run {run_id!r} cannot be compacted: {exc}"
            ) from exc
        entry = {
            "run": run_id,
            "file": str(out.relative_to(self.root)),
            "segments": report.segments_recovered,
            "samples": report.samples_recovered,
            "marks": report.marks_recovered,
            "bytes": self._container_bytes(out),
            "committed_at": time.time(),
            "interrupted": self._was_interrupted(out),
        }
        self._commit(entry)
        self._io.rmtree(jdir)
        self._forget(run_id)
        return out

    # -- replication support ---------------------------------------------
    def store_id(self) -> str:
        """Stable identity of this store (created on first use).

        Followers report it in SYNC_HAVE so the primary's replication
        ledger counts *stores*, not addresses — a follower reachable
        over two transports is still one replica toward quorum.
        """
        id_path = self.root / _STORE_ID_FILE
        try:
            return id_path.read_text().strip()
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise StoreError(f"cannot read store id {id_path}: {exc}") from exc
        new_id = uuid.uuid4().hex
        try:
            self._io.write_bytes(id_path, (new_id + "\n").encode("utf-8"))
            self._io.fsync_path(id_path)
        except OSError as exc:
            raise TraceWriteError(
                f"cannot write store id {id_path}: {exc}"
            ) from exc
        return new_id

    def container_crc(self, run_id: str) -> int | None:
        """crc32 of the committed container's bytes (None if unreadable).

        The anti-entropy scrub compares this across stores: a follower
        whose committed container fails to match the primary's crc has
        suffered disk corruption (bit flip, truncation, deletion) and is
        repaired by re-shipping the primary's bytes.
        """
        try:
            return zlib.crc32(self.container_path(run_id).read_bytes())
        except OSError:
            return None

    def adopt_container(self, run_id: str, entry: dict, data: bytes) -> pathlib.Path:
        """Commit a replicated container verbatim (the follower side).

        The primary ships the committed container's exact bytes plus its
        catalog entry; adopting both verbatim is what makes a replicated
        run *byte-identical* across stores — follower-side recompaction
        would re-zip the members with fresh archive metadata.  Same
        commit discipline as :meth:`compact_run`: tmp → fsync → rename →
        fsync(dir), then the fsync'd catalog line is the commit point,
        and the now-redundant warm journal is deleted last.  Re-adopting
        (scrub repairing a corrupted container) skips the duplicate
        catalog line.
        """
        check_run_id(run_id)
        dest = self.container_path(run_id)
        tmp = dest.with_name(dest.name + ".sync.tmp")
        try:
            self._io.makedirs(dest.parent)
            self._io.write_bytes(tmp, data)
            self._io.fsync_path(tmp)
            self._io.replace(tmp, dest)
            self._io.fsync_dir(dest.parent)
        except OSError as exc:
            raise TraceWriteError(
                f"store {self.root}: adopting replicated container for "
                f"run {run_id!r} failed: {exc}"
            ) from exc
        if not self.committed(run_id):
            self._commit({**entry, "run": run_id})
        jdir = self.journal_dir(run_id)
        if jdir.is_dir():
            self._io.rmtree(jdir)
        self._forget(run_id)
        return dest

    def drop_segment(self, run_id: str, seq: int) -> bool:
        """Forget one sealed segment of an *open* run (scrub repair).

        Used when the sealed bytes on disk no longer pass the crcs their
        journal record promised: the record is pruned (atomic journal
        rewrite) and the corrupt file unlinked, so a re-replicated copy
        can be sealed through the ordinary admission path.  Returns True
        when a segment was dropped.
        """
        check_run_id(run_id)
        if self.committed(run_id):
            raise RunCommittedError(
                f"run {run_id!r} is committed; its segments are part of "
                "the container now"
            )
        log = self._journal(run_id)
        records, _torn = log.read()
        kept = [
            r
            for r in records
            if not (r.get("op") == "seal" and r.get("seq") == seq)
        ]
        if len(kept) == len(records):
            return False
        log.rewrite(kept)
        seg = self.journal_dir(run_id) / _seg_name(seq)
        try:
            seg.unlink()
        except OSError:  # pragma: no cover - already gone
            pass
        self._forget(run_id)
        return True

    def verify_sealed(self, run_id: str, seqs) -> list[int]:
        """Scrub: drop each of ``seqs`` whose bytes fail their seal record.

        Returns the seqs that pass, in order.  A dropped seq leaves the
        have-set, so replication re-ships it through admission — the
        segment-level repair (one ``svc_scrub_repairs`` each).
        """
        jdir = self.journal_dir(run_id)
        records = self._seal_records(run_id)
        healthy: list[int] = []
        for seq in seqs:
            try:
                validate_segment(records.get(seq), (jdir / _seg_name(seq)).read_bytes())
            except (OSError, CorruptionError):
                self.drop_segment(run_id, seq)
                _obs().svc_scrub_repairs.inc()
            else:
                healthy.append(seq)
        return healthy

    def tombstone_run(self, run_id: str, *, archive: str) -> None:
        """Retire a committed run from the catalog (retention commit point).

        One fsync'd append — ``{"run", "op": "retire", "archive"}`` —
        after which the run is invisible to ``diff``/``runs`` and its
        authoritative bytes live in the archive.  The caller deletes the
        run directory *after* this returns; a crash in between leaves an
        orphan directory the next retention pass sweeps.
        """
        check_run_id(run_id)
        if not self.committed(run_id):
            raise StoreError(f"run {run_id!r} is not committed; nothing to retire")
        self._catalog.append({"run": run_id, "op": "retire", "archive": archive})
        if self._committed is not None:
            self._committed.pop(run_id, None)

    def remove_run_dir(self, run_id: str) -> None:
        """Delete a retired run's directory (post-tombstone cleanup)."""
        check_run_id(run_id)
        if self.committed(run_id):
            raise StoreError(
                f"run {run_id!r} is still committed; tombstone it first"
            )
        self._io.rmtree(self.run_dir(run_id))
        self._forget(run_id)

    def quarantine_segment(
        self, run_id: str, seq, data: bytes, reason: str
    ) -> pathlib.Path:
        """Preserve a poison segment's bytes for forensics.

        The segment never entered the run journal (validation rejected
        it before any write), so this is pure evidence capture — the run
        itself stays healthy.  Best-effort durability: no fsync chain, a
        crash may lose the evidence but never store state.
        """
        check_run_id(run_id)
        tag = f"{seq:06d}" if isinstance(seq, int) and seq >= 0 else "unknown"
        dest = self.root / "quarantine" / f"{run_id}.seg-{tag}.npz"
        try:
            self._io.makedirs(dest.parent)
            self._io.write_bytes(dest, data)
            self._io.write_bytes(
                dest.with_suffix(".reason"), (reason + "\n").encode("utf-8")
            )
        except OSError as exc:
            raise TraceWriteError(
                f"store {self.root}: quarantining segment {seq} of run "
                f"{run_id!r} failed: {exc}"
            ) from exc
        return dest

    def quarantine_run(self, run_id: str, reason: str) -> pathlib.Path:
        """Move a poisoned run's journal out of the ingest path.

        The bytes are preserved for forensics; the run can never commit.
        """
        check_run_id(run_id)
        qdir = self.root / "quarantine" / run_id
        jdir = self.journal_dir(run_id)
        try:
            self._io.makedirs(qdir.parent)
            if jdir.is_dir():
                self._io.rmtree(qdir)
                self._io.replace(jdir, qdir)
            self._io.write_bytes(
                qdir.parent / f"{run_id}.reason",
                (reason + "\n").encode("utf-8"),
            )
        except OSError as exc:
            raise TraceWriteError(
                f"store {self.root}: quarantining run {run_id!r} failed: {exc}"
            ) from exc
        self._forget(run_id)
        return qdir

    # -- startup recovery ------------------------------------------------
    def open_runs(self) -> list[str]:
        """Uncommitted runs that still hold a journal (resumable)."""
        out = []
        runs_dir = self.root / "runs"
        if runs_dir.is_dir():
            for d in sorted(runs_dir.iterdir()):
                if (d / "journal").is_dir() and d.name not in self.catalog():
                    out.append(d.name)
        return out

    def compaction_backlog(self) -> list[str]:
        """Finished-but-uncommitted runs (what recovery must compact)."""
        return [r for r in self.open_runs() if self.finished(r)]

    def recover_store(self) -> dict[str, str]:
        """Idempotent startup replay; returns {run_id: action} taken.

        Rules, in order, for every run directory found on disk:

        * catalog says committed → the journal (if any survives) is a
          leftover of a crash after the commit point: delete it;
        * journal carries the finish marker → the producer was done:
          compact and commit now;
        * otherwise → an open run; leave the journal for the producer to
          resume (stray ``.tmp`` files are pre-rename garbage and are
          swept).
        """
        self._seals.clear()
        self._journals.clear()
        self._committed = None
        entries = _fold_catalog(self._catalog.repair())
        self._committed = entries
        actions: dict[str, str] = {}
        runs_dir = self.root / "runs"
        if not runs_dir.is_dir():
            return actions
        for d in sorted(runs_dir.iterdir()):
            run_id = d.name
            if not RUN_ID_RE.match(run_id):
                continue
            jdir = d / "journal"
            if run_id in entries:
                if jdir.is_dir():
                    self._io.rmtree(jdir)
                    actions[run_id] = "cleaned"
                continue
            if not jdir.is_dir():
                continue
            if self.finished(run_id):
                try:
                    self.compact_run(run_id)
                    actions[run_id] = "compacted"
                except (StoreError, CorruptionError) as exc:
                    self.quarantine_run(run_id, str(exc))
                    actions[run_id] = "quarantined"
            else:
                for tmp in jdir.glob("*.tmp"):
                    try:
                        tmp.unlink()
                    except OSError:  # pragma: no cover - best-effort sweep
                        pass
                # The producer resumes by appending; cut a torn tail now.
                self._journal(run_id).repair()
                actions[run_id] = "resumable"
        return actions


__all__ = ["TraceStore", "check_run_id", "validate_segment", "RUN_ID_RE"]
