"""TraceStore: admission, dedupe, commit points, and startup recovery."""

from __future__ import annotations

import io
import json
import zipfile

import pytest

from repro.core.durable import recover
from repro.core.integrity import POLICY_STRICT
from repro.errors import (
    CorruptionError,
    RunCommittedError,
    StoreError,
    TraceWriteError,
)
from repro.service.store import TraceStore, check_run_id, validate_segment
from repro.testing.faults import ENOSPCIO
from tests.service.conftest import corrupt_covered_member


def seal_all(store, run_id, segments):
    for record, data in segments:
        store.append_segment(run_id, record, data)


def _edit_seg_json(data: bytes, edit) -> bytes:
    """The segment bytes with the ``seg_json`` header member's bytes
    replaced by ``edit(header bytes)``."""
    buf = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(data)) as src, zipfile.ZipFile(buf, "w") as dst:
        for member in src.namelist():
            body = src.read(member)
            dst.writestr(member, edit(body) if member == "seg_json" else body)
    return buf.getvalue()


def reference_report(journal_dir, tmp_path):
    """What a clean replay of the fixture journal recovers."""
    return recover(
        journal_dir, out=tmp_path / "ref.npz", policy=POLICY_STRICT, _finalizing=True
    )


class TestRunIds:
    @pytest.mark.parametrize(
        "bad",
        ["", ".hidden", "../escape", "a/b", "a\\b", "x" * 65, None, 7],
    )
    def test_rejected(self, bad):
        with pytest.raises(StoreError, match="invalid run id"):
            check_run_id(bad)

    @pytest.mark.parametrize("ok", ["r1", "run-2026.08.07_a", "A" * 64])
    def test_accepted(self, ok):
        assert check_run_id(ok) == ok


class TestAdmission:
    def test_seal_all_segments(self, store, segments):
        seal_all(store, "r1", segments)
        assert store.sealed_seqs("r1") == {rec["seq"] for rec, _ in segments}
        for rec, _ in segments:
            assert (store.journal_dir("r1") / rec["file"]).is_file()

    def test_duplicate_resend_is_idempotent(self, store, segments):
        rec, data = segments[0]
        assert store.append_segment("r1", rec, data) is True
        assert store.append_segment("r1", rec, data) is False
        assert store.sealed_seqs("r1") == {rec["seq"]}

    def test_conflicting_resend_is_poison(self, store, segments):
        (rec0, data0), (rec1, data1) = segments[0], segments[1]
        store.append_segment("r1", rec0, data0)
        forged = dict(rec1, seq=rec0["seq"], file=rec0["file"])
        with pytest.raises(CorruptionError, match="different content"):
            store.append_segment("r1", forged, data1)

    def test_corrupted_bytes_never_touch_the_journal(self, store, segments):
        rec, data = segments[0]
        with pytest.raises(CorruptionError, match="crc32 mismatch"):
            store.append_segment("r1", rec, corrupt_covered_member(rec, data))
        with pytest.raises(CorruptionError, match="not a loadable npz"):
            store.append_segment("r1", rec, data[: len(data) // 2])
        # Validation failed before any write: no journal exists at all.
        assert not store.journal_dir("r1").exists()

    @pytest.mark.parametrize(
        "mangle, match",
        [
            (lambda r: dict(r, op="checkpoint"), "not a seal record"),
            (lambda r: dict(r, seq=-1), "invalid seq"),
            (lambda r: dict(r, kind="nonsense"), "unknown kind"),
            (lambda r: dict(r, file="../../etc/passwd"), "does not match"),
            (lambda r: dict(r, crc={}), "no member crcs"),
        ],
    )
    def test_bad_records_rejected(self, segments, mangle, match):
        rec, data = segments[0]
        with pytest.raises(CorruptionError, match=match):
            validate_segment(mangle(rec), data)

    @pytest.mark.parametrize("core", [None, "0", 1.5])
    def test_sample_record_without_int_core_is_poison(self, store, segments, core):
        # Recovery files samples and switches by core: a record that names
        # none is refused at the door, not compacted onto an invented core.
        rec, data = next(
            (r, d) for r, d in segments if r["kind"] in ("samples", "switch")
        )
        forged = {k: v for k, v in rec.items() if k != "core"}
        if core is not None:
            forged["core"] = core
        with pytest.raises(CorruptionError, match="invalid core"):
            store.append_segment("r1", forged, data)
        assert not store.journal_dir("r1").exists()

    @pytest.mark.parametrize(
        "decl", [5, ["<i8", 5], ["<i8", [None]], ["<i8", ["2"]], ["<i8"], "ab"]
    )
    def test_malformed_member_declaration_is_poison(self, store, segments, decl):
        # The segment's own members table comes over the wire with its
        # bytes; a declaration that is not [dtype, [ints]] is poison, not
        # a crash of the daemon's store task.
        rec, data = segments[0]
        name = next(iter(rec["crc"]))

        def edit(header: bytes) -> bytes:
            header = json.loads(header)
            header["members"][name] = decl
            return json.dumps(header).encode()

        with pytest.raises(CorruptionError, match="not a loadable npz"):
            store.append_segment("r1", rec, _edit_seg_json(data, edit))
        assert not store.journal_dir("r1").exists()

    def test_overdeep_segment_header_is_poison(self, store, segments):
        rec, data = segments[0]
        deep = b"[" * 100_000 + b"]" * 100_000
        with pytest.raises(CorruptionError, match="not a loadable npz"):
            store.append_segment("r1", rec, _edit_seg_json(data, lambda _: deep))
        assert not store.journal_dir("r1").exists()

    @pytest.mark.parametrize("claim", ["x", None, [1]])
    def test_non_numeric_crc_claim_is_poison(self, store, segments, claim):
        # A malformed crc value from the wire is poison, not a crash of
        # the daemon's store task.
        rec, data = segments[0]
        name = next(iter(rec["crc"]))
        forged = dict(rec, crc={**rec["crc"], name: claim})
        with pytest.raises(CorruptionError, match="crc32 mismatch"):
            store.append_segment("r1", forged, data)
        assert not store.journal_dir("r1").exists()


class TestCommit:
    def test_finish_and_compact(self, store, segments, journal_dir, tmp_path):
        seal_all(store, "r1", segments)
        store.finish_run("r1")
        assert store.finished("r1")
        out = store.compact_run("r1")
        assert out.is_file()
        assert store.committed("r1")
        assert store.path_for("r1") == out
        assert not store.journal_dir("r1").exists()
        ref = reference_report(journal_dir, tmp_path)
        entry = store.catalog()["r1"]
        assert entry["segments"] == ref.segments_recovered
        assert entry["samples"] == ref.samples_recovered
        assert entry["marks"] == ref.marks_recovered

    def test_finish_is_idempotent(self, store, segments):
        seal_all(store, "r1", segments)
        store.finish_run("r1")
        store.finish_run("r1")

    def test_finish_without_journal(self, store):
        with pytest.raises(StoreError, match="no journal"):
            store.finish_run("ghost")

    def test_compact_is_idempotent_after_commit(self, store, segments):
        seal_all(store, "r1", segments)
        store.finish_run("r1")
        first = store.compact_run("r1")
        assert store.compact_run("r1") == first
        raw = (store.root / "catalog.jsonl").read_text().strip().splitlines()
        assert len(raw) == 1  # no duplicate catalog line

    def test_committed_run_refuses_more_segments(self, store, segments):
        seal_all(store, "r1", segments)
        store.finish_run("r1")
        store.compact_run("r1")
        with pytest.raises(RunCommittedError):
            store.append_segment("r1", *segments[0])
        with pytest.raises(RunCommittedError):
            store.finish_run("r1")
        assert store.sealed_seqs("r1") == set()

    def test_path_for_unknown_run_names_the_known(self, store, segments):
        seal_all(store, "r1", segments)
        store.finish_run("r1")
        store.compact_run("r1")
        with pytest.raises(StoreError, match="r1"):
            store.path_for("nope")


class TestQuarantine:
    def test_segment_evidence_preserved(self, store, segments):
        rec, data = segments[0]
        dest = store.quarantine_segment("r1", rec["seq"], data, "crc mismatch")
        assert dest.read_bytes() == data
        assert "crc mismatch" in dest.with_suffix(".reason").read_text()

    def test_run_journal_moved_out_of_ingest_path(self, store, segments):
        seal_all(store, "r1", segments)
        qdir = store.quarantine_run("r1", "bad journal")
        assert qdir.is_dir()
        assert not store.journal_dir("r1").exists()
        assert "r1" not in store.open_runs()
        reason = qdir.parent / "r1.reason"
        assert "bad journal" in reason.read_text()


class TestRecovery:
    def test_empty_store_noop(self, store):
        assert store.recover_store() == {}

    def test_finished_run_compacts_on_restart(self, store, segments):
        seal_all(store, "r1", segments)
        store.finish_run("r1")
        # Daemon died before compaction: a fresh store must finish the job.
        fresh = TraceStore(store.root)
        actions = fresh.recover_store()
        assert actions == {"r1": "compacted"}
        assert fresh.committed("r1")
        assert fresh.recover_store() == {}  # idempotent

    def test_leftover_journal_after_commit_is_cleaned(self, store, segments):
        seal_all(store, "r1", segments)
        store.finish_run("r1")
        store.compact_run("r1")
        # Simulate a crash between the catalog append and the rmtree.
        jdir = store.journal_dir("r1")
        jdir.mkdir(parents=True)
        (jdir / "seg-000000.npz").write_bytes(b"leftover")
        fresh = TraceStore(store.root)
        assert fresh.recover_store() == {"r1": "cleaned"}
        assert not jdir.exists()

    def test_open_run_left_resumable_and_tmp_swept(self, store, segments):
        seal_all(store, "r1", segments[:3])
        stray = store.journal_dir("r1") / "seg-000099.npz.tmp"
        stray.write_bytes(b"pre-rename garbage")
        fresh = TraceStore(store.root)
        assert fresh.recover_store() == {"r1": "resumable"}
        assert not stray.exists()
        assert fresh.sealed_seqs("r1") == {rec["seq"] for rec, _ in segments[:3]}

    def test_torn_catalog_tail_rewritten(self, store, segments):
        seal_all(store, "r1", segments)
        store.finish_run("r1")
        store.compact_run("r1")
        with open(store.root / "catalog.jsonl", "ab") as fh:
            fh.write(b'{"run": "half')  # crash mid-append: no newline
        fresh = TraceStore(store.root)
        fresh.recover_store()
        assert fresh.committed("r1")
        for line in (store.root / "catalog.jsonl").read_bytes().splitlines():
            json.loads(line)  # every surviving line parses

    def test_newline_less_catalog_tail_survives_next_commit(self, store, segments):
        for rid in ("r1", "r2"):
            seal_all(store, rid, segments[:4])
            store.finish_run(rid)
            store.compact_run(rid)
        catalog = store.root / "catalog.jsonl"
        # Crash after the last line's JSON landed but before its newline:
        # the line still counts, and the next commit must not fuse with it.
        catalog.write_bytes(catalog.read_bytes()[:-1])
        fresh = TraceStore(store.root)
        fresh.recover_store()
        seal_all(fresh, "r3", segments[:4])
        fresh.finish_run("r3")
        fresh.compact_run("r3")
        assert TraceStore(store.root).runs() == ["r1", "r2", "r3"]

    def test_torn_run_journal_tail_rewritten(self, store, segments):
        seal_all(store, "r1", segments[:3])
        jpath = store.journal_dir("r1") / "journal.jsonl"
        with open(jpath, "ab") as fh:
            fh.write(b'{"op": "seal", "seq"')
        fresh = TraceStore(store.root)
        assert fresh.recover_store() == {"r1": "resumable"}
        for line in jpath.read_bytes().splitlines():
            json.loads(line)
        assert fresh.sealed_seqs("r1") == {rec["seq"] for rec, _ in segments[:3]}

    def test_disk_corrupted_segment_quarantines_on_restart(self, store, segments):
        seal_all(store, "r1", segments)
        store.finish_run("r1")
        rec, data = segments[0]
        victim = store.journal_dir("r1") / rec["file"]
        victim.write_bytes(corrupt_covered_member(rec, data))
        fresh = TraceStore(store.root)
        assert fresh.recover_store() == {"r1": "quarantined"}
        assert not fresh.committed("r1")
        assert (store.root / "quarantine" / "r1").is_dir()


class TestStorageFailure:
    def test_enospc_degrades_to_typed_error(self, tmp_path, segments):
        rec, data = segments[0]
        store = TraceStore(tmp_path / "store", io=ENOSPCIO(len(data) // 2))
        with pytest.raises(TraceWriteError):
            store.append_segment("r1", rec, data)
        # The disk "recovers": a resend over the orphan seals cleanly.
        healed = TraceStore(tmp_path / "store")
        healed.recover_store()
        assert healed.append_segment("r1", rec, data) is True
        assert healed.sealed_seqs("r1") == {rec["seq"]}
