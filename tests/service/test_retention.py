"""Retention/compaction-to-cold-storage: budgets, quorum, crash safety.

Two constitutional rules are enumerated here rather than sampled: a run
below its replication quorum is never retired no matter how far over
budget the store is, and a kill at *every* store-operation offset of a
retirement pass (torn writes included), followed by a healthy redo,
loses no run — each original run ends up either live in the catalog or
byte-identical inside an archive, never neither.
"""

from __future__ import annotations

import json
import shutil
import time

import numpy as np
import pytest

from repro.errors import RetentionError, TraceWriteError
from repro.service.replica import record_replication
from repro.service.retention import (
    RetentionPolicy,
    build_archive,
    extract_run,
    plan_retention,
    read_archive,
    retire_runs,
)
from repro.service.store import TraceStore
from repro.testing.faults import CountingIO, CrashingIO, ENOSPCIO, SimulatedCrash

RUNS = ("r1", "r2", "r3")


def build_store(root, segments, *, runs=RUNS, per_run=4):
    store = TraceStore(root)
    for rid in runs:
        for rec, data in segments[:per_run]:
            store.append_segment(rid, rec, data)
        store.finish_run(rid)
        store.compact_run(rid)
    return store


@pytest.fixture(scope="module")
def template(segments, tmp_path_factory):
    """A pre-built 3-run store, copied per test that mutates one."""
    root = tmp_path_factory.mktemp("retention") / "store"
    build_store(root, segments)
    return root


def clone(template, dest):
    shutil.copytree(template, dest)
    return TraceStore(dest)


class TestPolicy:
    def test_budget_knobs_validate(self):
        with pytest.raises(RetentionError):
            RetentionPolicy(max_runs=-1)
        with pytest.raises(RetentionError):
            RetentionPolicy(quorum=-2)
        assert not RetentionPolicy().bounded
        assert RetentionPolicy(max_runs=5).bounded

    def test_unbounded_policy_plans_nothing(self, template):
        store = TraceStore(template)
        plan = plan_retention(store, RetentionPolicy())
        assert plan.retire == [] and plan.blocked == {}
        assert plan.kept == len(RUNS)
        assert plan.total_bytes == sum(
            int(e["bytes"]) for e in store.catalog().values()
        )

    def test_max_runs_evicts_oldest_first(self, template):
        store = TraceStore(template)
        plan = plan_retention(store, RetentionPolicy(max_runs=1))
        assert plan.retire == ["r1", "r2"]
        assert plan.kept == 1

    def test_max_age_cuts_between_commits(self, template):
        store = TraceStore(template)
        at = {r: store.catalog()[r]["committed_at"] for r in RUNS}
        assert at["r1"] < at["r2"] < at["r3"]
        now = at["r3"] + 100.0
        cutoff = (at["r1"] + at["r2"]) / 2  # strictly between r1 and r2
        plan = plan_retention(
            store, RetentionPolicy(max_age_s=now - cutoff), now=now
        )
        assert plan.retire == ["r1"]

    def test_max_bytes_evicts_until_under_budget(self, template):
        store = TraceStore(template)
        sizes = [int(e["bytes"]) for e in store.catalog().values()]
        budget = sum(sizes) - sizes[0] - 1  # one byte short of dropping only r1
        plan = plan_retention(store, RetentionPolicy(max_total_bytes=budget))
        assert plan.retire == ["r1", "r2"]

    def test_quorum_blocks_unreplicated_runs(self, template, tmp_path):
        store = clone(template, tmp_path / "s")
        policy = RetentionPolicy(max_runs=0, quorum=1)
        plan = plan_retention(store, policy)
        assert plan.retire == []
        assert plan.blocked == {r: "quorum 0/1" for r in RUNS}
        # One confirmation frees exactly that run; the others stay
        # blocked and nothing is evicted in their place.
        record_replication(store, "r1", "replica-a")
        plan = plan_retention(store, policy)
        assert plan.retire == ["r1"]
        assert set(plan.blocked) == {"r2", "r3"}
        plan2 = plan_retention(store, RetentionPolicy(max_runs=0, quorum=2))
        assert plan2.retire == []
        assert plan2.blocked["r1"] == "quorum 1/2"


class TestArchive:
    def test_archive_bytes_are_deterministic(self, template):
        store = TraceStore(template)
        assert build_archive(store, ["r1", "r2"]) == build_archive(
            store, ["r1", "r2"]
        )

    def test_retire_archives_tombstones_and_removes(self, template, tmp_path):
        store = clone(template, tmp_path / "s")
        original = {
            r: store.container_path(r).read_bytes() for r in ("r1", "r2")
        }
        report = retire_runs(store, RetentionPolicy(max_runs=1))
        assert report.retired == ["r1", "r2"]
        assert report.archive == str(store.root / "archive" / "archive-000000.zip")
        assert report.archived_bytes > 0

        manifest = read_archive(report.archive)  # verifies member crcs
        assert set(manifest["runs"]) == {"r1", "r2"}
        out = extract_run(report.archive, "r1", tmp_path / "restored.npz")
        assert out.read_bytes() == original["r1"]
        with np.load(out, allow_pickle=False) as npz:
            assert npz.files

        # The tombstones are the commit point: a fresh handle agrees.
        probe = TraceStore(store.root)
        assert list(probe.catalog()) == ["r3"]
        for r in ("r1", "r2"):
            assert not probe.committed(r)
            assert not probe.run_dir(r).exists()
        assert probe.recover_store() == {}

    def test_second_pass_numbers_the_next_archive(self, template, tmp_path):
        store = clone(template, tmp_path / "s")
        first = retire_runs(store, RetentionPolicy(max_runs=2))
        second = retire_runs(store, RetentionPolicy(max_runs=1))
        assert first.archive.endswith("archive-000000.zip")
        assert second.archive.endswith("archive-000001.zip")
        assert list(TraceStore(store.root).catalog()) == ["r3"]

    def test_dry_run_touches_nothing(self, template, tmp_path):
        store = clone(template, tmp_path / "s")
        report = retire_runs(store, RetentionPolicy(max_runs=1), dry_run=True)
        assert report.dry_run and report.retired == ["r1", "r2"]
        assert report.archive is None
        assert not (store.root / "archive").exists()
        assert list(TraceStore(store.root).catalog()) == list(RUNS)

    def test_orphan_sweep_redoes_a_crashed_cleanup(self, template, tmp_path):
        store = clone(template, tmp_path / "s")
        # A crash between tombstone and directory removal leaves exactly
        # this: tombstoned run, directory still on disk.
        store.tombstone_run("r1", archive="archive/archive-000000.zip")
        assert store.run_dir("r1").exists()
        report = retire_runs(store, RetentionPolicy())
        assert report.swept == ["r1"]
        assert not store.run_dir("r1").exists()

    def test_offline_retire_after_torn_catalog_tail(self, template, tmp_path):
        store = clone(template, tmp_path / "s")
        with open(store.root / "catalog.jsonl", "ab") as fh:
            fh.write(b'{"run": "half')  # crash mid-append: no newline
        # No recover_store(): the offline retention pass appends directly.
        report = retire_runs(TraceStore(store.root), RetentionPolicy(max_runs=2))
        assert report.retired == ["r1"]
        probe = TraceStore(store.root)
        assert probe.runs() == ["r2", "r3"]
        for r in ("r2", "r3"):
            with np.load(probe.path_for(r), allow_pickle=False) as npz:
                assert npz.files


def assert_no_run_lost(root, original):
    """Every original run is live or byte-identical in some archive."""
    store = TraceStore(root)
    archived: dict[str, bytes] = {}
    adir = root / "archive"
    if adir.is_dir():
        for path in sorted(adir.glob("archive-*.zip")):
            manifest = read_archive(path)  # every member crc re-verified
            for run_id in manifest["runs"]:
                archived[run_id] = extract_run(
                    path, run_id, root / "tmp-extract.npz"
                ).read_bytes()
    for run_id, data in original.items():
        if store.committed(run_id):
            assert store.container_path(run_id).read_bytes() == data
        else:
            assert run_id in archived, f"run {run_id} lost by the crash"
            assert archived[run_id] == data
    (root / "tmp-extract.npz").unlink(missing_ok=True)


class TestCrashSafety:
    @pytest.fixture(scope="class")
    def retire_ops(self, template, tmp_path_factory):
        """Learn T: the clean retirement pass's store-op count."""
        root = tmp_path_factory.mktemp("retire-count") / "s"
        shutil.copytree(template, root)
        io = CountingIO()
        report = retire_runs(TraceStore(root, io=io), RetentionPolicy(max_runs=1))
        assert report.retired == ["r1", "r2"]
        return io.ops

    def test_kill_at_every_retirement_op_offset(
        self, template, retire_ops, tmp_path
    ):
        store = TraceStore(template)
        original = {r: store.container_path(r).read_bytes() for r in RUNS}
        for kill_at in range(retire_ops):
            for torn in (False, True):
                root = tmp_path / f"k{kill_at}{'t' if torn else ''}"
                shutil.copytree(template, root)
                try:
                    retire_runs(
                        TraceStore(root, io=CrashingIO(kill_at, torn=torn)),
                        RetentionPolicy(max_runs=1),
                    )
                except (SimulatedCrash, TraceWriteError):
                    pass
                assert_no_run_lost(root, original)
                # Healthy redo must converge: survivors live, cold runs
                # archived, the store recoverable and idempotent.
                redo = TraceStore(root)
                redo.recover_store()
                retire_runs(redo, RetentionPolicy(max_runs=1))
                probe = TraceStore(root)
                assert list(probe.catalog()) == ["r3"]
                assert probe.container_path("r3").read_bytes() == original["r3"]
                assert_no_run_lost(root, original)
                shutil.rmtree(root)

    def test_enospc_leaves_catalog_untouched_then_recovers(
        self, template, tmp_path
    ):
        root = tmp_path / "s"
        shutil.copytree(template, root)
        before = (root / "catalog.jsonl").read_bytes()
        with pytest.raises(TraceWriteError, match="archive"):
            retire_runs(
                TraceStore(root, io=ENOSPCIO(1024)), RetentionPolicy(max_runs=1)
            )
        assert (root / "catalog.jsonl").read_bytes() == before
        probe = TraceStore(root)
        assert list(probe.catalog()) == list(RUNS)
        for r in RUNS:
            with np.load(probe.path_for(r), allow_pickle=False) as npz:
                assert npz.files
        # With space back, the same policy retires cleanly.
        report = retire_runs(TraceStore(root), RetentionPolicy(max_runs=1))
        assert report.retired == ["r1", "r2"]
        assert list(TraceStore(root).catalog()) == ["r3"]
