"""Crash-recovery goldens: every kill point leaves a recoverable prefix.

The scenario below drives one durable capture through a fault-injecting
:class:`~repro.testing.faults.CountingIO` once to learn its exact number
of syscall-surface operations, then re-runs it under
:class:`~repro.testing.faults.CrashingIO` killing before *every single
operation*.  For each crash state the suite asserts the durability
contract of ``repro.core.durable``:

* before the manifest's journal line lands there is nothing to recover
  and :func:`recover` says so (``RecoveryError``);
* from that point on, recovery always produces a version-3 container
  that passes strict checksum validation, containing exactly the sample
  rows the journal sealed — no sealed segment is ever lost to a kill;
* segment files the crash stranded without a journal line are reported
  as ``unsealed`` (and only salvaged when explicitly asked);
* replay is idempotent: a second :func:`recover` yields the same report
  and byte-identical member arrays.

Switch logs are sealed *before* their core's sample chunks, mirroring
the session writer's checkpoint order, so every crash state with sample
data also has the switch marks needed to integrate it — the "switch
marks are complete" half of the overload/durability contract.
"""

from __future__ import annotations

import json
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.faults.conftest import (
    N_WINDOWS,
    PER_WINDOW,
    build_symtab,
    item_of_window,
)
from repro.core.durable import (
    SEGMENT_READ_ERRORS,
    DurableTraceWriter,
    journal_dir_for,
    recover,
)
from repro.core.options import IngestOptions
from repro.core.records import SwitchRecords
from repro.core.streaming import ingest_trace
from repro.core.tracefile import load_trace
from repro.errors import CorruptionError, RecoveryError
from repro.machine.pebs import SampleArrays
from repro.runtime.actions import SwitchKind
from repro.testing.faults import (
    CountingIO,
    CrashingIO,
    SimulatedCrash,
    read_container,
    read_segment,
    write_segment,
)

_JOURNAL = "journal.jsonl"

#: Sample chunks sealed per core (windows split evenly across them).
CHUNKS_PER_CORE = 3
_PER_CHUNK = N_WINDOWS * PER_WINDOW // CHUNKS_PER_CORE  # 64


def _core_data(core: int) -> tuple[SampleArrays, SwitchRecords]:
    """The fault-suite fixture workload for one core (see conftest)."""
    rec = SwitchRecords(core)
    ts_list: list[int] = []
    ip_list: list[int] = []
    t = 1_000 + core * 1_000_000
    for w in range(N_WINDOWS):
        item = item_of_window(w, core)
        start, end = t, t + 900
        rec.append(start, item, SwitchKind.ITEM_START)
        rec.append(end, item, SwitchKind.ITEM_END)
        for s in range(PER_WINDOW):
            ts_list.append(start + 50 + s * 100)
            ip_list.append(0x1000 + 0x1000 * (s % 3) + 8 * w)
        t = end + 300
    samples = SampleArrays(
        ts=np.asarray(ts_list, dtype=np.int64),
        ip=np.asarray(ip_list, dtype=np.int64),
        tag=np.full(len(ts_list), -1, dtype=np.int64),
    )
    return samples, rec


def drive_scenario(out: pathlib.Path, io) -> None:
    """One deterministic durable capture: manifest, per-core switch log,
    three sample chunks per core, a meta checkpoint patch, finalize."""
    writer = DurableTraceWriter(
        out, build_symtab(), meta={"fixture": "durable"}, io=io
    )
    for core in (0, 1):
        samples, rec = _core_data(core)
        writer.append_switches(core, rec)
        for k in range(CHUNKS_PER_CORE):
            chunk = SampleArrays(
                ts=samples.ts[k * _PER_CHUNK : (k + 1) * _PER_CHUNK],
                ip=samples.ip[k * _PER_CHUNK : (k + 1) * _PER_CHUNK],
                tag=samples.tag[k * _PER_CHUNK : (k + 1) * _PER_CHUNK],
            )
            writer.append_samples(core, chunk)
    writer.append_meta({"checkpoint": {"marks": N_WINDOWS * 2 * 2}})
    writer.finalize(extra_meta={"finalized_by": "test"})


_TOTAL_OPS: int | None = None
_CLEAN_LOG: list[tuple[str, str]] | None = None


def scenario_ops() -> tuple[int, list[tuple[str, str]]]:
    """Clean-run op count + log, measured once (each op is a kill point)."""
    global _TOTAL_OPS, _CLEAN_LOG
    if _TOTAL_OPS is None:
        with tempfile.TemporaryDirectory() as d:
            io = CountingIO()
            drive_scenario(pathlib.Path(d) / "t.npz", io)
            _TOTAL_OPS = io.ops
            _CLEAN_LOG = io.log
    return _TOTAL_OPS, list(_CLEAN_LOG or [])


def _journal_records(jdir: pathlib.Path) -> list[dict]:
    """Parse the trusted prefix of journal.jsonl (torn tail dropped)."""
    jpath = jdir / _JOURNAL
    if not jpath.exists():
        return []
    records: list[dict] = []
    for line in jpath.read_bytes().split(b"\n"):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line.decode("utf-8")))
        except (ValueError, UnicodeDecodeError):
            break
    return records


def _crash(out: pathlib.Path, kill_at: int, *, torn: bool = False) -> None:
    with pytest.raises(SimulatedCrash):
        drive_scenario(out, CrashingIO(kill_at, torn=torn))


def _sealed_rows(seals: list[dict], kind: str) -> dict[int, int]:
    rows: dict[int, int] = {}
    for r in seals:
        if r.get("kind") == kind:
            rows[int(r["core"])] = rows.get(int(r["core"]), 0) + int(r["rows"])
    return rows


def _orphan_rows(orphans: list[pathlib.Path], kind: str) -> int:
    """Rows declared by readable orphan headers of the given kind (a
    ``.tmp`` or torn orphan has no trustworthy header and declares none)."""
    total = 0
    for p in orphans:
        if p.suffix != ".npz":
            continue
        try:
            header, _ = read_segment(p.read_bytes())
        except SEGMENT_READ_ERRORS:
            continue
        if header.get("kind") == kind:
            total += int(header.get("rows", 0))
    return total


def _check_crash_state(out: pathlib.Path, kill_at: int) -> None:
    jdir = journal_dir_for(out)
    seals = [r for r in _journal_records(jdir) if r.get("op") == "seal"]
    if not any(r.get("kind") == "manifest" for r in seals):
        # Died before the first commit point: nothing recoverable, and
        # recovery must say so rather than fabricate an empty container.
        with pytest.raises(RecoveryError):
            recover(out)
        return

    report = recover(out)

    # A kill never damages a sealed segment: the journal line is written
    # only after the segment file is fsync'd into place.
    assert report.segments_lost == 0, f"kill_at={kill_at}: lost sealed data"
    assert report.segments_sealed == len(seals)
    assert report.segments_recovered == len(seals)

    sample_rows = _sealed_rows(seals, "samples")
    switch_rows = _sealed_rows(seals, "switch")
    assert report.samples_recovered == sum(sample_rows.values())
    assert report.marks_recovered == sum(switch_rows.values())

    # Files the journal never sealed are the crash window, reported as
    # unsealed — the journal alone states what the container contains.
    sealed_files = {r["file"] for r in seals}
    orphans = [
        p
        for p in jdir.glob("seg-*.npz*")
        if p.name not in sealed_files
    ]
    assert report.segments_unsealed == len(orphans), f"kill_at={kill_at}"

    # The only sample loss a kill can cause is the segment mid-seal: its
    # rows (when its embedded header survived) are reported lost.
    assert report.samples_lost == _orphan_rows(orphans, "samples")
    assert report.marks_lost == _orphan_rows(orphans, "switch")

    # The recovered container passes v3 strict checksum validation and
    # holds exactly the sealed rows, in order.
    tf = load_trace(out, verify_checksums=True)
    for core, rows in sample_rows.items():
        assert len(tf.samples(core)) == rows, f"kill_at={kill_at} core={core}"
    for core, rows in switch_rows.items():
        assert tf.switches(core).ts.shape[0] == rows
    if sample_rows:
        # Switch logs seal before their core's samples, so strict
        # streaming ingest must succeed on every crash state with data.
        result = ingest_trace(
            out,
            cores=sorted(sample_rows),
            options=IngestOptions(workers=1, on_corruption="strict"),
        )
        got = {c: int(t.total_samples) for c, t in result.per_core.items()}
        assert got == sample_rows


def test_clean_finalize_removes_journal(tmp_path):
    out = tmp_path / "t.npz"
    drive_scenario(out, CountingIO())
    assert not journal_dir_for(out).exists()
    ingest_trace(out, options=IngestOptions(workers=1, on_corruption="strict"))
    with pytest.raises(RecoveryError):
        recover(out)


def test_scenario_has_expected_shape():
    total, log = scenario_ops()
    # makedirs + 10 seals x 6 ops + finalize (journal append/fsync, rmtree)
    assert total == 1 + 10 * 6 + 3, log
    assert log[0][0] == "makedirs"
    assert log[-1][0] == "rmtree"


def test_kill_at_every_offset(tmp_path):
    total, _ = scenario_ops()
    for kill_at in range(total):
        out = tmp_path / f"k{kill_at:03d}" / "t.npz"
        _crash(out, kill_at)
        _check_crash_state(out, kill_at)


def test_unsealed_segment_reported_not_salvaged(tmp_path):
    # Kill right before a sample segment's journal append: the segment
    # file is fully on disk but was never committed.
    _, log = scenario_ops()
    kill_at = next(
        i
        for i, (op, name) in enumerate(log)
        if op == "append_bytes"
        and name == _JOURNAL
        and log[i - 2] == ("replace", "seg-000002.npz.tmp")
    )
    out = tmp_path / "t.npz"
    _crash(out, kill_at)

    report = recover(out)
    assert report.segments_unsealed == 1
    assert report.samples_lost == _PER_CHUNK
    assert report.lost_spans.keys() == {0}
    defects = report.quarantine.defects
    assert any(d.kind == "unsealed" for d in defects)
    # The journal is the source of truth: the stranded rows are absent.
    tf = load_trace(out)
    with pytest.raises(Exception):
        tf.samples(0)

    # Strict recovery refuses to paper over the loss.
    with pytest.raises(CorruptionError):
        recover(out, policy="strict")

    # Opting in salvages the internally-consistent orphan instead.
    salvaged = recover(out, salvage_unsealed=True)
    assert salvaged.segments_unsealed == 0
    assert salvaged.samples_lost == 0
    assert salvaged.samples_recovered == report.samples_recovered + _PER_CHUNK
    assert len(load_trace(out).samples(0)) == _PER_CHUNK


def test_unsealed_segment_without_core_is_not_salvaged(tmp_path):
    # An orphan's record comes from the file itself; one that names no
    # core stays unsealed instead of being filed under an invented core.
    _, log = scenario_ops()
    kill_at = next(
        i
        for i, (op, name) in enumerate(log)
        if op == "append_bytes"
        and name == _JOURNAL
        and log[i - 2] == ("replace", "seg-000002.npz.tmp")
    )
    out = tmp_path / "t.npz"
    _crash(out, kill_at)
    orphan = journal_dir_for(out) / "seg-000002.npz"
    record, arrays = read_segment(orphan.read_bytes())
    del record["core"]
    orphan.write_bytes(write_segment(record, arrays))

    report = recover(out, salvage_unsealed=True)
    assert report.segments_unsealed == 1
    assert report.samples_lost == _PER_CHUNK


def _report_key(report) -> tuple:
    return (
        report.finalized,
        report.segments_sealed,
        report.segments_recovered,
        report.segments_lost,
        report.segments_unsealed,
        report.samples_recovered,
        report.samples_lost,
        report.marks_recovered,
        report.marks_lost,
        {c: list(s) for c, s in report.lost_spans.items()},
        [(d.kind, d.member, d.records_lost) for d in report.quarantine.defects],
    )


def _container_key(path) -> dict:
    arrays, header = read_container(path)
    return {"header": header, "arrays": arrays}


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_recover_is_idempotent(data):
    """Journal replay is a pure function of the journal, torn or not:
    the same report, the same members and the same container bytes."""
    total, _ = scenario_ops()
    kill_at = data.draw(st.integers(min_value=1, max_value=total - 1))
    torn = data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as d:
        out = pathlib.Path(d) / "t.npz"
        _crash(out, kill_at, torn=torn)
        seals = [
            r
            for r in _journal_records(journal_dir_for(out))
            if r.get("op") == "seal"
        ]
        if not any(r.get("kind") == "manifest" for r in seals):
            with pytest.raises(RecoveryError):
                recover(out)
            return
        first = recover(out)
        state1 = _container_key(out)
        bytes1 = out.read_bytes()
        second = recover(out)
        state2 = _container_key(out)
        assert out.read_bytes() == bytes1
        assert _report_key(first) == _report_key(second)
        assert state1["header"] == state2["header"]
        assert state1["arrays"].keys() == state2["arrays"].keys()
        for name, arr in state1["arrays"].items():
            assert np.array_equal(arr, state2["arrays"][name]), name
        # Idempotence aside, the recovered container must still be a
        # strictly-valid container even for torn crash states.
        load_trace(out, verify_checksums=True)
