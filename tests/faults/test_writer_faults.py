"""Writer-side storage faults: the save path fails typed, never torn.

Covers the non-crash half of the durability contract:

* :func:`~repro.core.tracefile.save_trace` creates missing parent
  directories, overwrites atomically (temp + ``os.replace``), and a
  failed write leaves the previous container byte-identical with no
  temp litter — surfacing a :class:`~repro.errors.TraceWriteError`
  whose message names the OS condition (ENOSPC, EACCES, ...);
* the durable writer under :class:`~repro.testing.faults.ENOSPCIO` and
  :class:`~repro.testing.faults.FsyncFailingIO` refuses to report a
  segment sealed when its durability barrier failed, and everything
  sealed before the fault stays recoverable.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.faults.conftest import build_fixture_trace, build_symtab
from tests.faults.test_recover import _PER_CHUNK, _core_data
from repro.core import tracefile
from repro.core.durable import DurableTraceWriter, journal_dir_for, recover
from repro.core.options import IngestOptions
from repro.core.streaming import ingest_trace
from repro.core.tracefile import load_trace, save_trace
from repro.errors import TraceWriteError
from repro.machine.pebs import SampleArrays
from repro.testing.faults import ENOSPCIO, FsyncFailingIO


def _chunk(samples: SampleArrays, k: int) -> SampleArrays:
    sl = slice(k * _PER_CHUNK, (k + 1) * _PER_CHUNK)
    return SampleArrays(ts=samples.ts[sl], ip=samples.ip[sl], tag=samples.tag[sl])


# ---------------------------------------------------------------------------
# save_trace: parent dirs, atomicity, typed errors


def test_save_trace_creates_parent_dirs(tmp_path):
    out = tmp_path / "runs" / "2026-08" / "trace.npz"
    build_fixture_trace(out)
    assert out.exists()
    ingest_trace(out, options=IngestOptions(workers=1, on_corruption="strict"))


def test_failed_overwrite_preserves_original(tmp_path, monkeypatch):
    out = tmp_path / "trace.npz"
    build_fixture_trace(out)
    before = out.read_bytes()

    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    # The zip writer fails after the temp file is opened.
    monkeypatch.setattr(tracefile, "write_zip", full_disk)
    with pytest.raises(TraceWriteError, match="disk full"):
        build_fixture_trace(out)
    monkeypatch.undo()

    assert out.read_bytes() == before, "failed overwrite damaged the container"
    assert list(tmp_path.glob("*.tmp")) == [], "temp file left behind"
    load_trace(out, verify_checksums=True)


def test_unwritable_target_is_typed_not_oserror(tmp_path):
    # A regular file where a directory is needed fails with ENOTDIR even
    # for root (chmod-based denial would not), and must come out typed.
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    with pytest.raises(TraceWriteError):
        build_fixture_trace(blocker / "trace.npz")


def test_overwrite_is_atomic_and_clean(tmp_path):
    out = tmp_path / "trace.npz"
    build_fixture_trace(out)
    first = load_trace(out).meta
    build_fixture_trace(out)  # overwrite in place
    assert load_trace(out).meta == first
    assert list(tmp_path.glob("*.tmp")) == []


# ---------------------------------------------------------------------------
# Durable writer: ENOSPC and fsync failure


def _start_writer(out, io) -> tuple[DurableTraceWriter, SampleArrays]:
    writer = DurableTraceWriter(out, build_symtab(), meta={"t": 1}, io=io)
    samples, rec = _core_data(0)
    writer.append_switches(0, rec)
    return writer, samples


def test_enospc_mid_capture_keeps_sealed_prefix(tmp_path):
    # Probe run: how many bytes does the prefix through chunk 0 cost?
    probe = ENOSPCIO(1 << 30)
    writer, samples = _start_writer(tmp_path / "probe.npz", probe)
    writer.append_samples(0, _chunk(samples, 0))
    budget = probe.bytes_written

    # Real run: the disk fills while sealing chunk 1.
    io = ENOSPCIO(budget + 64)
    out = tmp_path / "t.npz"
    writer, samples = _start_writer(out, io)
    writer.append_samples(0, _chunk(samples, 0))
    with pytest.raises(TraceWriteError, match="No space left on device"):
        writer.append_samples(0, _chunk(samples, 1))

    # Everything sealed before the fault is recoverable; the chunk that
    # hit ENOSPC was never reported sealed, so it is not silently "in".
    report = recover(out)
    assert report.samples_recovered == _PER_CHUNK
    assert report.segments_lost == 0
    assert report.marks_recovered == len(_core_data(0)[1].ts)
    ingest_trace(
        report.out,
        cores=[0],
        options=IngestOptions(workers=1, on_corruption="strict"),
    )


def test_fsync_failure_refuses_to_seal(tmp_path):
    # Each seal performs three fsyncs (segment, directory, journal); let
    # the manifest and the switch log through, then the disk goes bad.
    out = tmp_path / "t.npz"
    io = FsyncFailingIO(ok_fsyncs=6)
    writer, samples = _start_writer(out, io)
    with pytest.raises(TraceWriteError, match="Input/output error"):
        writer.append_samples(0, _chunk(samples, 0))

    # The segment whose durability barrier failed is on disk but must be
    # reported unsealed, not counted as data.
    report = recover(out)
    assert report.samples_recovered == 0
    assert report.segments_unsealed == 1
    assert report.marks_recovered == len(_core_data(0)[1].ts)
    assert journal_dir_for(out).is_dir(), "journal must survive for retry"


def test_watchdog_degrades_instead_of_dying(tmp_path):
    # A checkpoint that hits a storage failure must put the session into
    # degraded mode (capture continues in memory) rather than raise into
    # the scheduler and kill the traced run.
    from repro.core.instrument import MarkingTracer
    from repro.machine.config import MachineSpec
    from repro.machine.events import HWEvent
    from repro.machine.pebs import PEBSConfig, PEBSUnit
    from repro.session import SessionWatchdog

    unit = PEBSUnit(
        PEBSConfig(HWEvent.UOPS_RETIRED_ALL, 1000), MachineSpec()
    )
    unit.on_overflows(
        np.arange(0, 1_000, 100, dtype=np.int64), ip=0x1000, tag=1
    )
    # The manifest's three fsyncs succeed; the first checkpoint's do not.
    writer = DurableTraceWriter(
        tmp_path / "t.npz", build_symtab(), io=FsyncFailingIO(ok_fsyncs=3)
    )
    tracer = MarkingTracer(mark_ip=0x9000, cost_ns=0.0, freq_ghz=3.0)
    watchdog = SessionWatchdog(tracer, writer, {0: unit}, every_marks=8)

    assert watchdog.checkpoint() is False
    assert watchdog.degraded
    assert watchdog.write_errors and "t.npz" in watchdog.write_errors[0]
    # The journal (manifest included) survives for a later recover run.
    assert journal_dir_for(tmp_path / "t.npz").is_dir()


def test_save_trace_enospc_names_the_condition(tmp_path, monkeypatch):
    samples, rec = _core_data(0)

    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(tracefile, "write_zip", full_disk)
    with pytest.raises(TraceWriteError) as exc:
        save_trace(
            tmp_path / "t.npz",
            {0: samples},
            {0: rec},
            build_symtab(),
            compress=False,
        )
    assert "disk full" in str(exc.value)
    assert "ENOSPC" in str(exc.value)
