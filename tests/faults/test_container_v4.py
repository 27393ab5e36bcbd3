"""The version-4 container: stored-byte faults, determinism, clean errors.

Version 4 stores each member as raw bytes, integer members wider than
one byte as byte-planes.  These tests pin what that must not change:

* one flipped *stored* bit is still one flipped bit of one value, so a
  corrupt timestamp costs the repair policy exactly one record and a
  corrupt ip still drops its chunk;
* identical input gives byte-identical files, from ``save_trace`` and
  from journal recovery alike (the perfbench digest compares container
  crc32s across runs);
* a v4 file holds no ``.npy`` member, and reading one never parses an
  ``.npy`` header;
* a container that lacks its symbol table fails with a clean
  :class:`~repro.errors.TraceError`, closing the file, in v3 and v4.

The fault harness writes version 4, so the v1–v3 ``.npy`` member branch
gets its own damage tests here, on the fixture trace rewritten as v3.
"""

from __future__ import annotations

import gc
import json
import pathlib
import shutil
import sys
import warnings
import zipfile

import numpy as np
import pytest

from repro.cli import main
from repro.core.durable import recover
from repro.core.integrity import KIND_CHECKSUM, KIND_MISSING, KIND_ORDER
from repro.core.options import IngestOptions
from repro.core.streaming import ingest_trace
from repro.core.tracefile import TraceReader, load_trace, save_session
from repro.errors import CorruptionError, TraceError
from repro.service.sources import journal_from_container
from repro.session import trace
from repro.testing import faults
from repro.workloads.sampleapp import SampleApp
from tests.faults.conftest import CHUNK, build_fixture_trace, item_of_window

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


def ingest(path, policy="strict"):
    opts = IngestOptions(workers=1, chunk_size=CHUNK, on_corruption=policy)
    return ingest_trace(path, options=opts)


# -- one stored bit is one bit of one value ------------------------------------


def flip_stored_ts(path):
    # Byte 7 (the top byte) of value 16 of core 0's chunk 2: window 10's
    # first sample, the record test_chunk_faults flips logically.  Each
    # stored chunk holds CHUNK values, so byte j of value i sits at
    # offset j * CHUNK + i.
    faults.flip_stored_bit(path, "core0_s2_ts", offset=7 * CHUNK + 16, bit=4)


def test_stored_ts_flip_strict_raises(trace_copy):
    flip_stored_ts(trace_copy)
    with pytest.raises(CorruptionError):
        ingest(trace_copy)


def test_stored_ts_flip_repair_drops_one_record(trace_copy, clean_result):
    flip_stored_ts(trace_copy)
    res = ingest(trace_copy, "repair")
    cov = res.coverage[0]
    assert cov.samples_dropped == 1
    assert cov.chunks_repaired == 1
    assert cov.chunks_dropped == 0
    assert res.quarantine.defects[0].kind == KIND_ORDER
    assert cov.degraded_items == (item_of_window(9), item_of_window(10))
    for item in clean_result.trace.items():
        if item not in cov.degraded_items:
            assert res.trace.breakdown(item) == clean_result.trace.breakdown(item)
    assert res.coverage[1].complete


@pytest.mark.parametrize("policy", ["quarantine", "repair"])
def test_stored_ip_flip_drops_chunk(trace_copy, policy):
    faults.flip_stored_bit(trace_copy, "core0_s1_ip", offset=1 * CHUNK + 5, bit=2)
    res = ingest(trace_copy, policy)
    cov = res.coverage[0]
    assert cov.chunks_dropped == 1
    assert cov.chunks_repaired == 0
    assert cov.samples_dropped == CHUNK
    assert res.quarantine.defects[0].kind == KIND_CHECKSUM


def test_stored_flip_changes_one_value_by_one_bit(trace_copy):
    before = faults.read_container(trace_copy)[0]["core0_s2_ts"]
    flip_stored_ts(trace_copy)
    after = faults.read_container(trace_copy)[0]["core0_s2_ts"]
    assert np.flatnonzero(before != after).tolist() == [16]
    assert int(before[16] ^ after[16]) == 1 << (7 * 8 + 4)


# -- the same damage in a v3 container ------------------------------------------


def as_v3(path) -> None:
    """Rewrite ``path`` in place as a version-3 container: one ``.npy``
    member per array, written by ``np.savez``, the crc32 map kept as is
    (stale, if a fault left it so)."""
    arrays, header = faults.read_container(path)
    header = {k: v for k, v in header.items() if k != "members"}
    header["version"] = 3
    blob = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    np.savez(path, header_json=blob, **arrays)
    with TraceReader(path) as reader:
        assert reader.version == 3


def flip_stored_npy_bit(path, member, *, index, byte, bit) -> None:
    """Flip bit ``bit`` of byte ``byte`` of value ``index`` inside a v3
    ``.npy`` member's data, below numpy's reader."""
    with zipfile.ZipFile(path) as zf:
        stored = zf.read(member + ".npy")
        with zf.open(member + ".npy") as fh:
            arr = np.lib.format.read_array(fh)
    offset = len(stored) - arr.nbytes + index * arr.itemsize + byte
    faults.flip_stored_bit(path, member + ".npy", offset=offset, bit=bit)


def test_v3_ts_flip_repair_drops_one_record(trace_copy, clean_result):
    as_v3(trace_copy)
    # Value 16 of core 0's chunk 2 is window 10's first sample; byte 7
    # bit 4 is bit 60 of the value, as in test_chunk_faults.
    flip_stored_npy_bit(trace_copy, "core0_s2_ts", index=16, byte=7, bit=4)
    with pytest.raises(CorruptionError):
        ingest(trace_copy)
    res = ingest(trace_copy, "repair")
    cov = res.coverage[0]
    assert (cov.samples_dropped, cov.chunks_repaired, cov.chunks_dropped) == (1, 1, 0)
    assert res.quarantine.defects[0].kind == KIND_ORDER
    assert cov.degraded_items == (item_of_window(9), item_of_window(10))
    assert res.coverage[1].complete


@pytest.mark.parametrize("policy", ["quarantine", "repair"])
def test_v3_stale_crc_ip_flip_drops_chunk(trace_copy, policy):
    faults.flip_sample_bit(trace_copy, 0, chunk=1, column="ip", index=5, bit=10)
    as_v3(trace_copy)
    res = ingest(trace_copy, policy)
    cov = res.coverage[0]
    assert (cov.chunks_dropped, cov.chunks_repaired) == (1, 0)
    assert cov.samples_dropped == CHUNK
    assert res.quarantine.defects[0].kind == KIND_CHECKSUM


@pytest.mark.parametrize("policy", ["quarantine", "repair"])
def test_v3_truncated_chunk_loss_is_exact(trace_copy, clean_result, policy):
    faults.truncate_chunks(trace_copy, 0, n_chunks=1)
    as_v3(trace_copy)
    with pytest.raises(CorruptionError):
        ingest(trace_copy)
    res = ingest(trace_copy, policy)
    cov = res.coverage[0]
    assert (cov.samples_dropped, cov.chunks_dropped) == (CHUNK, 1)
    assert not cov.unknown_extent
    defect = res.quarantine.defects[0]
    assert (defect.kind, defect.records_lost) == (KIND_MISSING, CHUNK)
    for item in clean_result.trace.items():
        if item not in cov.degraded_items:
            assert res.trace.breakdown(item) == clean_result.trace.breakdown(item)


# -- determinism ---------------------------------------------------------------


def test_saving_twice_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    build_fixture_trace(a)
    build_fixture_trace(b)
    assert a.read_bytes() == b.read_bytes()
    with zipfile.ZipFile(a) as zf:
        assert {i.date_time for i in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}


def test_saving_a_session_twice_is_byte_identical(tmp_path):
    app = SampleApp()
    session = trace(app, reset_value=8000)
    paths = [tmp_path / "a.npz", tmp_path / "b.npz"]
    for p in paths:
        save_session(p, session, app.symtab, chunk_size=64)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    with zipfile.ZipFile(paths[0]) as zf:
        infos = zf.infolist()
    assert {i.compress_type for i in infos} == {zipfile.ZIP_DEFLATED}
    assert {i.date_time for i in infos} == {(1980, 1, 1, 0, 0, 0)}


def test_recovering_one_journal_twice_is_byte_identical(clean_path, tmp_path):
    jdir = journal_from_container(clean_path, tmp_path / "journal")
    a = recover(jdir, out=tmp_path / "a.npz").out
    b = recover(jdir, out=tmp_path / "b.npz").out
    assert a.read_bytes() == b.read_bytes()
    with zipfile.ZipFile(a) as zf:
        assert {i.date_time for i in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}
    with TraceReader(a) as reader:
        assert reader.version == 4


# -- no .npy anywhere ----------------------------------------------------------


def test_v4_file_has_no_npy_member(clean_path):
    with zipfile.ZipFile(clean_path) as zf:
        names = zf.namelist()
        assert names and not [n for n in names if n.endswith(".npy")]
        assert not [n for n in names if zf.read(n).startswith(b"\x93NUMPY")]


def test_reading_v4_never_parses_an_npy_header(clean_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an .npy header was parsed")

    # numpy 2 keeps the .npy reader in numpy.lib._format_impl.
    fmt = getattr(np.lib, "_format_impl", np.lib.format)
    monkeypatch.setattr(fmt, "_read_array_header", refuse)
    with pytest.raises(AssertionError, match="npy header"):
        load_trace(DATA / "acl_spike.npz")  # v3: the patch bites
    load_trace(clean_path)
    ingest(clean_path)
    with TraceReader(clean_path) as reader:
        assert reader.n_switch_records(0) == 48
        reader.wait_columns(0)


# -- a missing symbol table is a clean error ----------------------------------


def _v3_without_symbols(tmp_path) -> pathlib.Path:
    path = tmp_path / "v3.npz"
    with np.load(DATA / "acl_spike.npz", allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files if k != "sym_names"}
    np.savez(path, **arrays)
    return path


def _v4_without_symbols(tmp_path) -> pathlib.Path:
    path = tmp_path / "v4.npz"
    shutil.copy(DATA / "golden_v4.npz", path)
    arrays, header = faults.read_container(path)
    del arrays["sym_names"]
    faults.write_container(path, arrays, header)
    return path


@pytest.mark.parametrize(
    "make", [_v3_without_symbols, _v4_without_symbols], ids=["v3", "v4"]
)
def test_missing_symbol_table_is_a_clean_error(tmp_path, make, capsys):
    path = make(tmp_path)
    leaked = []
    hook = sys.unraisablehook
    sys.unraisablehook = leaked.append
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            for opener in (load_trace, TraceReader):
                with pytest.raises(TraceError, match="sym_names"):
                    opener(path)
            gc.collect()
    finally:
        sys.unraisablehook = hook
    assert [str(u.exc_value) for u in leaked] == []
    assert main(["report", str(path)]) == 3
    assert "trace error:" in capsys.readouterr().err
