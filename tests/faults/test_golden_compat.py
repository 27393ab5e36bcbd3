"""Backward compatibility: v1/v2 goldens under every policy, the v4 golden.

The golden containers on disk were written by the version-1 (flat) and
version-2 (chunked) code and are never regenerated; the fault-tolerant
reader must keep reproducing ``golden_expected.json`` from them under
every corruption policy, with nothing quarantined.
"""

from __future__ import annotations

import json
import pathlib
import struct
import zipfile

import numpy as np
import pytest

from repro.core.integrity import POLICIES
from repro.core.options import IngestOptions
from repro.core.streaming import ingest_trace
from repro.core.tracefile import FORMAT_VERSION, TraceReader, load_trace, save_trace
from repro.errors import CorruptionError
from repro.testing import faults
from tests.faults.conftest import build_fixture_trace, fixture_parts

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"
EXPECTED = json.loads((DATA / "golden_expected.json").read_text())
GOLDENS = ("golden_a", "golden_b", "golden_c")


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", GOLDENS)
def test_goldens_reproduce_under_every_policy(name, policy):
    res = ingest_trace(
        DATA / f"{name}.npz",
        options=IngestOptions(workers=1, chunk_size=64, on_corruption=policy),
    )
    merged = EXPECTED[name]["merged"]
    assert res.trace.items() == merged["items"]
    for item, breakdown in merged["breakdowns"].items():
        assert res.trace.breakdown(int(item)) == breakdown
    # A clean pre-v3 file has no checksums and no defects: every policy
    # must agree it is complete.
    assert len(res.quarantine) == 0
    assert all(cov.complete for cov in res.coverage.values())


def test_pre_v3_files_keep_their_version():
    with TraceReader(DATA / "golden_c.npz") as reader:
        assert reader.version == 2
        assert "crc32" not in reader._header


def test_v3_roundtrip_and_checksum_verification(tmp_path):
    path = tmp_path / "v3.npz"
    build_fixture_trace(path)
    with TraceReader(path) as reader:
        assert reader.version == FORMAT_VERSION
        assert reader._header["crc32"]
        assert reader._header["chunk_rows"]
    # Clean v3 file loads under full verification.
    tf = load_trace(path)
    assert tf.sample_cores == [0, 1]
    # Bit rot is caught by load_trace...
    faults.flip_sample_bit(path, 0, chunk=0, column="ip", index=1, bit=5)
    with pytest.raises(CorruptionError):
        load_trace(path)
    # ...unless verification is explicitly waived (salvage mode).
    tf = load_trace(path, verify_checksums=False)
    assert tf.sample_cores == [0, 1]


def test_checksums_can_be_omitted(tmp_path):
    path = tmp_path / "nocrc.npz"
    build_fixture_trace(path, checksums=False)
    with TraceReader(path) as reader:
        assert reader.version == FORMAT_VERSION
        assert "crc32" not in reader._header
    # Without a crc map, a flipped ip goes unnoticed (documented trade).
    faults.flip_sample_bit(path, 0, chunk=0, column="ip", index=1, bit=5)
    load_trace(path)


def test_flat_v3_layout_supports_policies(tmp_path):
    # The flat (unchunked) layout also carries checksums in v3.
    from repro.core.records import SwitchRecords
    from repro.core.symbols import SymbolTable
    from repro.machine.pebs import SampleArrays
    from repro.runtime.actions import SwitchKind
    import numpy as np

    symtab = SymbolTable.from_ranges({"f": (0x100, 0x200)})
    rec = SwitchRecords(0)
    rec.append(10, 1, SwitchKind.ITEM_START)
    rec.append(100, 1, SwitchKind.ITEM_END)
    samples = SampleArrays(
        ts=np.asarray([20, 30, 40], dtype=np.int64),
        ip=np.asarray([0x110, 0x120, 0x130], dtype=np.int64),
        tag=np.full(3, -1, dtype=np.int64),
    )
    path = tmp_path / "flat.npz"
    save_trace(path, {0: samples}, {0: rec}, symtab)
    faults.flip_sample_bit(path, 0, column="ts", index=1, bit=60)
    with pytest.raises(CorruptionError):
        ingest_trace(path, options=IngestOptions(workers=1))
    res = ingest_trace(
        path, options=IngestOptions(workers=1, on_corruption="repair")
    )
    assert res.coverage[0].samples_dropped == 1
    assert res.coverage[0].samples_kept == 2


# -- the version-4 golden ----------------------------------------------------


def test_v4_golden_loads_to_the_fixture_arrays():
    samples, switches, symtab = fixture_parts()
    tf = load_trace(DATA / "golden_v4.npz")
    assert tf.meta == {"fixture": "faults"}
    assert tf.sample_cores == sorted(samples)
    for core, want in samples.items():
        got = tf.samples(core)
        for col in ("ts", "ip", "tag"):
            assert getattr(got, col).dtype == getattr(want, col).dtype
            assert np.array_equal(getattr(got, col), getattr(want, col))
        rec = tf.switches(core)
        assert np.array_equal(rec.ts, switches[core].ts)
        assert np.array_equal(rec.item, switches[core].item)
        assert rec.kinds == switches[core].kinds
    assert tf.symtab.names == symtab.names
    for name in symtab.names:
        assert tf.symtab.range_of(name) == symtab.range_of(name)


def test_todays_writer_reproduces_the_v4_golden(tmp_path):
    path = tmp_path / "v4.npz"
    build_fixture_trace(path)
    assert path.read_bytes() == (DATA / "golden_v4.npz").read_bytes()


def test_small_members_carry_no_zip64_records(tmp_path):
    # A zip64 extra field on a small member is optional, and Python
    # releases disagree on when to write one; the writer must leave it
    # out so the bytes do not depend on the interpreter.
    path = tmp_path / "v4.npz"
    build_fixture_trace(path)
    raw = path.read_bytes()
    with zipfile.ZipFile(path) as zf:
        infos = zf.infolist()
    for info in infos:
        local = raw[info.header_offset : info.header_offset + 30]
        sig, version, *_, extra_len = struct.unpack("<IH12xIIHH", local)
        assert sig == 0x04034B50, info.filename
        assert (version, extra_len) == (20, 0), info.filename
        assert info.extra == b"", info.filename


def test_v4_crc_map_equals_the_v3_writers():
    # fixture_crc32_v3.json is the crc32 map the version-3 writer stored
    # for the fixture trace: v4 keeps checksumming the decoded arrays.
    want = json.loads((DATA / "fixture_crc32_v3.json").read_text())
    with TraceReader(DATA / "golden_v4.npz") as reader:
        assert reader.version == 4
        assert reader._header["crc32"] == want
