"""Journal segments in the older ``np.savez`` layout still read.

Segments are written as raw container members
(:func:`~repro.core.durable.encode_segment`).  Writers before that left
numpy's ``savez`` layout — every array and the ``seg_json`` header an
``.npy`` member — and such journals may still sit on disk, or be pushed
by older clients.  The reference writer for that layout lives only
here.  A journal written with it must:

* recover to a container byte-identical to the one recovered from the
  same journal in the current layout;
* be admitted, segment by segment, by ``TraceStore.append_segment``,
  and compact to that same container;
* have an unsealed segment salvaged under ``salvage_unsealed=True``.
"""

from __future__ import annotations

import io
import json
import pathlib
import zipfile

import numpy as np
import pytest

import repro.core.durable as durable
from repro.core.durable import recover
from repro.core.options import IngestOptions
from repro.service.sources import iter_journal_segments, journal_from_container
from repro.service.store import TraceStore
from tests.faults.conftest import build_fixture_trace


def legacy_segment(record: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """A segment as older writers sealed it: ``np.savez`` of the arrays,
    plus the seal record as a uint8 ``seg_json`` array."""
    buf = io.BytesIO()
    header = np.frombuffer(json.dumps(record).encode("utf-8"), dtype=np.uint8)
    np.savez(buf, **arrays, seg_json=header)
    return buf.getvalue()


def _journal(tmp_path: pathlib.Path, name: str, monkeypatch, *, legacy: bool):
    """The fixture trace re-segmented into a journal, in either layout."""
    container = tmp_path / "clean.npz"
    if not container.exists():
        build_fixture_trace(container)
    with monkeypatch.context() as m:
        if legacy:
            m.setattr(durable, "encode_segment", legacy_segment)
        return journal_from_container(
            container, tmp_path / name, options=IngestOptions(chunk_size=96)
        )


@pytest.fixture
def journals(tmp_path, monkeypatch):
    """(current-layout journal, legacy-layout journal) of one trace."""
    new = _journal(tmp_path, "new", monkeypatch, legacy=False)
    old = _journal(tmp_path, "old", monkeypatch, legacy=True)
    with zipfile.ZipFile(old / "seg-000000.npz") as zf:
        assert "seg_json.npy" in zf.namelist()
    with zipfile.ZipFile(new / "seg-000000.npz") as zf:
        assert not [n for n in zf.namelist() if n.endswith(".npy")]
    return new, old


def test_legacy_journal_recovers_byte_identical(journals, tmp_path):
    new, old = journals
    a = recover(new, out=tmp_path / "a.npz", policy="strict")
    b = recover(old, out=tmp_path / "b.npz", policy="strict")
    assert a.complete and b.complete
    assert b.samples_recovered == a.samples_recovered > 0
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


def test_store_admits_legacy_segments(journals, tmp_path):
    new, old = journals
    store = TraceStore(tmp_path / "store")
    for run_id, jdir in (("new", new), ("old", old)):
        for record, data in iter_journal_segments(jdir):
            assert store.append_segment(run_id, record, data) is True
        store.finish_run(run_id)
        store.compact_run(run_id)
    assert (
        store.path_for("old").read_bytes() == store.path_for("new").read_bytes()
    )


def test_legacy_orphan_is_salvaged(journals, tmp_path):
    new, old = journals
    full = recover(old, out=tmp_path / "full.npz", policy="strict")
    # Strand the last sample segment: its file stays, its seal line goes.
    jpath = old / "journal.jsonl"
    records = [json.loads(line) for line in jpath.read_bytes().splitlines()]
    last = max(i for i, r in enumerate(records) if r.get("kind") == "samples")
    stranded = records.pop(last)
    jpath.write_bytes(b"".join(json.dumps(r).encode() + b"\n" for r in records))

    lost = recover(old, out=tmp_path / "lost.npz")
    assert lost.segments_unsealed == 1
    assert lost.samples_lost == stranded["rows"] > 0

    salvaged = recover(old, out=tmp_path / "salvaged.npz", salvage_unsealed=True)
    assert salvaged.segments_unsealed == 0
    assert salvaged.samples_recovered == full.samples_recovered
    assert (
        (tmp_path / "salvaged.npz").read_bytes()
        == (tmp_path / "full.npz").read_bytes()
    )
