"""Tests for the persistent trace container."""

import gc
import sys
import warnings

import numpy as np
import pytest

from repro.session import trace
from repro.core.tracefile import (
    FORMAT_VERSION,
    TraceReader,
    load_trace,
    save_session,
    save_trace,
)
from repro.errors import TraceError
from repro.workloads.sampleapp import SampleApp


@pytest.fixture(scope="module")
def session_and_app():
    app = SampleApp()
    return trace(app, reset_value=8000), app


class TestRoundtrip:
    def test_save_load_roundtrip(self, session_and_app, tmp_path):
        session, app = session_and_app
        path = tmp_path / "trace.npz"
        save_session(path, session, app.symtab, meta={"workload": "sampleapp"})
        tf = load_trace(path)
        assert tf.meta == {"workload": "sampleapp"}
        assert tf.sample_cores == [0, 1]
        orig = session.units[1].finalize()
        assert np.array_equal(tf.samples(1).ts, orig.ts)
        assert np.array_equal(tf.samples(1).ip, orig.ip)

    def test_offline_integration_matches_online(self, session_and_app, tmp_path):
        session, app = session_and_app
        path = tmp_path / "trace.npz"
        save_session(path, session, app.symtab)
        offline = load_trace(path).integrate(SampleApp.WORKER_CORE)
        online = session.trace_for(SampleApp.WORKER_CORE)
        for qid in online.items():
            assert offline.breakdown(qid) == online.breakdown(qid)
            assert offline.item_window_cycles(qid) == online.item_window_cycles(qid)

    def test_symbols_survive(self, session_and_app, tmp_path):
        session, app = session_and_app
        path = tmp_path / "trace.npz"
        save_session(path, session, app.symtab)
        tf = load_trace(path)
        assert tf.symtab.names == app.symtab.names
        for name in app.symtab.names:
            assert tf.symtab.range_of(name) == app.symtab.range_of(name)

    def test_missing_core_rejected(self, session_and_app, tmp_path):
        session, app = session_and_app
        path = tmp_path / "trace.npz"
        save_session(path, session, app.symtab)
        tf = load_trace(path)
        with pytest.raises(TraceError):
            tf.samples(99)
        with pytest.raises(TraceError):
            tf.switches(99)


class TestValidation:
    def test_not_a_trace_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(TraceError, match="not a repro trace file"):
            load_trace(path)

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip")
        with pytest.raises(TraceError, match="cannot read"):
            load_trace(path)

    def test_npy_file_is_unreadable(self, tmp_path):
        path = tmp_path / "array.npz"
        with open(path, "wb") as fh:
            np.save(fh, np.arange(3))
        with pytest.raises(TraceError, match="cannot read"):
            load_trace(path)

    @pytest.mark.parametrize(
        "cut", [0.5, 0.01, 0.0], ids=["half", "first-bytes", "empty"]
    )
    def test_truncated_file_is_closed(self, tmp_path, session_and_app, cut):
        """A container whose zip cannot be opened raises TraceError and
        leaves no file handle behind (no ResourceWarning when collected)."""
        session, app = session_and_app
        path = tmp_path / "trace.npz"
        save_session(path, session, app.symtab)
        raw = path.read_bytes()
        bad = tmp_path / "bad.npz"
        bad.write_bytes(raw[: int(len(raw) * cut)])
        leaked = []
        hook = sys.unraisablehook
        sys.unraisablehook = leaked.append
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                for opener in (load_trace, TraceReader):
                    with pytest.raises(TraceError, match="cannot read"):
                        opener(bad)
                gc.collect()
        finally:
            sys.unraisablehook = hook
        assert [str(u.exc_value) for u in leaked] == []

    def test_version_check(self, tmp_path, session_and_app, monkeypatch):
        session, app = session_and_app
        import repro.core.tracefile as tf_mod

        monkeypatch.setattr(tf_mod, "FORMAT_VERSION", FORMAT_VERSION + 1)
        path = tmp_path / "future.npz"
        save_session(path, session, app.symtab)
        monkeypatch.setattr(tf_mod, "FORMAT_VERSION", FORMAT_VERSION)
        with pytest.raises(TraceError, match="version"):
            load_trace(path)

    def test_empty_trace_saves(self, tmp_path):
        from repro.core.symbols import SymbolTable

        path = tmp_path / "empty.npz"
        save_trace(path, {}, {}, SymbolTable.from_ranges({"f": (0, 10)}))
        tf = load_trace(path)
        assert tf.sample_cores == []


class TestSymbolNames:
    def test_long_symbol_name_roundtrips(self, tmp_path):
        # Regression: a fixed U128 dtype silently truncated long names
        # (mangled C++ symbols easily exceed 128 chars).
        from repro.core.symbols import SymbolTable

        long_name = "z" * 300 + "::operator()"
        symtab = SymbolTable.from_ranges({long_name: (0, 100), "short": (100, 200)})
        path = tmp_path / "long.npz"
        save_trace(path, {}, {}, symtab)
        tf = load_trace(path)
        assert sorted(tf.symtab.names) == sorted([long_name, "short"])
        assert tf.symtab.range_of(long_name) == (0, 100)


class TestChunkedLayout:
    def test_chunked_save_load_matches_flat(self, session_and_app, tmp_path):
        session, app = session_and_app
        flat = tmp_path / "flat.npz"
        chunked = tmp_path / "chunked.npz"
        save_session(flat, session, app.symtab)
        save_session(chunked, session, app.symtab, chunk_size=300)
        a, b = load_trace(flat), load_trace(chunked)
        assert a.sample_cores == b.sample_cores
        for core in a.sample_cores:
            assert np.array_equal(a.samples(core).ts, b.samples(core).ts)
            assert np.array_equal(a.samples(core).ip, b.samples(core).ip)
            assert np.array_equal(a.samples(core).tag, b.samples(core).tag)
            assert len(a.switches(core)) == len(b.switches(core))

    def test_chunked_integration_matches(self, session_and_app, tmp_path):
        session, app = session_and_app
        path = tmp_path / "chunked.npz"
        save_session(path, session, app.symtab, chunk_size=128)
        offline = load_trace(path).integrate(SampleApp.WORKER_CORE)
        online = session.trace_for(SampleApp.WORKER_CORE)
        for qid in online.items():
            assert offline.breakdown(qid) == online.breakdown(qid)

    def test_uncompressed_container_loads(self, session_and_app, tmp_path):
        session, app = session_and_app
        path = tmp_path / "raw.npz"
        save_session(path, session, app.symtab, chunk_size=256, compress=False)
        tf = load_trace(path)
        assert tf.sample_cores == [0, 1]

    def test_bad_chunk_size_rejected(self, session_and_app, tmp_path):
        session, app = session_and_app
        with pytest.raises(TraceError, match="chunk_size"):
            save_session(tmp_path / "x.npz", session, app.symtab, chunk_size=0)


class TestEdgeCaseCores:
    """Cores with no samples or a lone switch mark (empty-window pairing).

    A dispatcher core that never triggers PEBS, or a run cut off right
    after an ITEM_START, are both legal on-disk states — readers must
    produce empty results or a precise error, never an IndexError.
    """

    @staticmethod
    def _empty_samples():
        from repro.machine.pebs import SampleArrays

        e = np.empty(0, dtype=np.int64)
        return SampleArrays(ts=e, ip=e.copy(), tag=e.copy())

    @staticmethod
    def _symtab():
        from repro.core.symbols import SymbolTable

        return SymbolTable.from_ranges({"f": (0x100, 0x200)})

    def test_zero_sample_core_reads_back_empty(self, tmp_path):
        from repro.core.records import SwitchRecords
        from repro.core.tracefile import TraceReader
        from repro.runtime.actions import SwitchKind

        rec = SwitchRecords(0)
        rec.append(10, 1, SwitchKind.ITEM_START)
        rec.append(100, 1, SwitchKind.ITEM_END)
        path = tmp_path / "nosamples.npz"
        save_trace(path, {0: self._empty_samples()}, {0: rec}, self._symtab())
        with TraceReader(path) as reader:
            assert reader.sample_cores == [0]
            chunks = list(reader.iter_sample_chunks(0, 64))
            assert sum(len(c.ts) for c in chunks) == 0
            windows = reader.switch_window_columns(0)
            assert len(windows.item_id) == 1  # the switch log still pairs

    def test_zero_sample_core_integrates_to_empty_trace(self, tmp_path):
        from repro.core.records import SwitchRecords
        from repro.core.options import IngestOptions
        from repro.core.streaming import ingest_trace
        from repro.runtime.actions import SwitchKind

        rec = SwitchRecords(0)
        rec.append(10, 1, SwitchKind.ITEM_START)
        rec.append(100, 1, SwitchKind.ITEM_END)
        path = tmp_path / "nosamples.npz"
        save_trace(path, {0: self._empty_samples()}, {0: rec}, self._symtab())
        res = ingest_trace(path, options=IngestOptions(workers=1))
        t = res.per_core[0]
        # No samples ever landed in the window, so no item surfaces —
        # but ingest succeeds and the core counts as fully covered.
        assert t.items() == []
        assert res.stats.samples == 0
        assert res.coverage[0].complete

    def test_no_switch_records_pairs_to_zero_windows(self, tmp_path):
        from repro.core.records import SwitchRecords
        from repro.core.tracefile import TraceReader

        path = tmp_path / "noswitch.npz"
        save_trace(
            path, {0: self._empty_samples()}, {0: SwitchRecords(0)}, self._symtab()
        )
        with TraceReader(path) as reader:
            windows = reader.switch_window_columns(0)
            assert len(windows.item_id) == 0

    def test_single_switch_record_strict_raises(self, tmp_path):
        from repro.core.records import SwitchRecords
        from repro.core.tracefile import TraceReader
        from repro.runtime.actions import SwitchKind

        rec = SwitchRecords(0)
        rec.append(10, 1, SwitchKind.ITEM_START)  # dangling: run cut off
        path = tmp_path / "dangling.npz"
        save_trace(path, {0: self._empty_samples()}, {0: rec}, self._symtab())
        with TraceReader(path) as reader:
            with pytest.raises(TraceError):
                reader.switch_window_columns(0)

    def test_single_switch_record_lenient_drops_it(self, tmp_path):
        from repro.core.integrity import CoverageStats, QuarantineLog
        from repro.core.records import SwitchRecords
        from repro.core.tracefile import TraceReader
        from repro.runtime.actions import SwitchKind

        rec = SwitchRecords(0)
        rec.append(10, 1, SwitchKind.ITEM_START)
        path = tmp_path / "dangling.npz"
        save_trace(path, {0: self._empty_samples()}, {0: rec}, self._symtab())
        with TraceReader(path) as reader:
            quarantine, coverage = QuarantineLog(), CoverageStats(0)
            windows = reader.switch_window_columns(
                0, policy="quarantine", quarantine=quarantine, coverage=coverage
            )
        assert len(windows.item_id) == 0
        assert coverage.switch_marks == 1
        assert coverage.switch_marks_dropped == 1
        assert 1 in coverage.degraded_items
        assert quarantine
