"""Tests for the streaming, sharded ingestion pipeline."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.analysis.diagnose import StreamingDiagnoser
from repro.core.hybrid import integrate, traces_equal
from repro.core.options import IngestOptions
from repro.core.records import SwitchRecords, build_windows
from repro.core.streaming import (
    StreamingIntegrator,
    ingest_trace,
    replay_into,
)
from repro.core.symbols import SymbolTable
from repro.core.tracefile import TraceReader, save_trace
from repro.errors import IntegrationError, TraceError
from repro.machine.pebs import SampleArrays
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.runtime.actions import SwitchKind

SYMTAB = SymbolTable.from_ranges({"f": (100, 200), "g": (200, 300)})


def make_trace_data(core_id=0, n_items=8, samples_per_item=6, t0=1000, seed=7):
    """A synthetic core shard: windows plus in-window samples."""
    rng = np.random.default_rng(seed)
    r = SwitchRecords(core_id)
    ts_list, ip_list = [], []
    t = t0
    for item in range(1, n_items + 1):
        start, end = t, t + int(rng.integers(3_000, 9_000))
        r.append(start, item, SwitchKind.ITEM_START)
        r.append(end, item, SwitchKind.ITEM_END)
        for st in np.sort(rng.integers(start, end + 1, size=samples_per_item)):
            ts_list.append(int(st))
            ip_list.append(int(rng.integers(100, 300)))
        t = end + int(rng.integers(100, 900))
    ts = np.asarray(ts_list, dtype=np.int64)
    ip = np.asarray(ip_list, dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    samples = SampleArrays(
        ts=ts[order], ip=ip[order], tag=np.full(len(ts), -1, dtype=np.int64)
    )
    return samples, r



class RecordingDiagnoser(StreamingDiagnoser):
    """A streaming diagnoser that also remembers which items it was fed."""

    def __init__(self) -> None:
        super().__init__()
        self.observed: list[int] = []

    def observe_item(self, item_id, breakdown, raw_bytes):
        self.observed.append(item_id)
        return super().observe_item(item_id, breakdown, raw_bytes)

class TestStreamingIntegrator:
    @pytest.mark.parametrize("chunk_size", [1, 3, 17, 1_000_000])
    def test_equivalent_to_one_shot(self, chunk_size):
        samples, records = make_trace_data()
        one_shot = integrate(samples, records, SYMTAB)
        integ = StreamingIntegrator.from_switches(SYMTAB, records)
        for chunk in samples.iter_chunks(chunk_size):
            integ.feed(chunk)
        assert traces_equal(integ.finalize(), one_shot)

    def test_window_spanning_many_chunks(self):
        # One long window whose samples land in different chunks: the
        # carried first/last state must still give the one-shot elapsed.
        r = SwitchRecords(0)
        r.append(0, 1, SwitchKind.ITEM_START)
        r.append(10_000, 1, SwitchKind.ITEM_END)
        ts = np.asarray([10, 2_000, 5_000, 9_990], dtype=np.int64)
        ip = np.full(4, 150, dtype=np.int64)
        samples = SampleArrays(ts=ts, ip=ip, tag=np.full(4, -1, dtype=np.int64))
        one_shot = integrate(samples, r, SYMTAB)
        integ = StreamingIntegrator.from_switches(SYMTAB, r)
        for chunk in samples.iter_chunks(1):
            integ.feed(chunk)
        t = integ.finalize()
        assert traces_equal(t, one_shot)
        assert t.elapsed_cycles(1, "f") == 9_990 - 10

    def test_unsorted_within_chunk_rejected(self):
        samples, records = make_trace_data()
        integ = StreamingIntegrator.from_switches(SYMTAB, records)
        bad = SampleArrays(
            ts=np.asarray([5, 3], dtype=np.int64),
            ip=np.asarray([150, 150], dtype=np.int64),
            tag=np.asarray([-1, -1], dtype=np.int64),
        )
        with pytest.raises(IntegrationError, match="sorted"):
            integ.feed(bad)

    def test_unsorted_across_chunks_rejected(self):
        samples, records = make_trace_data()
        integ = StreamingIntegrator.from_switches(SYMTAB, records)
        integ.feed(samples.slice(10, 20))
        with pytest.raises(IntegrationError, match="sorted"):
            integ.feed(samples.slice(0, 10))

    def test_feed_after_finalize_rejected(self):
        samples, records = make_trace_data()
        integ = StreamingIntegrator.from_switches(SYMTAB, records)
        integ.feed(samples)
        integ.finalize()
        with pytest.raises(IntegrationError, match="finalized"):
            integ.feed(samples)

    def test_empty_stream(self):
        _, records = make_trace_data()
        integ = StreamingIntegrator.from_switches(SYMTAB, records)
        t = integ.finalize()
        assert t.total_samples == 0
        assert t.items() == []

    def test_no_windows_counts_unmapped(self):
        samples, _ = make_trace_data()
        integ = StreamingIntegrator(SYMTAB, [])
        integ.feed(samples)
        t = integ.finalize()
        assert t.unmapped_samples == t.total_samples == len(samples)


class TestDrainCompleted:
    def test_items_emitted_once_in_completion_order(self):
        samples, records = make_trace_data(n_items=6)
        integ = StreamingIntegrator.from_switches(SYMTAB, records)
        seen: list[int] = []
        for chunk in samples.iter_chunks(5):
            integ.feed(chunk)
            seen += [d.item_id for d in integ.drain_completed()]
        seen += [d.item_id for d in integ.drain_completed(final=True)]
        assert seen == sorted(seen)  # completion order == id order here
        assert seen == integ.finalize().items()

    def test_breakdown_matches_final_trace(self):
        samples, records = make_trace_data(n_items=5)
        integ = StreamingIntegrator.from_switches(SYMTAB, records)
        done = {}
        for chunk in samples.iter_chunks(4):
            integ.feed(chunk)
            for d in integ.drain_completed():
                done[d.item_id] = d
        for d in integ.drain_completed(final=True):
            done[d.item_id] = d
        t = integ.finalize()
        for item in t.items():
            assert done[item].breakdown == t.breakdown(item)

    def test_incomplete_item_not_emitted_early(self):
        r = SwitchRecords(0)
        r.append(0, 1, SwitchKind.ITEM_START)
        r.append(1_000, 1, SwitchKind.ITEM_END)
        r.append(1_100, 2, SwitchKind.ITEM_START)
        r.append(9_000, 2, SwitchKind.ITEM_END)
        integ = StreamingIntegrator.from_switches(SYMTAB, r)
        chunk = SampleArrays(
            ts=np.asarray([10, 900, 1_200], dtype=np.int64),
            ip=np.asarray([150, 150, 250], dtype=np.int64),
            tag=np.full(3, -1, dtype=np.int64),
        )
        integ.feed(chunk)
        # Item 1's window ended before the stream position, item 2's not.
        assert [d.item_id for d in integ.drain_completed()] == [1]
        assert [d.item_id for d in integ.drain_completed()] == []
        assert [d.item_id for d in integ.drain_completed(final=True)] == [2]


@pytest.fixture()
def container(tmp_path):
    """A 3-core chunked container plus its one-shot reference traces."""
    samples, switches, one_shot = {}, {}, {}
    for core in range(3):
        s, r = make_trace_data(core_id=core, seed=100 + core)
        samples[core], switches[core] = s, r
        one_shot[core] = integrate(s, r, SYMTAB)
    path = tmp_path / "multi.npz"
    save_trace(path, samples, switches, SYMTAB, chunk_size=16)
    return path, one_shot


class TestIngestTrace:
    def test_sequential_matches_one_shot(self, container):
        path, one_shot = container
        res = ingest_trace(path, options=IngestOptions(chunk_size=10, workers=1))
        for core, t in res.per_core.items():
            assert traces_equal(t, one_shot[core])
        assert res.stats.samples == sum(t.total_samples for t in one_shot.values())
        assert res.stats.chunks > len(one_shot)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_matches_sequential(self, container, workers):
        path, _ = container
        seq = ingest_trace(path, options=IngestOptions(chunk_size=10, workers=1))
        par = ingest_trace(
            path, options=IngestOptions(chunk_size=10, workers=workers)
        )
        assert traces_equal(seq.trace, par.trace)
        for core, t in seq.per_core.items():
            assert traces_equal(t, par.per_core[core])
        assert seq.stats.pool == "inline"
        assert par.stats.pool == "thread"

    def test_open_reader_is_shared_and_left_open(self, container):
        path, _ = container
        seq = ingest_trace(path, options=IngestOptions(chunk_size=10))
        with TraceReader(path) as reader:
            par = ingest_trace(
                reader, options=IngestOptions(chunk_size=10, workers=2)
            )
            # Still open for the caller: members can be read after ingest.
            assert len(reader.switches(reader.sample_cores[0]))
        assert traces_equal(seq.trace, par.trace)

    def test_shared_reader_under_thread_switch_stress(self, tmp_path):
        # Eight shard threads (more than the CPUs of a small host) read
        # one compressed container with a very short switch interval: a
        # torn member read or a lost counter update would break equality.
        samples, switches, one_shot = {}, {}, {}
        for core in range(8):
            s, r = make_trace_data(core_id=core, n_items=40, seed=300 + core)
            samples[core], switches[core] = s, r
            one_shot[core] = integrate(s, r, SYMTAB)
        path = tmp_path / "eight.npz"
        save_trace(path, samples, switches, SYMTAB, chunk_size=8)
        opts = IngestOptions(chunk_size=4, workers=8, shard_timeout=60.0)
        reg = MetricsRegistry()
        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use_registry(reg):
                results = [ingest_trace(path, options=opts) for _ in range(3)]
        finally:
            sys.setswitchinterval(prev)
        for res in results:
            assert res.stats.failed_cores == ()
            for core, t in one_shot.items():
                assert traces_equal(res.per_core[core], t)
        n_samples = sum(len(s) for s in samples.values())
        assert reg.value("repro_integrator_samples_total") == 3 * n_samples
        assert reg.value("repro_ingest_samples_total") == 3 * n_samples

    def test_core_subset(self, container):
        path, one_shot = container
        res = ingest_trace(path, cores=[1], options=IngestOptions(chunk_size=10))
        assert list(res.per_core) == [1]
        assert traces_equal(res.trace, one_shot[1])

    def test_unknown_core_rejected(self, container):
        path, _ = container
        with pytest.raises(TraceError, match="core 9"):
            ingest_trace(path, cores=[9])
        with pytest.raises(TraceError, match="core 9"):
            ingest_trace(path, cores=[9], options=IngestOptions(workers=2))

    def test_bad_workers_rejected(self, container):
        path, _ = container
        with pytest.raises(TraceError, match="workers"):
            ingest_trace(path, options=IngestOptions(workers=0))

    def test_online_diagnoser_sees_every_item_once(self, container):
        path, one_shot = container
        diag = RecordingDiagnoser()
        ingest_trace(
            path, options=IngestOptions(chunk_size=10, workers=1), diagnoser=diag
        )
        all_items = sorted(
            i for t in one_shot.values() for i in t.items()
        )
        assert sorted(diag.observed) == all_items
        assert diag.items_observed == len(all_items)

    def test_parallel_diagnoser_replay(self, container):
        path, _ = container
        diag = RecordingDiagnoser()
        res = ingest_trace(
            path, options=IngestOptions(chunk_size=10, workers=2), diagnoser=diag
        )
        # Replay feeds the merged view: distinct items, each once.
        assert sorted(diag.observed) == res.trace.items()

    def test_replay_into_orders_by_completion(self, container):
        path, _ = container
        res = ingest_trace(path, options=IngestOptions(chunk_size=10))
        diag = RecordingDiagnoser()
        replay_into(diag, res.trace)
        assert sorted(diag.observed) == res.trace.items()


class TestTraceReader:
    def test_flat_file_chunk_iteration(self, tmp_path):
        s, r = make_trace_data()
        path = tmp_path / "flat.npz"
        save_trace(path, {0: s}, {0: r}, SYMTAB)  # v1-style flat layout
        with TraceReader(path) as reader:
            assert reader.stored_chunk_size is None
            chunks = list(reader.iter_sample_chunks(0, 10))
            assert all(len(c) <= 10 for c in chunks)
            assert sum(len(c) for c in chunks) == len(s)
            joined = np.concatenate([c.ts for c in chunks])
            assert np.array_equal(joined, s.ts)

    def test_rechunking_stored_chunks(self, tmp_path):
        s, r = make_trace_data()
        path = tmp_path / "c.npz"
        save_trace(path, {0: s}, {0: r}, SYMTAB, chunk_size=16)
        with TraceReader(path) as reader:
            small = list(reader.iter_sample_chunks(0, 5))
            assert all(len(c) <= 5 for c in small)
            assert sum(len(c) for c in small) == len(s)

    def test_switch_windows_match_build_windows(self, tmp_path):
        s, r = make_trace_data()
        path = tmp_path / "c.npz"
        save_trace(path, {0: s}, {0: r}, SYMTAB, chunk_size=16)
        with TraceReader(path) as reader:
            assert reader.switch_windows(0) == build_windows(r)
            assert reader.n_switch_records(0) == len(r)

    def test_missing_core(self, tmp_path):
        s, r = make_trace_data()
        path = tmp_path / "c.npz"
        save_trace(path, {0: s}, {0: r}, SYMTAB, chunk_size=16)
        with TraceReader(path) as reader:
            with pytest.raises(TraceError, match="core 5"):
                list(reader.iter_sample_chunks(5))
            with pytest.raises(TraceError, match="core 5"):
                reader.switch_windows(5)

    def test_truncated_file(self, tmp_path):
        s, r = make_trace_data()
        path = tmp_path / "c.npz"
        save_trace(path, {0: s}, {0: r}, SYMTAB, chunk_size=16)
        raw = path.read_bytes()
        bad = tmp_path / "bad.npz"
        bad.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(TraceError, match="cannot read|truncated"):
            with TraceReader(bad) as reader:
                list(reader.iter_sample_chunks(0))

    def test_bad_chunk_size(self, tmp_path):
        s, r = make_trace_data()
        path = tmp_path / "c.npz"
        save_trace(path, {0: s}, {0: r}, SYMTAB, chunk_size=16)
        with TraceReader(path) as reader:
            with pytest.raises(TraceError, match="chunk_size"):
                list(reader.iter_sample_chunks(0, 0))
