"""Pipeline instrumentation: live counters, quarantine pin, overhead budget."""

from __future__ import annotations

import time

import pytest

from repro.core.options import IngestOptions
from repro.core.streaming import ingest_trace
from repro.core.tracefile import TraceReader, load_trace
from repro.obs.instrumented import pipeline, publish_quarantine
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, get_registry, use_registry
from repro.testing import faults
from tests.faults.conftest import CHUNK, SAMPLES_PER_CORE, build_fixture_trace


@pytest.fixture(scope="module")
def fixture_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs") / "trace.npz"
    build_fixture_trace(path)
    return path


def test_pipeline_cache_follows_registry():
    base = pipeline()
    assert base is pipeline()  # same registry -> cached bundle
    assert not base.enabled
    reg = MetricsRegistry()
    with use_registry(reg):
        ins = pipeline()
        assert ins is not base
        assert ins.enabled
        assert ins is pipeline()
    assert pipeline().enabled is False


@pytest.mark.parametrize("workers", [1, 2])
def test_ingest_counters_match_report(fixture_trace, workers):
    reg = MetricsRegistry()
    with use_registry(reg):
        res = ingest_trace(
            fixture_trace, options=IngestOptions(workers=workers, chunk_size=CHUNK)
        )
    # Shard totals published by the parent equal the result's accounting...
    assert reg.value("repro_ingest_samples_total") == res.stats.samples
    assert reg.value("repro_ingest_chunks_total") == res.stats.chunks
    assert reg.value("repro_ingest_workers") == res.stats.workers
    for core, trace in res.per_core.items():
        assert (
            reg.value("repro_ingest_shard_samples_total", core=str(core))
            == trace.total_samples
        )
    # ...and exactly match the live low-level counters the shards fed.
    assert reg.value("repro_integrator_samples_total") == res.stats.samples
    assert reg.value("repro_integrator_chunks_total") == res.stats.chunks
    assert reg.value("repro_integrity_chunks_validated_total") == res.stats.chunks
    assert reg.value("repro_integrity_chunks_quarantined_total", default=0.0) == 0
    assert reg.value("repro_reader_bytes_read_total") == res.stats.sample_bytes
    h = reg.histogram("repro_integrator_feed_seconds")
    assert h.count == res.stats.chunks


def test_quarantined_ingest_counters(fixture_trace, tmp_path):
    import shutil

    path = tmp_path / "bad.npz"
    shutil.copy(fixture_trace, path)
    faults.flip_sample_bit(path, 0, chunk=2, column="ts", index=16, bit=60)
    reg = MetricsRegistry()
    with use_registry(reg):
        res = ingest_trace(
            path,
            options=IngestOptions(
                workers=1, chunk_size=CHUNK, on_corruption="quarantine"
            ),
        )
    cov = res.coverage[0]
    assert cov.chunks_dropped == 1
    assert reg.value("repro_integrity_chunks_quarantined_total") == 1
    assert reg.value("repro_integrity_samples_dropped_total") == CHUNK
    assert (
        reg.value("repro_integrity_chunks_validated_total")
        == res.stats.chunks
    )
    assert res.stats.samples == 2 * SAMPLES_PER_CORE - CHUNK


def test_quarantine_text_equals_legacy_summary_and_counters(fixture_trace, tmp_path):
    """The stderr text, the legacy summary, and the counters all agree."""
    import shutil

    path = tmp_path / "bad.npz"
    shutil.copy(fixture_trace, path)
    faults.flip_sample_bit(path, 0, chunk=1, column="ts", index=5, bit=60)
    res = ingest_trace(
        path,
        options=IngestOptions(workers=1, chunk_size=CHUNK, on_corruption="quarantine"),
    )
    assert res.quarantine.defects

    # Telemetry off: identical to the legacy QuarantineLog.summary().
    assert get_registry() is NULL_REGISTRY
    assert publish_quarantine(res.quarantine) == res.quarantine.summary()

    # Telemetry on: same text, and the counters it was rendered from are
    # exported with exactly the numbers the text shows.
    reg = MetricsRegistry()
    with use_registry(reg):
        text = publish_quarantine(res.quarantine)
    assert text == res.quarantine.summary()
    total_defects = sum(
        inst.value
        for inst in reg.collect()
        if inst.name == "repro_quarantine_defects_total"
    )
    assert total_defects == len(res.quarantine.defects)
    assert (
        reg.value("repro_quarantine_samples_lost_total")
        == res.quarantine.samples_lost
    )
    assert (
        reg.value("repro_quarantine_marks_lost_total")
        == res.quarantine.marks_lost
    )


def test_publish_quarantine_empty_log():
    from repro.core.integrity import QuarantineLog

    assert publish_quarantine(QuarantineLog()) == "quarantine: no defects"


def test_null_registry_overhead_under_budget(fixture_trace):
    """Disabled telemetry adds < 5% to the integration microbench.

    There is no uninstrumented build to diff against, so the budget is
    checked directly: the wall cost of the no-op instrument calls one
    disabled ``feed()`` makes must stay under 5% of the wall cost of the
    feed itself.  Best-of-N timing shrinks scheduler noise.
    """
    assert get_registry() is NULL_REGISTRY  # telemetry disabled

    def best(fn, n=7):
        walls = []
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            walls.append(time.perf_counter() - t0)
        return min(walls)

    with TraceReader(fixture_trace) as reader:
        chunks = list(reader.iter_sample_chunks(0, CHUNK))
        cols = reader.switch_window_columns(0)
    from repro.core.streaming import StreamingIntegrator
    from tests.faults.conftest import build_symtab

    symtab = build_symtab()

    def run():
        integ = StreamingIntegrator(symtab, cols)
        for chunk in chunks:
            integ.feed(chunk)
        integ.finalize()

    run()  # warm code paths and the instrument-bundle cache
    per_feed = best(run) / len(chunks)

    # A generous superset of the instrument calls one disabled feed()
    # triggers across reader + integrator (the actual count is lower).
    ins = pipeline()
    assert not ins.enabled
    n = 50_000

    def null_calls():
        for _ in range(n):
            pipeline()
            ins.integ_samples.inc(CHUNK)
            ins.integ_chunks.inc()
            ins.windows_closed.inc(4)
            ins.reorder_events.inc()
            ins.chunks_validated.inc()
            ins.bytes_read.inc(768)

    per_feed_overhead = best(null_calls, n=3) / n
    assert per_feed_overhead < 0.05 * per_feed, (per_feed_overhead, per_feed)
