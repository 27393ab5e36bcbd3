"""Extension: streaming sharded ingest vs the one-shot offline baseline.

The paper integrates PEBS samples and switch logs offline after dumping
them to an SSD (Section III-E), and its data-rate analysis (Section
IV-C3) puts the raw stream at 106-270 MB/s *per core* — a trace of any
useful length cannot be loaded whole.  This bench measures the
chunked-container ingest pipeline (``repro.core.streaming``) against the
pre-existing one-shot path (``load_trace`` + per-core ``integrate`` +
``merge_traces``) on a multi-core-shard trace, sweeping chunk size and
worker count, and cross-checks that every configuration reproduces the
one-shot result bit for bit.

The ``workers=1`` rows measure the pipeline itself — array-native window
pairing, no per-window objects.  The worker rows fan core-shards out over
threads that share one open reader; how much they gain depends on the
host's spare CPUs, which the table title and the trajectory point record.

Sizes are env-tunable so CI can smoke-test the bench quickly:
``REPRO_BENCH_STREAM_ITEMS`` (data-items per core, default 80000),
``REPRO_BENCH_STREAM_SPI`` (samples per item, default 5),
``REPRO_BENCH_STREAM_CORES`` (cores, default 4).  The >=2x acceptance
assertions only run at full scale — at smoke sizes the constant pool
overhead dominates and the ratios are meaningless.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

import numpy as np
import pytest

from repro.analysis.reporting import format_table
from repro.core.hybrid import integrate, merge_traces, traces_equal
from repro.core.options import IngestOptions
from repro.core.records import SwitchRecords
from repro.core.streaming import StreamingIntegrator, ingest_trace
from repro.core.symbols import SymbolTable
from repro.core.tracefile import TraceReader, load_trace, save_trace
from repro.machine.pebs import SampleArrays
from repro.obs.metrics import MetricsRegistry
from repro.runtime.actions import SwitchKind

N_ITEMS = int(os.environ.get("REPRO_BENCH_STREAM_ITEMS", "80000"))
SAMPLES_PER_ITEM = int(os.environ.get("REPRO_BENCH_STREAM_SPI", "5"))
N_CORES = int(os.environ.get("REPRO_BENCH_STREAM_CORES", "4"))
FULL_SCALE = N_ITEMS >= 40_000  # acceptance assertions need real work

CHUNK_SIZES = (8_192, 65_536, 262_144)
WORKER_COUNTS = (1, 2, 4)
ROUNDS = 7  # round-robin timing rounds per configuration
SAMPLE_BYTES = 24  # three int64 columns per stored sample

SYMTAB = SymbolTable.from_ranges(
    {f"fn_{i}": (i * 100, (i + 1) * 100) for i in range(8)}
)


def _make_core(core: int, n_items: int, spi: int, seed: int):
    """One core's shard: n_items back-to-back windows, spi samples each."""
    rng = np.random.default_rng(seed)
    gaps = rng.integers(50, 200, size=n_items)
    durs = rng.integers(400, 900, size=n_items)
    starts = np.cumsum(gaps + durs) - durs
    ends = starts + durs
    items = core * n_items + np.arange(1, n_items + 1)
    n2 = 2 * n_items
    ts2 = np.empty(n2, dtype=np.int64)
    ts2[0::2], ts2[1::2] = starts, ends
    item2 = np.empty(n2, dtype=np.int64)
    item2[0::2], item2[1::2] = items, items
    kinds = [SwitchKind.ITEM_START, SwitchKind.ITEM_END] * n_items
    switches = SwitchRecords.from_arrays(core, ts2, item2, kinds)
    ts = (starts[:, None] + rng.integers(0, 400, size=(n_items, spi))).ravel()
    ts.sort(kind="stable")
    ip = rng.integers(0, 800, size=n_items * spi)
    samples = SampleArrays(
        ts=ts.astype(np.int64),
        ip=ip.astype(np.int64),
        tag=np.full(n_items * spi, -1, dtype=np.int64),
    )
    return samples, switches


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    samples, switches = {}, {}
    for core in range(N_CORES):
        samples[core], switches[core] = _make_core(
            core, N_ITEMS, SAMPLES_PER_ITEM, seed=1234 + core
        )
    path = tmp_path_factory.mktemp("stream_bench") / "ingest.npz"
    # Uncompressed chunked v2: at the paper's data rates zlib would be
    # the shared bottleneck of every configuration under test.
    save_trace(path, samples, switches, SYMTAB, chunk_size=65_536, compress=False)
    return path


def _one_shot(path):
    tf = load_trace(path)
    per = {c: tf.integrate(c) for c in tf.sample_cores}
    return merge_traces([per[c] for c in sorted(per)])


def _timed_round_robin(configs: dict, rounds: int = ROUNDS) -> dict:
    """Median wall time per configuration, timed in alternation.

    Each round runs every configuration once, in a fixed order, so drift
    in the host's speed (other tenants, frequency scaling) lands on all of
    them alike and the medians can rank configurations.
    """
    walls = {label: [] for label in configs}
    for _ in range(rounds):
        for label, fn in configs.items():
            gc.collect()  # each run starts from the same heap state
            t0 = time.perf_counter()
            fn()
            walls[label].append(time.perf_counter() - t0)
    return {label: statistics.median(w) for label, w in walls.items()}


def test_streaming_ingest_throughput(trace_path, report, bench_point, benchmark):
    n_samples = N_CORES * N_ITEMS * SAMPLES_PER_ITEM
    mb = n_samples * SAMPLE_BYTES / 1e6

    # Timings flow through the telemetry registry: the table below, the
    # appended trajectory point, and any scrape of this registry all read
    # the same gauges.
    reg = MetricsRegistry()

    def record_wall(config: str, wall: float) -> None:
        reg.gauge(
            "repro_bench_streaming_wall_seconds",
            "Median wall time of one bench configuration",
            config=config,
        ).set(wall)
        reg.gauge(
            "repro_bench_streaming_mb_per_second",
            "Sample-column throughput of one bench configuration",
            config=config,
        ).set(mb / wall)

    # Correctness first, untimed: every configuration must reproduce the
    # one-shot integration bit for bit.
    reference = _one_shot(trace_path)
    for workers in (1, max(WORKER_COUNTS)):
        res = ingest_trace(
            trace_path, options=IngestOptions(chunk_size=65_536, workers=workers)
        )
        assert traces_equal(res.trace, reference)
    del res, reference
    gc.collect()

    def stream(chunk_size: int, workers: int):
        return lambda: ingest_trace(
            trace_path, options=IngestOptions(chunk_size=chunk_size, workers=workers)
        )

    # label -> (table row name, configuration); the 65536-chunk,
    # workers=1 run is both a chunk row and the worker sweep's base.
    configs = {
        "one-shot": ("one-shot load_trace+integrate", lambda: _one_shot(trace_path))
    }
    for chunk_size in CHUNK_SIZES:
        configs[f"chunk={chunk_size},workers=1"] = (
            f"stream chunk={chunk_size} workers=1", stream(chunk_size, 1)
        )
    for workers in WORKER_COUNTS[1:]:
        configs[f"chunk=65536,workers={workers}"] = (
            f"stream chunk=65536 workers={workers} (thread)", stream(65_536, workers)
        )
    medians = _timed_round_robin({label: fn for label, (_, fn) in configs.items()})
    base_wall = medians["one-shot"]
    rows = []
    for label, (name, _) in configs.items():
        wall = medians[label]
        record_wall(label, wall)
        rows.append(
            [
                name,
                f"{wall:.3f}",
                f"{mb / wall:.1f}",
                f"{n_samples / wall / 1e6:.2f}",
                f"{base_wall / wall:.2f}x",
            ]
        )
    worker_walls = {w: medians[f"chunk=65536,workers={w}"] for w in WORKER_COUNTS}
    text = format_table(
        ["configuration", "wall (s)", "MB/s", "Msamples/s", "speedup"],
        rows,
        title=(
            f"streaming sharded ingest vs one-shot baseline: {N_CORES} cores x "
            f"{N_ITEMS} items x {SAMPLES_PER_ITEM} samples ({mb:.0f} MB of "
            f"sample columns; host has {os.cpu_count()} CPU(s); medians of "
            f"{ROUNDS} round-robin runs)"
        ),
    )
    report("ext_streaming_ingest", text)

    # The trajectory point is derived from the registry gauges, not from
    # the local variables — what lands in BENCH_streaming.json is exactly
    # what a telemetry scrape of this run would have reported.
    walls = {
        dict(g.labels)["config"]: g.value
        for g in reg.collect()
        if g.name == "repro_bench_streaming_wall_seconds"
    }
    bench_point(
        "streaming",
        {
            "bench": "ext_streaming_ingest",
            "n_cores": N_CORES,
            "n_items": N_ITEMS,
            "samples_per_item": SAMPLES_PER_ITEM,
            "sample_mb": round(mb, 3),
            "full_scale": FULL_SCALE,
            "host_cpus": os.cpu_count(),
            "wall_seconds": walls,
        },
    )

    if FULL_SCALE:
        assert base_wall / worker_walls[1] >= 2.0
        assert base_wall / worker_walls[4] >= 2.0

    # Representative hot op for pytest-benchmark: one chunked shard pass.
    with TraceReader(trace_path) as reader:
        core = reader.sample_cores[0]
        chunks = list(reader.iter_sample_chunks(core, 65_536))
        cols = reader.switch_window_columns(core)

    def one_shard():
        integ = StreamingIntegrator(SYMTAB, cols)
        for chunk in chunks:
            integ.feed(chunk)
        return integ.finalize()

    benchmark(one_shard)


def test_streaming_matches_one_shot_per_core(trace_path):
    """Per-core shard equality, through the reader (not just merged)."""
    res = ingest_trace(
        trace_path, options=IngestOptions(chunk_size=8_192, workers=1)
    )
    tf = load_trace(trace_path)
    for core in tf.sample_cores:
        assert traces_equal(res.per_core[core], tf.integrate(core))
