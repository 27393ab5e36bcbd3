"""Streaming, sharded trace ingestion.

The paper's data-rate analysis (Section IV-C3) puts the raw PEBS stream
at 106–270 MB/s *per core*; a 16-core trace of any useful length does
not fit in memory.  This module turns the one-shot
:func:`~repro.core.hybrid.integrate` into a pipeline that never holds
more than one chunk of one core's samples:

* :class:`StreamingIntegrator` consumes a core's samples chunk by chunk,
  carrying per-(window, function) first/last/count state across chunk
  boundaries; :meth:`StreamingIntegrator.finalize` routes through the
  same :func:`~repro.core.hybrid.finalize_window_groups` as one-shot
  integration, so the resulting :class:`~repro.core.hybrid.HybridTrace`
  is **bitwise-identical** to ``integrate()`` on the concatenated
  samples.
* :func:`ingest_trace` drives a whole container through one open
  :class:`~repro.core.tracefile.TraceReader`: sequentially (feeding a
  :class:`~repro.analysis.diagnose.StreamingDiagnoser` as items
  complete, so diagnosis runs *while* ingesting), or fanned out per
  core-shard over a thread pool sharing that reader, with per-core
  partial traces combined by :func:`~repro.core.hybrid.merge_traces`.

Switch logs are two records per data-item — tiny next to the sample
stream — so window state is built whole per core; only samples stream.
"""

from __future__ import annotations

import contextlib
import pathlib
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.hybrid import (
    HybridTrace,
    _group_min_max_count,
    finalize_window_groups,
    merge_traces,
)
from repro.core.integrity import (
    KIND_CHECKSUM,
    KIND_LENGTH,
    KIND_MISSING,
    KIND_ORDER,
    KIND_SHARD,
    KIND_UNREADABLE,
    POLICY_REPAIR,
    POLICY_STRICT,
    CoverageStats,
    Defect,
    QuarantineLog,
    check_policy,
    degraded_items_for_span,
)
from repro.core.options import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_RECORD_BYTES,
    IngestOptions,
)
from repro.core.records import (
    ItemWindow,
    SwitchRecords,
    WindowColumns,
    build_windows,
    windows_as_arrays,
)
from repro.core.shardpool import run_supervised
from repro.core.symbols import UNKNOWN, SymbolTable
from repro.core.tracefile import TraceReader
from repro.errors import IntegrationError, ShardError, TraceError
from repro.machine.pebs import SampleArrays
from repro.obs.anomaly import (
    AnomalyLog,
    CoverageChecker,
    IngestCheckers,
    KIND_LOW_COVERAGE,
    build_ingest_checkers,
)
from repro.obs.instrumented import pipeline as _obs
from repro.obs.spans import span

if TYPE_CHECKING:
    from repro.analysis.diagnose import StreamingDiagnoser

# DEFAULT_CHUNK_SIZE / DEFAULT_RECORD_BYTES now live in
# repro.core.options next to IngestOptions; re-exported here for
# existing importers.


@dataclass(frozen=True)
class CompletedItem:
    """One data-item whose residency windows are all behind the stream."""

    item_id: int
    #: Per-function elapsed cycles (same filter as ``HybridTrace.breakdown``).
    breakdown: dict[str, int]
    #: Mapped samples the item contributed (all functions, unfiltered).
    n_samples: int
    #: Timestamp of the item's last window end.
    t_done: int


class StreamingIntegrator:
    """Incremental per-core integration over bounded sample chunks.

    Feed time-ordered chunks with :meth:`feed`; between chunks,
    :meth:`drain_completed` hands out items whose windows are fully in
    the past (for online diagnosis); :meth:`finalize` produces the exact
    one-shot :class:`HybridTrace`.
    """

    def __init__(
        self,
        symtab: SymbolTable,
        windows: list[ItemWindow] | WindowColumns,
        *,
        tolerate_reorder: bool = False,
    ) -> None:
        self.symtab = symtab
        self.windows = windows
        #: Accept chunks that are internally sorted but arrive out of
        #: order relative to earlier chunks (the repair policy's handling
        #: of shuffled storage).  The (window, function) merge is
        #: order-independent, so :meth:`finalize` stays bitwise-identical
        #: to one-shot integration; only :meth:`drain_completed`'s
        #: "complete" notion degrades (a late chunk may add samples to an
        #: item already handed out).
        self.tolerate_reorder = tolerate_reorder
        self._reordered = False
        if isinstance(windows, WindowColumns):
            self._starts, self._ends, self._win_items = windows.as_sorted_arrays()
        else:
            self._starts, self._ends, self._win_items = windows_as_arrays(windows)
        self._nfn = len(symtab)
        empty = np.empty(0, dtype=np.int64)
        self._keys = empty
        self._counts = empty.copy()
        self._tmin = empty.copy()
        self._tmax = empty.copy()
        #: Finalized (keys, counts, tmin, tmax) runs, strictly below the
        #: active tail; concatenating them with the tail yields the full
        #: sorted-unique state.
        self._seg: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._total = 0
        self._unmapped = 0
        self._unknown = 0
        self._last_ts: int | None = None
        self._emitted: set[int] = set()
        #: item id -> end of its last window; built on first drain only.
        self._item_done_cache: dict[int, int] | None = None
        self._result: HybridTrace | None = None

    @property
    def _item_done(self) -> dict[int, int]:
        if self._item_done_cache is None:
            if self._win_items.shape[0]:
                order = np.argsort(self._win_items, kind="stable")
                items_o = self._win_items[order]
                uniq, start = np.unique(items_o, return_index=True)
                last_end = np.maximum.reduceat(self._ends[order], start)
                self._item_done_cache = dict(
                    zip(uniq.tolist(), last_end.tolist())
                )
            else:
                self._item_done_cache = {}
        return self._item_done_cache

    @classmethod
    def from_switches(
        cls, symtab: SymbolTable, switches: SwitchRecords
    ) -> "StreamingIntegrator":
        return cls(symtab, build_windows(switches))

    # -- streaming -------------------------------------------------------
    @property
    def total_samples(self) -> int:
        return self._total

    def feed(self, chunk: SampleArrays) -> None:
        """Consume one chunk (must continue the core's time order)."""
        if self._result is not None:
            raise IntegrationError("cannot feed a finalized StreamingIntegrator")
        ins = _obs()
        if ins.enabled:
            t0 = time.perf_counter()
            try:
                self._feed(chunk, ins)
            finally:
                ins.feed_seconds.observe(time.perf_counter() - t0)
        else:
            self._feed(chunk, ins)

    def _feed(self, chunk: SampleArrays, ins) -> None:
        ts = chunk.ts
        n = int(ts.shape[0])
        if n == 0:
            return
        ins.integ_samples.inc(n)
        ins.integ_chunks.inc()
        if np.any(np.diff(ts) < 0):
            # Disorder *within* a chunk is always corruption (the reader's
            # repair policy drops such records before feeding).
            raise IntegrationError("sample timestamps must be sorted")
        if self._last_ts is not None and int(ts[0]) < self._last_ts:
            if not self.tolerate_reorder:
                raise IntegrationError("sample timestamps must be sorted")
            # An out-of-order chunk can touch windows already retired;
            # bring the retired state back and stop retiring — from here
            # on, no window index is guaranteed to be behind the stream.
            self._reordered = True
            ins.reorder_events.inc()
            self._collapse()
        self._last_ts = (
            int(ts[-1]) if self._last_ts is None else max(self._last_ts, int(ts[-1]))
        )
        self._total += n
        if self._starts.shape[0] == 0:
            self._unmapped += n
            return
        # Same step 2a/2b as one-shot integrate(), per chunk.
        widx = np.searchsorted(self._starts, ts, side="right") - 1
        in_window = (widx >= 0) & (ts <= self._ends[np.clip(widx, 0, None)])
        fidx = self.symtab.lookup_many(chunk.ip)
        known = fidx != UNKNOWN
        valid = in_window & known
        self._unmapped += int(np.count_nonzero(~in_window))
        self._unknown += int(np.count_nonzero(in_window & ~known))
        if not np.any(valid):
            return
        combined = widx[valid] * self._nfn + fidx[valid]
        tv = ts[valid]
        order = np.argsort(combined, kind="stable")
        uniq, counts, t_min, t_max = _group_min_max_count(combined[order], tv[order])
        self._merge_groups(uniq, counts, t_min, t_max)
        # Window indices are non-decreasing in time, so every future
        # sample lands in a window >= this chunk's last one: state below
        # it is final.  Retiring it keeps the per-chunk merge bounded by
        # the chunk, not by everything carried so far.  Once a reorder has
        # been observed that invariant is gone, so retirement stops.
        if not self._reordered:
            self._retire((int(uniq[-1]) // self._nfn) * self._nfn)

    def _merge_groups(
        self,
        keys: np.ndarray,
        counts: np.ndarray,
        t_min: np.ndarray,
        t_max: np.ndarray,
    ) -> None:
        """Fold a chunk's (window, function) groups into the carried state.

        Both sides hold unique sorted keys, so each merged key occurs at
        most twice; ``reduceat`` combines the duplicates vectorised.
        """
        if self._keys.shape[0] == 0:
            self._keys, self._counts, self._tmin, self._tmax = keys, counts, t_min, t_max
            return
        all_keys = np.concatenate([self._keys, keys])
        order = np.argsort(all_keys, kind="stable")
        sorted_keys = all_keys[order]
        uniq, start = np.unique(sorted_keys, return_index=True)
        self._keys = uniq
        self._counts = np.add.reduceat(
            np.concatenate([self._counts, counts])[order], start
        )
        self._tmin = np.minimum.reduceat(
            np.concatenate([self._tmin, t_min])[order], start
        )
        self._tmax = np.maximum.reduceat(
            np.concatenate([self._tmax, t_max])[order], start
        )

    def _retire(self, active_min_key: int) -> None:
        """Move carried state below ``active_min_key`` into ``_seg``."""
        cut = int(np.searchsorted(self._keys, active_min_key))
        if cut:
            self._seg.append(
                (
                    self._keys[:cut],
                    self._counts[:cut],
                    self._tmin[:cut],
                    self._tmax[:cut],
                )
            )
            self._keys = self._keys[cut:]
            self._counts = self._counts[cut:]
            self._tmin = self._tmin[cut:]
            self._tmax = self._tmax[cut:]

    def _collapse(self) -> None:
        """Fold retired segments back into one contiguous state."""
        if self._seg:
            segs = self._seg
            self._seg = []
            self._keys = np.concatenate([s[0] for s in segs] + [self._keys])
            self._counts = np.concatenate([s[1] for s in segs] + [self._counts])
            self._tmin = np.concatenate([s[2] for s in segs] + [self._tmin])
            self._tmax = np.concatenate([s[3] for s in segs] + [self._tmax])

    # -- online hand-off -------------------------------------------------
    def drain_completed(
        self, min_samples: int = 2, final: bool = False
    ) -> list[CompletedItem]:
        """Items whose last window ended before the stream position.

        An item is *complete* when its last window's end is strictly
        before the newest timestamp fed (later samples can no longer land
        in it); ``final=True`` drains everything left (end of stream).
        Only items with at least one mapped sample are reported — the
        same population ``HybridTrace.items()`` sees.  Each item is
        reported exactly once, in completion order.
        """
        self._collapse()
        if self._keys.shape[0] == 0:
            return []
        win_of = (self._keys // self._nfn).astype(np.int64)
        fn_of = (self._keys % self._nfn).astype(np.int64)
        item_of = self._win_items[win_of]
        elapsed = self._tmax - self._tmin
        ready: list[tuple[int, int]] = []  # (t_done, item_id)
        for item in np.unique(item_of).tolist():
            if item in self._emitted:
                continue
            t_done = self._item_done[item]
            if final or (self._last_ts is not None and t_done < self._last_ts):
                ready.append((t_done, item))
        ready.sort()
        out: list[CompletedItem] = []
        for t_done, item in ready:
            mask = item_of == item
            agg: dict[int, tuple[int, int]] = {}
            for fn, cnt, el in zip(
                fn_of[mask].tolist(),
                self._counts[mask].tolist(),
                elapsed[mask].tolist(),
            ):
                c0, e0 = agg.get(fn, (0, 0))
                agg[fn] = (c0 + cnt, e0 + el)
            breakdown = {
                self.symtab.names[fn]: el
                for fn, (cnt, el) in agg.items()
                if cnt >= min_samples
            }
            n_item = sum(cnt for cnt, _ in agg.values())
            out.append(
                CompletedItem(
                    item_id=item,
                    breakdown=breakdown,
                    n_samples=n_item,
                    t_done=t_done,
                )
            )
            self._emitted.add(item)
        if out:
            _obs().windows_closed.inc(len(out))
        return out

    # -- result ----------------------------------------------------------
    def finalize(self) -> HybridTrace:
        """The exact trace one-shot ``integrate()`` would have produced."""
        if self._result is None:
            self._collapse()
            self._result = finalize_window_groups(
                self.symtab,
                self.windows,
                self._win_items,
                self._keys,
                self._counts,
                self._tmin,
                self._tmax,
                total_samples=self._total,
                unmapped_samples=self._unmapped,
                unknown_ip_samples=self._unknown,
            )
        return self._result


# ---------------------------------------------------------------------------
# Whole-container ingestion


@dataclass(frozen=True)
class IngestStats:
    """Throughput accounting for one :func:`ingest_trace` run."""

    cores: tuple[int, ...]
    chunks: int
    samples: int
    sample_bytes: int
    workers: int
    chunk_size: int
    wall_s: float
    #: Worker backend: "inline" (workers=1) or "thread".
    pool: str = "inline"
    #: Cores whose shards failed permanently (partial-result merge).
    failed_cores: tuple[int, ...] = ()

    @property
    def mb_per_s(self) -> float:
        return self.sample_bytes / 1e6 / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def samples_per_s(self) -> float:
        return self.samples / self.wall_s if self.wall_s > 0 else 0.0


@dataclass
class IngestResult:
    """Merged trace + per-core shards + throughput stats.

    ``quarantine`` and ``coverage`` carry the degradation accounting of a
    lenient run; under the default strict policy the log is empty and
    every core's coverage is complete.
    """

    trace: HybridTrace
    per_core: dict[int, HybridTrace]
    stats: IngestStats
    quarantine: QuarantineLog = field(default_factory=QuarantineLog)
    coverage: dict[int, CoverageStats] = field(default_factory=dict)
    #: Invariant violations observed while streaming (None unless
    #: ``options.anomaly.enabled``).
    anomalies: AnomalyLog | None = None


#: Defect kinds whose ts spans localise lost *samples* (not switch marks).
_SAMPLE_KINDS = (KIND_CHECKSUM, KIND_LENGTH, KIND_ORDER, KIND_MISSING, KIND_UNREADABLE)


def _stream_core(
    reader: TraceReader,
    core: int,
    chunk_size: int | None,
    policy: str,
    quarantine: QuarantineLog,
    coverage: CoverageStats,
    diagnoser: StreamingDiagnoser | None = None,
    record_bytes: int = DEFAULT_RECORD_BYTES,
    checkers: IngestCheckers | None = None,
) -> tuple[HybridTrace, int]:
    """Stream-integrate one core under a corruption policy.

    The single code path behind both the sequential loop and the worker
    shard: windows are paired (leniently when the policy allows), sample
    chunks are validated/repaired by the reader, and every defect's
    timestamp span is mapped to the item windows it overlaps so
    ``coverage.degraded_items`` names exactly the items whose numbers
    rest on incomplete data.
    """
    with span("ingest.windows", core=core):
        windows = reader.switch_window_columns(
            core, policy=policy, quarantine=quarantine, coverage=coverage
        )
    integ = StreamingIntegrator(
        reader.symtab, windows, tolerate_reorder=(policy == POLICY_REPAIR)
    )
    if checkers is not None:
        # The integrator already holds the paired windows as sorted
        # start/end columns — exactly what the mark-gap invariant needs.
        checkers.check_windows(integ._starts, integ._ends)
    chunks = 0
    with span("ingest.stream", core=core):
        for chunk in reader.iter_sample_chunks(
            core, chunk_size, policy=policy, quarantine=quarantine, coverage=coverage
        ):
            integ.feed(chunk)
            chunks += 1
            if checkers is not None:
                checkers.observe_chunk(chunk.ts)
            if diagnoser is not None:
                for done in integ.drain_completed():
                    diagnoser.observe_item(
                        done.item_id, done.breakdown, done.n_samples * record_bytes
                    )
    if diagnoser is not None:
        for done in integ.drain_completed(final=True):
            diagnoser.observe_item(
                done.item_id, done.breakdown, done.n_samples * record_bytes
            )
    with span("ingest.finalize", core=core):
        trace = integ.finalize()
    for d in quarantine.for_core(core):
        if d.kind in _SAMPLE_KINDS:
            if d.ts_lo is None and d.ts_hi is None and d.records_lost != 0:
                coverage.unknown_extent = True
            else:
                coverage.mark_degraded(
                    degraded_items_for_span(windows, d.ts_lo, d.ts_hi)
                )
    if checkers is not None:
        checkers.check_coverage(coverage)
    return trace, chunks


def _integrate_core_shard(
    reader: TraceReader, core: int, chunk_size: int | None, policy: str
) -> tuple[int, HybridTrace, int, list[Defect], CoverageStats]:
    """Shard worker: stream-integrate one core of a shared open container.

    Runs in a pool thread and touches only its own core's members of the
    reader.  Defects and coverage are collected per shard and travel back
    with the result, so the caller folds them into the run-wide
    accounting.
    """
    quarantine = QuarantineLog()
    coverage = CoverageStats(core=core)
    trace, chunks = _stream_core(
        reader, core, chunk_size, policy, quarantine, coverage
    )
    return core, trace, chunks, quarantine.defects, coverage


def replay_into(
    diagnoser: StreamingDiagnoser,
    trace: HybridTrace,
    record_bytes: int = DEFAULT_RECORD_BYTES,
    min_samples: int = 2,
) -> None:
    """Feed a finished trace's items to an online estimator in completion order.

    Used after a parallel ingest, where per-core workers cannot share one
    estimator: the merged trace is replayed item by item, ordered by each
    item's last sample timestamp, approximating what the sequential
    streaming path observes live.
    """
    done: dict[int, int] = {}
    n_of: dict[int, int] = {}
    for item, t_last, n in zip(
        trace.item_ids.tolist(), trace.t_last.tolist(), trace.n_samples.tolist()
    ):
        done[item] = max(done.get(item, t_last), t_last)
        n_of[item] = n_of.get(item, 0) + n
    for _, item in sorted((t, i) for i, t in done.items()):
        diagnoser.observe_item(
            item,
            trace.breakdown(item, min_samples=min_samples),
            n_of[item] * record_bytes,
        )


def ingest_trace(
    source: str | pathlib.Path | TraceReader,
    *,
    options: IngestOptions | None = None,
    cores: list[int] | None = None,
    diagnoser: StreamingDiagnoser | None = None,
    _shard_fn=None,
) -> IngestResult:
    """Stream-integrate a trace container and merge the per-core shards.

    ``source`` is a container path, opened once for the whole run, or a
    :class:`~repro.core.tracefile.TraceReader` the caller already holds
    open (it is left open).  Ingestion knobs travel in one
    :class:`~repro.core.options.IngestOptions` object (``options=``).

    ``options.workers > 1`` fans core-shards out to a thread pool whose
    workers share the one reader, each reading only its own core's chunk
    members.  With one worker, cores are streamed in the calling thread
    and ``diagnoser`` — if given — observes each item the moment its
    windows complete, i.e. diagnosis runs while ingesting.  After a
    parallel ingest the diagnoser is fed by replaying the merged trace in
    item-completion order instead.

    Fault tolerance:

    * ``on_corruption`` selects the corruption policy applied to every
      chunk and switch log — ``"strict"`` raises on the first defect,
      ``"quarantine"`` skips defective chunks, ``"repair"`` drops only
      the offending records where possible.  Defects and per-core
      coverage come back on the :class:`IngestResult`.
    * ``shard_timeout`` bounds each parallel shard's wall time;
      ``max_retries`` re-attempts timed-out or crashed shards (with
      exponential backoff starting at ``retry_backoff_s``) in a fresh
      pool, so a hung shard thread is abandoned and cannot stall the
      run.  Retries apply only to nondeterministic failures — a corrupt
      shard fails the same way every time and is not retried.
    * A shard that fails permanently fails the run under ``"strict"``;
      under a lenient policy the remaining shards still merge, the lost
      core is reported in ``stats.failed_cores`` with a
      :class:`~repro.core.integrity.Defect` in the quarantine log, and
      its coverage is marked ``shard_failed``.  Only when *every* shard
      fails does a lenient run raise :class:`~repro.errors.ShardError`.

    ``_shard_fn`` swaps the shard worker (fault-injection tests); it is
    called as ``(reader, core, chunk_size, policy)``.
    """
    opts = options if options is not None else IngestOptions()
    chunk_size = opts.chunk_size
    workers = opts.workers
    record_bytes = opts.record_bytes
    on_corruption = opts.on_corruption
    strict = on_corruption == POLICY_STRICT
    shard_fn = _shard_fn if _shard_fn is not None else _integrate_core_shard
    t0 = time.perf_counter()
    per_core: dict[int, HybridTrace] = {}
    quarantine = QuarantineLog()
    coverage: dict[int, CoverageStats] = {}
    shard_failures: dict[int, str] = {}
    retries: dict[int, int] = {}
    chunks_by_core: dict[int, int] = {}
    total_chunks = 0
    anomalies = AnomalyLog(opts.anomaly.log_capacity) if opts.anomaly.enabled else None
    opened = (
        contextlib.nullcontext(source)
        if isinstance(source, TraceReader)
        else TraceReader(source)
    )
    with opened as reader:
        path = str(reader.path)
        use_cores = cores if cores is not None else reader.sample_cores
        if workers == 1:
            for core in use_cores:
                cov = CoverageStats(core=core)
                try:
                    with span("ingest.core", core=core):
                        trace, chunks = _stream_core(
                            reader,
                            core,
                            chunk_size,
                            on_corruption,
                            quarantine,
                            cov,
                            diagnoser=diagnoser,
                            record_bytes=record_bytes,
                            checkers=build_ingest_checkers(
                                anomalies, opts.anomaly, core
                            ),
                        )
                except TraceError as exc:
                    if strict:
                        raise
                    # Lenient sequential run: a core the policy could not
                    # salvage degrades like a permanently failed shard.
                    shard_failures[core] = f"{type(exc).__name__}: {exc}"
                    coverage[core] = cov
                    continue
                per_core[core] = trace
                coverage[core] = cov
                chunks_by_core[core] = chunks
                total_chunks += chunks
        else:
            for core in use_cores:  # fail fast on unknown cores
                reader._check_core(core)
            jobs = [
                (core, (reader, core, chunk_size, on_corruption))
                for core in use_cores
            ]
            results, shard_failures, retries = run_supervised(
                jobs, min(workers, max(len(use_cores), 1)), opts.shard_timeout,
                opts.max_retries, opts.retry_backoff_s, shard_fn,
            )
            for core, trace, chunks, defects, cov in results.values():
                per_core[core] = trace
                coverage[core] = cov
                cov.retries = retries.get(core, 0)
                quarantine.extend(defects)
                chunks_by_core[core] = chunks
                total_chunks += chunks
    for core, msg in sorted(shard_failures.items()):
        if strict:
            raise ShardError(f"shard for core {core} failed permanently: {msg}")
        quarantine.record(
            Defect(
                core=core,
                kind=KIND_SHARD,
                member=None,
                detail=f"shard failed permanently: {msg}",
                records_lost=-1,
            )
        )
        cov = coverage.setdefault(core, CoverageStats(core=core))
        cov.shard_failed = True
        cov.unknown_extent = True
        cov.retries = retries.get(core, 0)
    if anomalies is not None and workers > 1 and opts.anomaly.wants(KIND_LOW_COVERAGE):
        # The in-stream checkers run only with workers=1 (repro monitor
        # forces it), but the end-of-shard coverage invariant replays
        # here from the collected stats.
        for core in sorted(coverage):
            CoverageChecker(anomalies, opts.anomaly).check(coverage[core])
    if not per_core:
        if shard_failures:
            raise ShardError(
                f"every shard of {path} failed permanently: "
                + "; ".join(f"core {c}: {m}" for c, m in sorted(shard_failures.items()))
            )
        raise TraceError(f"trace file {path} has no sampled cores to ingest")
    with span("ingest.merge", cores=len(per_core)):
        merged = merge_traces([per_core[c] for c in sorted(per_core)])
    if diagnoser is not None and workers > 1:
        replay_into(diagnoser, merged, record_bytes=record_bytes)
    wall = time.perf_counter() - t0
    n_samples = sum(t.total_samples for t in per_core.values())
    # Shard-level totals are published from the collected results; the
    # shard threads fed the live integrator/integrity counters of the same
    # registry, so the two families agree at any worker count.
    ins = _obs()
    ins.ingest_samples.inc(n_samples)
    ins.ingest_chunks.inc(total_chunks)
    ins.ingest_wall.set(wall)
    ins.ingest_workers.set(workers)
    ins.shard_failures.inc(len(shard_failures))
    for core, trace in per_core.items():
        ins.shard_samples(core).inc(trace.total_samples)
        ins.shard_chunks(core).inc(chunks_by_core.get(core, 0))
    stats = IngestStats(
        cores=tuple(sorted(per_core)),
        chunks=total_chunks,
        samples=n_samples,
        sample_bytes=n_samples * 24,  # three int64 columns per sample
        workers=workers,
        chunk_size=chunk_size if chunk_size is not None else 0,
        wall_s=wall,
        pool="inline" if workers == 1 else "thread",
        failed_cores=tuple(sorted(shard_failures)),
    )
    return IngestResult(
        trace=merged,
        per_core=per_core,
        stats=stats,
        quarantine=quarantine,
        coverage=coverage,
        anomalies=anomalies,
    )
