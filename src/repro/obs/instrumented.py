"""The pipeline's instrument bundle: every metric the tracer emits about itself.

Instrumented modules do not talk to the registry directly; they call
:func:`pipeline` and poke the returned bundle::

    from repro.obs.instrumented import pipeline

    ins = pipeline()
    ins.integ_samples.inc(n)

The bundle is rebuilt (and cached) whenever the active registry changes,
so the same call sites serve three modes with no branching:

* **disabled** (default): the bundle holds the shared null instrument —
  every ``inc``/``observe`` is an empty method call;
* **enabled in-process** (CLI ``--telemetry``, ``repro monitor``): real
  instruments on the installed registry, updated live;
* **enabled across a thread pool**: same registry, same instruments —
  all instrument mutation is lock-protected.

:func:`repro.core.streaming.ingest_trace` publishes shard-level totals
from the results it collects (`repro_ingest_*`), while the shards
update the live low-level counters (`repro_integrator_*`,
`repro_integrity_*`) as they run.  Shard workers are threads on the
same registry, so the two families agree exactly at any worker count —
the acceptance tests pin that at 1 and 2 workers.

:func:`publish_quarantine` is the single source of the CLI's quarantine
summary: it folds a :class:`~repro.core.integrity.QuarantineLog` into
counters and renders the stderr text **from those counter values**, so
the text and the exported metrics cannot disagree.
"""

from __future__ import annotations

from repro.core.integrity import QuarantineLog
from repro.obs.metrics import MetricsRegistry, get_registry


class PipelineInstruments:
    """Pre-resolved instruments for the hot paths (one dict lookup each
    at build time, plain attribute access afterwards)."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self.enabled = registry.enabled
        c, g, h = registry.counter, registry.gauge, registry.histogram
        # -- ingest supervision (published by the parent process) --------
        self.ingest_samples = c(
            "repro_ingest_samples_total", "Samples integrated by ingest_trace runs"
        )
        self.ingest_chunks = c(
            "repro_ingest_chunks_total", "Sample chunks consumed by ingest_trace runs"
        )
        self.ingest_wall = g(
            "repro_ingest_wall_seconds", "Wall time of the most recent ingest run"
        )
        self.ingest_workers = g(
            "repro_ingest_workers", "Worker count of the most recent ingest run"
        )
        self.shard_wait = h(
            "repro_ingest_shard_wait_seconds",
            "Per-shard wall time from round start to result collection",
        )
        self.shard_retries = c(
            "repro_ingest_shard_retries_total", "Shard attempts beyond the first"
        )
        self.shard_failures = c(
            "repro_ingest_shard_failures_total", "Shards that failed permanently"
        )
        self.backoff_seconds = c(
            "repro_ingest_backoff_seconds_total", "Time slept between retry rounds"
        )
        self.pool_restarts = c(
            "repro_ingest_pool_restarts_total",
            "Fresh worker pools built for retry rounds after the first",
        )
        # -- reader / integrity (live, per validated chunk) --------------
        self.chunks_validated = c(
            "repro_integrity_chunks_validated_total",
            "Sample chunks that passed every integrity check",
        )
        self.chunks_quarantined = c(
            "repro_integrity_chunks_quarantined_total",
            "Sample chunks dropped whole by a lenient policy",
        )
        self.chunks_repaired = c(
            "repro_integrity_chunks_repaired_total",
            "Sample chunks kept after record-level repair",
        )
        self.crc_failures = c(
            "repro_integrity_crc_failures_total", "Members failing their crc32 check"
        )
        self.samples_dropped = c(
            "repro_integrity_samples_dropped_total",
            "Samples lost to quarantine or repair",
        )
        self.marks_dropped = c(
            "repro_integrity_marks_dropped_total",
            "Switch marks dropped by lenient pairing",
        )
        self.bytes_read = c(
            "repro_reader_bytes_read_total", "Raw sample-column bytes decoded"
        )
        # -- streaming integrator (live, per feed) -----------------------
        self.integ_samples = c(
            "repro_integrator_samples_total", "Samples fed to StreamingIntegrator"
        )
        self.integ_chunks = c(
            "repro_integrator_chunks_total", "Chunks fed to StreamingIntegrator"
        )
        self.feed_seconds = h(
            "repro_integrator_feed_seconds", "Wall time of one feed() call"
        )
        self.windows_closed = c(
            "repro_integrator_windows_closed_total",
            "Data-items drained as complete by the online hand-off",
        )
        self.reorder_events = c(
            "repro_integrator_reorder_events_total",
            "Out-of-order chunks absorbed by a reorder-tolerant integrator",
        )
        # -- online estimator --------------------------------------------
        self.online_items = c(
            "repro_online_items_total", "Items observed by the online diagnoser"
        )
        self.online_dumped = c(
            "repro_online_items_dumped_total", "Items whose raw samples were kept"
        )
        self.online_bytes_dumped = c(
            "repro_online_bytes_dumped_total", "Raw bytes kept by the online policy"
        )
        self.online_bytes_discarded = c(
            "repro_online_bytes_discarded_total", "Raw bytes the online policy saved"
        )
        # -- diagnosis / differential engines ----------------------------
        self.diag_runs = c(
            "repro_diagnosis_runs_total", "Batch diagnose_trace invocations"
        )
        self.diag_items = c(
            "repro_diagnosis_items_total", "Items classified by diagnose_trace"
        )
        self.diag_outliers = c(
            "repro_diagnosis_outliers_total",
            "Items flagged outside their group baseline band",
        )
        self.diag_online_verdicts = c(
            "repro_diagnosis_online_verdicts_total",
            "Outlier verdicts emitted mid-stream by StreamingDiagnoser",
        )
        self.diff_runs = c(
            "repro_diff_runs_total", "diff_traces invocations"
        )
        self.diff_regressions = c(
            "repro_diff_regressions_total",
            "Functions found slower per item by diff_traces",
        )
        # -- simulated machine / tracer ----------------------------------
        self.pebs_samples = c(
            "repro_pebs_samples_total", "Samples emitted by PEBS units"
        )
        self.pebs_buffer_fills = c(
            "repro_pebs_buffer_fills_total",
            "PEBS buffer overruns (buffer-full drain interrupts)",
        )
        self.pebs_stall_cycles = c(
            "repro_pebs_stall_cycles_total",
            "Cycles cores stalled waiting for a PEBS buffer drain",
        )
        self.sw_samples = c(
            "repro_sw_samples_total", "Samples serviced by the software sampler"
        )
        self.sw_dropped = c(
            "repro_sw_samples_dropped_total",
            "Overflows lost while the software handler was busy",
        )
        self.marks = c(
            "repro_marks_total", "Marking-function calls (two per data-item)"
        )
        # -- durable recording / crash recovery --------------------------
        self.segments_sealed = c(
            "repro_durable_segments_sealed_total",
            "Journal segments durably sealed (fsync'd journal commit)",
        )
        self.journal_fsyncs = c(
            "repro_durable_journal_fsyncs_total",
            "fsync calls issued on the recording journal",
        )
        self.journal_bytes = c(
            "repro_durable_journal_bytes_total",
            "Bytes written to journal segments and the journal log",
        )
        self.checkpoints = c(
            "repro_durable_checkpoints_total",
            "Periodic watchdog checkpoints sealed during capture",
        )
        self.recover_runs = c(
            "repro_recover_runs_total", "Journal replay (recovery) invocations"
        )
        self.segments_recovered = c(
            "repro_recover_segments_total",
            "Sealed segments salvaged into a container by recovery",
        )
        self.segments_lost = c(
            "repro_recover_segments_lost_total",
            "Journal segments lost (damaged sealed or never sealed)",
        )
        self.samples_recovered = c(
            "repro_recover_samples_total", "Samples salvaged by journal replay"
        )
        # -- overload handling (capture-side graceful degradation) --------
        self.overflow_drops = c(
            "repro_overload_samples_shed_total",
            "Samples shed by bounded capture buffers under overload",
        )
        self.r_adjustments = c(
            "repro_overload_r_adjustments_total",
            "Adaptive reset-value changes (raise under overflow, restore)",
        )
        self.online_decisions_dropped = c(
            "repro_online_decisions_dropped_total",
            "Oldest online verdicts evicted by the bounded verdict log",
        )
        # -- ingestion service (daemon + multi-run store) -----------------
        self.svc_queue_depth = g(
            "repro_service_queue_depth",
            "Segments currently waiting on the daemon's admission queue",
        )
        self.svc_queue_capacity = g(
            "repro_service_queue_capacity",
            "Admission queue capacity of the running daemon",
        )
        self.svc_connections = g(
            "repro_service_connections", "Open producer connections"
        )
        self.svc_credits_outstanding = g(
            "repro_service_credits_outstanding",
            "Sum of unspent credits across producer windows",
        )
        self.svc_segments_admitted = c(
            "repro_service_segments_admitted_total",
            "Segments durably sealed into run journals by the daemon",
        )
        self.svc_segments_deduped = c(
            "repro_service_segments_deduped_total",
            "Idempotent duplicate segments (resends after a lost ACK)",
        )
        self.svc_runs_committed = c(
            "repro_service_runs_committed_total",
            "Runs compacted and committed to the store catalog",
        )
        self.svc_runs_quarantined = c(
            "repro_service_runs_quarantined_total",
            "Run journals compaction refused and moved to quarantine",
        )
        self.svc_compaction_lag = g(
            "repro_service_compaction_lag_runs",
            "Finished runs whose compaction has not committed yet",
        )
        self.svc_compaction_seconds = h(
            "repro_service_compaction_seconds",
            "Wall time of one run compaction (journal replay to commit)",
        )
        self.svc_protocol_errors = c(
            "repro_service_protocol_errors_total",
            "Connections dropped for malformed or corrupt frames",
        )
        self.svc_storage_errors = c(
            "repro_service_storage_errors_total",
            "Store writes that failed and degraded to a storage NACK",
        )
        # -- replication / scrub / retention -------------------------------
        self.svc_replica_lag = g(
            "repro_service_replica_lag_runs",
            "Committed runs not yet confirmed on the slowest follower",
        )
        self.svc_replicated_segments = c(
            "repro_service_replicated_segments_total",
            "Sealed segments shipped to follower stores",
        )
        self.svc_replicated_runs = c(
            "repro_service_replicated_runs_total",
            "Committed containers shipped to follower stores",
        )
        self.svc_replication_resends = c(
            "repro_service_replication_resends_total",
            "Replication frames resent after a retryable follower NACK",
        )
        self.svc_scrub_repairs = c(
            "repro_service_scrub_repairs_total",
            "Corrupt or missing follower segments/containers repaired "
            "by the anti-entropy scrub",
        )
        self.svc_auth_failures = c(
            "repro_service_auth_failures_total",
            "Connections refused for a bad or missing auth token",
        )
        self.svc_runs_retired = c(
            "repro_service_runs_retired_total",
            "Committed runs retired to cold-storage archives by retention",
        )
        self.svc_archived_bytes = c(
            "repro_service_archived_bytes_total",
            "Bytes written into cold-storage archive containers",
        )
        # -- online invariant checking / flight recorder ------------------
        self.anomaly_dropped = c(
            "repro_anomaly_events_dropped_total",
            "Anomaly events aged off the bounded AnomalyLog ring",
        )
        self.flight_incidents = c(
            "repro_flight_incidents_total",
            "Incident bundles sealed by the flight recorder",
        )

    # Per-core children resolve through the registry (get-or-create is a
    # locked dict hit — fine at per-shard and per-chunk frequency).
    def shard_samples(self, core: int):
        return self._registry.counter(
            "repro_ingest_shard_samples_total",
            "Samples integrated per core-shard",
            core=str(core),
        )

    def shard_chunks(self, core: int):
        return self._registry.counter(
            "repro_ingest_shard_chunks_total",
            "Chunks consumed per core-shard",
            core=str(core),
        )

    def sw_drop_reason(self, reason: str):
        return self._registry.counter(
            "repro_sw_samples_dropped_by_reason_total",
            "Software-sampler drops broken down by cause",
            reason=reason,
        )

    def svc_nacks(self, reason: str):
        return self._registry.counter(
            "repro_service_nacks_total",
            "Segments NACKed by the ingestion daemon, by reason",
            reason=reason,
        )

    def anomaly_events(self, kind: str):
        return self._registry.counter(
            "repro_anomaly_events_total",
            "Invariant violations observed online, by anomaly kind",
            kind=kind,
        )


_cached: PipelineInstruments | None = None
_cached_registry: MetricsRegistry | None = None


def pipeline() -> PipelineInstruments:
    """The instrument bundle for the active registry (cached per registry)."""
    global _cached, _cached_registry
    registry = get_registry()
    if registry is not _cached_registry:
        _cached = PipelineInstruments(registry)
        _cached_registry = registry
    return _cached  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Quarantine publication: one source for stderr text and exported counters


def publish_quarantine(
    log: QuarantineLog, registry: MetricsRegistry | None = None
) -> str:
    """Fold a quarantine log into counters; render the summary *from them*.

    When the active registry is enabled the counters land there (and in
    any subsequent ``--telemetry`` export); when telemetry is off the
    same code runs against a private throwaway registry, so the stderr
    text is byte-identical either way — and always equal to whatever a
    telemetry export would say.
    """
    reg = registry if registry is not None else get_registry()
    if not reg.enabled:
        reg = MetricsRegistry()
    samples_lost = reg.counter(
        "repro_quarantine_samples_lost_total", "Samples lost across all defects"
    )
    marks_lost = reg.counter(
        "repro_quarantine_marks_lost_total", "Switch marks lost across all defects"
    )
    by_kind: dict[str, float] = {}
    for d in log.defects:
        kc = reg.counter(
            "repro_quarantine_defects_total", "Defects survived, by kind", kind=d.kind
        )
        kc.inc()
        by_kind[d.kind] = kc.value
    samples_lost.inc(log.samples_lost)
    marks_lost.inc(log.marks_lost)
    n_defects = int(sum(by_kind.values())) if by_kind else 0
    if n_defects == 0:
        return "quarantine: no defects"
    lines = [
        f"quarantine: {n_defects} defect(s), "
        f"{int(samples_lost.value)} sample(s) and "
        f"{int(marks_lost.value)} switch mark(s) lost"
    ]
    lines.extend("  " + d.describe() for d in log.defects)
    return "\n".join(lines)
