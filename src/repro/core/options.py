"""One options object for every ingestion entry point.

Before this module existed, the same knobs travelled under three
spellings: ``ingest_trace(chunk_size=..., workers=...)`` in Python,
``--chunk-size --workers`` on the CLI, and ad-hoc subsets in ``repro
monitor`` and the benchmarks.  :class:`IngestOptions` is the
single canonical form: the facade (:mod:`repro.api`), the CLI (via
:meth:`IngestOptions.from_args`), :func:`repro.core.streaming.ingest_trace`
and the ingestion daemon (:mod:`repro.service`) all accept exactly this
object.  The per-call keyword shim on ``ingest_trace`` served its one
release and has been removed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.integrity import check_policy
from repro.errors import TraceError
from repro.obs.anomaly import AnomalyConfig

#: Default samples per chunk (~1.5 MB of raw columns at 24 B/sample).
DEFAULT_CHUNK_SIZE = 65536

#: Default raw PEBS record size for byte accounting (MachineSpec default).
DEFAULT_RECORD_BYTES = 240


@dataclass(frozen=True)
class IngestOptions:
    """How to stream a trace container: chunking, workers, fault policy.

    Every field has the default the pipeline has always used, so
    ``IngestOptions()`` is the plain sequential strict ingest.  The
    object is frozen; derive variants with :meth:`replace`.
    """

    #: Samples per chunk (bounded-memory re-slicing); None = file layout.
    chunk_size: int | None = DEFAULT_CHUNK_SIZE
    #: Core-shards integrated concurrently: 1 streams them one after
    #: another in the calling thread, N > 1 on N threads sharing one
    #: open container.
    workers: int = 1
    #: Corruption policy: "strict" raises, "quarantine" drops chunks,
    #: "repair" drops only the offending records.
    on_corruption: str = "strict"
    #: Seconds before a parallel core-shard is declared hung (None = never).
    shard_timeout: float | None = None
    #: Re-attempts for timed-out or crashed shards.
    max_retries: int = 2
    #: First retry round's backoff (doubles per round).
    retry_backoff_s: float = 0.05
    #: Raw PEBS record size used for byte accounting.
    record_bytes: int = DEFAULT_RECORD_BYTES
    #: Online invariant checking (off by default: zero-cost when disabled).
    anomaly: AnomalyConfig = AnomalyConfig()

    def __post_init__(self) -> None:
        if self.chunk_size is not None and self.chunk_size < 1:
            raise TraceError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.workers < 1:
            raise TraceError(f"workers must be >= 1, got {self.workers}")
        check_policy(self.on_corruption)
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise TraceError(f"shard_timeout must be > 0, got {self.shard_timeout}")
        if self.max_retries < 0:
            raise TraceError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff_s < 0:
            raise TraceError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )
        if self.record_bytes < 1:
            raise TraceError(f"record_bytes must be >= 1, got {self.record_bytes}")
        if not isinstance(self.anomaly, AnomalyConfig):
            raise TraceError(
                f"anomaly must be an AnomalyConfig, got {type(self.anomaly).__name__}"
            )

    def replace(self, **changes) -> "IngestOptions":
        """A copy with the given fields changed (validated again)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_args(cls, args) -> "IngestOptions":
        """Build from an argparse namespace (CLI flag spellings).

        Commands that only expose a subset of the flags (``repro
        monitor``) fall back to the field defaults for the rest, so every
        CLI entry point funnels through the same validation.
        """
        defaults = cls()
        return cls(
            chunk_size=getattr(args, "chunk_size", defaults.chunk_size),
            workers=getattr(args, "workers", defaults.workers),
            on_corruption=getattr(args, "on_corruption", defaults.on_corruption),
            shard_timeout=getattr(args, "shard_timeout", defaults.shard_timeout),
            max_retries=getattr(args, "max_retries", defaults.max_retries),
            anomaly=AnomalyConfig.from_args(args),
        )
