"""The supported Python surface of the tracer, in eleven verbs.

::

    import repro.api as repro

    session = repro.record("acl", out="run.npz", items=60)   # trace a workload
    tf      = repro.load("run.npz")                          # open a container
    result  = repro.integrate("run.npz")                     # stream-integrate
    report  = repro.diagnose("run.npz")                      # find outlier items
    why     = repro.explain("run.npz", 17)                   # blocked-by chain
    delta   = repro.diff("base.npz", "regressed.npz")        # localize a regression
    rec     = repro.recover("run.npz")                       # replay a crash journal
    rep     = repro.push("run.npz", "run-1", "unix:/s")      # ship to the daemon
    store   = repro.open_store("traces/")                    # the multi-run store
    srpt    = repro.sync("primary/", "follower/")            # anti-entropy scrub
    rrpt    = repro.retire("traces/", max_runs=100)          # retention/compaction

Everything here is a thin, *stable* wrapper over the engine modules
(:mod:`repro.session`, :mod:`repro.core.streaming`,
:mod:`repro.analysis.diagnose`, :mod:`repro.analysis.differential`).
The deep modules remain importable by their full paths for unusual
assemblies.

Ingestion knobs travel in one :class:`IngestOptions` object everywhere.
"""

from __future__ import annotations

import contextlib
import dataclasses
import pathlib
from typing import Callable, Hashable, Mapping

from repro.analysis import depgraph
from repro.analysis.diagnose import (
    DiagnosisReport,
    ItemVerdict,
    StreamingDiagnoser,
    diagnose_trace,
)
from repro.analysis.differential import DiffReport, diff_traces
from repro.core.durable import RecoveryReport
from repro.core.durable import recover as _recover_journal
from repro.core.hybrid import HybridTrace
from repro.core.integrity import degraded_items_for_span
from repro.core.options import IngestOptions
from repro.core.streaming import IngestResult, ingest_trace
from repro.core.tracefile import TraceFile, TraceReader, load_trace
from repro.errors import ReproError
from repro.machine.events import resolve_event
from repro.machine.overload import OverloadPolicy
from repro.obs.anomaly import AnomalyConfig, AnomalyEvent, AnomalyLog
from repro.session import TraceSession
from repro.session import trace as _run_trace
from repro.workloads import build_workload

__all__ = [
    "AnomalyConfig",
    "AnomalyEvent",
    "AnomalyLog",
    "IngestOptions",
    "OverloadPolicy",
    "record",
    "load",
    "integrate",
    "diagnose",
    "explain",
    "diff",
    "recover",
    "open_store",
    "push",
    "sync",
    "retire",
]


def record(
    workload,
    *,
    out: str | pathlib.Path | None = None,
    items: int = 60,
    full_rules: bool = False,
    seed: int | None = None,
    reset_value: int = 8000,
    event="uops",
    sample_cores: list[int] | None = None,
    double_buffered: bool = False,
    groups: Mapping[int, Hashable] | None = None,
    chunk_size: int | None = None,
    compress: bool = True,
    checksums: bool = True,
    meta: dict | None = None,
    durable: bool = False,
    checkpoint_every_marks: int = 256,
    overload: OverloadPolicy | None = None,
    anomaly: AnomalyConfig | None = None,
    flight_dir: str | pathlib.Path | None = None,
    flight_capacity: int = 16,
) -> TraceSession:
    """Run a workload under the hybrid tracer; optionally save the trace.

    ``workload`` is a registered name (``"sampleapp"``, ``"nginx"``,
    ``"acl"``, ``"dbpool"`` — see :func:`repro.workloads.build_workload`)
    or any app object following the
    :class:`~repro.session.TraceableApp` convention.  ``event`` accepts
    an :class:`~repro.machine.events.HWEvent` or a short alias like
    ``"uops"``.

    When ``out`` is given the trace container is written with metadata
    the offline verbs understand: the workload name, ``reset_value``,
    the event, and the item → similarity-group map that
    :func:`diagnose` baselines within (from the named workload's
    definition, or ``groups=`` for custom apps).

    ``seed`` threads one :class:`numpy.random.Generator` seed through a
    *named* workload's randomness (see
    :func:`repro.workloads.build_workload`), making the run
    bit-reproducible; it is recorded in the container metadata.  It is
    ignored for pre-built app objects, whose randomness was already
    drawn at construction.

    ``durable=True`` records through the crash-safe journal
    (:class:`~repro.core.durable.DurableTraceWriter`, checkpointed every
    ``checkpoint_every_marks`` switch marks): a kill at any instant
    leaves a journal :func:`recover` turns into a valid container.
    Requires ``out``.  ``overload`` opts into overload-graceful capture
    (see :class:`~repro.machine.overload.OverloadPolicy`).

    ``anomaly`` (an enabled :class:`~repro.obs.anomaly.AnomalyConfig`)
    turns on the online invariant checkers; violations land on
    ``session.anomalies``.  ``flight_dir`` additionally arms the flight
    recorder: recent capture checkpoints ride a bounded in-memory ring
    of ``flight_capacity`` segments, and an anomaly at or above
    ``anomaly.trigger_severity`` seals it into a tagged incident bundle
    under ``flight_dir`` (``session.flight.incidents``) that
    :func:`diagnose` and :func:`push` consume like any container.
    """
    hw_event = resolve_event(event)
    if durable and out is None:
        raise ReproError("durable=True needs out= (the container to journal)")
    if flight_dir is not None and (anomaly is None or not anomaly.enabled):
        raise ReproError(
            "flight_dir needs an enabled anomaly config (nothing would "
            "trigger the recorder)"
        )
    if isinstance(workload, str):
        app, wl_groups = build_workload(
            workload, items=items, full_rules=full_rules, seed=seed
        )
        name = workload
    else:
        app, wl_groups = workload, dict(groups or {})
        name = type(workload).__name__
    if groups is not None:
        wl_groups = dict(groups)
    full_meta = {
        "workload": name,
        "reset_value": reset_value,
        "event": event if isinstance(event, str) else hw_event.value,
        "groups": {str(k): str(v) for k, v in wl_groups.items()},
    }
    if seed is not None:
        full_meta["seed"] = int(seed)
    if meta:
        full_meta.update(meta)
    session = _run_trace(
        app,
        sample_cores=sample_cores,
        reset_value=reset_value,
        event=hw_event,
        double_buffered=double_buffered,
        overload=overload,
        durable_out=out if durable else None,
        checkpoint_every_marks=checkpoint_every_marks,
        durable_meta=full_meta if durable else None,
        anomaly=anomaly,
        flight_dir=flight_dir,
        flight_capacity=flight_capacity,
    )
    if out is not None and not durable:
        session.save(
            out,
            meta=full_meta,
            chunk_size=chunk_size,
            compress=compress,
            checksums=checksums,
        )
    return session


def load(path: str | pathlib.Path) -> TraceFile:
    """Open a trace container whole (symbols, samples, switches, meta)."""
    return load_trace(path)


def integrate(
    path: str | pathlib.Path,
    options: IngestOptions | None = None,
    *,
    cores: list[int] | None = None,
    diagnoser=None,
) -> IngestResult:
    """Stream-integrate a container into per-core + merged traces."""
    if not isinstance(path, (str, pathlib.Path)):
        raise ReproError(
            f"cannot integrate a {type(path).__name__}; pass a container path"
        )
    return ingest_trace(
        path,
        options=options if options is not None else IngestOptions(),
        cores=cores,
        diagnoser=diagnoser,
    )


# ---------------------------------------------------------------------------
# Source plumbing shared by diagnose()/diff()
#
# A verb opens each container path once: whole with load_trace() on the
# one-shot path, or as one TraceReader that serves the header, the core
# pick and the streamed ingest itself.  The helpers below read what they
# need from that open source.


def _meta_of(source) -> dict:
    if isinstance(source, (TraceFile, TraceReader)):
        return source.meta
    return {}


def _pick_core(source, requested: int | None) -> int | None:
    """Default core: the one with the most switch records (the worker)."""
    if requested is not None:
        return requested
    if isinstance(source, TraceReader):
        return max(source.sample_cores, key=source.n_switch_records)
    if isinstance(source, TraceFile):
        return max(source.sample_cores, key=lambda c: len(source.switches(c)))
    return None


def recorded_grouping(
    meta: dict,
) -> tuple[Callable[[int], Hashable] | None, int | None]:
    """(group_of, reset_value) recorded in a container's metadata — what
    :func:`diagnose` judges items by unless told otherwise.  Either is
    ``None`` when the container did not record it."""
    raw = meta.get("groups") or {}
    groups = {int(k): v for k, v in raw.items()}
    rv = meta.get("reset_value")
    return (
        (lambda i: groups.get(i, "?")) if groups else None,
        int(rv) if rv is not None else None,
    )


def _degraded_items(trace: HybridTrace, meta: dict, core: int | None) -> set[int]:
    """Item ids whose windows overlap capture losses recorded in ``meta``.

    Two metadata blocks describe lost sample data: ``capture.shed_spans``
    (overload shedding during the run) and ``recovery.lost_spans``
    (segments a crash recovery could not salvage).  Both are per-core
    ``[lo, hi]`` timestamp spans with ``None`` meaning unbounded.
    """
    spans: list[tuple[int | None, int | None]] = []
    for block, key in (("capture", "shed_spans"), ("recovery", "lost_spans")):
        per_core = (meta.get(block) or {}).get(key) or {}
        for c, pairs in per_core.items():
            if core is not None and int(c) != int(core):
                continue
            spans.extend((lo, hi) for lo, hi in pairs)
    if not spans:
        return set()
    windows = trace.window_columns
    items: set[int] = set()
    for lo, hi in spans:
        items.update(degraded_items_for_span(windows, lo, hi))
    return items


def _waits_of(source) -> dict:
    """Recorded wait edges of a container keyed by core — ``{}`` when the
    source predates the optional wait member (v1/v2 containers, journal
    recoveries, in-memory traces).  Never an error."""
    if isinstance(source, TraceReader):
        return {c: source.wait_columns(c) for c in source.wait_cores}
    if isinstance(source, TraceFile):
        return {c: source.waits(c) for c in source.wait_cores}
    return {}


def _attach_blocked_by(
    report: DiagnosisReport, trace: HybridTrace, waits_by_core: dict, core: int | None
) -> DiagnosisReport:
    """Attach waiting-dependency chains to every verdict with one.

    A chain is computed over the item's window hull on the analysis
    core, following blockers across cores (the convoy's upstream); items
    that never waited keep an empty ``blocked_by``.
    """
    if not waits_by_core or core is None:
        return report
    hulls = depgraph.item_hulls(trace.window_columns)
    span_of = {
        item: (lo, hi) for item, lo, hi in zip(*(a.tolist() for a in hulls))
    }
    verdicts = []
    changed = False
    for v in report.verdicts:
        span = span_of.get(v.item_id)
        if span is not None:
            chain = depgraph.blocked_by_chain(
                waits_by_core, core, span[0], span[1], symtab=trace.symtab
            )
            if chain:
                v = dataclasses.replace(
                    v, blocked_by=tuple(h.to_dict() for h in chain)
                )
                changed = True
        verdicts.append(v)
    if not changed:
        return report
    return dataclasses.replace(report, verdicts=tuple(verdicts))


def _item_waits_for(waits_by_core: dict, trace: HybridTrace, core: int | None):
    """Per-item wait-cycle totals of one run, or None without wait data."""
    if core is None:
        return None
    w = waits_by_core.get(core)
    if w is None or len(w) == 0:
        return None
    _ids, totals = depgraph.item_wait_cycles(w, trace.window_columns)
    return totals


def _one_shot_trace(source, core: int | None) -> HybridTrace:
    if isinstance(source, HybridTrace):
        return source
    if isinstance(source, TraceFile):
        use = core if core is not None else _pick_core(source, None)
        return source.integrate(use)
    raise ReproError(
        f"cannot diagnose a {type(source).__name__}; pass a path, a "
        "TraceFile, or a HybridTrace"
    )


def diagnose(
    source,
    *,
    group_of: Mapping[int, Hashable] | Callable[[int], Hashable] | None = None,
    core: int | None = None,
    stream: bool = False,
    options: IngestOptions | None = None,
    method: str = "mad",
    k_sigma: float = 3.5,
    min_ratio: float = 1.2,
    min_samples: int = 2,
    reset_value: int | None = None,
    on_verdict: Callable[[ItemVerdict], None] | None = None,
) -> DiagnosisReport:
    """Classify every data-item against its group baseline; name culprits.

    ``source`` is a container path, a loaded :class:`TraceFile`, or an
    already-integrated :class:`HybridTrace`.  The similarity grouping
    defaults to the ``groups`` map recorded in the container's metadata
    (see :func:`record`); without either, the whole trace is one group.
    ``reset_value`` likewise defaults to the recorded one.

    ``stream=True`` ingests the container chunk by chunk and emits
    verdicts *while streaming* through ``on_verdict`` (running
    baselines; see :class:`~repro.analysis.diagnose.StreamingDiagnoser`);
    the returned report is still computed from the finalized trace, so
    it is identical to the one-shot result on the same data.

    When the container records capture losses (samples shed under
    overload, spans a crash recovery could not salvage), the affected
    items come back with ``degraded=True`` instead of being silently
    misattributed from incomplete evidence.

    When the container carries the optional wait-edge member (see
    :mod:`repro.runtime.waitedge`), every verdict whose item waited gets
    a ``blocked_by`` chain — the waiting-dependency path from the item's
    core through the queue or lock to the function that held it up (see
    :func:`explain` for the one-item view).  Containers without the
    member yield empty chains, never an error.
    """
    with contextlib.ExitStack() as opened:
        if stream:
            if isinstance(source, HybridTrace):
                raise ReproError("stream=True needs a container path, not a trace")
            if not isinstance(source, (str, pathlib.Path)):
                raise ReproError("stream=True needs a container path")
            source = opened.enter_context(TraceReader(source))
        elif isinstance(source, (str, pathlib.Path)):
            source = load_trace(source)
        meta, waits = _meta_of(source), _waits_of(source)
        use_core = core if isinstance(source, HybridTrace) else _pick_core(source, core)
        recorded_groups, recorded_rv = recorded_grouping(meta)
        if group_of is None:
            group_of = recorded_groups
        if reset_value is None:
            reset_value = recorded_rv
        if stream:
            opts = options if options is not None else IngestOptions()
            sd = StreamingDiagnoser(
                group_of,
                k_sigma=k_sigma,
                min_ratio=min_ratio,
                reset_value=reset_value,
                record_bytes=opts.record_bytes,
                on_verdict=on_verdict,
            )
            result = ingest_trace(
                source, options=opts, cores=[use_core], diagnoser=sd
            )
            trace = result.per_core[use_core]
        else:
            trace = _one_shot_trace(source, use_core)
    report = diagnose_trace(
        trace,
        group_of,
        method=method,
        k_sigma=k_sigma,
        min_ratio=min_ratio,
        min_samples=min_samples,
        reset_value=reset_value,
        degraded_items=_degraded_items(trace, meta, use_core) or None,
    )
    return _attach_blocked_by(report, trace, waits, use_core)


def explain(
    source,
    item: int,
    *,
    core: int | None = None,
    group_of: Mapping[int, Hashable] | Callable[[int], Hashable] | None = None,
    method: str = "mad",
    k_sigma: float = 3.5,
    min_ratio: float = 1.2,
    min_samples: int = 2,
    reset_value: int | None = None,
) -> dict:
    """Why is this item slow?  One item's verdict plus blocked-by chain.

    Runs the same classification as :func:`diagnose` and returns a plain
    dict for item ``item``: the verdict fields, the function
    attributions (for outliers), the ``blocked_by`` waiting-dependency
    chain, and a human-readable ``why`` rendering of it.  The dict
    carries the versioned report envelope (``schema="explain"``), so it
    serializes directly.

    Items in containers without recorded wait edges come back with an
    empty chain and ``why`` saying so — never an error — which keeps the
    verb valid on v1/v2 containers and journal recoveries.
    """
    from repro.analysis.report import envelope

    item = int(item)
    report = diagnose(
        source,
        group_of=group_of,
        core=core,
        method=method,
        k_sigma=k_sigma,
        min_ratio=min_ratio,
        min_samples=min_samples,
        reset_value=reset_value,
    )
    verdict = next((v for v in report.verdicts if v.item_id == item), None)
    if verdict is None:
        known = sorted(v.item_id for v in report.verdicts)
        raise ReproError(
            f"item {item} has no windows in this trace "
            f"(items: {known[:10]}{'...' if len(known) > 10 else ''})"
        )
    chain = [dict(h) for h in verdict.blocked_by]
    hops = tuple(depgraph.WaitHop(**h) for h in chain)
    payload = {
        "item_id": verdict.item_id,
        "group": str(verdict.group),
        "total_cycles": verdict.total_cycles,
        "center_cycles": verdict.center_cycles,
        "deviation": verdict.deviation,
        "is_outlier": verdict.is_outlier,
        "excess_cycles": verdict.excess_cycles,
        "degraded": verdict.degraded,
        "attributions": [
            {
                "fn": a.fn_name,
                "excess_cycles": a.excess_cycles,
                "share": a.share,
                "n_samples": a.n_samples,
                "confidence": a.confidence,
            }
            for a in verdict.attributions
        ],
        "blocked_by": chain,
        "why": depgraph.describe_chain(hops),
    }
    return envelope(payload, kind="explain")


def recover(
    source,
    out: str | pathlib.Path | None = None,
    *,
    policy: str = "quarantine",
    salvage_unsealed: bool = False,
) -> RecoveryReport:
    """Replay a crashed capture's recording journal into a valid container.

    ``source`` is the journal directory a durable :func:`record` left
    behind (``<out>.journal``), or the container path whose journal
    sibling should be replayed; ``out`` defaults to the path the journal
    manifest recorded.  The default ``policy="quarantine"`` salvages
    every sealed segment that validates and reports the rest as
    :class:`~repro.core.integrity.Defect` records on the returned
    report's ``quarantine`` log; ``"strict"`` raises on any damage.
    ``salvage_unsealed`` additionally admits segments that were fully
    written but never committed to the journal.

    Replay is idempotent and the result loads cleanly under
    ``--on-corruption strict``; lost sample spans land in the
    container's ``recovery`` metadata so :func:`diagnose` flags the
    affected items as degraded.
    """
    return _recover_journal(
        source, out=out, policy=policy, salvage_unsealed=salvage_unsealed
    )


def diff(
    base,
    other,
    *,
    core: int | None = None,
    stream: bool = False,
    options: IngestOptions | None = None,
    min_samples: int = 2,
    include_unattributed: bool = True,
    reset_value: int | None = None,
    allow_degraded_baseline: bool = False,
    store: str | pathlib.Path | None = None,
) -> DiffReport:
    """Localize a regression between two runs of the same workload.

    Functions are ranked by per-item excess of ``other`` over ``base``
    (matched by name, so differing symbol tables are fine);
    ``report.top`` names the regression.  The analysis core defaults to
    the busiest core of ``base`` and is applied to both runs;
    ``reset_value`` defaults to the larger of the runs' recorded values
    (conservative for the confidence figures).

    Items whose windows overlap capture losses (shed spans, unrecovered
    journal spans, per the containers' metadata) discount every delta's
    confidence.  A baseline whose items are *all* degraded cannot anchor
    a comparison at all — missing samples read as "this function got
    cheaper", inverting the verdict — so it is refused with
    :class:`~repro.errors.ReproError` unless ``allow_degraded_baseline``
    is set.

    ``stream=True`` routes both runs through chunked
    :func:`~repro.core.streaming.ingest_trace` instead of whole-file
    loading; the traces — and therefore the report — are identical
    either way (streaming integration is bitwise-equal to one-shot).

    ``store`` resolves ``base``/``other`` as run ids in an ingestion
    store (see :func:`open_store`) instead of container paths.

    When both containers carry recorded wait edges, the report also
    splits the regression into contention vs code: ``report.cause`` is
    ``"contention"`` when the median item's growth is mostly wait cycles
    (queue backpressure, lock convoys), ``"code"`` when it is mostly
    function latency, and ``"none"`` when nothing regressed — or when
    either side lacks wait data to split with.
    """
    if store is not None:
        trace_store = open_store(store)
        base = trace_store.path_for(str(base))
        other = trace_store.path_for(str(other))
    with contextlib.ExitStack() as opened:
        if stream:
            if not all(isinstance(s, (str, pathlib.Path)) for s in (base, other)):
                raise ReproError("stream=True needs container paths")
            base = opened.enter_context(TraceReader(base))
            other = opened.enter_context(TraceReader(other))
        else:
            if isinstance(base, (str, pathlib.Path)):
                base = load_trace(base)
            if isinstance(other, (str, pathlib.Path)):
                other = load_trace(other)
        base_meta, other_meta = _meta_of(base), _meta_of(other)
        base_waits, other_waits = _waits_of(base), _waits_of(other)
        use_core = _pick_core(base, core)
        if stream:
            traces = []
            for reader in (base, other):
                result = ingest_trace(
                    reader,
                    options=options if options is not None else IngestOptions(),
                    cores=[use_core],
                )
                traces.append(result.per_core[use_core])
            base_trace, other_trace = traces
        else:
            base_trace = _one_shot_trace(base, use_core)
            other_trace = _one_shot_trace(other, use_core)
    if reset_value is None:
        values = [
            int(m["reset_value"])
            for m in (base_meta, other_meta)
            if m.get("reset_value") is not None
        ]
        reset_value = max(values) if values else None
    degraded_base = _degraded_items(base_trace, base_meta, use_core)
    degraded_other = _degraded_items(other_trace, other_meta, use_core)
    base_items = set(base_trace.window_columns.item_id.tolist())
    if base_items and degraded_base >= base_items and not allow_degraded_baseline:
        raise ReproError(
            "baseline capture is fully degraded: every one of its "
            f"{len(base_items)} item(s) overlaps shed or lost sample spans, "
            "so it cannot anchor a differential comparison (missing samples "
            "would read as the regression's opposite). Re-record the "
            "baseline, or pass allow_degraded_baseline=True "
            "(--allow-degraded-baseline) to force the comparison."
        )
    return diff_traces(
        base_trace,
        other_trace,
        min_samples=min_samples,
        include_unattributed=include_unattributed,
        reset_value=reset_value,
        degraded_base=degraded_base,
        degraded_other=degraded_other,
        base_item_waits=_item_waits_for(base_waits, base_trace, use_core),
        other_item_waits=_item_waits_for(other_waits, other_trace, use_core),
    )


def open_store(root: str | pathlib.Path):
    """Open (or create) a multi-run ingestion store.

    The store is what :func:`serve` compacts pushed runs into; committed
    runs are queryable by id — ``diff("good", "bad", store=root)``.
    Imported lazily so the one-shot pipeline stays asyncio-free.
    """
    from repro.service.store import TraceStore

    return TraceStore(root)


def push(
    source: str | pathlib.Path,
    run_id: str,
    addr: str,
    *,
    options: IngestOptions | None = None,
    token: bytes | None = None,
    seed: int | None = None,
):
    """Push a recording journal or finished container to an ingestion
    daemon at ``addr`` (``unix:<path>`` or ``host:port``); returns the
    :class:`~repro.service.client.PushReport`.  ``token`` answers the
    daemon's auth challenge; ``seed`` makes the shed backoff jitter
    deterministic."""
    from repro.service.client import push_journal

    return push_journal(source, run_id, addr, token=token, seed=seed, options=options)


def sync(
    src: str | pathlib.Path,
    dst: str | pathlib.Path,
    *,
    verify: bool = True,
    ledger: bool = True,
):
    """Anti-entropy scrub between two stores on one filesystem: diff the
    catalogs and per-segment crcs, repair ``dst`` from ``src`` (missing
    runs, corrupted or truncated containers, bad sealed segments).
    Returns the :class:`~repro.service.replica.SyncReport`; confirmed
    runs are recorded in ``src``'s replication ledger unless
    ``ledger=False``.  Imported lazily like :func:`open_store`."""
    from repro.service.replica import scrub_local

    return scrub_local(src, dst, verify=verify, ledger=ledger)


def retire(
    root: str | pathlib.Path,
    *,
    max_age_s: float | None = None,
    max_runs: int | None = None,
    max_total_bytes: int | None = None,
    quorum: int = 0,
    archive_dir: str | pathlib.Path | None = None,
    dry_run: bool = False,
):
    """Enforce a retention policy on a store: compact cold committed
    runs into one archived container and drop them from the catalog.
    A run below its replication ``quorum`` (ledger confirmations) is
    never retired, whatever the budgets say.  ``dry_run=True`` plans
    without touching the store.  Returns the
    :class:`~repro.service.retention.RetireReport`."""
    from repro.service.retention import RetentionPolicy, retire_runs
    from repro.service.store import TraceStore

    policy = RetentionPolicy(
        max_age_s=max_age_s,
        max_runs=max_runs,
        max_total_bytes=max_total_bytes,
        quorum=quorum,
        archive_dir=str(archive_dir) if archive_dir is not None else None,
    )
    return retire_runs(TraceStore(root), policy, dry_run=dry_run)
