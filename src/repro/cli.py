"""Command-line front-end: run traced workloads, analyse trace files.

The split mirrors the paper's prototype: an *online* part that runs the
instrumented workload and dumps raw samples + switch records to a file,
and an *offline* part that integrates, diagnoses, and renders — usable
on any machine, long after the run.

Usage::

    python -m repro.cli run --workload sampleapp --out trace.npz
    python -m repro.cli recover trace.npz
    python -m repro.cli info trace.npz
    python -m repro.cli report trace.npz --core 1 --diagnose
    python -m repro.cli diagnose trace.npz
    python -m repro.cli diff base.npz regressed.npz
    python -m repro.cli callgraph trace.npz --core 1

Run ``python -m repro.cli <command> --help`` for per-command options.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro.analysis.reporting import format_table
from repro.core.callgraph import guess_call_edges
from repro.core.integrity import POLICIES
from repro.core.options import IngestOptions
from repro.core.tracefile import load_trace, save_session
from repro.errors import ReproError, SignalInterrupt, TraceError
from repro.machine.events import EVENT_ALIASES as EVENTS
from repro.machine.overload import OverloadPolicy
from repro.session import trace as run_trace
from repro.signals import exit_status, raise_on_signals
from repro.workloads import WORKLOADS, build_workload

US = 3000.0  # cycles per microsecond at the default 3 GHz


def _build_workload(args):
    """Instantiate the requested workload; returns (app, group_map)."""
    return build_workload(
        args.workload,
        items=args.items,
        full_rules=args.full_rules,
        seed=args.seed,
    )


def cmd_run(args) -> int:
    from repro.obs.anomaly import AnomalyConfig

    app, groups = _build_workload(args)
    meta = {
        "workload": args.workload,
        "reset_value": args.reset_value,
        "event": args.event,
        "groups": {str(k): str(v) for k, v in groups.items()},
    }
    if args.seed is not None:
        meta["seed"] = args.seed
    overload = OverloadPolicy() if args.overload else None
    anomaly = AnomalyConfig.from_args(args)
    if args.flight_dir is not None and not anomaly.enabled:
        raise ReproError("--flight-dir needs --anomaly (nothing would trigger it)")
    # Durable runs trap SIGINT/SIGTERM: the signal unwinds into trace(),
    # which seals the tail and finalizes, so ^C costs nothing captured.
    # Non-durable runs keep the default disposition — there is nothing
    # on disk worth a graceful path.
    signal_scope = raise_on_signals() if args.durable else contextlib.nullcontext()
    with signal_scope:
        session = run_trace(
            app,
            reset_value=args.reset_value,
            event=EVENTS[args.event],
            double_buffered=args.double_buffered,
            overload=overload,
            durable_out=args.out if args.durable else None,
            checkpoint_every_marks=args.checkpoint_marks,
            durable_meta=meta if args.durable else None,
            anomaly=anomaly if anomaly.enabled else None,
            flight_dir=args.flight_dir,
            flight_capacity=args.flight_capacity,
        )
    if not args.durable:
        save_session(
            args.out,
            session,
            app.symtab,
            meta=meta,
            chunk_size=args.chunk_size,
            compress=not args.uncompressed,
            checksums=not args.no_checksums,
        )
    total = sum(u.sample_count for u in session.units.values())
    print(
        f"traced {args.workload}: {total} samples, "
        f"{session.tracer.calls} marking calls -> {args.out}"
    )
    if args.durable and session.watchdog is not None:
        print(
            f"durable: {session.watchdog.checkpoints} checkpoint(s), "
            f"{session.watchdog.writer.segments_sealed} segment(s) sealed"
        )
    if session.anomalies is not None and session.anomalies.total:
        counts = ", ".join(
            f"{k}: {v}" for k, v in sorted(session.anomalies.counts.items())
        )
        print(f"anomalies: {session.anomalies.total} ({counts})", file=sys.stderr)
    if session.flight is not None and session.flight.incidents:
        print(session.flight.describe(), file=sys.stderr)
    if session.degraded:
        shed = sum(u.shed_samples for u in session.units.values())
        errs = session.watchdog.write_errors if session.watchdog else []
        print(
            f"warning: capture degraded ({shed} sample(s) shed"
            + (f"; storage errors: {'; '.join(errs)}" if errs else "")
            + ") — switch marks are complete, diagnosis will flag "
            "affected items",
            file=sys.stderr,
        )
        if args.durable and session.recovery_report is None:
            print(
                f"warning: container not finalized; run "
                f"`repro recover {args.out}` to salvage the journal",
                file=sys.stderr,
            )
    if session.interrupted is not None:
        print(
            f"interrupted by signal {session.interrupted}; partial run "
            f"finalized to {args.out}",
            file=sys.stderr,
        )
        return 128 + session.interrupted
    return 0


def cmd_info(args) -> int:
    tf = load_trace(args.tracefile)
    rows = [["workload", tf.meta.get("workload", "?")]]
    rows.append(["event", tf.meta.get("event", "?")])
    rows.append(["reset value", tf.meta.get("reset_value", "?")])
    rows.append(["functions", len(tf.symtab)])
    for core in tf.sample_cores:
        rows.append([f"core {core} samples", len(tf.samples(core))])
        rows.append([f"core {core} switch records", len(tf.switches(core))])
    print(format_table(["field", "value"], rows, title=str(args.tracefile)))
    return 0


def _pick_core(tf, requested: int | None) -> int:
    if requested is not None:
        return requested
    # Default to the core with the most switch records (the worker).
    return max(tf.sample_cores, key=lambda c: len(tf.switches(c)))


def cmd_report(args) -> int:
    if args.stream and args.item is None:
        return _report_streamed(args)
    tf = load_trace(args.tracefile)
    core = _pick_core(tf, args.core)
    t = tf.integrate(core)
    if args.item is not None:
        from repro.analysis.timeline import render_item_timeline

        print(
            render_item_timeline(
                tf.samples(core), tf.switches(core), tf.symtab, args.item
            )
        )
        bd = t.breakdown(args.item)
        for fn, cy in sorted(bd.items(), key=lambda x: -x[1]):
            print(f"  {fn}: {cy / US:.2f} us")
        unattr = t.unattributed_cycles(args.item)
        if unattr:
            print(f"  (unattributed/stall): {unattr / US:.2f} us")
        return 0
    _print_breakdown_table(t, core)
    return _diagnose_block(t, tf.meta, args)


def _print_breakdown_table(t, core: int, degraded: set[int] | None = None) -> None:
    degraded = degraded or set()
    rows = []
    for item in t.items():
        bd = t.breakdown(item)
        total_us = t.item_window_cycles(item) / US
        top = ", ".join(
            f"{fn}={cy / US:.2f}us" for fn, cy in sorted(bd.items(), key=lambda x: -x[1])
        )
        label = f"{item}*" if item in degraded else str(item)
        rows.append([label, f"{total_us:.2f}", top or "(below sampling resolution)"])
    print(
        format_table(
            ["item", "total (us)", "per-function breakdown"],
            rows,
            title=f"core {core}: {len(rows)} data-items",
        )
    )
    if degraded:
        print("  * diagnosed from incomplete data (see coverage above)")


def _diagnose_block(t, meta: dict, args) -> int:
    """`report --diagnose`: the verdicts `repro diagnose` prints, judged
    by the groups and reset value the container recorded."""
    if not args.diagnose:
        return 0
    from repro import api

    group_of, reset_value = api.recorded_grouping(meta)
    report = api.diagnose(t, group_of=group_of, reset_value=reset_value)
    _note_if_ungrouped(report)
    print()
    print(report.describe())
    return 0


def _note_if_ungrouped(report) -> None:
    """Tell stderr when the trace had no groups to judge items within."""
    from repro.analysis.diagnose import WHOLE_TRACE

    if {b.group for b in report.baselines} == {WHOLE_TRACE}:
        print(
            "note: no group metadata in trace file; treating the whole "
            "trace as one similarity group",
            file=sys.stderr,
        )


def _report_streamed(args) -> int:
    """`report --stream`: chunked ingestion + the usual per-item table."""
    from repro import api
    from repro.analysis.diagnose import StreamingDiagnoser
    from repro.analysis.reporting import format_ingest_report
    from repro.core.streaming import ingest_trace
    from repro.core.tracefile import TraceReader

    # One open reader serves the diagnoser's groups and R, the report's
    # meta, the default core pick and the ingest itself.
    opts = IngestOptions.from_args(args)
    with TraceReader(args.tracefile) as reader:
        meta = reader.meta
        group_of, reset_value = api.recorded_grouping(meta)
        diag = StreamingDiagnoser(
            group_of, reset_value=reset_value, record_bytes=opts.record_bytes
        )
        result = ingest_trace(
            reader,
            options=opts,
            cores=[args.core] if args.core is not None else None,
            diagnoser=diag,
        )
        if args.core is not None:
            core = args.core
        else:
            core = max(result.per_core, key=reader.n_switch_records)
    if result.quarantine:
        from repro.obs.instrumented import publish_quarantine

        # Defect accounting goes to stderr: stdout stays parseable.  The
        # summary text is rendered from telemetry counters (fed to the
        # active registry when --telemetry is on), so the stderr text and
        # any exported quarantine metrics cannot disagree.
        print(publish_quarantine(result.quarantine), file=sys.stderr)
    print(format_ingest_report(result.stats, diag.summary(), result.coverage))
    print()
    t = result.per_core[core]
    cov = result.coverage.get(core)
    degraded = set(cov.degraded_items) if cov is not None else set()
    if cov is not None and cov.unknown_extent:
        degraded = set(t.items())
    _print_breakdown_table(t, core, degraded=degraded)
    return _diagnose_block(t, meta, args)


def cmd_diagnose(args) -> int:
    """`repro diagnose`: automated outlier classification + attribution."""
    from repro import api

    if args.why is not None:
        result = api.explain(
            args.tracefile,
            args.why,
            core=args.core,
            method=args.method,
            k_sigma=args.k_sigma,
            min_ratio=args.min_ratio,
            reset_value=args.reset_value,
        )
        if args.json:
            import json as _json

            print(_json.dumps(result, indent=2))
            return 0
        status = "OUTLIER" if result["is_outlier"] else "within band"
        print(
            f"item {result['item_id']} (group {result['group']}): "
            f"{result['total_cycles']:,} cy vs baseline "
            f"{result['center_cycles']:,.0f} cy "
            f"({result['deviation']:+.1f} band-widths) — {status}"
        )
        for a in result["attributions"][:5]:
            print(
                f"  {a['fn']}: +{a['excess_cycles']:,} cy "
                f"({a['share']:.0%} of excess)"
            )
        print(result["why"])
        return 0

    live = 0

    def _on_verdict(v) -> None:
        nonlocal live
        live += 1
        print(f"[online] {v.describe()}", file=sys.stderr)

    report = api.diagnose(
        args.tracefile,
        core=args.core,
        stream=args.stream,
        options=IngestOptions.from_args(args),
        method=args.method,
        k_sigma=args.k_sigma,
        min_ratio=args.min_ratio,
        reset_value=args.reset_value,
        on_verdict=_on_verdict if args.stream else None,
    )
    if args.stream and live:
        print(f"[online] {live} mid-stream verdict(s) above", file=sys.stderr)
    _note_if_ungrouped(report)
    if args.json:
        print(report.to_json())
    else:
        print(report.describe())
    return 0


def cmd_recover(args) -> int:
    """`repro recover`: replay a crashed capture's journal into a container."""
    from repro import api
    from repro.obs.instrumented import publish_quarantine

    report = api.recover(
        args.source,
        out=args.out,
        policy=args.on_corruption,
        salvage_unsealed=args.salvage_unsealed,
    )
    if report.quarantine.defects:
        print(publish_quarantine(report.quarantine), file=sys.stderr)
    print(report.describe())
    return 0


def cmd_diff(args) -> int:
    """`repro diff`: localize a regression between two runs."""
    from repro import api

    base, other = args.base, args.other
    if args.store:
        from repro.service.store import TraceStore

        store = TraceStore(args.store)
        base = store.path_for(base)
        other = store.path_for(other)
    report = api.diff(
        base,
        other,
        core=args.core,
        stream=args.stream,
        options=IngestOptions.from_args(args),
        min_samples=args.min_samples,
        reset_value=args.reset_value,
        allow_degraded_baseline=args.allow_degraded_baseline,
    )
    if report.n_degraded_base or report.n_degraded_other:
        print(
            f"warning: degraded capture — {report.n_degraded_base} baseline / "
            f"{report.n_degraded_other} other item(s) overlap shed or lost "
            "sample spans; confidences are discounted",
            file=sys.stderr,
        )
    if args.json:
        print(report.to_json())
        return 0
    rows = [
        [
            d.fn_name,
            f"{d.base_median_per_item / US:.2f}",
            f"{d.other_median_per_item / US:.2f}",
            f"{d.excess_per_item / US:+.2f}",
            f"{d.confidence:.2f}",
        ]
        for d in report.deltas
    ]
    print(
        format_table(
            ["function", "base (us/item)", "other (us/item)", "delta", "confidence"],
            rows,
            title=(
                f"per-item medians: {report.n_items_base} vs "
                f"{report.n_items_other} item(s)"
            ),
        )
    )
    top = report.top
    if top is None:
        print("\nno per-item regression found")
    else:
        print(
            f"\ntop excess-time contributor: {top.fn_name} "
            f"(+{top.excess_per_item / US:.2f} us/item, "
            f"confidence {top.confidence:.2f})"
        )
    if report.cause != "none":
        total_delta = report.other_median_total - report.base_median_total
        print(
            f"cause: {report.cause} "
            f"(wait {report.wait_excess_per_item / US:+.2f} of "
            f"{total_delta / US:+.2f} us/item growth)"
        )
    return 0


def cmd_serve(args) -> int:
    """`repro serve`: the fleet-scale trace ingestion daemon."""
    import asyncio

    from repro.obs.anomaly import AnomalyConfig
    from repro.service.daemon import DaemonConfig, IngestDaemon
    from repro.service.store import TraceStore

    auth_token = None
    if getattr(args, "auth_token_file", None):
        import pathlib

        auth_token = (
            pathlib.Path(args.auth_token_file).read_text().strip().encode("utf-8")
        )
    config = DaemonConfig(
        capacity=args.capacity,
        credits=args.credits,
        max_frame_bytes=args.max_frame_bytes,
        options=IngestOptions.from_args(args),
        anomaly=AnomalyConfig.from_args(args),
        auth_token=auth_token,
        replicate_to=tuple(args.replicate_to or ()),
        sync_interval_s=args.sync_interval,
        scrub_every=args.scrub_every,
    )
    store = TraceStore(args.store, options=config.options)
    if getattr(args, "replica_of", None):
        # Bootstrap/catch-up: adopt everything the primary store holds
        # before accepting connections, so a promoted or restarted
        # follower opens for business already converged.
        from repro.service.replica import scrub_local

        report = scrub_local(args.replica_of, args.store, ledger=False)
        print(
            f"caught up from {args.replica_of}: "
            f"{report.containers_shipped} container(s), "
            f"{report.segments_shipped} segment(s), "
            f"{report.containers_repaired + report.segments_pruned} repair(s)"
        )

    async def serve() -> int:
        daemon = IngestDaemon(store, config)
        actions = await daemon.start()
        for run, action in sorted(actions.items()):
            print(f"recovered {run}: {action}")
        if args.socket:
            await daemon.serve_unix(args.socket)
            where = f"unix:{args.socket}"
        else:
            await daemon.serve_tcp(args.host, args.port)
            where = f"{args.host}:{args.port}"
        print(f"ingest daemon listening on {where} (store: {store.root})")
        sys.stdout.flush()
        loop = asyncio.get_running_loop()
        stop: asyncio.Future = loop.create_future()

        def _graceful(signum: int) -> None:
            if not stop.done():
                stop.set_result(signum)

        import signal as _signal

        for signum in (_signal.SIGINT, _signal.SIGTERM):
            loop.add_signal_handler(signum, _graceful, signum)
        done, _ = await asyncio.wait(
            {stop, daemon.crashed}, return_when=asyncio.FIRST_COMPLETED
        )
        if daemon.crashed in done and daemon.crashed.exception() is not None:
            raise daemon.crashed.exception()
        signum = stop.result()
        print(
            f"signal {signum}: draining admitted segments and shutting down",
            file=sys.stderr,
        )
        await daemon.shutdown()
        return 0

    return asyncio.run(serve())


def cmd_push(args) -> int:
    """`repro push`: ship a journal or container to the daemon."""
    import pathlib

    from repro.service.client import push_journal

    run_id = args.run
    if run_id is None:
        p = pathlib.Path(args.source)
        run_id = p.stem if p.suffix else p.name
    token = args.token.encode("utf-8") if args.token else None
    if args.follow:
        import asyncio

        from repro.service.client import follow_journal

        if pathlib.Path(args.source).is_file():
            raise ReproError(
                "--follow tails a live journal directory, not a finished "
                "container"
            )

        async def tail():
            import signal as _signal

            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for signum in (_signal.SIGINT, _signal.SIGTERM):
                loop.add_signal_handler(signum, stop.set)
            return await follow_journal(
                args.source,
                run_id,
                addr=args.addr,
                stop=stop,
                token=token,
                seed=args.seed,
                reply_timeout=args.timeout,
            )

        report = asyncio.run(tail())
        if not report.committed:
            print(
                f"tail of {report.run} stopped before the capture finalized: "
                f"{report.acked} segment(s) durable on the daemon, run left "
                "open for resume",
                file=sys.stderr,
            )
    else:
        report = push_journal(
            args.source,
            run_id,
            args.addr,
            options=IngestOptions.from_args(args),
            reply_timeout=args.timeout,
            token=token,
            seed=args.seed,
        )
    if report.already_committed:
        print(f"run {report.run} already committed")
    else:
        print(
            f"pushed {report.run}: {report.sent} segment(s) sent "
            f"({report.skipped} skipped, {report.acked} acked, "
            f"{report.resent} resent, {report.credit_stalls} credit "
            f"stall(s))"
        )
    if report.nacked:
        sheds = ", ".join(f"{k}: {v}" for k, v in sorted(report.nacked.items()))
        print(f"backpressure: {sheds}", file=sys.stderr)
    if report.committed_path:
        print(f"committed -> {report.committed_path}")
    return 0 if report.committed else EXIT_TRACE_ERROR


def cmd_runs(args) -> int:
    """`repro runs`: what the store holds (committed, open, quarantined)."""
    from repro.service.store import TraceStore

    store = TraceStore(args.store)
    if args.json:
        import json as _json

        # Stable machine-readable schema: one record per committed run
        # with exactly these keys (pinned by an integration test).
        records = [
            {
                "run": run_id,
                "segments": entry.get("segments"),
                "bytes": entry.get("bytes"),
                "committed_at": entry.get("committed_at"),
                "interrupted": bool(entry.get("interrupted", False)),
            }
            for run_id, entry in store.catalog().items()
        ]
        from repro.analysis.report import envelope

        print(
            _json.dumps(
                envelope({"store": str(store.root), "runs": records}, kind="runs"),
                indent=2,
            )
        )
        return 0
    rows = []
    for run_id, entry in store.catalog().items():
        rows.append(
            [
                run_id,
                "committed",
                str(entry.get("segments", "?")),
                str(entry.get("samples", "?")),
                entry.get("file", "?"),
            ]
        )
    backlog = set(store.compaction_backlog())
    for run_id in store.open_runs():
        state = "finished (compaction pending)" if run_id in backlog else "open"
        rows.append([run_id, state, "-", "-", "-"])
    qdir = store.root / "quarantine"
    n_quarantined = sum(1 for _ in qdir.glob("*.reason")) if qdir.is_dir() else 0
    if not rows:
        print(f"store {store.root}: no runs")
    else:
        print(
            format_table(
                ["run", "state", "segments", "samples", "container"],
                rows,
                title=f"store {store.root}",
            )
        )
    if n_quarantined:
        print(
            f"\n{n_quarantined} quarantined item(s) in {qdir} — inspect "
            "the .reason files",
            file=sys.stderr,
        )
    return 0


def cmd_sync(args) -> int:
    """`repro sync`: anti-entropy scrub between two stores on disk."""
    import json as _json

    from repro.service.replica import scrub_local

    report = scrub_local(
        args.src,
        args.dst,
        verify=not args.no_verify,
        ledger=not args.no_ledger,
    )
    if args.json:
        from repro.analysis.report import envelope

        print(_json.dumps(envelope(report.to_dict(), kind="sync"), indent=2))
        return 0
    repairs = report.containers_repaired + report.segments_pruned
    print(
        f"synced {args.src} -> {args.dst}: {report.runs} run(s) walked, "
        f"{report.confirmed} confirmed, {report.containers_shipped} "
        f"container(s) shipped, {report.segments_shipped} segment(s) "
        f"shipped, {repairs} repair(s)"
    )
    return 0


def cmd_retire(args) -> int:
    """`repro retire`: enforce retention; archive + drop cold runs."""
    import json as _json

    from repro.service.retention import RetentionPolicy, retire_runs
    from repro.service.store import TraceStore

    policy = RetentionPolicy(
        max_age_s=args.max_age_s,
        max_runs=args.max_runs,
        max_total_bytes=args.max_total_bytes,
        quorum=args.quorum,
        archive_dir=args.archive_dir,
    )
    report = retire_runs(
        TraceStore(args.store), policy, dry_run=args.dry_run
    )
    if args.json:
        from repro.analysis.report import envelope

        print(_json.dumps(envelope(report.to_dict(), kind="retire"), indent=2))
        return 0
    verb = "would retire" if report.dry_run else "retired"
    print(
        f"store {args.store}: {verb} {len(report.retired)} run(s)"
        + (f" -> {report.archive}" if report.archive else "")
    )
    for run_id, why in sorted(report.blocked.items()):
        print(f"kept {run_id}: {why} (replication quorum)", file=sys.stderr)
    if report.swept:
        print(
            f"swept {len(report.swept)} orphan dir(s) from a crashed pass",
            file=sys.stderr,
        )
    return 0


def cmd_verify_attribution(args) -> int:
    """`repro verify-attribution`: score the diagnoser on a known-cause grid."""
    import json as _json
    import pathlib

    from repro.testing.matrix import compare_scorecards, run_matrix

    scorecard = run_matrix(grid=args.grid, seed=args.seed)
    print(scorecard.describe())
    if args.json:
        from repro.analysis.report import render_json

        # Envelope at file-write time: Scorecard.to_json itself stays the
        # bare stable dict (its round-trip is pinned by the matrix tests).
        pathlib.Path(args.json).write_text(
            render_json(scorecard.to_stable_dict(), kind="attribution") + "\n"
        )
        print(f"scorecard written to {args.json}")
    failed = False
    if scorecard.hit_rate < args.min_hit_rate:
        print(
            f"FAIL: hit rate {scorecard.hit_rate:.0%} below required "
            f"{args.min_hit_rate:.0%}",
            file=sys.stderr,
        )
        failed = True
    if args.golden:
        golden = _json.loads(pathlib.Path(args.golden).read_text())
        problems = compare_scorecards(scorecard.to_stable_dict(), golden)
        if problems:
            print(
                f"FAIL: scorecard diverges from golden {args.golden}:",
                file=sys.stderr,
            )
            for p in problems:
                print(f"  {p}", file=sys.stderr)
            print(
                "  (if the change is intentional, regenerate with "
                f"`repro verify-attribution --json {args.golden}`)",
                file=sys.stderr,
            )
            failed = True
        else:
            print(f"scorecard matches golden {args.golden}")
    return EXIT_REPRO_ERROR if failed else 0


def cmd_profile(args) -> int:
    tf = load_trace(args.tracefile)
    core = _pick_core(tf, args.core)
    from repro.core.profilelib import build_profile
    from repro.core.records import build_windows

    samples = tf.samples(core)
    windows = build_windows(tf.switches(core))
    total = int(samples.ts[-1] - samples.ts[0]) if len(samples) > 1 else 0
    prof = build_profile(samples, tf.symtab, total)
    rows = [
        [r.name, str(r.n_samples), f"{r.est_cycles / US:.1f}", f"{100 * r.fraction:.1f}%"]
        for r in prof
    ]
    print(
        format_table(
            ["function", "samples", "est total (us)", "share"],
            rows,
            title=(
                f"core {core} profile over {len(windows)} items — averaged: "
                "cannot show per-item fluctuations (use `report` for those)"
            ),
        )
    )
    return 0


def cmd_export(args) -> int:
    tf = load_trace(args.tracefile)
    if args.format == "chrome":
        from repro.analysis.export import write_chrome_trace

        traces = {c: tf.integrate(c) for c in tf.sample_cores}
        samples = (
            {c: tf.samples(c) for c in tf.sample_cores} if args.samples else None
        )
        write_chrome_trace(args.out, traces, samples)
        print(f"wrote {args.out} — load it in chrome://tracing or Perfetto")
    else:  # csv
        from repro.analysis.export import to_csv

        core = _pick_core(tf, args.core)
        with open(args.out, "w") as fh:
            fh.write(to_csv(tf.integrate(core)))
        print(f"wrote {args.out}")
    return 0


def cmd_monitor(args) -> int:
    import pathlib

    from repro.obs.monitor import run_monitor

    # Fail fast, before a dashboard thread spins up: a missing or
    # unreadable trace file is an invocation problem (exit 2), not a
    # trace-data problem (exit 3).
    path = pathlib.Path(args.tracefile)
    if not path.is_file():
        raise ReproError(f"cannot monitor {path}: no such trace file")
    try:
        with open(path, "rb"):
            pass
    except OSError as exc:
        raise ReproError(f"cannot monitor {path}: {exc}")
    return run_monitor(args.tracefile, args)


def cmd_fleet(args) -> int:
    """`repro fleet`: health rollup of every committed run in a store."""
    from repro.obs.heatmap import fleet_rollup, render_fleet
    from repro.service.store import TraceStore

    store = TraceStore(args.store)
    rows = fleet_rollup(store)
    if args.json:
        import json as _json

        from repro.analysis.report import envelope

        print(
            _json.dumps(
                envelope({"store": str(store.root), "runs": rows}, kind="fleet"),
                indent=2,
            )
        )
        return 0
    print(render_fleet(rows, title=f"fleet rollup: {store.root}"))
    flagged = [r for r in rows if r.get("incident") or r.get("anomalies")]
    if flagged:
        print(
            f"\n{len(flagged)} run(s) with anomalies or incidents — "
            "inspect with `repro monitor <container>`",
            file=sys.stderr,
        )
    return 0


def cmd_callgraph(args) -> int:
    tf = load_trace(args.tracefile)
    core = _pick_core(tf, args.core)
    guess = guess_call_edges(tf.samples(core), tf.switches(core), tf.symtab)
    if args.dot:
        print(guess.dot())
    else:
        rows = [
            [g.caller, g.callee, str(g.occurrences)] for g in guess.as_list()
        ]
        print(
            format_table(
                ["caller (guessed)", "callee", "occurrences"],
                rows,
                title="call edges guessed from sample order (Section V-B2 — "
                "guesses, not ground truth)",
            )
        )
    return 0


#: Exit-code contract, shown in `repro report --help` and the README.
EXIT_CODE_EPILOG = """\
exit codes:
  0  success
  2  usage or package error (bad invocation, unknown workload, ...)
  3  trace-data error (corruption, malformed records, failed shards)
"""


def _add_ingest_args(
    p: argparse.ArgumentParser, *, default_policy: str = "strict"
) -> None:
    """The streaming-ingestion flags, one spelling for every command.

    Defaults come from :class:`~repro.core.options.IngestOptions`, and
    ``IngestOptions.from_args`` turns the parsed namespace back into the
    dataclass — flag names and Python parameter names cannot drift.
    """
    d = IngestOptions()
    p.add_argument(
        "--chunk-size",
        type=int,
        default=d.chunk_size,
        help="stream: samples per chunk",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=d.workers,
        help="stream: integrate core-shards with this many workers",
    )
    p.add_argument(
        "--on-corruption",
        choices=list(POLICIES),
        default=default_policy,
        help=(
            "stream: what a failed integrity check does — strict raises, "
            "quarantine skips the damaged chunk, repair drops only the "
            "offending records (coverage is reported either way)"
        ),
    )
    p.add_argument(
        "--shard-timeout",
        type=float,
        default=d.shard_timeout,
        help="stream: seconds before a parallel core-shard is declared hung",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=d.max_retries,
        help="stream: retries for timed-out or crashed shards",
    )


def _add_anomaly_args(p: argparse.ArgumentParser) -> None:
    """Online invariant-checker flags (mirrors AnomalyConfig.from_args)."""
    p.add_argument(
        "--anomaly",
        action="store_true",
        help="enable the online invariant checkers (off by default: zero cost)",
    )
    p.add_argument(
        "--anomaly-checkers",
        default=None,
        metavar="KINDS",
        help=(
            "comma-separated checker kinds to run (default: all; see "
            "`repro.obs.anomaly.ALL_KINDS`)"
        ),
    )
    p.add_argument(
        "--anomaly-log-capacity",
        type=int,
        default=None,
        help="ring capacity of the anomaly event log (default 256)",
    )
    p.add_argument(
        "--anomaly-severity",
        default=None,
        choices=["info", "warning", "critical"],
        help="flight-recorder trigger severity (default critical)",
    )


def _add_telemetry_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="write the tracer's own metrics here (.json, or Prometheus text)",
    )
    p.add_argument(
        "--trace-spans",
        metavar="PATH",
        default=None,
        help="write a Chrome trace of the tracer's own pipeline stages (.json)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a traced workload, write a trace file")
    p_run.add_argument("--workload", choices=list(WORKLOADS), required=True)
    p_run.add_argument("--out", required=True, help="output trace file (.npz)")
    p_run.add_argument("--reset-value", type=int, default=8000)
    p_run.add_argument("--event", choices=sorted(EVENTS), default="uops")
    p_run.add_argument("--items", type=int, default=60, help="workload size")
    p_run.add_argument(
        "--seed",
        type=int,
        default=None,
        help=(
            "seed the workload's randomness (one numpy Generator threads "
            "through it) for a bit-reproducible run; recorded in metadata"
        ),
    )
    p_run.add_argument("--full-rules", action="store_true", help="ACL: the 50k-rule Table III set")
    p_run.add_argument("--double-buffered", action="store_true")
    p_run.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="write the v2 chunked layout with this many samples per chunk",
    )
    p_run.add_argument(
        "--uncompressed",
        action="store_true",
        help="store raw (no zlib) — for ingest-rate experiments",
    )
    p_run.add_argument(
        "--no-checksums",
        action="store_true",
        help="omit the v3 per-chunk CRCs (bit rot then goes undetected)",
    )
    p_run.add_argument(
        "--durable",
        action="store_true",
        help=(
            "record through the crash-safe journal: a kill at any instant "
            "leaves a journal `repro recover` turns into a valid container"
        ),
    )
    p_run.add_argument(
        "--checkpoint-marks",
        type=int,
        default=256,
        help="durable: seal a checkpoint every N switch marks",
    )
    p_run.add_argument(
        "--overload",
        action="store_true",
        help=(
            "overload-graceful capture: shed samples instead of stalling "
            "on PEBS buffer overrun, adaptive reset-value backoff"
        ),
    )
    _add_anomaly_args(p_run)
    p_run.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help=(
            "arm the flight recorder: recent capture checkpoints ride a "
            "bounded in-memory ring, and an anomaly at or above "
            "--anomaly-severity seals it into a tagged incident bundle "
            "here (requires --anomaly)"
        ),
    )
    p_run.add_argument(
        "--flight-capacity",
        type=int,
        default=16,
        help="flight ring capacity in sealed segments (default 16)",
    )
    _add_telemetry_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_rec = sub.add_parser(
        "recover",
        help="replay a crashed capture's journal into a valid trace file",
        epilog=EXIT_CODE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_rec.add_argument(
        "source",
        help="journal directory (<out>.npz.journal) or the container path",
    )
    p_rec.add_argument(
        "--out",
        default=None,
        help="where to write the container (default: the journaled path)",
    )
    p_rec.add_argument(
        "--on-corruption",
        choices=["strict", "quarantine"],
        default="quarantine",
        help=(
            "what a damaged sealed segment does — strict raises, "
            "quarantine salvages the rest and reports the loss"
        ),
    )
    p_rec.add_argument(
        "--salvage-unsealed",
        action="store_true",
        help=(
            "also admit segments that were fully written but never "
            "committed to the journal (default: report them as lost)"
        ),
    )
    p_rec.set_defaults(func=cmd_recover)

    p_info = sub.add_parser("info", help="show trace file contents")
    p_info.add_argument("tracefile")
    p_info.set_defaults(func=cmd_info)

    p_rep = sub.add_parser(
        "report",
        help="per-item per-function breakdown",
        epilog=EXIT_CODE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_rep.add_argument("tracefile")
    p_rep.add_argument("--core", type=int, default=None)
    p_rep.add_argument(
        "--diagnose",
        action="store_true",
        help="also print the outlier verdicts `repro diagnose` prints",
    )
    p_rep.add_argument(
        "--item", type=int, default=None, help="render one item's sample timeline"
    )
    p_rep.add_argument(
        "--stream",
        action="store_true",
        help="chunked, bounded-memory ingestion (online estimator rides along)",
    )
    _add_ingest_args(p_rep)
    _add_telemetry_args(p_rep)
    p_rep.set_defaults(func=cmd_report)

    p_diag = sub.add_parser(
        "diagnose",
        help="automated outlier classification + per-function attribution",
        epilog=EXIT_CODE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_diag.add_argument("tracefile")
    p_diag.add_argument("--core", type=int, default=None)
    p_diag.add_argument(
        "--stream",
        action="store_true",
        help="chunked ingestion; emit verdicts on stderr as items complete",
    )
    p_diag.add_argument(
        "--method",
        choices=["mad", "percentile"],
        default="mad",
        help="baseline band: median±k·(1.4826·MAD), or a percentile band",
    )
    p_diag.add_argument(
        "--k-sigma",
        type=float,
        default=3.5,
        help="band width in robust sigmas",
    )
    p_diag.add_argument(
        "--min-ratio",
        type=float,
        default=1.2,
        help="band upper edge is at least this multiple of the group median",
    )
    p_diag.add_argument(
        "--reset-value",
        type=int,
        default=None,
        help="sampling period R for confidence (default: from trace metadata)",
    )
    p_diag.add_argument("--json", action="store_true", help="machine-readable output")
    p_diag.add_argument(
        "--why",
        type=int,
        default=None,
        metavar="ITEM",
        help=(
            "explain one item: its verdict plus the blocked-by waiting "
            "chain (core -> queue/lock -> the function that held it up)"
        ),
    )
    _add_ingest_args(p_diag)
    _add_telemetry_args(p_diag)
    p_diag.set_defaults(func=cmd_diagnose)

    p_diff = sub.add_parser(
        "diff",
        help="localize a regression between two runs of the same workload",
        epilog=EXIT_CODE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_diff.add_argument("base", help="baseline trace file")
    p_diff.add_argument("other", help="regressed/suspect trace file")
    p_diff.add_argument("--core", type=int, default=None)
    p_diff.add_argument(
        "--stream",
        action="store_true",
        help="ingest both runs chunked instead of loading them whole",
    )
    p_diff.add_argument(
        "--min-samples",
        type=int,
        default=2,
        help="samples needed before a per-(item, function) estimate counts",
    )
    p_diff.add_argument(
        "--reset-value",
        type=int,
        default=None,
        help="sampling period R for confidence (default: from trace metadata)",
    )
    p_diff.add_argument("--json", action="store_true", help="machine-readable output")
    p_diff.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=(
            "resolve base/other as run ids in this ingestion store "
            "(see `repro serve`) instead of file paths"
        ),
    )
    p_diff.add_argument(
        "--allow-degraded-baseline",
        action="store_true",
        help=(
            "force the comparison even when every baseline item overlaps "
            "shed or lost sample spans (normally refused: missing samples "
            "would read as the regression's opposite)"
        ),
    )
    _add_ingest_args(p_diff)
    _add_telemetry_args(p_diff)
    p_diff.set_defaults(func=cmd_diff)

    p_serve = sub.add_parser(
        "serve",
        help="run the trace ingestion daemon over a multi-run store",
        epilog=EXIT_CODE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_serve.add_argument(
        "--store", required=True, help="store root directory (created if missing)"
    )
    p_serve.add_argument(
        "--socket", default=None, help="listen on this unix socket path"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7071, help="TCP port (ignored with --socket)"
    )
    p_serve.add_argument(
        "--capacity",
        type=int,
        default=128,
        help="admission queue depth — segments held in RAM at most",
    )
    p_serve.add_argument(
        "--credits",
        type=int,
        default=8,
        help="per-producer credit window (max unacked segments in flight)",
    )
    p_serve.add_argument(
        "--max-frame-bytes",
        type=int,
        default=64 * 1024 * 1024,
        help="reject any frame larger than this",
    )
    p_serve.add_argument(
        "--replicate-to",
        action="append",
        default=[],
        metavar="ADDR",
        help=(
            "replicate committed runs and sealed segments to the follower "
            "daemon at this address (repeatable; unix:<path> or host:port)"
        ),
    )
    p_serve.add_argument(
        "--replica-of",
        default=None,
        metavar="STORE",
        help=(
            "before serving, catch this store up from the given primary "
            "store directory (bootstrap a follower / promote after a "
            "primary loss)"
        ),
    )
    p_serve.add_argument(
        "--auth-token-file",
        default=None,
        help=(
            "require the HMAC challenge/response handshake with the shared "
            "secret read from this file (also used for outbound "
            "replication); default: auth off"
        ),
    )
    p_serve.add_argument(
        "--sync-interval",
        type=float,
        default=30.0,
        help="seconds between replication rounds (commits also trigger one)",
    )
    p_serve.add_argument(
        "--scrub-every",
        type=int,
        default=8,
        help="every Nth replication round re-verifies follower bytes by crc",
    )
    _add_ingest_args(p_serve)
    _add_anomaly_args(p_serve)
    _add_telemetry_args(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_push = sub.add_parser(
        "push",
        help="push a recording journal or finished container to the daemon",
        epilog=EXIT_CODE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_push.add_argument(
        "source", help="journal directory (crashed/open capture) or .npz container"
    )
    p_push.add_argument(
        "--addr",
        required=True,
        help="daemon address: unix:<path> or host:port",
    )
    p_push.add_argument(
        "--run",
        default=None,
        help="run id in the store (default: derived from the source name)",
    )
    p_push.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="seconds to wait for each daemon reply",
    )
    p_push.add_argument(
        "--follow",
        action="store_true",
        help=(
            "tail a live durable capture's journal: push each segment as "
            "it seals, FINISH when the capture finalizes, stop on SIGINT"
        ),
    )
    p_push.add_argument(
        "--token",
        default=None,
        help="shared secret answering the daemon's auth challenge",
    )
    p_push.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed for the jittered backpressure backoff (tests)",
    )
    _add_ingest_args(p_push)
    p_push.set_defaults(func=cmd_push)

    p_runs = sub.add_parser(
        "runs", help="list the runs held by an ingestion store"
    )
    p_runs.add_argument("--store", required=True, help="store root directory")
    p_runs.add_argument(
        "--json",
        action="store_true",
        help=(
            "machine-readable output: one record per committed run with "
            "run, segments, bytes, committed_at, interrupted"
        ),
    )
    p_runs.set_defaults(func=cmd_runs)

    p_sync = sub.add_parser(
        "sync",
        help="anti-entropy scrub: diff two stores and repair the follower",
        epilog=EXIT_CODE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_sync.add_argument(
        "--from",
        dest="src",
        required=True,
        metavar="STORE",
        help="source (primary) store root",
    )
    p_sync.add_argument(
        "--to",
        dest="dst",
        required=True,
        metavar="STORE",
        help="destination (follower) store root, repaired in place",
    )
    p_sync.add_argument(
        "--no-verify",
        action="store_true",
        help="skip crc re-verification of runs both stores already hold",
    )
    p_sync.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not record confirmations in the source's replication ledger",
    )
    p_sync.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_sync.set_defaults(func=cmd_sync)

    p_retire = sub.add_parser(
        "retire",
        help="enforce retention: archive cold committed runs, drop them",
        epilog=EXIT_CODE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_retire.add_argument("--store", required=True, help="store root directory")
    p_retire.add_argument(
        "--max-age",
        dest="max_age_s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="retire runs committed longer ago than this",
    )
    p_retire.add_argument(
        "--max-runs",
        type=int,
        default=None,
        help="keep at most this many committed runs (oldest retire first)",
    )
    p_retire.add_argument(
        "--max-bytes",
        dest="max_total_bytes",
        type=int,
        default=None,
        help="keep committed containers within this byte budget",
    )
    p_retire.add_argument(
        "--quorum",
        type=int,
        default=0,
        help=(
            "replica confirmations (replication ledger) a run needs before "
            "it may be retired; under-replicated runs are never touched"
        ),
    )
    p_retire.add_argument(
        "--archive-dir",
        default=None,
        help="where archives land (default: <store>/archive)",
    )
    p_retire.add_argument(
        "--dry-run",
        action="store_true",
        help="plan and report without touching the store",
    )
    p_retire.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_retire.set_defaults(func=cmd_retire)

    p_ver = sub.add_parser(
        "verify-attribution",
        help=(
            "run the known-root-cause interference matrix and score the "
            "diagnoser's attributions against ground truth"
        ),
        epilog=EXIT_CODE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_ver.add_argument(
        "--grid",
        default="smoke",
        help="cell grid to run (default: the checked-in CI smoke grid)",
    )
    p_ver.add_argument("--seed", type=int, default=0, help="matrix workload seed")
    p_ver.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the scorecard JSON here (also how the golden is regenerated)",
    )
    p_ver.add_argument(
        "--golden",
        metavar="PATH",
        default=None,
        help="compare against a checked-in scorecard; any divergence fails",
    )
    p_ver.add_argument(
        "--min-hit-rate",
        type=float,
        default=0.9,
        help="fail below this fraction of correctly-attributed cells",
    )
    p_ver.set_defaults(func=cmd_verify_attribution)

    p_mon = sub.add_parser(
        "monitor", help="live dashboard while stream-ingesting a trace file"
    )
    p_mon.add_argument("tracefile")
    p_mon.add_argument(
        "--interval", type=float, default=0.5, help="seconds between repaints"
    )
    _add_ingest_args(p_mon, default_policy="quarantine")
    _add_anomaly_args(p_mon)
    p_mon.add_argument(
        "--no-heatmap",
        action="store_true",
        help="skip the per-core × time heatmap after ingest finishes",
    )
    p_mon.add_argument(
        "--buckets",
        type=int,
        default=48,
        help="heatmap time buckets (terminal columns used)",
    )
    p_mon.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="also write the final metrics here (.json, or Prometheus text)",
    )
    p_mon.set_defaults(func=cmd_monitor)

    p_fleet = sub.add_parser(
        "fleet",
        help="health rollup of every committed run in an ingestion store",
        epilog=EXIT_CODE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_fleet.add_argument("--store", required=True, help="store root directory")
    p_fleet.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_fleet.set_defaults(func=cmd_fleet)

    p_exp = sub.add_parser("export", help="export to viewer formats")
    p_exp.add_argument("tracefile")
    p_exp.add_argument("--format", choices=["chrome", "csv"], default="chrome")
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--core", type=int, default=None, help="csv: which core")
    p_exp.add_argument(
        "--samples", action="store_true", help="chrome: include raw sample instants"
    )
    p_exp.set_defaults(func=cmd_export)

    p_prof = sub.add_parser("profile", help="whole-run averaged profile")
    p_prof.add_argument("tracefile")
    p_prof.add_argument("--core", type=int, default=None)
    p_prof.set_defaults(func=cmd_profile)

    p_cg = sub.add_parser("callgraph", help="guess call edges from sample order")
    p_cg.add_argument("tracefile")
    p_cg.add_argument("--core", type=int, default=None)
    p_cg.add_argument("--dot", action="store_true", help="emit graphviz")
    p_cg.set_defaults(func=cmd_callgraph)
    return parser


#: Exit codes: argparse uses 2 for usage errors, so package errors get
#: distinct codes — trace-data problems (corruption, malformed records,
#: failed shards) exit 3, any other package error exits 2.  Scripts
#: driving the CLI can tell "your data is damaged" from "your invocation
#: is wrong" without parsing stderr.
EXIT_REPRO_ERROR = 2
EXIT_TRACE_ERROR = 3


@contextlib.contextmanager
def _telemetry_scope(args):
    """Install registry/recorder per the --telemetry/--trace-spans flags.

    Dumps land on exit even when the command fails partway: a corrupt
    trace's partial telemetry is exactly what one wants to look at.
    Commands without the flags (and `monitor`, which manages its own
    registry) pass through untouched.
    """
    telemetry = getattr(args, "telemetry", None) if args.command != "monitor" else None
    spans_out = getattr(args, "trace_spans", None)
    if not telemetry and not spans_out:
        yield
        return
    from repro.obs.metrics import MetricsRegistry, use_registry
    from repro.obs.spans import SpanRecorder, use_recorder

    with contextlib.ExitStack() as stack:
        reg = None
        rec = None
        if telemetry:
            reg = MetricsRegistry()
            stack.enter_context(use_registry(reg))
        if spans_out:
            rec = SpanRecorder()
            stack.enter_context(use_recorder(rec))
        try:
            yield
        finally:
            if reg is not None:
                reg.dump(telemetry)
            if rec is not None:
                rec.write(spans_out)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _telemetry_scope(args):
            return args.func(args)
    except SignalInterrupt as exc:
        # A trapped signal that unwound past the graceful paths: exit
        # with the shell's death-by-signal convention.
        return exit_status(exc)
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_TRACE_ERROR
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REPRO_ERROR


if __name__ == "__main__":
    sys.exit(main())
