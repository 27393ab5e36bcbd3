"""Pipeline benchmark: one closed-loop client driving one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload acl-regress --seed 1 --seconds 35 --trace 0

Set-up builds the workload's inputs from ``--seed`` several times
(``setup_s`` is their median): at least ``SETUP_REPS`` times, and more,
up to ``SETUP_MAX_REPS``, while they have taken under ``SETUP_MIN_S``.
Then ops run back to back, each waiting for the previous one, until
``--seconds`` have passed.  Every op checks its own outputs; an op with
a failed check, an exception, or a simulated digest that differs from
the first op's counts as failed.

``--trace 0`` reports the end-to-end metrics, with tracing off.
``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics of the traced ones, plus the tracing overhead (traced
minus untraced median op time); its spans are written to
``.perfbench/spans-<workload>-<seed>.json`` as a Chrome trace.

The last line of standard output is the result object; the line before
it holds the details (host, stage medians, simulated digest, layer
shares).  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
SETUP_REPS = 5
#: Set-up repeats until it has taken this long (or ``SETUP_MAX_REPS``),
#: so that its median spans more than one phase of the host's speed;
#: ``dbpool-ingest``'s trace metrics come from these repetitions.
SETUP_MIN_S = 8.0
SETUP_MAX_REPS = 50
#: Enough ops for a median even when one op outlasts the run.
MIN_OPS = 4
TRACE_STAGES = ("capture", "save")
COMMIT_STAGES = ("journal", "push", "sync")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _trace_source(setups, ops):
    """Scopes that captured: the ops, or the set-up when ops only reuse
    a trace captured there (``dbpool-ingest``)."""
    return ops if any("capture" in s.stages for s in ops) else setups


def end_to_end(setups, ops, items: int) -> dict:
    traced = _trace_source(setups, ops)
    return {
        "setup_s": (_median(s.wall_s for s in setups), "s"),
        "items_per_s": (_median(items / s.wall_s for s in ops), "items/s"),
        "op_s_p50": (_median(s.wall_s for s in ops), "s"),
        "trace_s_p50": (
            _median(sum(s.stages[k] for k in TRACE_STAGES) for s in traced), "s"
        ),
        "verdict_s_p50": (_median(s.stages["verdict"] for s in ops), "s"),
        "commit_s_p50": (
            _median(sum(s.stages[k] for k in COMMIT_STAGES) for s in ops), "s"
        ),
        "sim_blocks_per_s": (
            _median(s.counts["sim.blocks"] / s.stages["capture"] for s in traced),
            "blocks/s",
        ),
        "container_bytes_per_item": (
            _median(s.counts["container.bytes"] / items for s in ops), "B/item"
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def _layer_metrics(scope) -> dict:
    """The per-layer metrics of one traced op."""
    L, C = scope.layers, scope.counts

    def calls(name):
        return L[name][0] if name in L else 0

    def busy(name):
        return L[name][1] if name in L else 0.0

    def self_s(name):
        return L[name][2] if name in L else 0.0

    return {
        "machine.core.calls": (calls("machine.core"), "count"),
        "machine.core.self_s": (self_s("machine.core"), "s"),
        "machine.pmu.calls": (calls("machine.pmu"), "count"),
        "machine.pmu.self_s": (self_s("machine.pmu"), "s"),
        "machine.pmu.overflows": (C["sim.overflows"], "count"),
        "machine.pebs.busy_s": (busy("machine.pebs"), "s"),
        "machine.pebs.samples": (C["sim.samples"], "count"),
        "machine.pebs.kept_ratio": (_ratio(C["sim.samples"], C["sim.overflows"]), "ratio"),
        "machine.pebs.stall_cycles": (C["sim.stall_cycles"], "cycles"),
        "machine.cache.calls": (calls("machine.cache"), "count"),
        "machine.cache.busy_s": (busy("machine.cache"), "s"),
        "machine.cache.lines": (C["machine.cache.lines"], "count"),
        "machine.cache.llc_miss_ratio": (
            _ratio(C["machine.cache.llc_misses"], C["machine.cache.lines"]), "ratio"
        ),
        "runtime.scheduler.busy_s": (busy("runtime.scheduler"), "s"),
        "runtime.scheduler.self_s": (self_s("runtime.scheduler"), "s"),
        "machine.sim_cycles": (C["sim.cycles"], "cycles"),
        "core.instrument.marks": (C["sim.marks"], "count"),
        "core.hybrid.busy_s": (busy("core.hybrid"), "s"),
        "core.hybrid.windows": (C["core.hybrid.windows"], "count"),
        "core.tracefile.save_s": (busy("core.tracefile.save"), "s"),
        "core.tracefile.load_s": (busy("core.tracefile.load"), "s"),
        "core.tracefile.bytes": (C["container.bytes"], "B"),
        "core.streaming.busy_s": (busy("core.streaming"), "s"),
        "core.streaming.samples": (C["core.streaming.samples"], "count"),
        "analysis.diagnose.busy_s": (busy("analysis.diagnose"), "s"),
        "analysis.diagnose.items": (C["analysis.diagnose.items"], "count"),
        "analysis.diagnose.outliers": (C["analysis.diagnose.outliers"], "count"),
        "analysis.differential.busy_s": (busy("analysis.differential"), "s"),
        "analysis.depgraph.calls": (calls("analysis.depgraph"), "count"),
        "analysis.depgraph.busy_s": (busy("analysis.depgraph"), "s"),
        "service.sources.busy_s": (busy("service.sources"), "s"),
        "service.segments": (C["service.segments"], "count"),
        "service.push.busy_s": (busy("service.push"), "s"),
        "service.push.sent": (C["service.push.sent"], "count"),
        "service.push.resent": (C["service.push.resent"], "count"),
        "service.push.useful_ratio": (
            _ratio(C["service.push.acked"], C["service.push.sent"]), "ratio"
        ),
        "service.replica.busy_s": (busy("service.replica"), "s"),
        "service.replica.containers_shipped": (
            C["service.replica.containers_shipped"], "count"
        ),
    }


def per_layer(setups, plain, traced) -> dict:
    rows = [_layer_metrics(s) for s in traced]
    out = {
        name: (_median(r[name][0] for r in rows), unit)
        for name, (_v, unit) in rows[0].items()
    }
    out["acl.build_s"] = (
        _median(s.layers["acl.build"][1] if "acl.build" in s.layers else 0.0
                for s in setups),
        "s",
    )
    traced_p50 = _median(s.wall_s for s in traced)
    out["tracing.op_s_p50"] = (traced_p50, "s")
    out["tracing.overhead_s"] = (traced_p50 - _median(s.wall_s for s in plain), "s")
    return out


def layer_shares(traced) -> dict:
    """Median share of the op's wall time spent in each layer's own code."""
    names = sorted({n for s in traced for n in s.layers})
    return {
        n: round(_median(
            (s.layers[n][2] if n in s.layers else 0.0) / s.wall_s for s in traced
        ), 4)
        for n in names
    }


def host_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args) -> int:
    from repro.analysis.export import chrome_doc

    from perfbench.tracing import Recorder
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    rec = Recorder()
    attempted = failed = 0
    failures: dict[str, int] = {}
    digest = None
    items = 0
    setups, plain, traced = [], [], []
    try:
        setup_end = time.perf_counter() + SETUP_MIN_S
        while len(setups) < SETUP_REPS or (
            len(setups) < SETUP_MAX_REPS and time.perf_counter() < setup_end
        ):
            k = len(setups)
            setup_dir = work / "setup"
            with rec.scope(f"setup-{k}", traced=bool(args.trace)) as scope:
                workload.setup(args.seed, rec, setup_dir)
            shutil.rmtree(setup_dir, ignore_errors=True)
            setups.append(scope)
        deadline = time.perf_counter() + args.seconds
        while attempted < MIN_OPS or time.perf_counter() < deadline:
            op_dir = work / f"op-{attempted}"
            op_dir.mkdir(parents=True)
            is_traced = bool(args.trace) and attempted % 2 == 1
            attempted += 1
            try:
                with rec.scope(f"op-{attempted}", traced=is_traced) as scope:
                    result = workload.op(rec, op_dir)
            except Exception:
                traceback.print_exc()
                failures["exception"] = failures.get("exception", 0) + 1
                failed += 1
                continue
            finally:
                shutil.rmtree(op_dir, ignore_errors=True)
            if digest is None:
                digest, items = result.digest, result.items
            checks = dict(result.checks, digest_repeats=result.digest == digest)
            bad = [name for name, ok in checks.items() if not ok]
            for name in bad:
                failures[name] = failures.get(name, 0) + 1
            if bad:
                failed += 1
                continue
            (traced if is_traced else plain).append(scope)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok_ops = plain + traced
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_info(),
        "setup_reps": len(setups),
        "ops": {"attempted": attempted, "untraced": len(plain), "traced": len(traced)},
        "failures": failures,
        "stages_p50_s": {
            k: round(_median(s.stages[k] for s in ok_ops), 6)
            for k in sorted({k for s in ok_ops for k in s.stages})
        },
        "digest": digest,
    }
    if args.trace and traced and plain:
        metrics = per_layer(setups, plain, traced)
        detail["layer_self_share"] = layer_shares(traced)
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-{args.seed}.json"
        spans.write_text(json.dumps(chrome_doc(rec.chrome_events())))
        detail["spans"] = str(spans.relative_to(ROOT))
    elif not args.trace and plain:
        metrics = end_to_end(setups, plain, items)
    else:
        metrics = {}
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
