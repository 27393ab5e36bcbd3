"""Section I motivation: database tail latency, measured and explained.

The paper opens with Huang et al.'s TPC-C result on production database
engines: *"the standard deviation was twice the mean"* and *"the 99th
percentile was an order of magnitude greater than the mean"*.  The
thread-pool database workload reproduces that latency shape from first
principles (query-mix skew + a real buffer pool + queueing), and the
hybrid tracer then does what the paper says such systems need: it
explains *which function* made a slow query slow (fetch_pages, for the
cold-buffer-pool queries).
"""

from __future__ import annotations

import statistics

import pytest

from repro.session import trace
from repro.analysis.diagnose import UNATTRIBUTED, diagnose_trace
from repro.analysis.reporting import format_table
from repro.core.hybrid import merge_traces
from repro.workloads.dbpool import DBPoolApp, DBPoolConfig, QueryClass


@pytest.fixture(scope="module")
def run():
    app = DBPoolApp(DBPoolConfig())
    session = trace(app, sample_cores=app.worker_cores, reset_value=8000)
    merged = merge_traces([session.trace_for(c) for c in app.worker_cores])
    return app, merged


def test_motivation_db_tail_statistics(run, report, benchmark):
    app, merged = run
    s = app.latency_summary()
    rows = [
        ["mean", f"{s['mean_us']:.1f} us", ""],
        ["std", f"{s['std_us']:.1f} us", f"{s['std_over_mean']:.2f}x mean"],
        ["p99", f"{s['p99_us']:.1f} us", f"{s['p99_over_mean']:.2f}x mean"],
    ]
    for qc in QueryClass:
        lats = app.latencies_us(qc)
        rows.append(
            [
                f"mean ({qc.value})",
                f"{statistics.mean(lats):.1f} us",
                f"n={len(lats)}",
            ]
        )

    # Diagnosis: within-class outliers and their culprit.  IO stalls
    # retire almost nothing, so a UOPS-sampled trace shows them as
    # *unattributed* window time (the stall signature), occasionally as
    # fetch_pages when enough of the page walk was sampled.
    rep = diagnose_trace(merged, app.group_of, min_ratio=2.0)
    culprits = [o.culprit for o in rep.outliers if o.culprit]
    stall_path = {UNATTRIBUTED, "fetch_pages"}
    fetch_share = (
        sum(1 for c in culprits if c in stall_path) / len(culprits)
        if culprits
        else 0.0
    )
    diag_rows = [
        [o.describe()] for o in rep.outliers[:8]
    ]
    text = (
        format_table(
            ["statistic", "value", "note"],
            rows,
            title=(
                "Section I motivation: TPC-C-like latency statistics "
                "(paper quote: std ~ 2x mean, p99 ~ 10x mean)"
            ),
        )
        + "\n\n"
        + format_table(
            ["per-item diagnosis of the tail (top outliers)"],
            diag_rows,
            title=f"{len(rep.outliers)} outliers; "
            f"{100 * fetch_share:.0f}% attribute their excess to the "
            "buffer-pool path (fetch_pages or its IO-stall signature)",
        )
    )
    report("motivation_db_tail", text)

    # Huang et al.'s orders of magnitude.
    assert 1.2 < s["std_over_mean"] < 3.5
    assert s["p99_over_mean"] > 6.0
    # The tracer finds outliers and blames the buffer-pool/IO path.
    assert rep.fluctuating
    assert fetch_share > 0.6, f"culprits were {culprits[:20]}"
    # Ground-truth check: flagged items really did miss pages or queue.
    flagged_with_misses = sum(
        1 for o in rep.outliers if app.page_misses[o.item_id] > 0
    )
    assert flagged_with_misses >= len(rep.outliers) // 2

    benchmark(lambda: diagnose_trace(merged, app.group_of, min_ratio=2.0))
