"""Section IV-C3: online processing to avoid dumping every raw sample.

The paper: "one can estimate the elapsed time of each function online
and dump raw samples only when the estimation diverges from the average
by a threshold".  We run the sample app through the online diagnoser
after a short warm baseline and show that only the anomalous (cold)
queries' raw samples are kept, with a large storage reduction.
"""

from __future__ import annotations

import pytest

from repro.session import trace
from repro.analysis.diagnose import StreamingDiagnoser
from repro.analysis.reporting import format_table
from repro.machine.config import SKYLAKE_LIKE
from repro.workloads.sampleapp import PAPER_QUERIES, Query, SampleApp, SampleAppConfig


@pytest.fixture(scope="module")
def run():
    # A production-like stream: a warm-up block, steady repeated traffic,
    # then one anomalous query (n=8: 3000 points nobody has computed)
    # buried near the end.
    warmup = tuple(Query(100 + i, n) for i, n in enumerate((3, 5, 3, 5, 3, 5, 2, 1)))
    steady = tuple(Query(200 + i, n) for i, n in enumerate((3, 5, 3, 5, 3, 5, 2, 3)))
    anomaly = (Query(999, 8),)
    tail = tuple(Query(300 + i, n) for i, n in enumerate((3, 5)))
    app = SampleApp(
        SampleAppConfig(queries=warmup + PAPER_QUERIES + steady + anomaly + tail)
    )
    session = trace(app, reset_value=8000)
    return app, session.trace_for(SampleApp.WORKER_CORE)


def test_ext_online_divergence_dump(run, report, benchmark):
    app, t = run
    record_bytes = SKYLAKE_LIKE.pebs_record_bytes
    diagnoser = StreamingDiagnoser(k_sigma=3.0, min_baseline=4)
    rows = []
    dumped_ids = []
    for q in app.config.queries:
        est = [
            t.estimate(q.qid, fn)
            for fn in ("f1_parse", "f2_cache_lookup", "f3_compute")
        ]
        raw_bytes = sum(e.n_samples for e in est if e) * record_bytes
        verdict = diagnoser.observe_item(q.qid, t.breakdown(q.qid), raw_bytes)
        rows.append(
            [
                f"#{q.qid}",
                q.n,
                "discard" if verdict is None else "DUMP",
                "-" if verdict is None else verdict.culprit,
            ]
        )
        if verdict is not None:
            dumped_ids.append(q.qid)
    text = format_table(
        ["query", "n", "decision", "trigger"],
        rows,
        title=(
            "Section IV-C3: online divergence-triggered dumping "
            f"(kept {diagnoser.bytes_dumped} B of "
            f"{diagnoser.bytes_dumped + diagnoser.bytes_discarded} B raw samples; "
            f"reduction {diagnoser.reduction_factor:.1f}x)"
        ),
    )
    report("ext_online_dump", text)

    # The anomalous n=8 query is the one whose raw samples are kept.
    assert 999 in dumped_ids
    # Steady warm traffic is never dumped.
    assert not any(200 <= i < 300 for i in dumped_ids)
    # Large storage reduction overall (the Section IV-C3 motivation).
    assert diagnoser.reduction_factor > 3.0
    # Every dump decision has a named trigger function.
    for v in diagnoser.verdicts:
        assert v.culprit is not None

    benchmark(
        lambda: StreamingDiagnoser(k_sigma=3.0, min_baseline=4).observe_item(
            1, {"f": 100.0}, 240
        )
    )
