"""Diagnosing a database's tail latency — the paper's opening motivation.

Huang et al. measured TPC-C on production databases: the standard
deviation of query latency was ~2x the mean, and the 99th percentile an
order of magnitude above it.  This example reproduces that shape with
the thread-pool database workload (a real shared run queue and a real
LRU buffer pool), then uses the paper's hybrid tracer to answer the
question profiles cannot: *which queries* make up the tail, and *which
function* is responsible for each.

Run:  python examples/database_tail.py
"""

from repro.analysis.diagnose import UNATTRIBUTED, diagnose_trace
from repro.core.hybrid import merge_traces
from repro.session import trace
from repro.workloads import DBPoolApp, DBPoolConfig, QueryClass


def main() -> None:
    app = DBPoolApp(DBPoolConfig())
    print(
        f"running {app.config.n_queries} queries on {app.config.n_workers} "
        "workers (tracing every worker core) ..."
    )
    session = trace(app, sample_cores=app.worker_cores, reset_value=8000)
    merged = merge_traces([session.trace_for(c) for c in app.worker_cores])

    s = app.latency_summary()
    print("\nlatency statistics (paper quote: std ~ 2x mean, p99 ~ 10x mean):")
    print(f"  mean {s['mean_us']:8.1f} us")
    print(f"  std  {s['std_us']:8.1f} us   = {s['std_over_mean']:.2f}x mean")
    print(f"  p99  {s['p99_us']:8.1f} us   = {s['p99_over_mean']:.2f}x mean")
    for qc in QueryClass:
        lats = app.latencies_us(qc)
        print(f"  {qc.value:>8}: n={len(lats):4d}, mean {sum(lats)/len(lats):7.1f} us")

    rep = diagnose_trace(merged, app.group_of, min_ratio=2.0)
    print(f"\n{len(rep.outliers)} within-class outliers; the worst five:")
    for o in rep.outliers[:5]:
        misses = app.page_misses[o.item_id]
        print(f"  {o.describe()}  [{misses} buffer-pool misses]")

    stallers = sum(
        1 for o in rep.outliers if o.culprit in (UNATTRIBUTED, "fetch_pages")
    )
    print(
        f"\n{stallers}/{len(rep.outliers)} outliers attribute their excess to "
        "the buffer-pool path — IO stalls retire almost no uops, so they "
        "appear as fetch_pages time or as unattributed window time (the "
        "stall signature under retirement-event sampling)."
    )


if __name__ == "__main__":
    main()
