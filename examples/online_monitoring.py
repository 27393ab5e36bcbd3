"""Section IV-C3 in practice: keep raw samples only for anomalies.

Dumping every PEBS sample costs hundreds of MB/s per core.  This
example streams per-item estimates through the StreamingDiagnoser: a
steady warm workload builds the baseline, then a query that invalidates
the cache assumption (a never-before-seen n) arrives — only *its* raw
samples are kept, with everything else discarded.

Run:  python examples/online_monitoring.py
"""

from repro.analysis.diagnose import StreamingDiagnoser
from repro.core.storage import encode_samples
from repro.session import trace
from repro.workloads import Query, SampleApp, SampleAppConfig


def main() -> None:
    # Steady traffic of n=3 / n=5 queries, one surprise n=8 near the end.
    ns = [3, 5, 3, 5, 3, 5, 3, 5, 3, 5, 3, 5, 3, 5, 3, 8, 3, 5]
    queries = tuple(Query(i + 1, n) for i, n in enumerate(ns))
    app = SampleApp(SampleAppConfig(queries=queries))
    session = trace(app, reset_value=8000)
    t = session.trace_for(SampleApp.WORKER_CORE)
    unit = session.units[SampleApp.WORKER_CORE]
    record_bytes = len(encode_samples(unit.finalize())) // max(1, unit.sample_count)

    diagnoser = StreamingDiagnoser(k_sigma=3.0, min_baseline=4)
    print(f"{'query':>6} {'n':>3} {'decision':>9}  trigger")
    for q in queries:
        samples_of_item = sum(
            est.n_samples for est in (
                t.estimate(q.qid, fn) for fn in t.functions()
            ) if est is not None
        )
        verdict = diagnoser.observe_item(
            q.qid, t.breakdown(q.qid), raw_bytes=samples_of_item * record_bytes
        )
        if verdict is None:
            print(f"{q.qid:>6} {q.n:>3} {'discard':>9}  -")
        else:
            print(f"{q.qid:>6} {q.n:>3} {'DUMP':>9}  {verdict.culprit}")

    kept = diagnoser.bytes_dumped
    total = kept + diagnoser.bytes_discarded
    print(
        f"\nKept {kept} of {total} raw-sample bytes "
        f"({diagnoser.reduction_factor:.1f}x storage reduction) while "
        "preserving full forensic detail for the anomalous query."
    )


if __name__ == "__main__":
    main()
