"""Fig 8: per-data-item elapsed time of each function of the sample app.

Paper setup: the Fig 7 query app, PEBS on UOPS_RETIRED.ALL with reset
value 8000; ten queries whose n values repeat (1st/2nd/4th/8th share n=3,
5th/7th/9th share n=5).  Findings reproduced:

* the 1st query takes much longer than the other n=3 queries (cold
  cache) and the 5th longer than the other n=5 ones (2000 new points);
* f3 dominates the extra time — information only a per-data-item,
  per-function trace can provide.
"""

from __future__ import annotations

import pytest

from repro.session import trace
from repro.analysis.diagnose import diagnose_trace
from repro.analysis.reporting import format_table
from repro.core.hybrid import integrate
from repro.workloads.sampleapp import SampleApp

US = 3000


@pytest.fixture(scope="module")
def session_and_app():
    app = SampleApp()
    session = trace(app, reset_value=8000)
    return app, session


def test_fig08_per_query_breakdown(session_and_app, report, benchmark):
    app, session = session_and_app
    t = session.trace_for(SampleApp.WORKER_CORE)
    fns = ("f1_parse", "f2_cache_lookup", "f3_compute")
    rows = []
    for q in app.config.queries:
        bd = t.breakdown(q.qid)
        rows.append(
            [f"#{q.qid}", q.n]
            + [f"{bd.get(fn, 0) / US:.2f}" for fn in fns]
            + [f"{t.item_window_cycles(q.qid) / US:.2f}"]
        )
    text = format_table(
        ["query", "n"] + [f"{fn} (us)" for fn in fns] + ["total (us)"],
        rows,
        title="Fig 8: per-data-item elapsed time per function (R=8000)",
    )
    report("fig08_sampleapp_fluctuation", text)

    # Quantitative shape of the figure.
    assert t.item_window_cycles(1) > 3 * t.item_window_cycles(2)  # cold n=3
    assert t.item_window_cycles(5) > 2 * t.item_window_cycles(7)  # cold n=5
    bd1 = t.breakdown(1)
    assert bd1["f3_compute"] > 3 * bd1.get("f1_parse", 1)
    rep = diagnose_trace(t, app.group_of)
    assert {o.item_id for o in rep.outliers} == {1, 5}
    assert all(o.culprit == "f3_compute" for o in rep.outliers)

    # Hot path: the integration step itself.
    unit = session.units[SampleApp.WORKER_CORE]
    records = session.tracer.records_for_core(SampleApp.WORKER_CORE)
    benchmark(lambda: integrate(unit.finalize(), records, app.symtab))
