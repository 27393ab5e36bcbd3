"""Section IV-C3 text table: PEBS data rates per reset value.

Paper numbers: 270 / 194 / 153 / 125 / 106 MB/s for reset values 8K /
12K / 16K / 20K / 24K on the ACL thread, a 16-core extrapolation of
4.3 GB/s at 8K, and the observation that this is under 4% of a 127.8
GB/s memory socket.  We reproduce the accounting and the shape (rate
roughly proportional to 1/R).

The last column is what the tracer actually writes: the bytes of the
saved trace container (the ``repro run`` defaults: flat, compressed,
checksummed) over the same simulated duration.
"""

from __future__ import annotations

import pytest

from repro.session import trace
from repro.acl.app import ACLApp, ACLAppConfig
from repro.acl.packets import make_test_stream
from repro.analysis.reporting import format_table
from repro.core.storage import datarate_report
from repro.core.tracefile import save_session

RESET_VALUES = (8_000, 12_000, 16_000, 20_000, 24_000)
PER_TYPE = 60


@pytest.fixture(scope="module")
def reports(paper_classifier, tmp_path_factory):
    root = tmp_path_factory.mktemp("datarate")
    out = {}
    for reset in RESET_VALUES:
        app = ACLApp(
            [],
            make_test_stream(PER_TYPE),
            config=ACLAppConfig(),
            classifier=paper_classifier,
        )
        session = trace(app, sample_cores=[ACLApp.ACL_CORE], reset_value=reset)
        unit = session.units[ACLApp.ACL_CORE]
        duration = session.machine.core(ACLApp.ACL_CORE).clock
        rep = datarate_report(
            unit,
            duration_cycles=duration,
            freq_ghz=3.0,
            switch_records=len(session.tracer.records_for_core(ACLApp.ACL_CORE)),
        )
        path = root / f"r{reset}.npz"
        save_session(path, session, app.symtab)
        stored_mb_per_s = path.stat().st_size / rep.duration_s / 1e6
        out[reset] = (rep, unit, duration, stored_mb_per_s)
    return out


def test_datarate_table(reports, report, benchmark):
    rows = []
    for reset in RESET_VALUES:
        r = reports[reset][0]
        rows.append(
            [
                str(reset),
                f"{r.mb_per_s:.0f}",
                f"{r.per_cpu_gb_s:.2f}",
                f"{100 * r.mem_bw_fraction:.1f}%",
                str(r.sample_count),
                f"{reports[reset][3]:.1f}",
            ]
        )
    text = format_table(
        [
            "reset value",
            "MB/s per core",
            "GB/s per 16-core CPU",
            "of 127.8 GB/s",
            "samples",
            "stored MB/s per core",
        ],
        rows,
        title="Section IV-C3: PEBS sample data rates (paper: 270/194/153/125/106 MB/s)",
    )
    report("datarate_table", text)

    # Shape: decreasing in R, roughly proportional to 1/R.
    mbs = [reports[r][0].mb_per_s for r in RESET_VALUES]
    assert all(a > b for a, b in zip(mbs, mbs[1:]))
    assert mbs[0] / mbs[-1] == pytest.approx(24_000 / 8_000, rel=0.2)
    # Same order of magnitude as the paper's 270 MB/s at R = 8K.
    assert 90 < mbs[0] < 600
    # The busy ACL thread stays a small fraction of memory bandwidth.
    assert reports[8_000][0].mem_bw_fraction < 0.08

    # The stored container is smaller than the raw PEBS records.
    assert all(reports[r][3] < reports[r][0].mb_per_s for r in RESET_VALUES)

    _, unit, duration, _ = reports[8_000]
    benchmark(lambda: datarate_report(unit, duration_cycles=duration, freq_ghz=3.0))
