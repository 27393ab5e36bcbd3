"""The facade round-trips cleanly and refuses what it cannot take.

* ``repro.api`` (and the ``repro`` re-exports) never touch a deprecated
  path — the whole record → diagnose → diff round-trip runs under
  ``DeprecationWarning``-as-error.
* a verb handed the wrong kind of source fails with a typed
  :class:`~repro.errors.ReproError` naming what it accepts.
"""

from __future__ import annotations

import warnings

import pytest

import repro
import repro.api as api
from repro.core.options import IngestOptions
from repro.core.streaming import ingest_trace
from repro.errors import ReproError, TraceError


@pytest.fixture(scope="module")
def run_npz(tmp_path_factory):
    path = tmp_path_factory.mktemp("facade") / "run.npz"
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        api.record("sampleapp", out=path, items=30, reset_value=2000)
    return path


class TestRoundTrip:
    def test_record_writes_meta(self, run_npz):
        tf = api.load(run_npz)
        assert tf.meta["workload"] == "sampleapp"
        assert tf.meta["reset_value"] == 2000
        assert tf.meta["event"] == "uops"

    def test_diagnose_diff_clean_under_error_warnings(self, run_npz):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = api.integrate(run_npz)
            assert result.trace.items()
            report = api.diagnose(run_npz)
            assert len(report.verdicts) > 0
            delta = api.diff(run_npz, run_npz)
            # A run diffed against itself has no per-item regression.
            assert delta.top is None or delta.top.excess_per_item == 0

    def test_package_reexports_are_the_facade(self):
        assert repro.diagnose is api.diagnose
        assert repro.diff is api.diff
        assert repro.record is api.record
        assert repro.IngestOptions is IngestOptions

    def test_diagnose_stream_report_identical(self, run_npz):
        one_shot = api.diagnose(run_npz)
        streamed = api.diagnose(run_npz, stream=True)
        assert streamed.to_json() == one_shot.to_json()

    def test_non_path_sources_refused_cleanly(self):
        session = api.record("sampleapp", items=10, reset_value=2000)
        with pytest.raises(ReproError, match="cannot diagnose a TraceSession"):
            repro.diagnose(session)
        with pytest.raises(ReproError, match="cannot integrate a TraceSession"):
            repro.integrate(session)


class TestIngestOptions:
    def test_legacy_kwargs_removed(self, run_npz):
        # The one-release legacy shim is gone: raw per-call keywords are
        # now an ordinary TypeError, not a DeprecationWarning.
        with pytest.raises(TypeError):
            ingest_trace(run_npz, chunk_size=1024)

    def test_options_object_is_silent(self, run_npz):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = ingest_trace(run_npz, options=IngestOptions(chunk_size=1024))
        assert result.trace.items()

    @pytest.mark.parametrize(
        "bad",
        [
            {"chunk_size": 0},
            {"workers": 0},
            {"retry_backoff_s": -1.0},
            {"on_corruption": "shrug"},
            {"max_retries": -1},
            {"record_bytes": 0},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(TraceError):
            IngestOptions(**bad)

    def test_replace(self):
        opts = IngestOptions().replace(workers=4, on_corruption="quarantine")
        assert opts.workers == 4 and opts.on_corruption == "quarantine"
        # and the original default object is untouched (frozen dataclass)
        assert IngestOptions().workers == 1
