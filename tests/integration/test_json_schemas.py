"""Snapshot tests for every machine-readable schema behind the envelope.

Each ``--json`` surface carries the versioned report envelope
(:mod:`repro.analysis.report`): ``schema_version`` + ``schema`` +
``generated_by`` *added to* the payload, whose own top-level key set is
pinned here.  A key appearing or disappearing must show up as a
deliberate edit of this file (and, for breaking changes, a
``SCHEMA_VERSION`` bump).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import __version__, api
from repro.analysis.report import SCHEMA_VERSION, SCHEMAS, envelope, render_json
from repro.cli import main
from repro.core.options import IngestOptions
from repro.service.sources import iter_journal_segments, journal_from_container
from repro.service.store import TraceStore
from tests.faults.conftest import build_fixture_trace

DATA = pathlib.Path(__file__).parent.parent / "data"

ENVELOPE_KEYS = {"schema_version", "schema", "generated_by"}

DIAGNOSIS_KEYS = ENVELOPE_KEYS | {
    "method", "k_sigma", "min_ratio", "reset_value",
    "baselines", "degraded_items", "outliers",
}
DIFF_KEYS = ENVELOPE_KEYS | {
    "n_items_base", "n_items_other", "base_median_total", "other_median_total",
    "reset_value", "n_degraded_base", "n_degraded_other",
    "base_wait_median", "other_wait_median", "cause", "deltas",
}
EXPLAIN_KEYS = ENVELOPE_KEYS | {
    "item_id", "group", "total_cycles", "center_cycles", "deviation",
    "is_outlier", "excess_cycles", "degraded", "attributions",
    "blocked_by", "why",
}
STORE_KEYS = ENVELOPE_KEYS | {"store", "runs"}
HOP_KEYS = {
    "waiter_core", "kind", "queue", "blocker_core", "blocker_fn",
    "wait_cycles", "n_edges",
}


def check_envelope(doc: dict, kind: str) -> None:
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["schema"] == kind and kind in SCHEMAS
    assert doc["generated_by"] == f"repro {__version__}"


@pytest.fixture(scope="module")
def committed_store(tmp_path_factory):
    trace_path = tmp_path_factory.mktemp("schemas") / "trace.npz"
    build_fixture_trace(trace_path)
    root = tmp_path_factory.mktemp("schemas") / "store"
    store = TraceStore(root)
    jd = journal_from_container(
        trace_path,
        tmp_path_factory.mktemp("schemas-journal"),
        options=IngestOptions(chunk_size=96),
    )
    for rec, data in iter_journal_segments(jd):
        store.append_segment("run-a", rec, data)
    store.finish_run("run-a")
    store.compact_run("run-a")
    return root


class TestEnvelope:
    def test_adds_keys_never_wraps(self):
        doc = envelope({"a": 1}, kind="diagnosis")
        assert doc == {
            "schema_version": SCHEMA_VERSION,
            "schema": "diagnosis",
            "generated_by": f"repro {__version__}",
            "a": 1,
        }

    def test_payload_wins_on_collision(self):
        doc = envelope({"schema": "mine", "x": 2}, kind="diff")
        assert doc["schema"] == "mine"

    def test_render_json_round_trips(self):
        doc = json.loads(render_json({"x": 1}, kind="fleet"))
        check_envelope(doc, "fleet")
        assert doc["x"] == 1


class TestDiagnosisSchema:
    def test_key_set(self):
        doc = json.loads(api.diagnose(DATA / "acl_spike.npz").to_json())
        check_envelope(doc, "diagnosis")
        assert set(doc) == DIAGNOSIS_KEYS
        out = doc["outliers"][0]
        assert set(out) == {
            "item_id", "group", "total_cycles", "center_cycles", "deviation",
            "excess_cycles", "degraded", "attributions", "blocked_by",
        }

    def test_outlier_chain_hops_are_typed(self):
        doc = json.loads(api.diagnose(DATA / "depgraph_lockconvoy.npz", core=1).to_json())
        chains = [o["blocked_by"] for o in doc["outliers"] if o["blocked_by"]]
        for chain in chains:
            for hop in chain:
                assert set(hop) == HOP_KEYS


class TestDiffSchema:
    def test_key_set(self):
        doc = json.loads(
            api.diff(DATA / "acl_base.npz", DATA / "acl_regress.npz").to_json()
        )
        check_envelope(doc, "diff")
        assert set(doc) == DIFF_KEYS
        assert doc["cause"] in ("none", "contention", "code")


class TestExplainSchema:
    def test_key_set_and_chain(self):
        expected = json.loads((DATA / "depgraph_expected.json").read_text())
        spec = expected["depgraph_lockconvoy"]
        doc = api.explain(
            DATA / "depgraph_lockconvoy.npz", spec["item"], core=spec["core"]
        )
        check_envelope(doc, "explain")
        assert set(doc) == EXPLAIN_KEYS
        for hop in doc["blocked_by"]:
            assert set(hop) == HOP_KEYS
        assert doc["blocked_by"] == spec["chain"]
        assert doc["why"] == spec["why"]


class TestStoreSchemas:
    def test_runs_json(self, committed_store, capsys):
        assert main(["runs", "--store", str(committed_store), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        check_envelope(doc, "runs")
        assert set(doc) == STORE_KEYS
        assert set(doc["runs"][0]) == {
            "run", "segments", "bytes", "committed_at", "interrupted",
        }

    def test_fleet_json(self, committed_store, capsys):
        assert main(["fleet", "--store", str(committed_store), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        check_envelope(doc, "fleet")
        assert set(doc) == STORE_KEYS


class TestAttributionSchema:
    def test_written_scorecard_shape(self):
        # The golden scorecard is the payload `repro verify-attribution`
        # envelopes when writing --json output; pin the composed shape.
        payload = json.loads((DATA / "attribution_scorecard.json").read_text())
        doc = json.loads(render_json(payload, kind="attribution"))
        check_envelope(doc, "attribution")
        assert set(doc) == ENVELOPE_KEYS | set(payload)
        assert {"grid", "n_cells", "n_correct", "hit_rate", "cells"} <= set(doc)


class TestDeprecatedAnalysisSurface:
    def test_expired_shim_names_are_gone(self):
        import repro.analysis as analysis

        for name in ("DiagnosisReport", "DiffReport", "diagnose_trace", "diff_traces"):
            with pytest.raises(AttributeError):
                getattr(analysis, name)
            assert name not in dir(analysis)

    def test_unknown_attribute_still_raises(self):
        import repro.analysis as analysis

        with pytest.raises(AttributeError):
            analysis.no_such_thing
