"""Differential diff engine: synthetic cases plus the ACL-trie goldens.

The golden half is the acceptance criterion of the diagnosis PR: on the
checked-in base/regressed ACL traces (same packets, same rules, only the
trie layout changed — see ``tests/data/make_acl_case.py``), ``repro diff``
must name ``rte_acl_classify`` as the top excess-time contributor with
nonzero confidence, identically one-shot and streamed, and without a
single DeprecationWarning.
"""

from __future__ import annotations

import json
import pathlib
import warnings

import pytest

import repro.api as api
from repro.analysis.diagnose import UNATTRIBUTED
from repro.analysis.differential import diff_traces

from .test_diagnose import build_trace

DATA = pathlib.Path(__file__).parent.parent / "data"
BASE = DATA / "acl_base.npz"
REGRESS = DATA / "acl_regress.npz"
SPIKE = DATA / "acl_spike.npz"
EXPECTED = json.loads((DATA / "acl_case_expected.json").read_text())


def _pair(n_items=6, extra_fn=None):
    normal = {"f0": (0, 900, 4)}
    base = build_trace([(i, 1000, normal) for i in range(1, n_items + 1)])
    spans = dict(normal)
    dur = 1000
    if extra_fn:
        spans[extra_fn] = (1000, 2900, 4)
        dur = 3000
    other = build_trace([(i, dur, spans) for i in range(1, n_items + 1)])
    return base, other


class TestSynthetic:
    def test_new_function_tops_the_ranking(self):
        base, other = _pair(extra_fn="f1")
        report = diff_traces(base, other, reset_value=500)
        assert report.regressed
        top = report.top
        assert top.fn_name == "f1"
        assert top.excess_per_item == pytest.approx(1900.0)
        assert top.confidence > 0
        assert report.base_median_total == 1000.0
        assert report.other_median_total == 3000.0

    def test_identical_runs_do_not_regress(self):
        base, _ = _pair()
        report = diff_traces(base, base)
        assert not report.regressed
        assert report.top is None or report.top.excess_per_item == 0

    def test_unattributed_can_be_excluded(self):
        base, other = _pair(extra_fn="f1")
        with_stall = diff_traces(base, other)
        without = diff_traces(base, other, include_unattributed=False)
        assert any(d.fn_name == UNATTRIBUTED for d in with_stall.deltas)
        assert all(d.fn_name != UNATTRIBUTED for d in without.deltas)

    def test_describe_and_json(self):
        base, other = _pair(extra_fn="f1")
        report = diff_traces(base, other, reset_value=500)
        text = report.describe()
        assert "top excess-time contributor: f1" in text
        payload = json.loads(report.to_json())
        assert payload["deltas"][0]["fn"] == "f1"


class TestACLGoldens:
    """The paper's Section IV-C1 trie regression, end to end."""

    def test_one_shot_names_rte_acl_classify(self):
        report = api.diff(BASE, REGRESS)
        top = report.top
        assert top is not None
        assert top.fn_name == "rte_acl_classify"
        assert top.confidence > 0
        exp = EXPECTED["diff"]
        assert top.excess_per_item == pytest.approx(exp["top_excess_per_item"])
        assert top.confidence == pytest.approx(exp["top_confidence"])
        assert report.n_items_base == exp["n_items_base"]
        assert report.n_items_other == exp["n_items_other"]
        assert report.base_median_total == pytest.approx(exp["base_median_total"])
        assert report.other_median_total == pytest.approx(
            exp["other_median_total"]
        )

    def test_stream_verdict_is_identical(self):
        one_shot = api.diff(BASE, REGRESS)
        streamed = api.diff(BASE, REGRESS, stream=True)
        assert streamed.to_json() == one_shot.to_json()
        assert streamed.top.fn_name == "rte_acl_classify"

    def test_round_trip_has_zero_deprecation_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = api.diff(BASE, REGRESS)
        assert report.top.fn_name == "rte_acl_classify"

    def test_spike_diagnosis_matches_expected(self):
        exp = EXPECTED["diagnose_spike"]
        report = api.diagnose(SPIKE, group_of=lambda _i: "all")
        assert len(report.verdicts) == exp["n_verdicts"]
        outliers = sorted(v.item_id for v in report.outliers)
        assert outliers == exp["outlier_items"]
        for v in report.outliers:
            assert v.culprit == exp["culprit"]
            assert v.attributions[0].confidence > 0

    def test_spike_diagnosis_streams_to_same_report(self):
        one_shot = api.diagnose(SPIKE, group_of=lambda _i: "all")
        streamed = api.diagnose(SPIKE, group_of=lambda _i: "all", stream=True)
        assert streamed.to_json() == one_shot.to_json()

    def test_base_trace_is_calm_within_type_groups(self):
        # With the recorded per-type groups, same-type packets cost the
        # same — the healthy run must not flag anything.
        report = api.diagnose(BASE)
        assert {str(b.group) for b in report.baselines} == {"A", "B", "C"}
        assert not report.fluctuating
