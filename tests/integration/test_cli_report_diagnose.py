"""`repro report --diagnose` and `repro diagnose` share one outlier rule.

Both verbs must name the same outlier items and culprits on the same
container, whichever way `report` ingests it; each verb opens a
container once, streamed or not; and the streamed verbs read the same
evidence a one-shot load would.
"""

from __future__ import annotations

import pathlib
import re
import shutil

import pytest

from repro import api
from repro.cli import main
from repro.core import tracefile
from repro.core.options import IngestOptions
from repro.core.streaming import ingest_trace
from repro.core.tracefile import load_trace
from repro.errors import CorruptionError
from repro.service.sources import journal_from_container
from repro.testing import faults

DATA = pathlib.Path(__file__).parent.parent / "data"

OUTLIER = re.compile(r"item (\d+) \(group .*? — OUTLIER(?:; top contributor (\S+))?")

REPORT_MODES = (["report", "--diagnose"], ["report", "--stream", "--diagnose"])


@pytest.fixture(scope="module")
def sampleapp_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("agreement") / "sampleapp.npz"
    assert main(["run", "--workload", "sampleapp", "--out", str(path)]) == 0
    return path


def outliers(argv, capsys) -> dict[int, str | None]:
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    return {int(m.group(1)): m.group(2) for m in OUTLIER.finditer(out)}


def container(name, sampleapp_trace) -> str:
    return str(sampleapp_trace if name == "sampleapp" else DATA / f"{name}.npz")


class TestAgreement:
    @pytest.mark.parametrize("mode", REPORT_MODES, ids=" ".join)
    @pytest.mark.parametrize(
        "name", ["sampleapp", "acl_base", "acl_regress", "acl_spike"]
    )
    def test_same_outliers_and_culprits(self, name, mode, sampleapp_trace, capsys):
        path = container(name, sampleapp_trace)
        expected = outliers(["diagnose", path], capsys)
        assert outliers([mode[0], path, *mode[1:]], capsys) == expected

    def test_spike_names_rte_acl_classify(self, capsys):
        path = str(DATA / "acl_spike.npz")
        found = outliers(["report", path, "--diagnose"], capsys)
        assert found == {8: "rte_acl_classify", 16: "rte_acl_classify"}

    def test_sampleapp_names_cold_queries(self, sampleapp_trace, capsys):
        found = outliers(["report", str(sampleapp_trace), "--diagnose"], capsys)
        assert found == {1: "f3_compute", 5: "f3_compute"}

    def test_missing_groups_judge_whole_trace(self, capsys):
        # acl_spike records no groups: like `repro diagnose`, report notes
        # it on stderr and judges the trace as one group (exit 0).
        assert main(["report", str(DATA / "acl_spike.npz"), "--diagnose"]) == 0
        err = capsys.readouterr().err
        assert "treating the whole trace as one similarity group" in err


class TestContainerOpens:
    @pytest.fixture
    def opens(self, monkeypatch):
        calls: list[str] = []
        real = tracefile._open_container

        def counting(path):
            calls.append(str(path))
            return real(path)

        monkeypatch.setattr(tracefile, "_open_container", counting)
        return calls

    @pytest.mark.parametrize(
        "argv, n_opens",
        [
            (["diagnose"], 1),
            (["report", "--diagnose"], 1),
            (["diagnose", "--stream"], 1),
            (["report", "--stream", "--diagnose"], 1),
        ],
        ids=["diagnose", "report", "diagnose-stream", "report-stream"],
    )
    def test_open_count(self, argv, n_opens, opens, capsys):
        path = str(DATA / "acl_regress.npz")
        assert main([argv[0], path, *argv[1:]]) == 0
        assert opens == [path] * n_opens

    def test_diff_stream_opens_each_container_once(self, opens, capsys):
        base, other = str(DATA / "acl_base.npz"), str(DATA / "acl_regress.npz")
        assert main(["diff", base, other, "--stream"]) == 0
        assert sorted(opens) == sorted([base, other])

    def test_parallel_ingest_opens_once(self, opens):
        # Shard threads share the one reader ingest_trace opened.
        path = str(DATA / "acl_regress.npz")
        res = ingest_trace(path, options=IngestOptions(workers=2, chunk_size=64))
        assert sorted(res.per_core) == [0, 1, 2]
        assert opens == [path]


class TestStreamedVerdicts:
    def test_online_n_samples_use_record_bytes(self):
        # The streamed verdicts size each item's evidence from its raw
        # bytes and the record size; both must use the ingest's size.
        path = DATA / "acl_spike.npz"
        online = []
        api.diagnose(
            path,
            stream=True,
            options=IngestOptions(record_bytes=24),
            on_verdict=online.append,
        )
        assert online
        tf = load_trace(path)
        trace = tf.integrate(api._pick_core(tf, None))
        n_of = {}
        for item, n in zip(trace.item_ids.tolist(), trace.n_samples.tolist()):
            n_of[item] = n_of.get(item, 0) + n
        for verdict in online:
            assert verdict.attributions
            for a in verdict.attributions:
                assert a.n_samples == n_of[verdict.item_id]


class TestSwitchLogChecksums:
    def test_push_source_refuses_corrupt_switch_log(self, tmp_path):
        # A flipped switch-log bit must fail the crc32 check when the
        # container is re-journaled for push, as load_trace fails it.
        path = tmp_path / "acl_regress.npz"
        shutil.copy(DATA / "acl_regress.npz", path)
        faults.flip_switch_bit(path, core=1, index=5, bit=40)
        with pytest.raises(CorruptionError):
            load_trace(path)
        with pytest.raises(CorruptionError):
            journal_from_container(path, tmp_path / "work")
