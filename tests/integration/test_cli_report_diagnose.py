"""`repro report --diagnose` and `repro diagnose` share one outlier rule.

Both verbs must name the same outlier items and culprits on the same
container, whichever way `report` ingests it; and each verb opens a
container as few times as its job needs.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.cli import main
from repro.core import tracefile

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
            (["diagnose", "--stream"], 2),
            (["report", "--stream", "--diagnose"], 2),
        ],
        ids=["diagnose", "report", "diagnose-stream", "report-stream"],
    )
    def test_open_count(self, argv, n_opens, opens, capsys):
        path = str(DATA / "acl_regress.npz")
        assert main([argv[0], path, *argv[1:]]) == 0
        assert opens == [path] * n_opens
