"""End-to-end tests: the full paper pipelines on realistic workloads."""

import statistics

import pytest

from repro.session import trace
from repro.acl.app import ACLApp, ACLAppConfig
from repro.acl.packets import make_test_stream
from repro.acl.rules import small_ruleset
from repro.acl.trie import MultiTrieClassifier
from repro.analysis.diagnose import StreamingDiagnoser, diagnose_trace
from repro.workloads.sampleapp import SampleApp


class TestSampleAppFluctuation:
    """The Fig 8 proof-of-concept, asserted quantitatively."""

    @pytest.fixture(scope="class")
    def session(self):
        return trace(SampleApp(), reset_value=8000)

    @pytest.fixture(scope="class")
    def app_and_trace(self):
        app = SampleApp()
        session = trace(app, reset_value=8000)
        return app, session.trace_for(SampleApp.WORKER_CORE)

    def test_cold_queries_are_outliers(self, app_and_trace):
        app, t = app_and_trace
        rep = diagnose_trace(t, app.group_of)
        assert {o.item_id for o in rep.outliers} == {1, 5}

    def test_f3_is_the_culprit(self, app_and_trace):
        app, t = app_and_trace
        rep = diagnose_trace(t, app.group_of)
        assert all(o.culprit == "f3_compute" for o in rep.outliers)

    def test_same_n_warm_queries_agree(self, app_and_trace):
        _, t = app_and_trace
        warm_n3 = [t.item_window_cycles(q) for q in (2, 4, 8)]
        spread = max(warm_n3) - min(warm_n3)
        assert spread < 0.2 * statistics.mean(warm_n3)

    def test_query1_much_slower_than_query2(self, app_and_trace):
        _, t = app_and_trace
        assert t.item_window_cycles(1) > 3 * t.item_window_cycles(2)

    def test_f3_longer_than_f1_on_miss(self, app_and_trace):
        """Paper: 'f3 takes much longer time than f1 when the cache does
        not hit'."""
        _, t = app_and_trace
        bd = t.breakdown(1)
        assert bd["f3_compute"] > 3 * bd.get("f1_parse", 0) > 0

    def test_all_queries_have_windows(self, app_and_trace):
        _, t = app_and_trace
        assert t.items() == list(range(1, 11))

    def test_estimates_bounded_by_windows(self, app_and_trace):
        _, t = app_and_trace
        for qid in t.items():
            total = sum(t.breakdown(qid).values())
            assert total <= t.item_window_cycles(qid)

    def test_receiver_core_mostly_unmapped(self, session):
        # Thread 0 has no item windows -> its samples are unmapped.
        t0 = session.trace_for(SampleApp.RECEIVER_CORE)
        assert t0.items() == []


class TestACLEndToEnd:
    RULES = small_ruleset(8, 8)
    CLF = MultiTrieClassifier(RULES, max_rules_per_trie=8)  # 8 tries

    def make_app(self) -> ACLApp:
        return ACLApp(
            self.RULES,
            make_test_stream(10),
            config=ACLAppConfig(inter_packet_gap_ns=4_000.0),
            classifier=self.CLF,
        )

    def test_hybrid_estimates_order_by_type(self):
        app = self.make_app()
        session = trace(app, sample_cores=[ACLApp.ACL_CORE], reset_value=400)
        t = session.trace_for(ACLApp.ACL_CORE)
        mean = {}
        for ptype in "ABC":
            vals = [
                t.elapsed_cycles(p, "rte_acl_classify")
                for p in t.items()
                if app.group_of(p) == ptype
            ]
            vals = [v for v in vals if v > 0]
            assert vals, f"no estimable packets of type {ptype}"
            mean[ptype] = statistics.mean(vals)
        assert mean["A"] > mean["B"] > mean["C"]

    def test_diagnosis_groups_by_type(self):
        app = self.make_app()
        session = trace(app, sample_cores=[ACLApp.ACL_CORE], reset_value=400)
        rep = diagnose_trace(session.trace_for(ACLApp.ACL_CORE), app.group_of)
        # Within a type, latencies are stable: no outliers.
        assert not rep.fluctuating
        assert {g.group for g in rep.baselines} == {"A", "B", "C"}

    def test_tracing_overhead_visible_externally(self):
        """Fig 10's probe: GNET latency rises when tracing is on."""
        plain = self.make_app()
        from repro.machine.machine import Machine
        from repro.runtime.scheduler import Scheduler

        Scheduler(Machine(n_cores=3), plain.threads()).run()
        traced = self.make_app()
        trace(traced, sample_cores=[ACLApp.ACL_CORE], reset_value=400)
        for ptype in "ABC":
            assert traced.tester.mean_latency_us(ptype) > plain.tester.mean_latency_us(
                ptype
            )


class TestRegisterTaggingEndToEnd:
    def test_ult_workload_tag_integration(self):
        """Section V-A: map samples by register tag under timer switching
        and recover per-item work despite preemption."""
        from repro.core.registertag import integrate_by_tag
        from repro.core.symbols import AddressAllocator
        from repro.machine.events import HWEvent
        from repro.machine.machine import Machine
        from repro.machine.pebs import PEBSConfig
        from repro.machine.block import Block
        from repro.runtime.actions import Exec
        from repro.runtime.scheduler import Scheduler
        from repro.runtime.thread import AppThread
        from repro.runtime.ult import ULTask, ULTRuntime

        alloc = AddressAllocator()
        sched_ip = alloc.add("ult_scheduler")
        work_ip = alloc.add("process_item")
        symtab = alloc.table()

        def work(n_blocks):
            def body():
                for _ in range(n_blocks):
                    yield Exec(Block(ip=work_ip, uops=4000))

            return body

        # Item 1 is 4x heavier than items 2 and 3.
        rt = ULTRuntime(
            [ULTask(1, work(16)), ULTask(2, work(4)), ULTask(3, work(4))],
            timeslice_cycles=2000,
            switch_cost_cycles=200,
            scheduler_ip=sched_ip,
            mark_switches=False,  # register tagging needs NO instrumentation
        )
        m = Machine(n_cores=1)
        unit = m.attach_pebs(0, PEBSConfig(HWEvent.UOPS_RETIRED_ALL, 500))
        Scheduler(m, [AppThread("host", 0, rt.body, 0x1)]).run()
        t = integrate_by_tag(unit.finalize(), symtab)
        assert rt.preemptions > 0
        e1 = t.elapsed_cycles(1, "process_item")
        e2 = t.elapsed_cycles(2, "process_item")
        e3 = t.elapsed_cycles(3, "process_item")
        # Heavier item attributed ~4x the time despite interleaving.
        assert e1 > 2.5 * e2
        assert abs(e2 - e3) < 0.5 * max(e2, e3)


class TestOnlineEndToEnd:
    def test_online_dumps_only_cold_queries(self):
        app = SampleApp()
        session = trace(app, reset_value=8000)
        t = session.trace_for(SampleApp.WORKER_CORE)
        d = StreamingDiagnoser(k_sigma=3.0, min_baseline=2)
        # Feed warm queries first to build a baseline, then the cold ones.
        order = [2, 4, 8, 3, 10, 6, 7, 9, 1, 5]
        dumped = []
        for qid in order:
            if d.observe_item(qid, t.breakdown(qid), raw_bytes=1000) is not None:
                dumped.append(qid)
        assert 1 in dumped
        assert 2 not in dumped
