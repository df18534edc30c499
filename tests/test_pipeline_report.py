"""End-to-end pipeline and report aggregation tests."""

from __future__ import annotations


from repro.core.pipeline import Wolf, WolfConfig, run_detection
from repro.core.report import Classification as C
from repro.core.report import CycleReport, DefectReport
from repro.runtime.sim.result import RunStatus
from repro.workloads.figures import (
    FIG2_THETA1,
    FIG2_THETA23,
    FIG2_THETA4,
    FIG4_THETA1_SITES,
    FIG4_THETA2_SITES,
    fig1_program,
    fig2_program,
    fig4_program,
)
from tests.conftest import ordered_program, two_lock_program


class TestRunDetection:
    def test_completes_on_safe_program(self):
        run = run_detection(ordered_program, 0)
        assert run.status is RunStatus.COMPLETED

    def test_retries_to_completion(self):
        # two_lock_program deadlocks on some seeds; retries find a
        # completing one.
        run = run_detection(two_lock_program, 0, tries=20)
        assert run.status is RunStatus.COMPLETED

    def test_returns_last_run_when_all_deadlock(self):
        def always_deadlock(rt):
            a, b = rt.new_lock(name="A"), rt.new_lock(name="B")
            state = {"a": False, "b": False}

            def t1():
                with a.at("d:a1"):
                    state["a"] = True
                    while not state["b"]:
                        rt.checkpoint()
                    with b.at("d:b1"):
                        pass

            def t2():
                with b.at("d:b2"):
                    state["b"] = True
                    while not state["a"]:
                        rt.checkpoint()
                    with a.at("d:a2"):
                        pass

            h1 = rt.spawn(t1, site="s:1")
            h2 = rt.spawn(t2, site="s:2")
            h1.join()
            h2.join()

        run = run_detection(always_deadlock, 0, tries=3)
        assert run.status is RunStatus.DEADLOCK  # analyzed as-is, truncated


class TestWolfPipeline:
    def test_fig4_classifications(self):
        report = Wolf(seed=0).analyze(fig4_program, name="fig4")
        by_sites = {cr.cycle.sites: cr.classification for cr in report.cycle_reports}
        assert by_sites[FIG4_THETA1_SITES] is C.FALSE_PRUNER
        assert by_sites[FIG4_THETA2_SITES] is C.CONFIRMED

    def test_fig1_pruned(self):
        report = Wolf(seed=0).analyze(fig1_program, name="fig1")
        assert report.n_cycles == 1
        assert report.count_cycles(C.FALSE_PRUNER) == 1

    def test_fig2_theta4_generator_false(self):
        report = Wolf(seed=0).analyze(fig2_program, name="fig2")
        by_sites = {}
        for cr in report.cycle_reports:
            by_sites.setdefault(cr.cycle.sites, set()).add(cr.classification)
        assert by_sites[FIG2_THETA4] == {C.FALSE_GENERATOR}
        assert by_sites[FIG2_THETA1] == {C.CONFIRMED}
        assert by_sites[FIG2_THETA23] == {C.CONFIRMED}

    def test_fig2_defect_counts_match_paper_maps_row(self):
        """Table 1 maps rows: 3 defects, 1 FP (Generator), 2 TP."""
        report = Wolf(seed=0).analyze(fig2_program, name="fig2")
        assert report.n_defects == 3
        assert report.count_defects(C.FALSE_GENERATOR) == 1
        assert report.count_defects(C.CONFIRMED) == 2

    def test_safe_program_empty_report(self):
        report = Wolf(seed=0).analyze(ordered_program, name="safe")
        assert report.n_cycles == 0
        assert report.n_defects == 0

    def test_timings_populated(self):
        report = Wolf(seed=0).analyze(fig4_program, name="fig4")
        assert set(report.timings) == {
            "detect",
            "prune",
            "generate",
            "replay",
            "wall",
        }
        assert report.timings["detect"] > 0
        # Serial: no stage work overlaps, so wall bounds the aggregate.
        assert report.timings["wall"] >= report.timings["replay"]

    def test_multiple_detect_seeds(self):
        cfg = WolfConfig(detect_seeds=[0, 1])
        report = Wolf(config=cfg).analyze(fig4_program, name="fig4")
        assert report.seeds == [0, 1]
        assert len(report.detections) == 2
        # Same program: same defects found per seed, aggregated.
        assert report.n_defects == 2

    def test_summary_text(self):
        report = Wolf(seed=0).analyze(fig4_program, name="fig4")
        text = report.summary()
        assert "cycles detected : 2" in text
        assert "defect at" in text

    def test_json_counts_gs_vertices_without_building(self, monkeypatch):
        """``to_json`` states each decision's ``Gs`` size without building
        a graph nobody read, and the count is the built graph's."""
        from repro.core.syncgraph import SyncGraphBuilder
        from repro.workloads.registry import all_benchmarks

        builds = []
        real = SyncGraphBuilder.build

        def spy(self, cycle):
            builds.append(cycle)
            return real(self, cycle)

        unread = 0
        for b in all_benchmarks():
            cfg = WolfConfig(
                seed=b.detect_seed,
                max_cycle_length=b.max_cycle_length,
                replay_attempts=b.replay_attempts,
            )
            report = Wolf(config=cfg).analyze(b.program, name=b.name)
            decisions = [cr.generator for cr in report.cycle_reports if cr.generator]
            unread += sum("gs" not in vars(d) for d in decisions)
            with monkeypatch.context() as mp:
                mp.setattr(SyncGraphBuilder, "build", spy)
                report.to_json()
            assert builds == [], b.name
            for cr in report.cycle_reports:
                if cr.generator is not None:
                    assert cr.gs_vertices == len(cr.generator.gs.vertices), b.name
        assert unread, "every graph was read before to_json: the check is vacuous"


class TestReportAggregation:
    def _cycle_report(self, classification):
        # Minimal stand-in cycle with a fixed defect key.
        class FakeCycle:
            defect_key = frozenset({"x"})
            sites = frozenset({"x"})

        return CycleReport(cycle=FakeCycle(), classification=classification)

    def test_defect_confirmed_if_any_cycle_confirmed(self):
        d = DefectReport(
            key=frozenset({"x"}),
            cycles=[
                self._cycle_report(C.UNKNOWN),
                self._cycle_report(C.CONFIRMED),
            ],
        )
        assert d.classification is C.CONFIRMED

    def test_defect_false_only_if_all_false(self):
        d = DefectReport(
            key=frozenset({"x"}),
            cycles=[
                self._cycle_report(C.FALSE_PRUNER),
                self._cycle_report(C.UNKNOWN),
            ],
        )
        assert d.classification is C.UNKNOWN

    def test_defect_false_pruner_when_all_pruner(self):
        d = DefectReport(
            key=frozenset({"x"}),
            cycles=[self._cycle_report(C.FALSE_PRUNER)] * 2,
        )
        assert d.classification is C.FALSE_PRUNER

    def test_defect_false_generator_on_mixed_false(self):
        d = DefectReport(
            key=frozenset({"x"}),
            cycles=[
                self._cycle_report(C.FALSE_PRUNER),
                self._cycle_report(C.FALSE_GENERATOR),
            ],
        )
        assert d.classification is C.FALSE_GENERATOR

    def test_classification_is_false_helper(self):
        assert C.FALSE_PRUNER.is_false
        assert C.FALSE_GENERATOR.is_false
        assert not C.CONFIRMED.is_false
        assert not C.UNKNOWN.is_false
