"""Cycle detection tests, anchored on the paper's Figures 4/5."""

from __future__ import annotations


from repro.core.detector import BaseDetector, ExtendedDetector
from repro.core.pipeline import run_detection
from repro.runtime.sim.runtime import run_program
from repro.runtime.sim.strategy import RandomStrategy
from repro.workloads.figures import (
    FIG4_THETA1_SITES,
    FIG4_THETA2_SITES,
    fig4_program,
)
from tests.conftest import ordered_program, two_lock_program


def detect(program, seed=0, detector=None, must_complete=True):
    if must_complete:
        result = run_detection(program, seed)
    else:
        result = run_program(program, RandomStrategy(seed))
    det = detector or ExtendedDetector()
    return det.analyze(result.trace)


class TestFigure4:
    def test_two_cycles_detected(self):
        detection = detect(fig4_program)
        assert {c.sites for c in detection.cycles} == {
            FIG4_THETA1_SITES,
            FIG4_THETA2_SITES,
        }

    def test_cycle_entries_match_paper(self):
        """theta'_2 = {eta'_8, eta'_5}: t1 holds l1 wants l2 (tau=2);
        t3 holds {l3, l2} wants l1 (tau=1)."""
        detection = detect(fig4_program)
        theta2 = next(c for c in detection.cycles if c.sites == FIG4_THETA2_SITES)
        by_site = {e.index.site: e for e in theta2.entries}
        eta8, eta5 = by_site["19"], by_site["33"]
        assert [l.name for l in eta8.lockset] == ["l1"]
        assert eta8.lock.name == "l2"
        assert eta8.tau == 2
        assert {l.name for l in eta5.lockset} == {"l3", "l2"}
        assert eta5.lock.name == "l1"
        assert eta5.tau == 1

    def test_dsigma_has_eight_entries(self):
        """Figure 5 lists eta_1..eta_8."""
        detection = detect(fig4_program)
        assert len(detection.relation) == 8

    def test_base_detector_same_cycles_no_clocks(self):
        base = detect(fig4_program, detector=BaseDetector())
        ext = detect(fig4_program)
        assert {c.sites for c in base.cycles} == {c.sites for c in ext.cycles}
        assert base.vclocks is None
        assert ext.vclocks is not None


class TestCycleConditions:
    def test_no_cycle_in_ordered_program(self):
        detection = detect(ordered_program)
        assert detection.cycles == []

    def test_ab_ba_yields_one_cycle(self):
        detection = detect(two_lock_program)
        assert len(detection.cycles) == 1
        (cycle,) = detection.cycles
        assert cycle.sites == {"p:b1", "p:a2"}
        assert len(cycle.threads) == 2

    def test_guard_lock_suppresses_cycle(self):
        """A common gate lock held around both nestings kills the cycle."""

        def program(rt):
            g = rt.new_lock(name="G")
            a, b = rt.new_lock(name="A"), rt.new_lock(name="B")

            def t1():
                with g.at("g:1"):
                    with a.at("a:1"):
                        with b.at("b:1"):
                            pass

            def t2():
                with g.at("g:2"):
                    with b.at("b:2"):
                        with a.at("a:2"):
                            pass

            h1 = rt.spawn(t1, site="s:1")
            h2 = rt.spawn(t2, site="s:2")
            h1.join()
            h2.join()

        detection = detect(program)
        assert detection.cycles == []

    def test_three_thread_cycle(self):
        def program(rt):
            a, b, c = (rt.new_lock(name=n) for n in "abc")

            def t(first, second, tag):
                with first.at(f"{tag}:1"):
                    with second.at(f"{tag}:2"):
                        pass

            hs = [
                rt.spawn(lambda: t(a, b, "x"), site="s:1"),
                rt.spawn(lambda: t(b, c, "y"), site="s:2"),
                rt.spawn(lambda: t(c, a, "z"), site="s:3"),
            ]
            for h in hs:
                h.join()

        detection = detect(program)
        lengths = sorted(len(c) for c in detection.cycles)
        assert 3 in lengths

    def test_max_length_bounds_search(self):
        def program(rt):
            locks = [rt.new_lock(name=f"l{i}") for i in range(4)]

            def t(i):
                with locks[i].at(f"t{i}:1"):
                    with locks[(i + 1) % 4].at(f"t{i}:2"):
                        pass

            hs = [rt.spawn(lambda k=i: t(k), site="s:1") for i in range(4)]
            for h in hs:
                h.join()

        short = detect(program, detector=ExtendedDetector(max_length=3))
        full = detect(program, detector=ExtendedDetector(max_length=4))
        assert len(short.cycles) == 0
        assert len(full.cycles) == 1

    def test_max_cycles_truncates(self):
        detection = detect(
            fig4_program, detector=ExtendedDetector(max_cycles=1)
        )
        assert len(detection.cycles) == 1
        assert detection.truncated

    def test_threads_distinct_within_cycle(self):
        detection = detect(fig4_program)
        for cycle in detection.cycles:
            assert len(set(cycle.threads)) == len(cycle.threads)

    def test_locksets_pairwise_disjoint(self):
        detection = detect(fig4_program)
        for cycle in detection.cycles:
            for i, ei in enumerate(cycle.entries):
                for ej in cycle.entries[i + 1 :]:
                    assert not (set(ei.lockset) & set(ej.lockset))

    def test_chain_condition_holds(self):
        detection = detect(fig4_program)
        for cycle in detection.cycles:
            n = len(cycle.entries)
            for i in range(n):
                ei = cycle.entries[i]
                ej = cycle.entries[(i + 1) % n]
                assert ei.lock in ej.lockset

    def test_canonical_rotation_unique(self):
        """Every cycle appears exactly once (no rotated duplicates)."""
        detection = detect(fig4_program)
        keys = [frozenset(id(e) for e in c.entries) for c in detection.cycles]
        assert len(keys) == len(set(keys))

    def test_defect_keys_dedup_by_sites(self):
        detection = detect(fig4_program)
        assert len(detection.defect_keys()) == 2


class TestPotentialDeadlockApi:
    def test_properties(self):
        detection = detect(two_lock_program)
        (cycle,) = detection.cycles
        assert len(cycle.locks) == 2
        assert len(cycle.indices) == 2
        assert cycle.defect_key == cycle.sites
        assert "wants" in cycle.pretty()

    def test_sites_computed_once(self):
        """Repeated reads of ``sites`` and ``defect_key`` return one
        object; equality, hash and pickling do not see the cached set."""
        import copy
        import pickle

        detection = detect(fig4_program)
        for cycle in detection.cycles:
            before = pickle.dumps(cycle)
            sites = cycle.sites
            assert cycle.sites is sites and cycle.defect_key is sites
            assert sites == frozenset(e.index.site for e in cycle.entries)
            assert pickle.dumps(cycle) == before
            for dup in (pickle.loads(before), pickle.loads(pickle.dumps(cycle)),
                        copy.deepcopy(cycle)):
                assert "sites" not in vars(dup)
                assert dup == cycle and hash(dup) == hash(cycle)
                assert dup.sites == sites
