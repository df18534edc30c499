"""Trace sanitizer tests: each invariant has a minimal corrupted trace
that yields *exactly* its diagnostic; clean traces yield none.

The corrupted traces are built by hand from the event model so the
violation is the only anomaly — cascading diagnostics would make the
sanitizer useless as a localisation tool.
"""

from __future__ import annotations

from typing import List

import pytest

from dataclasses import replace

from repro.analysis import check_cycle_closure, check_sync_graph, sanitize_trace
from repro.analysis.sanitizer import INVARIANT_CODES
from repro.core.detector import ExtendedDetector, PotentialDeadlock
from repro.core.prediction import ClosureIndex
from repro.core.generator import Generator
from repro.core.pipeline import Wolf, WolfConfig, run_detection
from repro.core.pruner import Pruner
from repro.core.syncgraph import EdgeKind, SyncGraph
from repro.runtime.events import (
    AcquireEvent,
    BeginEvent,
    EndEvent,
    JoinEvent,
    ReleaseEvent,
    SpawnEvent,
    Trace,
    TraceEvent,
    WaitEvent,
)
from repro.util.ids import ExecIndex, LockId, ThreadId
from repro.workloads.registry import get_benchmark

MAIN = ThreadId.root()
T1 = ThreadId(MAIN, "sp:1", 0, name="t1")
LOCK_A = LockId(MAIN, "mk:1", 0, name="A")
LOCK_B = LockId(MAIN, "mk:2", 0, name="B")


def mk_trace(events: List[TraceEvent]) -> Trace:
    return Trace(program="synthetic", seed=0, events=events)


def acq(step, thread, lock, site, held=(), held_ix=(), reentrant=False):
    return AcquireEvent(
        step=step,
        thread=thread,
        lock=lock,
        index=ExecIndex(thread, site, 1),
        held=tuple(held),
        held_indices=tuple(held_ix),
        reentrant=reentrant,
    )


def rel(step, thread, lock, site, reentrant=False):
    return ReleaseEvent(
        step=step, thread=thread, lock=lock, site=site, reentrant=reentrant
    )


def codes(trace: Trace) -> List[str]:
    return [d.code for d in sanitize_trace(trace)]


class TestCleanTraces:
    def test_empty_trace(self):
        assert sanitize_trace(mk_trace([])) == []

    def test_single_thread_balanced(self):
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                acq(1, MAIN, LOCK_A, "a:1"),
                rel(2, MAIN, LOCK_A, "a:1"),
                EndEvent(step=3, thread=MAIN),
            ]
        )
        assert sanitize_trace(t) == []

    def test_spawn_join_lifecycle(self):
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                SpawnEvent(step=1, thread=MAIN, child=T1),
                BeginEvent(step=2, thread=T1),
                EndEvent(step=3, thread=T1),
                JoinEvent(step=4, thread=MAIN, target=T1),
                EndEvent(step=5, thread=MAIN),
            ]
        )
        assert sanitize_trace(t) == []

    def test_reentrant_nesting(self):
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                acq(1, MAIN, LOCK_A, "a:1"),
                acq(
                    2,
                    MAIN,
                    LOCK_A,
                    "a:2",
                    held=[LOCK_A],
                    held_ix=[ExecIndex(MAIN, "a:1", 1)],
                    reentrant=True,
                ),
                rel(3, MAIN, LOCK_A, "a:2", reentrant=True),
                rel(4, MAIN, LOCK_A, "a:1"),
                EndEvent(step=5, thread=MAIN),
            ]
        )
        assert sanitize_trace(t) == []

    def test_wait_releases_full_depth(self):
        """A wait at hold depth 2 emits one non-reentrant release; the
        reacquisition restores the saved depth (sim substrate semantics)."""
        ix1 = ExecIndex(MAIN, "a:1", 1)
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                acq(1, MAIN, LOCK_A, "a:1"),
                acq(2, MAIN, LOCK_A, "a:2", [LOCK_A], [ix1], reentrant=True),
                WaitEvent(step=3, thread=MAIN, condition="c", lock=LOCK_A, site="w:1"),
                rel(4, MAIN, LOCK_A, "w:1"),
                acq(5, MAIN, LOCK_A, "w:1"),
                # Depth restored to 2: one reentrant then one full release.
                rel(6, MAIN, LOCK_A, "a:2", reentrant=True),
                rel(7, MAIN, LOCK_A, "a:1"),
                EndEvent(step=8, thread=MAIN),
            ]
        )
        assert sanitize_trace(t) == []

    def test_deadlock_truncation_is_clean(self):
        """Threads still holding locks when the trace ends (deadlock) are
        not violations."""
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                acq(1, MAIN, LOCK_A, "a:1"),
            ]
        )
        assert sanitize_trace(t) == []

    @pytest.mark.parametrize("name", ["philosophers", "fig4", "HashMap"])
    def test_real_detection_traces_clean(self, name):
        b = get_benchmark(name)
        run = run_detection(b.program, b.detect_seed, name=b.name)
        assert sanitize_trace(run.trace) == []


class TestCorruptedTraces:
    """One minimal corruption per invariant -> exactly that diagnostic."""

    def test_step_monotonic(self):
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                EndEvent(step=0, thread=MAIN),  # step did not advance
            ]
        )
        assert codes(t) == ["step-monotonic"]

    def test_begin_order(self):
        t = mk_trace(
            [
                # First event of MAIN is not a BeginEvent.
                acq(0, MAIN, LOCK_A, "a:1"),
                rel(1, MAIN, LOCK_A, "a:1"),
                EndEvent(step=2, thread=MAIN),
            ]
        )
        assert codes(t) == ["begin-order"]

    def test_begin_order_duplicate(self):
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                BeginEvent(step=1, thread=MAIN),
                EndEvent(step=2, thread=MAIN),
            ]
        )
        assert codes(t) == ["begin-order"]

    def test_spawn_join_duplicate_spawn(self):
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                SpawnEvent(step=1, thread=MAIN, child=T1),
                SpawnEvent(step=2, thread=MAIN, child=T1),  # spawned twice
                BeginEvent(step=3, thread=T1),
                EndEvent(step=4, thread=T1),
                JoinEvent(step=5, thread=MAIN, target=T1),
                EndEvent(step=6, thread=MAIN),
            ]
        )
        assert codes(t) == ["spawn-join"]

    def test_spawn_join_join_before_end(self):
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                SpawnEvent(step=1, thread=MAIN, child=T1),
                BeginEvent(step=2, thread=T1),
                JoinEvent(step=3, thread=MAIN, target=T1),  # T1 still running
                EndEvent(step=4, thread=T1),
                EndEvent(step=5, thread=MAIN),
            ]
        )
        assert codes(t) == ["spawn-join"]

    def test_end_order_event_after_end(self):
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                EndEvent(step=1, thread=MAIN),
                acq(2, MAIN, LOCK_A, "a:1"),  # zombie event
            ]
        )
        assert codes(t) == ["end-order"]

    def test_end_order_holding_locks(self):
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                acq(1, MAIN, LOCK_A, "a:1"),
                EndEvent(step=2, thread=MAIN),  # ended while holding A
            ]
        )
        assert codes(t) == ["end-order"]

    def test_mutual_exclusion(self):
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                SpawnEvent(step=1, thread=MAIN, child=T1),
                BeginEvent(step=2, thread=T1),
                acq(3, MAIN, LOCK_A, "a:1"),
                acq(4, T1, LOCK_A, "a:2"),  # A still owned by MAIN
                rel(5, T1, LOCK_A, "a:2"),
                EndEvent(step=6, thread=T1),
            ]
        )
        assert codes(t) == ["mutual-exclusion"]

    def test_mutual_exclusion_reentrant_unheld(self):
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                # Flagged reentrant but the thread holds nothing.
                acq(1, MAIN, LOCK_A, "a:1", reentrant=True),
                rel(2, MAIN, LOCK_A, "a:1"),
                EndEvent(step=3, thread=MAIN),
            ]
        )
        assert codes(t) == ["mutual-exclusion"]

    def test_lock_balance_release_unheld(self):
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                rel(1, MAIN, LOCK_A, "a:1"),  # never acquired
                EndEvent(step=2, thread=MAIN),
            ]
        )
        assert codes(t) == ["lock-balance"]

    def test_lock_balance_reentrant_flag_mismatch(self):
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                acq(1, MAIN, LOCK_A, "a:1"),
                rel(2, MAIN, LOCK_A, "a:1", reentrant=True),  # depth is 1
                EndEvent(step=3, thread=MAIN),
            ]
        )
        assert codes(t) == ["lock-balance"]

    def test_lock_balance_wait_unheld(self):
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                WaitEvent(step=1, thread=MAIN, condition="c", lock=LOCK_A, site="w:1"),
                EndEvent(step=2, thread=MAIN),
            ]
        )
        assert codes(t) == ["lock-balance"]

    def test_lockset_snapshot(self):
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                acq(1, MAIN, LOCK_A, "a:1"),
                # Claims an empty lockset while actually holding A.
                acq(2, MAIN, LOCK_B, "b:1", held=[], held_ix=[]),
                rel(3, MAIN, LOCK_B, "b:1"),
                rel(4, MAIN, LOCK_A, "a:1"),
                EndEvent(step=5, thread=MAIN),
            ]
        )
        assert codes(t) == ["lockset-snapshot"]

    def test_lockset_snapshot_wrong_indices(self):
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                acq(1, MAIN, LOCK_A, "a:1"),
                acq(
                    2,
                    MAIN,
                    LOCK_B,
                    "b:1",
                    held=[LOCK_A],
                    held_ix=[ExecIndex(MAIN, "WRONG", 9)],
                ),
                rel(3, MAIN, LOCK_B, "b:1"),
                rel(4, MAIN, LOCK_A, "a:1"),
                EndEvent(step=5, thread=MAIN),
            ]
        )
        assert codes(t) == ["lockset-snapshot"]

    def test_vclock_monotonic_spawn_after_run(self):
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                BeginEvent(step=1, thread=T1),  # child runs before its spawn
                SpawnEvent(step=2, thread=MAIN, child=T1),
                EndEvent(step=3, thread=T1),
                EndEvent(step=4, thread=MAIN),
            ]
        )
        assert codes(t) == ["vclock-monotonic"]

    def test_vclock_monotonic_join_never_ran(self):
        t = mk_trace(
            [
                BeginEvent(step=0, thread=MAIN),
                JoinEvent(step=1, thread=MAIN, target=T1),  # T1 has tau ⊥
                EndEvent(step=2, thread=MAIN),
            ]
        )
        assert codes(t) == ["vclock-monotonic"]

    def test_gs_typing(self):
        """A hand-corrupted Gs: a cross-thread type-P edge is flagged."""
        b = get_benchmark("philosophers")
        run = run_detection(b.program, b.detect_seed, name=b.name)
        detection = ExtendedDetector(max_length=3).analyze(run.trace)
        survivors = Pruner(detection.vclocks).prune(detection.cycles).survivors
        gen = Generator(detection.relation).run(survivors)
        gs = gen.decisions[0].gs
        assert check_sync_graph(gs) == []  # generator output is well-typed
        bad = SyncGraph(cycle=gs.cycle)
        vertices = sorted(
            gs.by_index.values(), key=lambda v: (v.thread.pretty(), v.index.site)
        )
        u = next(v for v in vertices if v.thread != vertices[-1].thread)
        v = vertices[-1]
        bad.add_edge(u, v, EdgeKind.P)  # type-P must be intra-thread
        diags = check_sync_graph(bad)
        assert [d.code for d in diags] == ["gs-typing"]

    def test_cycle_closure_missing_acquire(self):
        """A cycle referencing an acquisition the trace never recorded
        (the corruption a truncated or rewritten trace produces) yields
        exactly one "cycle-closure" diagnostic."""
        b = get_benchmark("fig4")
        run = run_detection(b.program, b.detect_seed, name=b.name)
        detection = ExtendedDetector(max_length=b.max_cycle_length).analyze(
            run.trace
        )
        index = ClosureIndex.from_events(run.trace)
        assert check_cycle_closure(index, detection.cycles) == []
        cycle = detection.cycles[0]
        entry = cycle.entries[0]
        bogus = replace(
            entry, index=ExecIndex(entry.thread, "nowhere:1", 99)
        )
        bad = PotentialDeadlock(entries=(bogus,) + cycle.entries[1:])
        diags = check_cycle_closure(index, [bad])
        assert [d.code for d in diags] == ["cycle-closure"]

    def test_cycle_closure_foreign_context(self):
        """A context acquisition owned by a different thread than the
        cycle entry is flagged — the closure would steer the wrong
        thread."""
        b = get_benchmark("fig4")
        run = run_detection(b.program, b.detect_seed, name=b.name)
        detection = ExtendedDetector(max_length=b.max_cycle_length).analyze(
            run.trace
        )
        index = ClosureIndex.from_events(run.trace)
        cycle = detection.cycles[0]
        e0, e1 = cycle.entries[0], cycle.entries[1]
        bogus = replace(e0, context=(e1.index,) + e0.context[1:])
        bad = PotentialDeadlock(entries=(bogus,) + cycle.entries[1:])
        diags = check_cycle_closure(index, [bad])
        assert diags and all(d.code == "cycle-closure" for d in diags)

    def test_all_invariants_covered(self):
        """Every published invariant code has at least one corruption test
        in this class (grep-level completeness check)."""
        import inspect

        source = inspect.getsource(TestCorruptedTraces) + inspect.getsource(
            TestCleanTraces
        )
        for code in INVARIANT_CODES:
            assert f'"{code}"' in source or f"'{code}'" in source


class TestPipelineIntegration:
    def test_wolf_sanitize_clean(self):
        b = get_benchmark("philosophers")
        cfg = WolfConfig(
            seed=b.detect_seed, max_cycle_length=3, sanitize=True
        )
        report = Wolf(config=cfg).analyze(b.program, name=b.name)
        assert report.sanitizer == []
        assert "sanitize" in report.timings

    def test_report_surfaces_diagnostics(self):
        from repro.analysis import SanitizerDiagnostic
        from repro.core.report import WolfReport

        rep = WolfReport(program="p", seeds=[0])
        rep.sanitizer.append(
            SanitizerDiagnostic(code="lock-balance", message="boom", step=3)
        )
        assert "lock-balance" in rep.summary()
        assert rep.n_diagnostics == 1
        import json

        data = json.loads(rep.to_json())
        assert data["sanitizer"][0]["code"] == "lock-balance"
