"""Replayer tests: reliable reproduction, hit criterion, control-flow
divergence handling (paper §3.5)."""

from __future__ import annotations

import random

from repro.core.detector import ExtendedDetector, PotentialDeadlock
from repro.core.generator import Generator, GeneratorVerdict
from repro.core.parallel import predict_decisions
from repro.core.pipeline import run_detection
from repro.core.prediction import ClosureIndex, PredictionVerdict
from repro.core.pruner import Pruner
from repro.core.replayer import GsDrain, Replayer, WolfReplayStrategy, is_hit
from repro.core.syncgraph import EdgeKind, GsVertex, SyncGraph
from repro.runtime.nativert import NativeReplayer, NativeRuntime
from repro.runtime.nativert.runtime import DeadlockAborted
from repro.runtime.sim.result import RunStatus
from repro.util.ids import ExecIndex, LockId, ThreadId
from repro.workloads.figures import FIG4_THETA2_SITES, fig4_program
from repro.workloads.registry import get_benchmark
from tests.conftest import two_lock_program


def survivors_of(program, seed=0):
    run = run_detection(program, seed)
    detection = ExtendedDetector().analyze(run.trace)
    surv = Pruner(detection.vclocks).prune(detection.cycles).survivors
    return detection, Generator(detection.relation).run(surv)


class TestFig4Replay:
    def test_reproduces_reliably(self):
        detection, gen = survivors_of(fig4_program)
        (dec,) = gen.survivors
        replayer = Replayer(fig4_program, name="fig4", seed=0)
        outcome = replayer.replay(dec, attempts=10, stop_on_hit=False)
        # Figure 4's deadlock has no competing control flow: the Gs
        # schedule should deadlock it every single time.
        assert outcome.hits == 10
        assert outcome.reproduced

    def test_hit_run_recorded(self):
        _, gen = survivors_of(fig4_program)
        (dec,) = gen.survivors
        outcome = Replayer(fig4_program, seed=0).replay(dec)
        assert outcome.hit_run is not None
        assert outcome.hit_run.deadlock.sites == FIG4_THETA2_SITES

    def test_stop_on_hit_stops_early(self):
        _, gen = survivors_of(fig4_program)
        (dec,) = gen.survivors
        outcome = Replayer(fig4_program, seed=0, attempts=10).replay(dec)
        assert outcome.attempts == 1

    def test_deterministic_given_seed(self):
        _, gen = survivors_of(fig4_program)
        (dec,) = gen.survivors
        a = Replayer(fig4_program, seed=5).replay(dec, attempts=3, stop_on_hit=False)
        b = Replayer(fig4_program, seed=5).replay(dec, attempts=3, stop_on_hit=False)
        assert a.hits == b.hits
        assert a.statuses == b.statuses


class TestHitCriterion:
    def test_completed_run_is_not_hit(self):
        _, gen = survivors_of(two_lock_program)
        (dec,) = gen.survivors
        from repro.runtime.sim.runtime import run_program
        from repro.runtime.sim.strategy import FixedOrderStrategy

        result = run_program(two_lock_program, FixedOrderStrategy(["main", "t1", "t2"]))
        assert result.status is RunStatus.COMPLETED
        assert not is_hit(result, dec.gs)

    def test_wrong_site_deadlock_is_not_hit(self):
        """A deadlock elsewhere does not confirm this cycle."""
        _, gen = survivors_of(two_lock_program)
        (dec,) = gen.survivors

        class FakeDeadlock:
            sites = frozenset({"other:1", "other:2"})

        class FakeResult:
            status = RunStatus.DEADLOCK
            deadlock = FakeDeadlock()

        assert not is_hit(FakeResult(), dec.gs)


class TestControlFlowDivergence:
    """Paper §3.5: if the replayed run skips an acquisition (different
    branch), the Replayer must drop the stale dependencies and proceed."""

    def _program(self, flaky):
        def program(rt):
            l1 = rt.new_lock(name="l1")
            l2 = rt.new_lock(name="l2")
            l3 = rt.new_lock(name="l3")

            def t3_body():
                l3.acquire(site="31")
                l2.acquire(site="32")
                l1.acquire(site="33")
                l1.release()
                l2.release()
                l3.release()

            def t2_body():
                rt.spawn(t3_body, name="t3", site="21")

            l1.acquire(site="11")
            l2.acquire(site="12")
            l2.release()
            l1.release()
            rt.spawn(t2_body, name="t2", site="15")
            if not flaky["skip"]:
                # In the detection run t1 takes l3 at 16; the replay run
                # skips it, emulating a data-dependent branch.
                l3.acquire(site="16")
                l3.release()
            l1.acquire(site="18")
            l2.acquire(site="19")
            l2.release()
            l1.release()

        return program

    def test_skipped_vertex_does_not_wedge(self):
        flaky = {"skip": False}
        program = self._program(flaky)
        detection, gen = survivors_of(program)
        (dec,) = gen.survivors
        # Flip the branch: replays now skip site 16 entirely.
        flaky["skip"] = True
        outcome = Replayer(program, seed=0).replay(dec, attempts=5, stop_on_hit=False)
        # The run must terminate (no wedge); the deadlock is still
        # reachable because 16's edges get dropped when 18 executes.
        assert all(
            s in (RunStatus.DEADLOCK, RunStatus.COMPLETED) for s in outcome.statuses
        )
        assert outcome.hits > 0


class TestStrategyInternals:
    def test_noncycle_threads_unconstrained(self):
        _, gen = survivors_of(fig4_program)
        (dec,) = gen.survivors
        strategy = WolfReplayStrategy(dec.gs, seed=0)
        # Only the cycle's own threads are constrained; t2 (the middle
        # spawner) is not part of the cycle and so not in the set.
        assert strategy.cycle_threads == {
            e.thread for e in dec.cycle.entries
        }

    def test_forced_release_counter(self):
        _, gen = survivors_of(fig4_program)
        (dec,) = gen.survivors
        strategy = WolfReplayStrategy(dec.gs, seed=0)
        assert strategy.forced_releases == 0
        assert strategy.choose_unpause([]) is None
        assert strategy.forced_releases == 1


# ---------------------------------------------------------------------------
# GsDrain: Algorithm 4's retirement rule over a shared Gs
# ---------------------------------------------------------------------------


class CopyDrain:
    """The copy-and-delete drain ``GsDrain`` replaced: each attempt copies
    ``Gs`` and deletes satisfied vertices from the copy.  The oracle."""

    def __init__(self, gs: SyncGraph) -> None:
        self.graph = gs.graph.copy()
        self.by_index = gs.by_index

    def _live(self, index):
        v = self.by_index.get(index)
        return None if v is None or v not in self.graph else v

    def gates(self, index) -> bool:
        v = self._live(index)
        return v is not None and any(
            u.thread != v.thread for u in self.graph.predecessors(v)
        )

    def acquire(self, index) -> bool:
        v = self._live(index)
        if v is None:
            return False
        for u in self.graph.ancestors(v):
            self.graph.remove_node(u)
        self.graph.remove_node(v)
        return True

    def end_thread(self, thread) -> bool:
        doomed = [u for u in self.graph.nodes() if u.thread == thread]
        for u in doomed:
            self.graph.remove_node(u)
        return bool(doomed)


ROOT = ThreadId.root()


def thread(name: str) -> ThreadId:
    return ThreadId(ROOT, f"spawn:{name}", 1, name=name)


def make_gs(owners, edges) -> SyncGraph:
    """A ``Gs`` with vertex ``i`` acquired by thread ``owners[i]`` (a
    name) and an edge per ``(u, v)`` position pair."""
    vertices = [
        GsVertex(ExecIndex(thread(name), f"s{i}", 1), LockId(ROOT, f"l{i}", 1))
        for i, name in enumerate(owners)
    ]
    return SyncGraph(
        cycle=PotentialDeadlock(entries=()),
        vertices=vertices,
        edges={e: EdgeKind.P for e in edges},
    )


def live(drain: GsDrain, gs: SyncGraph):
    return set(gs.vertices) - drain.retired


class TestGsDrain:
    def test_cut_path_keeps_upstream_live(self):
        """u(A)->x(B)->v(C) and u->w(D).  B ends, which cuts the path
        from u to v; acquiring v then must not retire u, so w stays
        gated.  Retiring v's ancestors in the whole of Gs would free w."""
        gs = make_gs("ABCD", [(0, 1), (1, 2), (0, 3)])
        u, x, v, w = gs.vertices
        for drain in (GsDrain(gs), CopyDrain(gs)):
            assert drain.gates(v.index) and drain.gates(w.index)
            assert drain.end_thread(thread("B"))
            assert not drain.gates(v.index)
            assert drain.acquire(v.index)
            assert drain.gates(w.index)
            assert not drain.acquire(x.index)  # retired with its thread
        drain = GsDrain(gs)
        drain.end_thread(thread("B"))
        drain.acquire(v.index)
        assert drain.retired == {x, v}

    def test_same_thread_edges_do_not_gate(self):
        gs = make_gs("AAB", [(0, 1), (1, 2)])
        a0, a1, b = gs.vertices
        drain = GsDrain(gs)
        assert not drain.gates(a1.index)  # program order only
        assert drain.gates(b.index)
        assert drain.acquire(a1.index)  # a0 was skipped: retired too
        assert drain.retired == {a0, a1}
        assert not drain.gates(b.index)

    def test_untracked_index_is_inert(self):
        gs = make_gs("AB", [(0, 1)])
        drain = GsDrain(gs)
        other = ExecIndex(thread("A"), "elsewhere", 1)
        assert not drain.gates(other) and not drain.acquire(other)
        assert not drain.end_thread(thread("Z"))
        assert drain.retired == set()

    def test_matches_copy_and_delete_on_random_dags(self):
        """Random DAGs, random acquisitions and thread ends: the shared
        drain answers every gate query, retires the same vertices and
        reports the same changes as deleting from a copy."""
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(1, 10)
            owners = [rng.choice("ABCD"[: rng.randint(1, 4)]) for _ in range(n)]
            p = rng.random()
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
            ]
            gs = make_gs(owners, edges)
            drain, oracle = GsDrain(gs), CopyDrain(gs)
            indices = [v.index for v in gs.vertices]
            indices.append(ExecIndex(thread("A"), "untracked", 1))
            for _ in range(2 * n):
                if rng.random() < 0.25:
                    t = thread(rng.choice("ABCDE"))
                    assert drain.end_thread(t) == oracle.end_thread(t), seed
                else:
                    index = rng.choice(indices)
                    assert drain.acquire(index) == oracle.acquire(index), seed
                assert live(drain, gs) == set(oracle.graph.nodes()), seed
                assert [drain.gates(i) for i in indices] == [
                    oracle.gates(i) for i in indices
                ], seed


class TestSharedGsNotMutated:
    def test_replays_leave_gs_untouched(self):
        """Simulated replay (witness attempt, then Gs-steered attempts
        that deadlock and that complete) and a real-thread replay all
        read ``Gs`` in place; none may change it."""
        bench = get_benchmark("ArrayList")
        run = run_detection(bench.program, bench.detect_seed, name=bench.name)
        detection = ExtendedDetector(max_length=bench.max_cycle_length).analyze(
            run.trace
        )
        survivors = Pruner(detection.vclocks).prune(detection.cycles).survivors
        gen = Generator(detection.relation).run(survivors)
        preds = predict_decisions(ClosureIndex.from_events(run.trace), gen.decisions)
        replayer = Replayer(bench.program, name=bench.name, seed=bench.detect_seed)
        for dec, pred in zip(gen.decisions, preds):
            if (
                dec.verdict is not GeneratorVerdict.UNKNOWN
                or pred is None
                or pred.verdict is not PredictionVerdict.CERTIFIED
            ):
                continue
            graph = dec.gs.graph
            nodes, edges = list(graph.nodes()), list(graph.edges())
            outcome = replayer.replay(
                dec, attempts=5, stop_on_hit=False, witness=pred.witness
            )
            if {RunStatus.DEADLOCK, RunStatus.COMPLETED} <= set(outcome.statuses):
                break
        else:
            raise AssertionError("no replay both deadlocked and completed")
        assert list(graph.nodes()) == nodes and list(graph.edges()) == edges

        gate = NativeReplayer(dec.gs, stall_timeout=0.2)
        rt = NativeRuntime(name=bench.name, poll_interval=0.003, gate=gate)
        try:
            bench.program(rt)
        except DeadlockAborted:
            pass
        assert gate.drain.retired  # the gate drained Gs
        assert list(graph.nodes()) == nodes and list(graph.edges()) == edges
