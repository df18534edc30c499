"""Tests for the deterministic cooperative runtime."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.runtime.events import (
    AcquireEvent,
    BeginEvent,
    BlockEvent,
    EndEvent,
    JoinEvent,
    ReleaseEvent,
    SpawnEvent,
)
from repro.runtime.sim.result import RunStatus
from repro.runtime.sim.runtime import run_program
from repro.runtime.sim.scheduler import LockUsageError, SchedulerStalled
from repro.runtime.sim.strategy import (
    FixedOrderStrategy,
    RandomStrategy,
    RoundRobinStrategy,
)
from tests.conftest import ordered_program, two_lock_program


class TestBasicExecution:
    def test_empty_program_completes(self):
        result = run_program(lambda rt: None)
        assert result.status is RunStatus.COMPLETED
        kinds = [type(e) for e in result.trace]
        assert kinds == [BeginEvent, EndEvent]

    def test_single_lock_roundtrip(self):
        def program(rt):
            lock = rt.new_lock(name="L")
            with lock.at("s:1"):
                pass

        result = run_program(program)
        assert result.status is RunStatus.COMPLETED
        kinds = [type(e) for e in result.trace]
        assert kinds == [BeginEvent, AcquireEvent, ReleaseEvent, EndEvent]

    def test_spawn_join_event_order(self):
        def program(rt):
            h = rt.spawn(lambda: None, name="child", site="s:spawn")
            h.join()

        result = run_program(program)
        assert result.status is RunStatus.COMPLETED
        kinds = [type(e) for e in result.trace]
        assert kinds.index(SpawnEvent) < kinds.index(EndEvent)
        assert JoinEvent in kinds
        # join completes only after the child's EndEvent
        join_at = next(i for i, e in enumerate(result.trace) if isinstance(e, JoinEvent))
        child_end = next(
            i
            for i, e in enumerate(result.trace)
            if isinstance(e, EndEvent) and not e.thread.is_root
        )
        assert child_end < join_at

    def test_steps_match_trace_length(self):
        result = run_program(two_lock_program, RandomStrategy(1))
        assert result.steps == len(result.trace)
        assert [e.step for e in result.trace] == list(range(len(result.trace)))

    def test_result_wall_time_positive(self):
        result = run_program(lambda rt: None)
        assert result.wall_time_s > 0


class TestDeterminism:
    def _fingerprint(self, result):
        return [repr(e) for e in result.trace]

    @pytest.mark.parametrize("seed", [0, 1, 7, 99])
    def test_same_seed_same_trace(self, seed):
        a = run_program(two_lock_program, RandomStrategy(seed))
        b = run_program(two_lock_program, RandomStrategy(seed))
        assert a.status == b.status
        assert self._fingerprint(a) == self._fingerprint(b)

    def test_different_seeds_eventually_differ(self):
        prints = {
            tuple(self._fingerprint(run_program(two_lock_program, RandomStrategy(s))))
            for s in range(12)
        }
        assert len(prints) > 1

    def test_sticky_same_seed_same_trace(self):
        a = run_program(two_lock_program, RandomStrategy(3, stickiness=0.9))
        b = run_program(two_lock_program, RandomStrategy(3, stickiness=0.9))
        assert self._fingerprint(a) == self._fingerprint(b)


class TestMutualExclusion:
    def test_no_two_holders(self):
        """Replaying any trace, the same lock is never held twice."""
        result = run_program(two_lock_program, RandomStrategy(5))
        held = {}
        for ev in result.trace:
            if isinstance(ev, AcquireEvent) and not ev.reentrant:
                assert ev.lock not in held, "lock double-granted"
                held[ev.lock] = ev.thread
            elif isinstance(ev, ReleaseEvent) and not ev.reentrant:
                assert held.pop(ev.lock) == ev.thread

    def test_contention_completes(self):
        def program(rt):
            lock = rt.new_lock(name="L")
            counter = {"n": 0}

            def worker():
                for _ in range(5):
                    with lock.at("w:1"):
                        counter["n"] += 1

            hs = [rt.spawn(worker, site="sp:w") for _ in range(3)]
            for h in hs:
                h.join()
            assert counter["n"] == 15

        for seed in range(5):
            result = run_program(program, RandomStrategy(seed))
            result.raise_errors()
            assert result.status is RunStatus.COMPLETED


class TestReentrancy:
    def test_reentrant_lock_reenters(self):
        def program(rt):
            lock = rt.new_lock(name="L", reentrant=True)
            with lock.at("r:1"):
                with lock.at("r:2"):
                    pass

        result = run_program(program)
        assert result.status is RunStatus.COMPLETED
        acquires = [e for e in result.trace if isinstance(e, AcquireEvent)]
        assert [a.reentrant for a in acquires] == [False, True]
        releases = [e for e in result.trace if isinstance(e, ReleaseEvent)]
        assert [r.reentrant for r in releases] == [True, False]

    def test_non_reentrant_self_deadlock(self):
        def program(rt):
            lock = rt.new_lock(name="L", reentrant=False)
            with lock.at("n:1"):
                with lock.at("n:2"):
                    pass

        result = run_program(program)
        assert result.status is RunStatus.DEADLOCK
        assert result.deadlock.cycle[0].thread.is_root

    def test_reentrant_held_snapshot_excludes_duplicate(self):
        """A reentrant re-acquire does not grow the held lockset."""

        def program(rt):
            lock = rt.new_lock(name="L")
            with lock.at("r:1"):
                with lock.at("r:2"):
                    pass

        result = run_program(program)
        reacquire = [e for e in result.trace if isinstance(e, AcquireEvent)][1]
        assert len(reacquire.held) == 1


class TestDeadlockDetection:
    def test_ab_ba_deadlocks_some_seed(self):
        outcomes = {
            run_program(two_lock_program, RandomStrategy(s)).status for s in range(20)
        }
        assert RunStatus.DEADLOCK in outcomes
        assert RunStatus.COMPLETED in outcomes

    def test_deadlock_info_sites(self):
        for seed in range(20):
            result = run_program(two_lock_program, RandomStrategy(seed))
            if result.status is RunStatus.DEADLOCK:
                assert result.deadlock.sites == {"p:b1", "p:a2"}
                assert len(result.deadlock.cycle) == 2
                holders = {b.holder for b in result.deadlock.cycle}
                waiters = {b.thread for b in result.deadlock.cycle}
                assert holders == waiters
                return
        pytest.fail("no deadlock observed in 20 seeds")

    def test_ordered_program_never_deadlocks(self):
        for seed in range(20):
            result = run_program(ordered_program, RandomStrategy(seed))
            assert result.status is RunStatus.COMPLETED

    def test_pretty_renders(self):
        for seed in range(20):
            result = run_program(two_lock_program, RandomStrategy(seed))
            if result.deadlock:
                text = result.deadlock.pretty()
                assert "waits for" in text
                return


class TestErrors:
    def test_release_unheld_lock(self):
        def program(rt):
            lock = rt.new_lock(name="L")
            lock.release(site="bad:1")

        result = run_program(program)
        assert result.status is RunStatus.ERROR
        (exc,) = result.errors.values()
        assert isinstance(exc, LockUsageError)
        with pytest.raises(LockUsageError):
            result.raise_errors()

    def test_release_other_threads_lock(self):
        def program(rt):
            lock = rt.new_lock(name="L")
            lock.acquire(site="a:1")

            def thief():
                lock.release(site="steal:1")

            h = rt.spawn(thief, site="sp:1")
            h.join()
            lock.release(site="a:2")

        result = run_program(program)
        assert any(isinstance(e, LockUsageError) for e in result.errors.values())

    def test_terminate_holding_lock_reported_and_recovered(self):
        def program(rt):
            lock = rt.new_lock(name="L")

            def leaker():
                lock.acquire(site="leak:1")  # never released

            def waiter():
                with lock.at("wait:1"):
                    pass

            h1 = rt.spawn(leaker, site="sp:1")
            h1.join()
            h2 = rt.spawn(waiter, site="sp:2")
            h2.join()

        result = run_program(program)
        # The leak is reported but the waiter still completes.
        assert any(isinstance(e, LockUsageError) for e in result.errors.values())
        assert not any(
            isinstance(e, BlockEvent) and e.thread.pretty() == "main"
            for e in result.trace
        )

    def test_workload_exception_captured(self):
        def program(rt):
            def boom():
                raise ValueError("kaboom")

            rt.spawn(boom, site="sp:1").join()

        result = run_program(program)
        assert result.status is RunStatus.ERROR
        (exc,) = result.errors.values()
        assert isinstance(exc, ValueError)

    def test_exception_while_holding_keeps_its_cause(self):
        def program(rt):
            a = rt.new_lock(name="A")

            def t():
                a.acquire(site="a:1")
                raise ValueError("root cause")

            rt.spawn(t, name="t", site="sp:1").join()

        result = run_program(program)
        assert result.status is RunStatus.ERROR
        (exc,) = result.errors.values()
        assert isinstance(exc, LockUsageError)
        assert str(exc) == "t terminated while holding: A"
        assert isinstance(exc.__cause__, ValueError)
        assert str(exc.__cause__) == "root cause"

    def test_step_limit(self):
        def program(rt):
            while True:
                rt.checkpoint()

        result = run_program(program, max_steps=50)
        assert result.status is RunStatus.STEP_LIMIT

    def test_new_lock_outside_sim_thread_raises(self):
        from repro.runtime.sim.runtime import SimRuntime
        from repro.runtime.sim.scheduler import Scheduler

        rt = SimRuntime(Scheduler(RandomStrategy(0)))
        with pytest.raises(RuntimeError):
            rt.new_lock()


class Boom(Exception):
    """Raised by test strategies and sinks, never by workload code."""


class RaisingStrategy(RandomStrategy):
    """Random scheduling whose ``hook`` raises :class:`Boom` on its
    ``nth`` call."""

    def __init__(self, hook: str, nth: int) -> None:
        super().__init__(3)
        self.hook = hook
        self.nth = nth
        self.calls = 0

    def _tick(self, hook: str) -> None:
        if hook == self.hook:
            self.calls += 1
            if self.calls == self.nth:
                raise Boom(hook)

    def pick(self, ready):
        self._tick("pick")
        return super().pick(ready)

    def before_acquire(self, thread, op):
        self._tick("before_acquire")
        return super().before_acquire(thread, op)

    def on_event(self, event):
        self._tick("on_event")
        super().on_event(event)


def sleepy_checkpoints(rt):
    for _ in range(8):
        time.sleep(0.1)
        rt.checkpoint()


class TestFailurePaths:
    """Scheduler failures surface from ``run_program`` and leave no
    thread behind."""

    @staticmethod
    def _new_threads(before):
        return [t for t in threading.enumerate() if t not in before]

    def test_stalled_burst_raises(self):
        def program(rt):
            lock = rt.new_lock(name="L")
            with lock.at("slow:1"):
                time.sleep(0.6)

        before = set(threading.enumerate())
        with pytest.raises(SchedulerStalled):
            run_program(program, step_timeout=0.2)
        assert self._new_threads(before) == []

    def test_step_timeout_bounds_one_burst_alone(self):
        result = run_program(
            sleepy_checkpoints, RandomStrategy(0, stickiness=0.9), step_timeout=0.3
        )
        result.raise_errors()
        assert result.status is RunStatus.COMPLETED

    def test_step_timeout_bounds_one_burst_two_threads(self):
        def program(rt):
            h = rt.spawn(lambda: sleepy_checkpoints(rt), name="sleeper", site="sp:1")
            rt.checkpoint()
            h.join()

        result = run_program(
            program, RandomStrategy(0, stickiness=0.9), step_timeout=0.3
        )
        result.raise_errors()
        assert result.status is RunStatus.COMPLETED

    @pytest.mark.parametrize("nth", [1, 5])
    @pytest.mark.parametrize("hook", ["pick", "before_acquire", "on_event"])
    def test_strategy_exception_propagates(self, hook, nth):
        caught = []

        def program(rt):
            a, b = rt.new_lock(name="A"), rt.new_lock(name="B")

            def worker(first, second):
                try:
                    with first.at("w:1"):
                        with second.at("w:2"):
                            pass
                except Exception as exc:  # must never see scheduler errors
                    caught.append(exc)

            hs = [
                rt.spawn(lambda: worker(a, b), name="t1", site="sp:1"),
                rt.spawn(lambda: worker(a, b), name="t2", site="sp:2"),
            ]
            for h in hs:
                h.join()

        before = set(threading.enumerate())
        strategy = RaisingStrategy(hook, nth)
        with pytest.raises(Boom, match=hook):
            run_program(program, strategy)
        assert strategy.calls == nth
        assert caught == []
        assert self._new_threads(before) == []

    def test_trace_sink_exception_propagates(self):
        events = []

        def sink(event):
            events.append(event)
            if len(events) == 4:
                raise Boom("sink")

        before = set(threading.enumerate())
        with pytest.raises(Boom, match="sink"):
            run_program(two_lock_program, RandomStrategy(0), trace_sink=sink)
        assert len(events) == 4
        assert self._new_threads(before) == []


def one_at_a_time_program(rt):
    """Eight workers (more than the cores) whose bursts each run a
    non-atomic read-modify-write: two threads running at once shows as a
    lost update or as ``running`` above one."""
    lock = rt.new_lock(name="L")
    shared = {"running": 0, "count": 0}

    def worker():
        for i in range(25):
            shared["running"] += 1
            running = shared["running"]
            count = shared["count"]
            for _ in range(50):
                pass
            shared["count"] = count + 1
            shared["running"] -= 1
            assert running == 1, "two simulated threads ran at once"
            if i % 2:
                with lock.at("w:1"):
                    pass
            else:
                rt.checkpoint()

    hs = [rt.spawn(worker, site="sp:w") for _ in range(8)]
    for h in hs:
        h.join()
    assert shared["count"] == 8 * 25


class TestBatonStress:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_thread_at_a_time_under_fast_switching(self, seed):
        def run():
            return run_program(
                one_at_a_time_program,
                RandomStrategy(seed, stickiness=0.5),
                step_timeout=10.0,
            )

        reference = run()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = run()
        finally:
            sys.setswitchinterval(interval)
        result.raise_errors()
        assert result.status is RunStatus.COMPLETED
        assert [repr(e) for e in result.trace] == [repr(e) for e in reference.trace]


class TestHygiene:
    def test_no_leaked_os_threads(self):
        before = threading.active_count()
        for seed in range(5):
            run_program(two_lock_program, RandomStrategy(seed))
        after = threading.active_count()
        assert after <= before + 1  # allow unrelated daemon jitter

    def test_teardown_after_deadlock(self):
        before = threading.active_count()
        deadlocked = 0
        for seed in range(20):
            r = run_program(two_lock_program, RandomStrategy(seed))
            deadlocked += r.status is RunStatus.DEADLOCK
        assert deadlocked > 0
        assert threading.active_count() <= before + 1


class TestIdentities:
    def test_thread_ids_stable_across_runs(self):
        ids = []
        for _ in range(2):
            result = run_program(two_lock_program, RandomStrategy(4))
            ids.append(sorted(t.pretty() for t in result.trace.threads()))
        assert ids[0] == ids[1]

    def test_exec_index_occurrence_counts_loop_iterations(self):
        def program(rt):
            lock = rt.new_lock(name="L")
            for _ in range(3):
                with lock.at("loop:1"):
                    pass

        result = run_program(program)
        occs = [
            e.index.occ
            for e in result.trace
            if isinstance(e, AcquireEvent)
        ]
        assert occs == [1, 2, 3]

    def test_stack_depth_recorded(self):
        def program(rt):
            lock = rt.new_lock(name="L")

            def deep(n):
                if n == 0:
                    with lock.at("deep:1"):
                        return
                deep(n - 1)

            deep(4)

        result = run_program(program)
        (acq,) = [e for e in result.trace if isinstance(e, AcquireEvent)]
        assert acq.stack_depth >= 5


class TestStrategies:
    def test_round_robin_alternates(self):
        def program(rt):
            lock_a = rt.new_lock(name="A")
            lock_b = rt.new_lock(name="B")

            def t1():
                for _ in range(3):
                    with lock_a.at("a:1"):
                        pass

            def t2():
                for _ in range(3):
                    with lock_b.at("b:1"):
                        pass

            h1 = rt.spawn(t1, name="t1", site="s:1")
            h2 = rt.spawn(t2, name="t2", site="s:2")
            h1.join()
            h2.join()

        result = run_program(program, RoundRobinStrategy())
        assert result.status is RunStatus.COMPLETED

    def test_fixed_order_runs_priority_thread_first(self):
        def program(rt):
            order = []

            def t(name):
                # Park once so both workers exist before either appends.
                rt.checkpoint()
                order.append(name)

            h1 = rt.spawn(lambda: t("first"), name="first", site="s:1")
            h2 = rt.spawn(lambda: t("second"), name="second", site="s:2")
            h1.join()
            h2.join()
            assert order[0] == "second"

        # main runs first (to spawn both workers), then "second" outranks
        # "first".
        result = run_program(program, FixedOrderStrategy(["main", "second", "first"]))
        result.raise_errors()
        assert result.status is RunStatus.COMPLETED

    def test_checkpoint_creates_no_event(self):
        def program(rt):
            rt.checkpoint()
            rt.checkpoint()

        result = run_program(program)
        kinds = [type(e) for e in result.trace]
        assert kinds == [BeginEvent, EndEvent]
