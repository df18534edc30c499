"""The cooperative scheduler: one thread runs at a time, by decree.

Workload threads are real OS threads, but each parks at every
synchronization operation.  At a park the scheduler asks the strategy which
parked thread to step, commits that thread's pending operation (or
blocks/pauses it) and lets it run to its next park.  Because scheduling
decisions happen *only* at these parks, an execution is a deterministic
function of the strategy's choices — the property the paper's Replayer
relies on to drive a program into a specific deadlock.

Protocol per thread (baton passing; see :meth:`Scheduler.park`):

1. a thread that parks posts its :class:`Op` and runs the step loop
   itself: it closes its own burst (its state, plus the ``EndEvent`` when
   its workload returned), then picks and dispatches parked threads,
   committing trace events and blocking or pausing threads, until one is
   granted a burst or the run ends;
2. a grant to itself returns straight into the workload code.  A grant to
   another thread releases that thread's baton (a ``_thread`` lock each
   thread owns and waits on), and the parking thread then waits on its
   own.  So a step costs at most one OS thread switch, and none when the
   strategy re-picks the running thread;
3. a simulated thread gets its OS thread at its first grant (the dispatch
   of its :class:`BeginOp`): the granting thread leases an idle worker
   from a process-wide pool (starting a new one only when none is idle)
   and releases the worker's baton, and the worker runs the workload at
   once;
4. the caller's thread runs the first step, then only waits for the run to
   end.  It raises :class:`SchedulerStalled` when one burst (from the
   moment the granted thread runs until it parks again) outlives
   ``step_timeout``; the step loop itself is not timed.  Once the run
   ends, fails or stalls, every parked thread is woken and unwinds with
   :class:`ThreadKilled`, a running one does so at its next park, and the
   caller waits (up to 5 s each) for every worker to finish its job for
   the run before :meth:`Scheduler.run` returns.

The pool has no size knob: it grows only when no worker is idle, so it
holds as many workers as were ever busy at once.  A worker rejoins it
only when the simulated thread's body has returned, so one still inside
a stalled burst is never leased again.  It starts no thread at import,
and a forked child starts with an empty pool.
Simulated threads therefore share OS-level thread identity
(``threading.local`` values, ``threading.current_thread()``) across runs;
a workload must not rely on either.

Scheduler code (strategy hooks, trace sinks, worker leases) runs in
whichever thread runs the step loop.  An exception it raises ends the run
and :meth:`Scheduler.run` raises it in the caller; workload code only ever
sees :class:`ThreadKilled`.

Deadlock detection is structural: when nothing is runnable and nobody can
be unpaused, the wait-for graph over blocked threads is examined; a cycle
of lock waits is a manifested resource deadlock (paper §3.5: "none of the
threads can make progress").
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.runtime.events import (
    AcquireEvent,
    BeginEvent,
    BlockEvent,
    EndEvent,
    JoinEvent,
    NotifyEvent,
    ReleaseEvent,
    SpawnEvent,
    Trace,
    TraceEvent,
    WaitEvent,
)
from repro.runtime.sim.result import BlockedAt, DeadlockInfo, RunResult, RunStatus
from repro.runtime.sim.strategy import SchedulingStrategy
from repro.util.digraph import DiGraph
from repro.util.ids import ExecIndex, OccurrenceCounter, Site, ThreadId


class ThreadKilled(BaseException):
    """Raised inside workload threads to unwind them at teardown.

    Derives from :class:`BaseException` so ordinary ``except Exception``
    handlers in workloads cannot swallow it.
    """


class SchedulerStalled(RuntimeError):
    """A workload thread failed to reach a scheduling point in time
    (almost always an unbounded loop with no synchronization ops)."""


class LockUsageError(RuntimeError):
    """Workload misuse of a lock (e.g. releasing a lock it does not hold)."""


# --------------------------------------------------------------------------
# Operations posted by workload threads
# --------------------------------------------------------------------------


@dataclass
class Op:
    """Base class for parked operations."""


@dataclass
class BeginOp(Op):
    """Where every thread starts, before any workload code runs: granting
    it leases the thread a pooled worker."""


@dataclass
class AcquireOp(Op):
    lock: object  # SimLock (duck-typed to avoid an import cycle)
    site: Site
    index: ExecIndex
    stack_depth: int = 0


@dataclass
class ReleaseOp(Op):
    lock: object
    site: Site


@dataclass
class SpawnOp(Op):
    handle: object  # SimThreadHandle


@dataclass
class JoinOp(Op):
    handle: object


@dataclass
class CheckpointOp(Op):
    """Voluntary scheduling point in lock-free code (no trace event)."""


@dataclass
class WaitOp(Op):
    """Condition wait (Java ``Object.wait``): release the monitor, sleep
    until notified, then *reacquire* the monitor at this site.

    ``phase`` tracks the three dispatch stages: ``"start"`` (validate +
    release), ``"waiting"`` (parked on the condition) and ``"reacquire"``
    (notified; contending for the monitor again).  ``index`` is the
    execution index of the reacquisition — a real acquisition to the
    analysis and to replay strategies.
    """

    cond: object  # SimCondition
    lock: object  # SimLock (the condition's monitor)
    site: Site
    index: ExecIndex
    stack_depth: int = 0
    phase: str = "start"
    saved_depth: int = 0


@dataclass
class NotifyOp(Op):
    cond: object
    lock: object
    site: Site
    notify_all: bool = False


# --------------------------------------------------------------------------
# Thread records
# --------------------------------------------------------------------------


def _new_baton() -> threading.Lock:
    """A held lock: its owner thread waits on it, the granter releases it."""
    baton = threading.Lock()
    baton.acquire()
    return baton


class ThreadState:
    NEW = "new"
    READY = "ready"
    BLOCKED = "blocked"  # on a lock or a join; see record.blocked_*
    PAUSED = "paused"  # held back by the strategy
    DONE = "done"


@dataclass
class _ThreadRecord:
    tid: ThreadId
    target: object
    #: The operation this thread is parked at (``None`` while it runs).
    op: Optional[Op] = field(default_factory=BeginOp)
    #: Released to grant this thread a burst (see :meth:`Scheduler.park`).
    baton: threading.Lock = field(default_factory=_new_baton)
    #: Held while a pooled worker runs this thread's body; ``None`` until
    #: its first grant leases one (see :meth:`Scheduler._start`).
    running: Optional[threading.Lock] = None
    state: str = ThreadState.NEW
    #: The workload returned or raised; its last park closes the thread.
    finished: bool = False
    #: What the thread raised (reported in ``RunResult.errors``).
    exc: Optional[BaseException] = None
    #: Raised in the thread when its current park is granted.
    exc_to_raise: Optional[BaseException] = None
    #: Acquisition-ordered held locks with the index each was acquired at.
    held: List[Tuple[object, ExecIndex]] = field(default_factory=list)
    #: Per-site occurrence counter for execution indices (thread-side use).
    occ: OccurrenceCounter = field(default_factory=OccurrenceCounter)
    #: Per-site counters minting child ThreadIds and LockIds.
    spawn_occ: OccurrenceCounter = field(default_factory=OccurrenceCounter)
    lock_occ: OccurrenceCounter = field(default_factory=OccurrenceCounter)
    blocked_lock: Optional[object] = None
    blocked_index: Optional[ExecIndex] = None
    join_on: Optional[ThreadId] = None
    #: Set while parked in a condition wait (phase "waiting").
    blocked_cond: Optional[object] = None
    #: Set when the scheduler force-releases this thread from a strategy
    #: pause (Algorithm 4 lines 5-7): the next acquire dispatch bypasses
    #: the strategy gate once, otherwise the strategy would immediately
    #: re-pause it and the loop would spin forever.
    skip_gate: bool = False

    def held_locks(self) -> Tuple[object, ...]:
        return tuple(l for l, _ in self.held)


# --------------------------------------------------------------------------
# Worker pool
# --------------------------------------------------------------------------

#: Name of a pooled worker that holds no lease.
_IDLE_NAME = "sim-worker"

#: Pooled workers parked on their batons with no job, last parked last.
_idle: List["_Worker"] = []

if hasattr(os, "register_at_fork"):
    # A forked child has none of its parent's threads.
    os.register_at_fork(after_in_child=_idle.clear)


class _Worker:
    """A pooled daemon OS thread that runs one simulated thread's body per
    lease (see :meth:`Scheduler._start`).

    Idle, it waits on its baton in :data:`_idle`.  It rejoins
    :data:`_idle` once :meth:`Scheduler._runner` returns, and only then
    releases the record's ``running`` lock, so a worker still inside a
    stalled burst is never leased, and every worker a finished run used is
    idle again when :meth:`Scheduler.run` returns.
    """

    __slots__ = ("thread", "baton", "job")

    def __init__(self) -> None:
        self.baton = _new_baton()
        self.job: Optional[Tuple[Scheduler, _ThreadRecord]] = None
        self.thread = threading.Thread(
            target=self._serve, daemon=True, name=_IDLE_NAME
        )
        self.thread.start()

    def lease(self, sched: "Scheduler", record: _ThreadRecord) -> None:
        self.thread.name = record.tid.pretty()
        self.job = (sched, record)
        self.baton.release()

    def _serve(self) -> None:
        while True:
            self.baton.acquire()
            sched, record = self.job
            self.job = None
            try:
                sched._runner(record)
                self.thread.name = _IDLE_NAME
                _idle.append(self)
            finally:
                record.running.release()


class Scheduler:
    """Executes one simulated run.  Create via
    :func:`repro.runtime.sim.runtime.run_program`."""

    def __init__(
        self,
        strategy: SchedulingStrategy,
        *,
        trace: Optional[Trace] = None,
        max_steps: int = 200_000,
        step_timeout: float = 30.0,
    ) -> None:
        self.strategy = strategy
        self.trace = trace if trace is not None else Trace()
        self.max_steps = max_steps
        self.step_timeout = step_timeout
        self.records: Dict[ThreadId, _ThreadRecord] = {}
        self._tls = threading.local()
        self._steps = 0
        self._iterations = 0
        self._runtime = None  # set by SimRuntime
        #: Held by whoever runs the step loop, and by the watchdog while it
        #: checks for a stall, so a stalled run is never stepped again.
        self._mutex = threading.Lock()
        #: Released once the step loop ends the run.
        self._done = _new_baton()
        #: The run is decided: nothing steps again, and a park raises
        #: :class:`ThreadKilled`.
        self._over = False
        #: When the running burst began (``None`` while none runs).
        self._burst_t0: Optional[float] = None
        self._status = RunStatus.COMPLETED
        self._deadlock: Optional[DeadlockInfo] = None
        #: An exception from scheduler code, re-raised by :meth:`run`.
        self._failure: Optional[BaseException] = None
        strategy.attach(self)

    # -- thread-side accessors -------------------------------------------------

    @property
    def current_record(self) -> _ThreadRecord:
        record = getattr(self._tls, "record", None)
        if record is None:
            raise RuntimeError(
                "this operation is only valid inside a simulated thread"
            )
        return record

    def in_sim_thread(self) -> bool:
        return getattr(self._tls, "record", None) is not None

    # -- lifecycle ---------------------------------------------------------------

    def register_root(self, tid: ThreadId, target) -> _ThreadRecord:
        return self._register(tid, target)

    def _register(self, tid: ThreadId, target) -> _ThreadRecord:
        if tid in self.records:
            raise RuntimeError(f"duplicate thread id {tid!r}")
        record = _ThreadRecord(tid=tid, target=target)
        self.records[tid] = record
        return record

    def _runner(self, record: _ThreadRecord) -> None:
        self._tls.record = record
        self._burst_t0 = time.monotonic()
        try:
            record.target()
        except ThreadKilled:
            return
        except BaseException as exc:  # noqa: BLE001 - reported via RunResult
            record.exc = exc
        record.finished = True
        granted = self._schedule(record)
        if granted is not None and granted.running is None:
            self._start(granted)

    # -- main loop -----------------------------------------------------------------

    def run(self, root: _ThreadRecord) -> RunResult:
        t0 = time.perf_counter()
        root.state = ThreadState.READY
        try:
            granted = self._schedule(None)
            if granted is not None:
                self._start(granted)
            self._await_end()
        finally:
            self._teardown()
        if self._failure is not None:
            raise self._failure
        status = self._status
        errors = {r.tid: r.exc for r in self.records.values() if r.exc is not None}
        if errors and status is RunStatus.COMPLETED:
            status = RunStatus.ERROR
        return RunResult(
            status=status,
            trace=self.trace,
            steps=self._steps,
            deadlock=self._deadlock,
            errors=errors,
            wall_time_s=time.perf_counter() - t0,
        )

    def park(self, record: _ThreadRecord, op: Op) -> None:
        """Park the calling simulated thread at ``op`` and return when it
        is granted its next burst.

        The parking thread runs the step loop itself and hands the baton
        to the thread the strategy picks; it then waits for its own baton.
        Raises :class:`ThreadKilled` once the run is over, and the
        dispatch's ``exc_to_raise`` (a misused lock) on grant.
        """
        record.op = op
        granted = self._schedule(record)
        if granted is not record:
            if granted is None or (
                granted.running is None and not self._start(granted)
            ):
                raise ThreadKilled()
            record.baton.acquire()
            if self._over:
                raise ThreadKilled()
        self._burst_t0 = time.monotonic()
        exc = record.exc_to_raise
        if exc is not None:
            record.exc_to_raise = None
            raise exc

    def _schedule(self, record: Optional[_ThreadRecord]) -> Optional[_ThreadRecord]:
        """Close ``record``'s burst and step until a thread is granted one.

        Returns the granted thread, its baton already released when it has
        a worker (one without is for the caller to :meth:`_start`), or
        ``None`` when the run is over.  An exception from scheduler code
        ends the run and is kept for :meth:`run` to raise; it never reaches
        workload code.
        """
        with self._mutex:
            if self._over:
                return None
            self._burst_t0 = None
            try:
                if record is not None:
                    self._end_burst(record)
                granted = self._step_loop()
            except BaseException as exc:  # noqa: BLE001 - re-raised by run()
                self._failure = exc
                return self._end(self._status)
            if (
                granted is not None
                and granted is not record
                and granted.running is not None
            ):
                granted.baton.release()
            return granted

    def _step_loop(self) -> Optional[_ThreadRecord]:
        while True:
            self._iterations += 1
            if (
                self._steps >= self.max_steps
                or self._iterations > 10 * self.max_steps
            ):
                return self._end(RunStatus.STEP_LIMIT)
            ready = [
                r.tid for r in self.records.values() if r.state == ThreadState.READY
            ]
            if not ready:
                paused = [
                    r.tid
                    for r in self.records.values()
                    if r.state == ThreadState.PAUSED
                ]
                if paused:
                    victim = self.strategy.choose_unpause(paused)
                    if victim is not None:
                        self.records[victim].skip_gate = True
                        self.unpause(victim)
                        continue
                blocked = [
                    r
                    for r in self.records.values()
                    if r.state in (ThreadState.BLOCKED, ThreadState.PAUSED)
                ]
                if not blocked:
                    return self._end(RunStatus.COMPLETED)
                self._deadlock = self._classify_stuck()
                return self._end(
                    RunStatus.DEADLOCK
                    if self._deadlock is not None
                    else RunStatus.STUCK
                )
            record = self.records[self.strategy.pick(ready)]
            self._dispatch(record)
            if record.op is None:
                return record

    def _end(self, status: RunStatus) -> None:
        """Decide the run (caller holds ``_mutex``) and wake :meth:`run`."""
        self._status = status
        self._over = True
        self._done.release()
        return None

    def _start(self, record: _ThreadRecord) -> bool:
        """Lease ``record`` a pooled worker at its first grant, starting a
        new one only when none is idle; it runs the workload right away.
        A worker that cannot start ends the run; returns whether it
        started."""
        try:
            worker = _idle.pop()
        except IndexError:
            try:
                worker = _Worker()
            except BaseException as exc:  # noqa: BLE001 - re-raised by run()
                with self._mutex:
                    if not self._over:
                        self._failure = exc
                        self._end(self._status)
                return False
        record.running = _new_baton()
        worker.lease(self, record)
        return True

    def _await_end(self) -> None:
        """Wait in the caller's thread until the run ends; raise
        :class:`SchedulerStalled` when one burst outlives ``step_timeout``."""
        timeout = self.step_timeout
        while not self._done.acquire(timeout=timeout):
            with self._mutex:
                if self._over:
                    return
                t0 = self._burst_t0
                if t0 is None:  # a hand-over is under way
                    timeout = self.step_timeout
                    continue
                timeout = t0 + self.step_timeout - time.monotonic()
                if timeout <= 0:
                    self._over = True
                    raise SchedulerStalled(
                        "workload thread did not reach a scheduling point "
                        f"within {self.step_timeout:.1f}s"
                    )

    # -- pause control (used by replay strategies) -----------------------------------

    def unpause(self, tid: ThreadId) -> None:
        record = self.records[tid]
        if record.state == ThreadState.PAUSED:
            record.state = ThreadState.READY

    def pause(self, tid: ThreadId) -> None:
        record = self.records[tid]
        if record.state == ThreadState.READY:
            record.state = ThreadState.PAUSED

    # -- dispatch -------------------------------------------------------------------

    def _dispatch(self, record: _ThreadRecord) -> None:
        op = record.op
        if isinstance(op, BeginOp):
            self._commit(BeginEvent(self._next_step(), record.tid))
            self._resume(record)
        elif isinstance(op, AcquireOp):
            self._dispatch_acquire(record, op)
        elif isinstance(op, ReleaseOp):
            self._dispatch_release(record, op)
        elif isinstance(op, SpawnOp):
            self._dispatch_spawn(record, op)
        elif isinstance(op, JoinOp):
            self._dispatch_join(record, op)
        elif isinstance(op, WaitOp):
            self._dispatch_wait(record, op)
        elif isinstance(op, NotifyOp):
            self._dispatch_notify(record, op)
        elif isinstance(op, CheckpointOp):
            self._resume(record)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown op {op!r}")

    def _dispatch_acquire(self, record: _ThreadRecord, op: AcquireOp) -> None:
        if record.skip_gate:
            record.skip_gate = False
        elif not self.strategy.before_acquire(record.tid, op):
            record.state = ThreadState.PAUSED
            return
        lock = op.lock
        if lock.owner is None:
            lock.owner = record.tid
            lock.depth = 1
            record.held.append((lock, op.index))
            record.blocked_lock = record.blocked_index = None
            self._commit(
                AcquireEvent(
                    self._next_step(),
                    record.tid,
                    lock=lock.lid,
                    index=op.index,
                    held=tuple(l.lid for l, _ in record.held[:-1]),
                    held_indices=tuple(ix for _, ix in record.held[:-1]),
                    reentrant=False,
                    stack_depth=op.stack_depth,
                )
            )
            self._resume(record)
        elif lock.owner == record.tid and lock.reentrant:
            lock.depth += 1
            self._commit(
                AcquireEvent(
                    self._next_step(),
                    record.tid,
                    lock=lock.lid,
                    index=op.index,
                    held=tuple(l.lid for l, _ in record.held),
                    held_indices=tuple(ix for _, ix in record.held),
                    reentrant=True,
                    stack_depth=op.stack_depth,
                )
            )
            self._resume(record)
        else:
            # Held by someone else (or a non-reentrant self-acquire).
            if record.blocked_lock is not lock or record.blocked_index != op.index:
                self._commit(
                    BlockEvent(
                        self._next_step(),
                        record.tid,
                        lock=lock.lid,
                        index=op.index,
                        holder=lock.owner,
                    )
                )
            record.blocked_lock = lock
            record.blocked_index = op.index
            record.state = ThreadState.BLOCKED

    def _dispatch_release(self, record: _ThreadRecord, op: ReleaseOp) -> None:
        lock = op.lock
        if lock.owner != record.tid:
            record.exc_to_raise = LockUsageError(
                f"{record.tid.pretty()} released {lock.lid.pretty()} "
                "which it does not hold"
            )
            self._resume(record)
            return
        lock.depth -= 1
        reentrant = lock.depth > 0
        if not reentrant:
            lock.owner = None
            for i in range(len(record.held) - 1, -1, -1):
                if record.held[i][0] is lock:
                    del record.held[i]
                    break
            for r in self.records.values():
                if r.state == ThreadState.BLOCKED and r.blocked_lock is lock:
                    r.state = ThreadState.READY
        self._commit(
            ReleaseEvent(
                self._next_step(),
                record.tid,
                lock=lock.lid,
                site=op.site,
                reentrant=reentrant,
            )
        )
        self._resume(record)

    def _dispatch_spawn(self, record: _ThreadRecord, op: SpawnOp) -> None:
        handle = op.handle
        child = self._register(handle.tid, handle._target)
        self._commit(SpawnEvent(self._next_step(), record.tid, child=handle.tid))
        child.state = ThreadState.READY
        self._resume(record)

    def _dispatch_join(self, record: _ThreadRecord, op: JoinOp) -> None:
        target = self.records.get(op.handle.tid)
        if target is None:
            record.exc_to_raise = RuntimeError(
                f"join on never-started thread {op.handle.tid!r}"
            )
            self._resume(record)
            return
        if target.state == ThreadState.DONE:
            record.join_on = None
            self._commit(JoinEvent(self._next_step(), record.tid, target=target.tid))
            self._resume(record)
        else:
            record.join_on = target.tid
            record.state = ThreadState.BLOCKED

    def _dispatch_wait(self, record: _ThreadRecord, op: WaitOp) -> None:
        lock = op.lock
        if op.phase == "start":
            if lock.owner != record.tid:
                record.exc_to_raise = LockUsageError(
                    f"{record.tid.pretty()} waited on {op.cond.name!r} "
                    f"without holding {lock.lid.pretty()}"
                )
                self._resume(record)
                return
            # Fully release the monitor (Java saves the recursion depth).
            op.saved_depth = lock.depth
            lock.depth = 0
            lock.owner = None
            for i in range(len(record.held) - 1, -1, -1):
                if record.held[i][0] is lock:
                    del record.held[i]
                    break
            self._commit(
                WaitEvent(
                    self._next_step(),
                    record.tid,
                    condition=op.cond.name,
                    lock=lock.lid,
                    site=op.site,
                )
            )
            self._commit(
                ReleaseEvent(
                    self._next_step(),
                    record.tid,
                    lock=lock.lid,
                    site=op.site,
                    reentrant=False,
                )
            )
            for r in self.records.values():
                if r.state == ThreadState.BLOCKED and r.blocked_lock is lock:
                    r.state = ThreadState.READY
            op.phase = "waiting"
            record.blocked_cond = op.cond
            record.state = ThreadState.BLOCKED
            op.cond._waiters.append(record)
        elif op.phase == "reacquire":
            # Notified: contend for the monitor like a fresh acquisition.
            if record.skip_gate:
                record.skip_gate = False
            elif not self.strategy.before_acquire(record.tid, op):
                record.state = ThreadState.PAUSED
                return
            if lock.owner is None:
                lock.owner = record.tid
                lock.depth = op.saved_depth
                record.blocked_lock = record.blocked_index = None
                self._commit(
                    AcquireEvent(
                        self._next_step(),
                        record.tid,
                        lock=lock.lid,
                        index=op.index,
                        held=tuple(l.lid for l, _ in record.held),
                        held_indices=tuple(ix for _, ix in record.held),
                        reentrant=False,
                        stack_depth=op.stack_depth,
                    )
                )
                record.held.append((lock, op.index))
                self._resume(record)
            else:
                if record.blocked_lock is not lock or record.blocked_index != op.index:
                    self._commit(
                        BlockEvent(
                            self._next_step(),
                            record.tid,
                            lock=lock.lid,
                            index=op.index,
                            holder=lock.owner,
                        )
                    )
                record.blocked_lock = lock
                record.blocked_index = op.index
                record.state = ThreadState.BLOCKED
        else:  # pragma: no cover - "waiting" is never dispatched
            raise RuntimeError(f"wait op dispatched in phase {op.phase!r}")

    def _dispatch_notify(self, record: _ThreadRecord, op: NotifyOp) -> None:
        lock = op.lock
        if lock.owner != record.tid:
            record.exc_to_raise = LockUsageError(
                f"{record.tid.pretty()} notified {op.cond.name!r} "
                f"without holding {lock.lid.pretty()}"
            )
            self._resume(record)
            return
        waiters = op.cond._waiters
        n = len(waiters) if op.notify_all else min(1, len(waiters))
        for _ in range(n):
            waiter = waiters.pop(0)
            waiter.op.phase = "reacquire"
            waiter.blocked_cond = None
            waiter.state = ThreadState.READY
        self._commit(
            NotifyEvent(
                self._next_step(),
                record.tid,
                condition=op.cond.name,
                lock=lock.lid,
                site=op.site,
                woken=n,
                notify_all=op.notify_all,
            )
        )
        self._resume(record)

    def _resume(self, record: _ThreadRecord) -> None:
        """Grant the thread one burst: it runs until its next park.  Its
        cleared op tells the step loop a burst was granted."""
        record.op = None

    def _end_burst(self, record: _ThreadRecord) -> None:
        """Account for the burst ``record`` just ran up to its park."""
        if record.finished:
            record.state = ThreadState.DONE
            self._commit(EndEvent(self._next_step(), record.tid))
            if record.held:
                names = ", ".join(l.lid.pretty() for l, _ in record.held)
                error = LockUsageError(
                    f"{record.tid.pretty()} terminated while holding: {names}"
                )
                error.__cause__ = record.exc
                record.exc = error
                # Free the leaked locks so other threads are not wedged by a
                # workload bug unrelated to the deadlock under study.
                for lock, _ in record.held:
                    lock.owner = None
                    lock.depth = 0
                    for r in self.records.values():
                        if r.state == ThreadState.BLOCKED and r.blocked_lock is lock:
                            r.state = ThreadState.READY
                record.held.clear()
            for r in self.records.values():
                if r.state == ThreadState.BLOCKED and r.join_on == record.tid:
                    r.join_on = None
                    r.state = ThreadState.READY
        else:
            record.state = ThreadState.READY

    # -- bookkeeping --------------------------------------------------------------------

    def _next_step(self) -> int:
        step = self._steps
        self._steps += 1
        return step

    def _commit(self, event: TraceEvent) -> None:
        self.trace.append(event)
        self.strategy.on_event(event)

    def _classify_stuck(self) -> Optional[DeadlockInfo]:
        """Return deadlock info if the blocked threads contain a cycle of
        lock waits; ``None`` for other stuck states."""
        wait_for = DiGraph()
        blocked_at: Dict[ThreadId, BlockedAt] = {}
        for r in self.records.values():
            if r.state != ThreadState.BLOCKED:
                continue
            if r.blocked_lock is not None and r.join_on is None:
                holder = r.blocked_lock.owner
                blocked_at[r.tid] = BlockedAt(
                    thread=r.tid,
                    lock=r.blocked_lock.lid,
                    index=r.blocked_index,
                    holder=holder,
                )
                if holder is not None:
                    wait_for.add_edge(r.tid, holder)
            elif r.join_on is not None:
                wait_for.add_edge(r.tid, r.join_on)
        cycle = wait_for.find_cycle()
        if cycle is None:
            return None
        if not all(tid in blocked_at for tid in cycle):
            return None  # mixed lock/join cycle: report as STUCK
        return DeadlockInfo(
            cycle=[blocked_at[tid] for tid in cycle],
            all_blocked=list(blocked_at.values()),
        )

    def _teardown(self) -> None:
        """End the run, wake every parked thread so it unwinds with
        :class:`ThreadKilled`, and wait for every worker to finish its job
        for the run."""
        with self._mutex:
            self._over = True
            for record in self.records.values():
                if record.running is not None and record.baton.locked():
                    record.baton.release()
        for record in self.records.values():
            if record.running is not None:
                record.running.acquire(timeout=5.0)
