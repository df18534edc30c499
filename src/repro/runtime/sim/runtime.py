"""User-facing API of the simulated runtime: locks, threads, programs.

A *program* is a callable taking a :class:`SimRuntime`; it runs as the root
simulated thread and may create locks, spawn threads and join them.  Lock
acquisition sites can be given explicitly (``lock.at("File.java:123")``)
to mirror the paper's source locations, or derived automatically from the
caller's file/line.

Example::

    def program(rt):
        a, b = rt.new_lock(name="A"), rt.new_lock(name="B")

        def t1():
            with a.at("ex:1"):
                with b.at("ex:2"):
                    pass

        def t2():
            with b.at("ex:3"):
                with a.at("ex:4"):
                    pass

        h1, h2 = rt.spawn(t1, name="t1"), rt.spawn(t2, name="t2")
        h1.join(); h2.join()

    result = run_program(program, strategy=RandomStrategy(seed=7))
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Optional

from repro.runtime.events import NullTrace, SinkTrace, Trace
from repro.runtime.sim.result import RunResult
from repro.runtime.sim.scheduler import (
    AcquireOp,
    CheckpointOp,
    JoinOp,
    NotifyOp,
    ReleaseOp,
    Scheduler,
    SpawnOp,
    WaitOp,
)
from repro.runtime.sim.strategy import RandomStrategy, SchedulingStrategy
from repro.util.ids import ExecIndex, LockId, Site, ThreadId, auto_site

Program = Callable[["SimRuntime"], None]

#: Path fragments of the runtime's own machinery, excluded from the
#: workload stack-depth statistic (the paper's SL column).
_MACHINERY = ("repro/runtime/", "threading.py")

#: Source file name -> 1 for a workload file, 0 for machinery.
_IS_WORKLOAD: Dict[str, int] = {}


def _workload_depth() -> int:
    """Number of workload frames on the calling thread's stack.

    Each file is classified once per process.  The class is a pure
    function of ``co_filename``, so the memo holds no per-run state, is
    bounded by the number of source files, and returns the depths the
    per-frame substring test would.  A racing first lookup computes the
    same value twice, which is harmless.
    """
    frame = sys._getframe(1)
    depth = 0
    memo = _IS_WORKLOAD
    while frame is not None:
        filename = frame.f_code.co_filename
        try:
            depth += memo[filename]
        except KeyError:
            memo[filename] = is_workload = int(
                not any(part in filename for part in _MACHINERY)
            )
            depth += is_workload
        frame = frame.f_back
    return depth


class SimLock:
    """A simulated mutex; ``reentrant=True`` models a Java monitor.

    State (``owner``/``depth``) is mutated only by the scheduler, which runs
    strictly single-threaded with respect to workload parks, so no internal
    locking is needed.
    """

    __slots__ = ("_rt", "lid", "reentrant", "owner", "depth")

    def __init__(self, rt: "SimRuntime", lid: LockId, reentrant: bool) -> None:
        self._rt = rt
        self.lid = lid
        self.reentrant = reentrant
        self.owner: Optional[ThreadId] = None
        self.depth = 0

    def acquire(self, site: Optional[Site] = None) -> None:
        if site is None:
            site = auto_site(2)
        sched = self._rt._sched
        record = sched.current_record
        index = ExecIndex(record.tid, site, record.occ.next(site))
        sched.park(
            record,
            AcquireOp(
                lock=self, site=site, index=index, stack_depth=_workload_depth()
            ),
        )

    def release(self, site: Optional[Site] = None) -> None:
        if site is None:
            site = auto_site(2)
        sched = self._rt._sched
        sched.park(sched.current_record, ReleaseOp(lock=self, site=site))

    def at(self, site: Site) -> "_LockRegion":
        """Context manager acquiring at an explicit source site, so
        workloads can carry the paper's Java file:line labels."""
        return _LockRegion(self, site)

    def __enter__(self) -> "SimLock":
        self.acquire(site=auto_site(2))
        return self

    def __exit__(self, *exc) -> None:
        self.release(site=auto_site(2))

    def locked(self) -> bool:
        return self.owner is not None

    def condition(self, name: str = "") -> "SimCondition":
        """Create a condition variable tied to this monitor (Java's
        ``Object.wait``/``notify`` live on the monitor itself)."""
        return SimCondition(self, name or f"{self.lid.pretty()}.cond")

    def __repr__(self) -> str:
        state = f"held by {self.owner.pretty()} x{self.depth}" if self.owner else "free"
        return f"SimLock({self.lid.pretty()}, {state})"


class SimCondition:
    """Condition variable over a :class:`SimLock` monitor.

    Semantics follow Java monitors: :meth:`wait` requires the monitor
    held, releases it fully (saving the recursion depth), sleeps until
    notified, and reacquires it before returning — the reacquisition is a
    real :class:`~repro.runtime.events.AcquireEvent` at the wait site, so
    the deadlock analysis and replay strategies see waits with no special
    cases.  No spurious wakeups: a woken thread was notified.
    """

    __slots__ = ("lock", "name", "_waiters")

    def __init__(self, lock: SimLock, name: str) -> None:
        self.lock = lock
        self.name = name
        self._waiters: list = []  # _ThreadRecord FIFO, managed by the scheduler

    def wait(self, site: Optional[Site] = None) -> None:
        if site is None:
            site = auto_site(2)
        sched = self.lock._rt._sched
        record = sched.current_record
        index = ExecIndex(record.tid, site, record.occ.next(site))
        sched.park(
            record,
            WaitOp(
                cond=self,
                lock=self.lock,
                site=site,
                index=index,
                stack_depth=_workload_depth(),
            ),
        )

    def notify(self, site: Optional[Site] = None) -> None:
        if site is None:
            site = auto_site(2)
        sched = self.lock._rt._sched
        sched.park(sched.current_record, NotifyOp(cond=self, lock=self.lock, site=site))

    def notify_all(self, site: Optional[Site] = None) -> None:
        if site is None:
            site = auto_site(2)
        sched = self.lock._rt._sched
        sched.park(
            sched.current_record,
            NotifyOp(cond=self, lock=self.lock, site=site, notify_all=True),
        )

    def waiting(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:
        return f"SimCondition({self.name}, waiters={len(self._waiters)})"


class _LockRegion:
    __slots__ = ("_lock", "_site")

    def __init__(self, lock: SimLock, site: Site) -> None:
        self._lock = lock
        self._site = site

    def __enter__(self) -> SimLock:
        self._lock.acquire(site=self._site)
        return self._lock

    def __exit__(self, *exc) -> None:
        self._lock.release(site=self._site)


class SimThreadHandle:
    """Handle to a spawned simulated thread (already started)."""

    __slots__ = ("_rt", "tid", "_target")

    def __init__(self, rt: "SimRuntime", tid: ThreadId, target: Callable[[], None]):
        self._rt = rt
        self.tid = tid
        self._target = target

    def join(self, site: Optional[Site] = None) -> None:
        sched = self._rt._sched
        sched.park(sched.current_record, JoinOp(handle=self))

    def is_alive(self) -> bool:
        from repro.runtime.sim.scheduler import ThreadState

        rec = self._rt._sched.records.get(self.tid)
        return rec is not None and rec.state != ThreadState.DONE

    def __repr__(self) -> str:
        return f"SimThreadHandle({self.tid.pretty()})"


class SimRuntime:
    """Facade the workload code programs against."""

    def __init__(self, sched: Scheduler) -> None:
        self._sched = sched
        sched._runtime = self

    def new_lock(
        self,
        *,
        name: str = "",
        site: Optional[Site] = None,
        reentrant: bool = True,
    ) -> SimLock:
        """Create a lock owned (for identity purposes) by the current
        thread.  Java monitors are reentrant, hence the default."""
        if site is None:
            site = auto_site(2)
        record = self._sched.current_record
        lid = LockId(record.tid, site, record.lock_occ.next(site), name=name)
        return SimLock(self, lid, reentrant)

    def spawn(
        self,
        target: Callable[[], None],
        *,
        name: str = "",
        site: Optional[Site] = None,
    ) -> SimThreadHandle:
        """Create *and start* a thread (paper's ``t.start()``).

        The spawn itself is a scheduling point; the child begins executing
        only when the scheduler first picks it.
        """
        if site is None:
            site = auto_site(2)
        record = self._sched.current_record
        tid = ThreadId(record.tid, site, record.spawn_occ.next(site), name=name)
        handle = SimThreadHandle(self, tid, target)
        self._sched.park(record, SpawnOp(handle=handle))
        return handle

    def checkpoint(self) -> None:
        """Voluntary scheduling point (no trace event); lets strategies
        interleave lock-free code regions."""
        self._sched.park(self._sched.current_record, CheckpointOp())

    @property
    def current(self) -> ThreadId:
        return self._sched.current_record.tid

    @property
    def trace(self) -> Trace:
        return self._sched.trace


def run_program(
    program: Program,
    strategy: Optional[SchedulingStrategy] = None,
    *,
    seed: int = 0,
    name: str = "",
    max_steps: int = 200_000,
    step_timeout: float = 30.0,
    record_trace: bool = True,
    trace_sink: Optional[Callable] = None,
) -> RunResult:
    """Execute ``program`` under the simulated runtime and return the
    :class:`RunResult` (including the recorded :class:`Trace`).

    ``strategy`` defaults to :class:`RandomStrategy` with ``seed``; passing
    an explicit strategy makes ``seed`` purely informational metadata.
    ``record_trace=False`` discards events — the 'uninstrumented' baseline
    for overhead measurements.  ``trace_sink`` (a callable taking one
    event, e.g. a ``TraceFileWriter`` or ``StreamingDetector.feed``)
    streams events out instead of storing them: the run's memory stays
    bounded by the sink's state, and ``RunResult.trace`` carries only
    metadata.  Combine with ``record_trace=True`` is unnecessary — a sink
    implies no in-memory event list.
    """
    if strategy is None:
        strategy = RandomStrategy(seed)
    prog_name = name or getattr(program, "__name__", "program")
    if trace_sink is not None:
        trace: Trace = SinkTrace(trace_sink, program=prog_name, seed=seed)
    else:
        trace_cls = Trace if record_trace else NullTrace
        trace = trace_cls(program=prog_name, seed=seed)
    sched = Scheduler(
        strategy, trace=trace, max_steps=max_steps, step_timeout=step_timeout
    )
    rt = SimRuntime(sched)
    root = sched.register_root(ThreadId.root(), lambda: program(rt))
    return sched.run(root)
