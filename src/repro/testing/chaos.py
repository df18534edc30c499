"""Fault-injection harness for the supervision layer.

Everything here is deliberately deterministic and picklable so the same
chaos drives both engines: a :class:`ChaosProgram` wraps a benign
deadlock-capable workload and routes *specific detection seeds* to
specific misbehaviors (the seed is read off the live trace, so only the
targeted detection runs are hostile — replay runs use derived seeds and
stay clean):

* ``"raise"``  — emit a couple of trace events, then raise mid-trace;
* ``"hang"``   — go to sleep inside a critical section, holding the lock;
* ``"spin"``   — loop over lock operations until the step budget runs out;
* ``"crash"``  — hard-exit the worker process via ``os._exit``.  When the
  program is running in the parent process (``workers=1`` or a degraded
  engine) the crash is *simulated* instead with
  :class:`SimulatedWorkerCrash`, which carries the ``crashed``
  failure-class marker — taking down the test runner would be a poor way
  to test fault tolerance — so reports classify identically either way.

The module-level task functions at the bottom (:func:`echo_task`,
:func:`failing_task`, :func:`sleeping_task`, :func:`exiting_task`,
:func:`racing_task`) drive the engines directly, below the pipeline, for
harness-level tests.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Dict, Iterable, Optional

from repro.core.parallel import FAILURE_CLASS_ATTR, TaskStatus
from repro.runtime.sim.runtime import SimRuntime


class ChaosError(RuntimeError):
    """The injected workload exception (classifies as ``error``)."""


class SimulatedWorkerCrash(RuntimeError):
    """Stand-in for ``os._exit`` when the program runs in the parent
    process; the marker makes the supervisor classify it ``crashed``."""


setattr(SimulatedWorkerCrash, FAILURE_CLASS_ATTR, TaskStatus.CRASHED.value)


def in_worker_process() -> bool:
    """True when running inside a multiprocessing child (a pool worker)."""
    return multiprocessing.parent_process() is not None


class ChaosTarget:
    """Benign inner workload: a classic AB/BA inversion, so clean seeds
    detect a real cycle and replay can confirm it.  A plain class (not a
    closure) so instances ship to spawn workers."""

    def __init__(self) -> None:
        self.__name__ = "chaos_target"

    def __call__(self, rt: SimRuntime) -> None:
        a = rt.new_lock(name="A", site="chaos:lockA")
        b = rt.new_lock(name="B", site="chaos:lockB")

        def t1() -> None:
            with a.at("chaos:a1"):
                with b.at("chaos:b1"):
                    pass

        def t2() -> None:
            with b.at("chaos:b2"):
                with a.at("chaos:a2"):
                    pass

        h1 = rt.spawn(t1, name="t1", site="chaos:spawn1")
        h2 = rt.spawn(t2, name="t2", site="chaos:spawn2")
        h1.join()
        h2.join()


MODES = ("raise", "hang", "spin", "crash")


class ChaosProgram:
    """Wrap ``inner`` and misbehave on selected detection seeds.

    ``faults`` maps seed → mode (one of :data:`MODES`).  Alternatively
    pass ``mode=`` with ``seeds=None`` to misbehave on *every* run.  All
    other seeds execute the inner workload untouched.
    """

    def __init__(
        self,
        faults: Optional[Dict[int, str]] = None,
        *,
        mode: Optional[str] = None,
        seeds: Optional[Iterable[int]] = None,
        inner=None,
        hang_s: float = 60.0,
        exit_code: int = 17,
    ) -> None:
        if faults is None:
            if mode is None:
                raise ValueError("pass a faults mapping or mode=")
            faults = dict.fromkeys(seeds, mode) if seeds is not None else None
        self.faults = faults  # None: `mode` applies to every seed
        self.mode = mode
        for m in (self.faults or {}).values():
            if m not in MODES:
                raise ValueError(f"unknown chaos mode {m!r} (choose from {MODES})")
        if self.faults is None and mode not in MODES:
            raise ValueError(f"unknown chaos mode {mode!r} (choose from {MODES})")
        self.inner = inner if inner is not None else ChaosTarget()
        self.hang_s = hang_s
        self.exit_code = exit_code
        self.__name__ = "chaos_program"

    def _mode_for(self, rt: SimRuntime) -> Optional[str]:
        if self.faults is None:
            return self.mode
        return self.faults.get(rt.trace.seed)

    def __call__(self, rt: SimRuntime) -> None:
        mode = self._mode_for(rt)
        if mode is None:
            self.inner(rt)
        elif mode == "raise":
            self._raise(rt)
        elif mode == "hang":
            self._hang(rt)
        elif mode == "spin":
            self._spin(rt)
        else:
            self._crash(rt)

    # -- injections --------------------------------------------------------

    def _raise(self, rt: SimRuntime) -> None:
        lock = rt.new_lock(name="chaos", site="chaos:mid")
        with lock.at("chaos:mid-acq"):  # a partial trace precedes the blast
            pass
        raise ChaosError(f"injected workload failure (seed {rt.trace.seed})")

    def _hang(self, rt: SimRuntime) -> None:
        lock = rt.new_lock(name="chaos", site="chaos:critical")
        with lock.at("chaos:critical-acq"):
            # Real wall-clock hang while holding the lock: invisible to the
            # scheduler (no sync op), only a deadline guard can catch it.
            time.sleep(self.hang_s)

    def _spin(self, rt: SimRuntime) -> None:
        lock = rt.new_lock(name="chaos", site="chaos:spin")
        while True:  # every iteration costs scheduler steps -> STEP_LIMIT
            with lock.at("chaos:spin-acq"):
                pass

    def _crash(self, rt: SimRuntime) -> None:
        if in_worker_process():
            os._exit(self.exit_code)
        raise SimulatedWorkerCrash(
            f"hard worker exit (seed {rt.trace.seed}) simulated in-process"
        )


# ---------------------------------------------------------------------------
# Engine-level chaos tasks (picklable module-level functions)
# ---------------------------------------------------------------------------


def echo_task(x):
    """Well-behaved task: returns its argument."""
    return x


def failing_task(x):
    """Always raises (classifies ``error``)."""
    raise ChaosError(f"failing_task({x!r})")


def sleeping_task(seconds: float):
    """Outsleeps any reasonable deadline (classifies ``timeout``)."""
    time.sleep(seconds)
    return seconds


def exiting_task(code: int):
    """Kills the worker process (classifies ``crashed``); simulated via
    :class:`SimulatedWorkerCrash` when run in the parent process."""
    if in_worker_process():
        os._exit(code)
    raise SimulatedWorkerCrash(f"exiting_task({code}) simulated in-process")


def _post_marker(path: str) -> None:
    with open(path, "w"):
        pass


def _await_marker(path: str, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise ChaosError(f"marker {path} never appeared")
        time.sleep(0.01)


def racing_task(job):
    """One side of a retry racing another task's worker crash, ordered
    through marker files in the directory ``job[1]``.

    ``"raiser"`` raises on its first attempt.  Its retry posts ``retry``,
    waits for ``crash`` and then sleeps until the supervisor abandons the
    broken pool under it; any later attempt returns ``"raiser"``.
    ``"crasher"`` waits for ``retry``, posts ``crash`` and exits its
    worker, at once on any later attempt.
    """
    role, where = job
    retry = os.path.join(where, "retry")
    crash = os.path.join(where, "crash")
    if role == "crasher":
        if not os.path.exists(crash):
            _await_marker(retry, 30.0)
            _post_marker(crash)
        return exiting_task(3)
    raised = os.path.join(where, "raised")
    if not os.path.exists(raised):
        _post_marker(raised)
        raise ChaosError("racing_task: first attempt")
    if not os.path.exists(crash):
        _post_marker(retry)
        _await_marker(crash, 30.0)
        time.sleep(30.0)
    return role
