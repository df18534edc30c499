"""Replay on real threads: gate instrumented acquisitions by ``Gs``.

This is the paper's actual implementation strategy (§4): a monitor
object observes the synchronization operations of the threads expected to
deadlock and pauses them at acquisitions whose ``Gs`` dependencies are
unsatisfied.  Here the "pause" is a condition wait inside
:meth:`NativeReplayer.before_acquire`; acquisitions notify the condition
as vertices retire.  The retirement rule is the simulated replayer's
:class:`~repro.core.replayer.GsDrain`, so ``Gs`` is shared, not copied.

Real threads cannot be steered perfectly (the OS interleaves the
unmonitored parts), so a stall timeout force-releases the oldest waiter —
Algorithm 4's lines 5-7 in wall-clock form.
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Set

from repro.core.replayer import GsDrain
from repro.core.syncgraph import SyncGraph
from repro.runtime.sim.result import DeadlockInfo
from repro.util.ids import ExecIndex, ThreadId


class NativeReplayer:
    """Gate object plugged into :class:`NativeRuntime` (``rt.gate``)."""

    def __init__(self, gs: SyncGraph, *, stall_timeout: float = 0.25) -> None:
        self.gs = gs
        self.drain = GsDrain(gs)
        self.cycle_threads: Set[ThreadId] = set(gs.threads)
        self.stall_timeout = stall_timeout
        self._cond = threading.Condition()
        self.forced_releases = 0

    # -- hooks called by InstrumentedLock ------------------------------------

    def before_acquire(self, thread: ThreadId, lock, index: ExecIndex) -> None:
        if thread not in self.cycle_threads:
            return
        with self._cond:
            deadline = time.monotonic() + self.stall_timeout
            while self.drain.gates(index):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # Stall: force-release this waiter (progress beats
                    # fidelity, Algorithm 4 lines 5-7).
                    self.forced_releases += 1
                    return
                self._cond.wait(remaining)

    def on_acquired(self, thread: ThreadId, lock, index: ExecIndex) -> None:
        with self._cond:
            if self.drain.acquire(index):
                self._cond.notify_all()

    # -- outcome ------------------------------------------------------------------------

    def is_hit(self, deadlock: Optional[DeadlockInfo]) -> bool:
        return deadlock is not None and deadlock.sites == self.gs.cycle.sites
