"""Trace sanitizer: well-formedness invariants over recorded event lists.

The dynamic pipeline trusts its input trace completely — a corrupted
event stream (substrate bug, truncated recording, hand-built test trace)
silently yields wrong ``D_sigma`` entries, wrong clocks, wrong cycles.
:func:`sanitize_trace` replays a :class:`~repro.runtime.events.Trace`
through nine invariants and returns a structured
:class:`SanitizerDiagnostic` per violation; :func:`check_sync_graph`
applies the ``Gs`` edge-typing invariant to a built synchronization
graph, and :func:`check_cycle_closure` the prediction layer's
closure-reachability invariant to enumerated cycles.  A clean trace
yields an empty list.

Invariant codes (each violation carries exactly one):

``step-monotonic``
    global ``step`` values strictly increase along the trace;
``begin-order``
    a thread's first event is its ``BeginEvent``, and it has only one;
``spawn-join``
    no thread is spawned twice; a ``JoinEvent`` whose target ran has an
    earlier ``EndEvent`` for that target;
``end-order``
    no events after a thread's ``EndEvent``; no ``EndEvent`` while the
    thread still holds locks;
``mutual-exclusion``
    a non-reentrant acquire requires the lock unowned; a reentrant
    acquire requires the thread itself to own it;
``lock-balance``
    releases/waits only on locks the thread holds, with the ``reentrant``
    flag agreeing with the remaining hold depth (wait-aware: the release
    emitted by a wait drops the full depth, restored at reacquisition);
``lockset-snapshot``
    an ``AcquireEvent``'s recorded ``held``/``held_indices`` match the
    lockset reconstructed from the preceding events;
``vclock-monotonic``
    Algorithm 1's preconditions: a spawned child has not already
    executed (its ``tau`` is ⊥ at the spawn), and a joined target has
    (its ``tau`` is set at the join);
``gs-typing``
    ``Gs`` vertices belong to cycle threads; type-P edges are
    intra-thread, type-D/C edges are inter-thread
    (:func:`check_sync_graph`);
``cycle-closure``
    every acquisition a candidate cycle references — the deadlocking
    acquire and each held-context acquisition — is reachable in the
    trace's sync-preserving closure: present in the
    :class:`~repro.core.prediction.ClosureIndex` as a non-reentrant
    acquisition of the right thread, with every context acquisition
    preceding the deadlocking acquire and still unreleased at it
    (:func:`check_cycle_closure`).  Corrupt traces that violate this
    used to surface only as wrong verdicts deep inside the prediction
    closures or cycle enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.detector import PotentialDeadlock
    from repro.core.prediction import ClosureIndex

#: The ten invariant codes, in check order.
INVARIANT_CODES: Tuple[str, ...] = (
    "step-monotonic",
    "begin-order",
    "spawn-join",
    "end-order",
    "mutual-exclusion",
    "lock-balance",
    "lockset-snapshot",
    "vclock-monotonic",
    "gs-typing",
    "cycle-closure",
)


@dataclass(frozen=True)
class SanitizerDiagnostic:
    """One invariant violation, attributable to a trace position."""

    code: str
    message: str
    step: int = -1
    thread: str = ""

    def pretty(self) -> str:
        where = f" @step {self.step}" if self.step >= 0 else ""
        who = f" [{self.thread}]" if self.thread else ""
        return f"{self.code}{where}{who}: {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "step": self.step,
            "thread": self.thread,
        }


class _TraceSanitizer:
    """Single forward pass reconstructing per-thread/per-lock state."""

    def __init__(self) -> None:
        self.diagnostics: List[SanitizerDiagnostic] = []
        self.last_step: Optional[int] = None
        self.begun: Set[ThreadId] = set()
        self.ended: Set[ThreadId] = set()
        self.seen_any: Set[ThreadId] = set()
        self.spawned: Set[ThreadId] = set()
        #: tau is ⊥ until the thread first executes or is spawned.
        self.tau_set: Set[ThreadId] = set()
        #: Acquisition-ordered held locks per thread.
        self.held: Dict[ThreadId, List[LockId]] = {}
        self.depth: Dict[Tuple[ThreadId, LockId], int] = {}
        self.first_index: Dict[Tuple[ThreadId, LockId], ExecIndex] = {}
        self.owner: Dict[LockId, ThreadId] = {}
        #: (thread, lock) whose *next* release is a wait's full release.
        self.wait_release: Set[Tuple[ThreadId, LockId]] = set()
        #: Hold depth saved across a wait, restored at reacquisition.
        self.wait_depth: Dict[Tuple[ThreadId, LockId], int] = {}

    # -- helpers -----------------------------------------------------------

    def report(self, code: str, ev: TraceEvent, message: str) -> None:
        self.diagnostics.append(
            SanitizerDiagnostic(
                code=code,
                message=message,
                step=ev.step,
                thread=ev.thread.pretty(),
            )
        )

    def _held(self, t: ThreadId) -> List[LockId]:
        return self.held.setdefault(t, [])

    # -- the pass ----------------------------------------------------------

    def run(self, trace: Trace) -> List[SanitizerDiagnostic]:
        end_steps = trace.end_steps()
        for ev in trace:
            self._check_steps(ev)
            self._check_thread_lifecycle(ev)
            if isinstance(ev, SpawnEvent):
                self._spawn(ev)
            elif isinstance(ev, JoinEvent):
                self._join(ev, end_steps)
            elif isinstance(ev, AcquireEvent):
                self._acquire(ev)
            elif isinstance(ev, ReleaseEvent):
                self._release(ev)
            elif isinstance(ev, WaitEvent):
                self._wait(ev)
            elif isinstance(ev, EndEvent):
                self._end(ev)
            self.seen_any.add(ev.thread)
            self.tau_set.add(ev.thread)
        return self.diagnostics

    def _check_steps(self, ev: TraceEvent) -> None:
        if self.last_step is not None and ev.step <= self.last_step:
            self.report(
                "step-monotonic",
                ev,
                f"step {ev.step} does not advance past {self.last_step}",
            )
        self.last_step = ev.step

    def _check_thread_lifecycle(self, ev: TraceEvent) -> None:
        t = ev.thread
        if isinstance(ev, BeginEvent):
            if t in self.begun:
                self.report("begin-order", ev, "duplicate BeginEvent")
            elif t in self.seen_any:
                self.report(
                    "begin-order", ev, "BeginEvent is not the thread's first event"
                )
            self.begun.add(t)
        elif t not in self.begun and t not in self.seen_any:
            self.report(
                "begin-order",
                ev,
                f"thread's first event is {type(ev).__name__}, not BeginEvent",
            )
            self.begun.add(t)  # report once per thread
        if t in self.ended and not isinstance(ev, BeginEvent):
            self.report(
                "end-order", ev, f"{type(ev).__name__} after the thread ended"
            )

    def _spawn(self, ev: SpawnEvent) -> None:
        if ev.child in self.spawned:
            self.report(
                "spawn-join", ev, f"thread {ev.child.pretty()} spawned twice"
            )
        elif ev.child in self.tau_set:
            self.report(
                "vclock-monotonic",
                ev,
                f"spawned thread {ev.child.pretty()} already executed "
                "(tau must be ⊥ at spawn)",
            )
        self.spawned.add(ev.child)
        self.tau_set.add(ev.child)

    def _join(self, ev: JoinEvent, end_steps: Dict[ThreadId, int]) -> None:
        if ev.target not in self.tau_set:
            self.report(
                "vclock-monotonic",
                ev,
                f"joined thread {ev.target.pretty()} never executed "
                "(tau is ⊥ at join)",
            )
            return
        ended_at = end_steps.get(ev.target)
        if ended_at is None or ended_at > ev.step:
            self.report(
                "spawn-join",
                ev,
                f"join of {ev.target.pretty()} without an earlier EndEvent",
            )

    def _acquire(self, ev: AcquireEvent) -> None:
        t, lock = ev.thread, ev.lock
        key = (t, lock)
        holder = self.owner.get(lock)
        if ev.reentrant:
            if holder != t:
                self.report(
                    "mutual-exclusion",
                    ev,
                    f"reentrant acquire of {lock.pretty()} the thread "
                    "does not hold",
                )
                if holder is None:
                    self.owner[lock] = t
                    self._held(t).append(lock)
                    self.first_index[key] = ev.index
                    self.depth[key] = 1
                    return
            self.depth[key] = self.depth.get(key, 0) + 1
            self._check_snapshot(ev)
            return
        if holder is not None:
            who = "another thread" if holder != t else "this thread"
            self.report(
                "mutual-exclusion",
                ev,
                f"acquire of {lock.pretty()} already held by {who} "
                f"({holder.pretty()})",
            )
            if holder != t:
                held_prev = self.held.get(holder)
                if held_prev and lock in held_prev:
                    held_prev.remove(lock)
                self.depth.pop((holder, lock), None)
        self._check_snapshot(ev)
        self.owner[lock] = t
        if lock not in self._held(t):
            self._held(t).append(lock)
        self.first_index[key] = ev.index
        # A reacquisition after wait restores the saved hold depth.
        self.depth[key] = self.wait_depth.pop(key, 1)

    def _check_snapshot(self, ev: AcquireEvent) -> None:
        expected = tuple(self.held.get(ev.thread, ()))
        if ev.held != expected:
            self.report(
                "lockset-snapshot",
                ev,
                "recorded lockset "
                f"({', '.join(l.pretty() for l in ev.held)}) != reconstructed "
                f"({', '.join(l.pretty() for l in expected)})",
            )
            return
        expected_indices = tuple(
            self.first_index[(ev.thread, l)] for l in expected
        )
        if ev.held_indices != expected_indices:
            self.report(
                "lockset-snapshot",
                ev,
                "recorded context (held_indices) does not match the "
                "reconstructed acquisition indices",
            )

    def _release(self, ev: ReleaseEvent) -> None:
        t, lock = ev.thread, ev.lock
        key = (t, lock)
        if self.owner.get(lock) != t or lock not in self._held(t):
            self.report(
                "lock-balance",
                ev,
                f"release of {lock.pretty()} the thread does not hold",
            )
            return
        depth = self.depth.get(key, 1)
        if key in self.wait_release:
            # Wait's monitor release: drops the full depth in one event,
            # flagged non-reentrant by the substrate regardless of depth.
            self.wait_release.discard(key)
            if ev.reentrant:
                self.report(
                    "lock-balance",
                    ev,
                    "wait's monitor release must be flagged non-reentrant",
                )
            self._full_release(key)
            return
        if depth > 1:
            if not ev.reentrant:
                self.report(
                    "lock-balance",
                    ev,
                    f"non-reentrant release at hold depth {depth}",
                )
            self.depth[key] = depth - 1
            return
        if ev.reentrant:
            self.report(
                "lock-balance", ev, "reentrant release at hold depth 1"
            )
        self._full_release(key)

    def _full_release(self, key: Tuple[ThreadId, LockId]) -> None:
        t, lock = key
        self.depth.pop(key, None)
        held = self._held(t)
        if lock in held:
            held.remove(lock)
        if self.owner.get(lock) == t:
            del self.owner[lock]

    def _wait(self, ev: WaitEvent) -> None:
        t, lock = ev.thread, ev.lock
        key = (t, lock)
        if self.owner.get(lock) != t:
            self.report(
                "lock-balance",
                ev,
                f"wait on condition of {lock.pretty()} without holding it",
            )
            return
        self.wait_release.add(key)
        self.wait_depth[key] = self.depth.get(key, 1)

    def _end(self, ev: EndEvent) -> None:
        held = self.held.get(ev.thread)
        if held:
            self.report(
                "end-order",
                ev,
                "thread ended while holding "
                f"{', '.join(l.pretty() for l in held)}",
            )
        self.ended.add(ev.thread)


def sanitize_trace(trace: Trace) -> List[SanitizerDiagnostic]:
    """Check every trace-level invariant; [] means the trace is clean.

    Threads still running (or blocked in a deadlock) at the end of the
    trace are *not* violations — truncation is how deadlocking runs end.
    """
    return _TraceSanitizer().run(trace)


def check_cycle_closure(
    index: "ClosureIndex", cycles: Sequence["PotentialDeadlock"]
) -> List[SanitizerDiagnostic]:
    """The ``cycle-closure`` invariant: cycles reference real acquisitions.

    Every entry of every candidate cycle names one deadlocking
    acquisition (``entry.index``) and the acquisitions that built its
    lockset (``entry.context``).  For the prediction closures — and for
    replay steering — to be meaningful, each of those must be reachable
    in the trace's sync-preserving closure index: recorded as a
    non-reentrant acquisition *by the entry's own thread*, with every
    context acquisition strictly preceding the deadlocking one and its
    matching release not yet emitted at that point (the lock is really
    held where the cycle claims it is).  A trace corrupted between
    recording and analysis breaks these lookups; without this check the
    failure only shows up as a wrong closure verdict or an unexplained
    miss deep in cycle enumeration.
    """
    out: List[SanitizerDiagnostic] = []

    def bad(entry, message: str) -> None:
        out.append(
            SanitizerDiagnostic(
                code="cycle-closure",
                message=message,
                step=entry.step,
                thread=entry.thread.pretty(),
            )
        )

    for cycle in cycles:
        for entry in cycle.entries:
            # Index lookups yield (thread id, position); the entry's own
            # thread id is None when the trace never saw that thread.
            thread = index.thread_ids.get(entry.thread)
            home = index.acquisition(entry.index)
            if home is None:
                bad(
                    entry,
                    f"deadlocking acquire {entry.index.pretty()} is not a "
                    "recorded non-reentrant acquisition",
                )
                continue
            if home[0] != thread:
                bad(
                    entry,
                    f"deadlocking acquire {entry.index.pretty()} belongs to "
                    f"{index.threads[home[0]].pretty()}, not the cycle "
                    "entry's thread",
                )
                continue
            acq_pos = home[1]
            for lock, ctx in zip(entry.lockset, entry.context):
                held = index.acquisition(ctx)
                if held is None:
                    bad(
                        entry,
                        f"context acquisition {ctx.pretty()} of "
                        f"{lock.pretty()} is not a recorded non-reentrant "
                        "acquisition",
                    )
                    continue
                if held[0] != thread:
                    bad(
                        entry,
                        f"context acquisition {ctx.pretty()} belongs to "
                        f"{index.threads[held[0]].pretty()}, not the cycle "
                        "entry's thread",
                    )
                    continue
                if held[1] >= acq_pos:
                    bad(
                        entry,
                        f"context acquisition {ctx.pretty()} does not "
                        "precede the deadlocking acquire in its thread",
                    )
                    continue
                rel = index.release_pos(*held)
                if rel != -1 and rel <= acq_pos:
                    bad(
                        entry,
                        f"context lock {lock.pretty()} is released before "
                        "the deadlocking acquire — the cycle's lockset is "
                        "not live in the closure",
                    )
    return out


def check_sync_graph(gs: SyncGraph) -> List[SanitizerDiagnostic]:
    """The ``gs-typing`` invariant over a built synchronization graph."""
    out: List[SanitizerDiagnostic] = []
    cycle_threads = gs.threads

    def bad(message: str, thread: ThreadId) -> None:
        out.append(
            SanitizerDiagnostic(
                code="gs-typing", message=message, thread=thread.pretty()
            )
        )

    for (u, v), kind in gs.edge_kinds.items():
        for vertex in (u, v):
            if vertex.thread not in cycle_threads:
                bad(
                    f"vertex {vertex.pretty()} belongs to a thread outside "
                    "the cycle",
                    vertex.thread,
                )
        if kind is EdgeKind.P and u.thread != v.thread:
            bad(
                f"type-P edge {u.pretty()} -> {v.pretty()} crosses threads",
                u.thread,
            )
        elif kind in (EdgeKind.D, EdgeKind.C) and u.thread == v.thread:
            bad(
                f"{kind.value} edge {u.pretty()} -> {v.pretty()} is "
                "intra-thread",
                u.thread,
            )
    return out
