"""Trace event model: the contract between substrates and the analysis.

A :class:`Trace` is the totally-ordered sequence of synchronization events
one execution produced, exactly the information the paper's instrumentation
records (§3.1): ``Lock``, ``Unlock``, ``t.start()``, ``t.join()``.  Events
carry the deterministic identities from :mod:`repro.util.ids`; the
Extended Dynamic Cycle Detector (:mod:`repro.core.detector`) reconstructs
``D_sigma``, timestamps and vector clocks purely from this stream, so the
analysis is usable on any substrate — or on synthetic event lists in tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.util.ids import ExecIndex, LockId, Site, ThreadId


@dataclass(frozen=True)
class TraceEvent:
    """Base class: ``step`` is the global total-order position (0-based)."""

    step: int
    thread: ThreadId


@dataclass(frozen=True)
class BeginEvent(TraceEvent):
    """Thread began executing (its first scheduled step)."""


@dataclass(frozen=True)
class EndEvent(TraceEvent):
    """Thread ran to completion."""


@dataclass(frozen=True)
class SpawnEvent(TraceEvent):
    """``thread`` executed ``child.start()`` (paper: *t.start()*)."""

    child: ThreadId


@dataclass(frozen=True)
class JoinEvent(TraceEvent):
    """``thread`` completed ``target.join()`` (paper: *t.join()*)."""

    target: ThreadId


@dataclass(frozen=True)
class AcquireEvent(TraceEvent):
    """``thread`` acquired ``lock`` at ``index``.

    ``held`` / ``held_indices`` snapshot the lockset :math:`L_t` and context
    :math:`C_t` *before* this acquisition, in acquisition order, so an
    :class:`AcquireEvent` carries everything an :math:`\\eta` tuple needs.
    ``reentrant`` marks recursive acquisitions of an already-held monitor;
    the detector skips those (they cannot introduce new dependencies).
    """

    lock: LockId
    index: ExecIndex
    held: Tuple[LockId, ...]
    held_indices: Tuple[ExecIndex, ...]
    reentrant: bool = False
    #: Workload call-stack depth at the acquisition (frames outside the
    #: runtime machinery) — the paper's *SL* statistic (Table 1).
    stack_depth: int = 0


@dataclass(frozen=True)
class ReleaseEvent(TraceEvent):
    """``thread`` released ``lock`` (innermost release site)."""

    lock: LockId
    site: Site
    reentrant: bool = False


@dataclass(frozen=True)
class WaitEvent(TraceEvent):
    """``thread`` began waiting on a condition, releasing ``lock``.

    The monitor release itself is recorded as a separate
    :class:`ReleaseEvent` (and the later wakeup as an
    :class:`AcquireEvent`), so the lock-dependency analysis needs no
    special handling for waits.
    """

    condition: str
    lock: LockId
    site: Site


@dataclass(frozen=True)
class NotifyEvent(TraceEvent):
    """``thread`` signalled a condition, waking ``woken`` waiters."""

    condition: str
    lock: LockId
    site: Site
    woken: int
    notify_all: bool = False


@dataclass(frozen=True)
class BlockEvent(TraceEvent):
    """``thread`` attempted ``lock`` at ``index`` and found it held.

    Informational: the eventual :class:`AcquireEvent` is what the analysis
    consumes, but blocked attempts identify deadlocking acquisitions when a
    replay run ends in a deadlock.
    """

    lock: LockId
    index: ExecIndex
    holder: ThreadId


@dataclass
class Trace:
    """One execution's event stream plus run metadata."""

    program: str = ""
    seed: int = 0
    events: List[TraceEvent] = field(default_factory=list)

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

    def stack_depths(self) -> Dict[ExecIndex, int]:
        """Map each acquisition's index to its workload stack depth."""
        return {
            ev.index: ev.stack_depth
            for ev in self.events
            if isinstance(ev, AcquireEvent)
        }

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    # -- convenience views --------------------------------------------------

    def threads(self) -> List[ThreadId]:
        """All threads that appear, in order of first appearance."""
        seen: Dict[ThreadId, None] = {}
        for ev in self.events:
            seen.setdefault(ev.thread, None)
            if isinstance(ev, SpawnEvent):
                seen.setdefault(ev.child, None)
        return list(seen)

    def locks(self) -> List[LockId]:
        seen: Dict[LockId, None] = {}
        for ev in self.events:
            if isinstance(ev, (AcquireEvent, ReleaseEvent, BlockEvent)):
                seen.setdefault(ev.lock, None)
        return list(seen)

    def events_of(self, thread: ThreadId) -> List[TraceEvent]:
        return [ev for ev in self.events if ev.thread == thread]

    def acquisitions(self, *, include_reentrant: bool = False) -> List[AcquireEvent]:
        return [
            ev
            for ev in self.events
            if isinstance(ev, AcquireEvent) and (include_reentrant or not ev.reentrant)
        ]

    def parent_of(self, thread: ThreadId) -> Optional[ThreadId]:
        for ev in self.events:
            if isinstance(ev, SpawnEvent) and ev.child == thread:
                return ev.thread
        return None

    def end_steps(self) -> Dict[ThreadId, int]:
        """Step of each thread's first :class:`EndEvent` (threads still
        running — or deadlocked — at the end of the trace are absent)."""
        out: Dict[ThreadId, int] = {}
        for ev in self.events:
            if isinstance(ev, EndEvent) and ev.thread not in out:
                out[ev.thread] = ev.step
        return out

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        """Dump a human-inspectable JSON rendering (for debugging/archival).

        Identities are rendered with ``pretty()``; this is intentionally a
        one-way format — replay works from live :class:`Trace` objects.
        """
        # Local import: serialize imports this module at top level.
        from repro.runtime.serialize import encode_event_fields

        def enc(ev: TraceEvent) -> dict:
            return encode_event_fields(
                ev,
                thread=lambda t: t.pretty(),
                lock=lambda l: l.pretty(),
                index=lambda ix: ix.pretty(),
            )

        return json.dumps(
            {
                "program": self.program,
                "seed": self.seed,
                "events": [enc(ev) for ev in self.events],
            },
            indent=2,
        )


class SinkTrace(Trace):
    """Forwards events to sinks without storing them.

    A sink is any callable taking one :class:`TraceEvent` — a
    :class:`~repro.runtime.tracefile.TraceFileWriter`, a
    :class:`~repro.core.streaming.StreamingDetector`'s ``feed``, or both at
    once.  This is how a runtime records/analyzes an execution with memory
    bounded by the sinks' own state instead of the event count.
    """

    def __init__(self, *sinks, program: str = "", seed: int = 0) -> None:
        super().__init__(program=program, seed=seed)
        self.sinks = tuple(sinks)

    def append(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink(event)


class NullTrace(SinkTrace):
    """Discards events (zero sinks): the 'uninstrumented' baseline for
    slowdown measurements (Table 1's detection-overhead column)."""
