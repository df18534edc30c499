"""Streaming single-pass analysis: the online form of Algorithm 1.

The paper's pipeline is inherently online — ``D_sigma``, timestamps and
the ``(S, J)`` vector clocks are maintained *as the program executes*,
and the cycles of ``D_sigma`` are found once the run ends.  This module
does exactly that, so a trace can be analyzed while it is being
recorded, or decoded from disk one event at a time
(:mod:`repro.runtime.tracefile`), with memory bounded by the identity
tables and ``D_sigma`` rather than the event count.

Per :class:`~repro.runtime.events.TraceEvent` fed to
:meth:`StreamingDetector.feed`:

1. the vector-clock state advances one step
   (:func:`repro.core.vclock.update_clocks` — exactly Algorithm 1's
   online update);
2. a non-reentrant acquisition mints its ``eta`` tuple
   (:func:`repro.core.lockdep.entry_from_acquire`, with the ``tau`` the
   clock update just recorded) and joins the incrementally maintained
   :class:`~repro.core.lockdep.LockDependencyRelation`.

:meth:`StreamingDetector.finish` then enumerates the cycles once.

**Equivalence.**  :meth:`finish` returns a
:class:`~repro.core.detector.DetectionResult` equal to the batch
``ExtendedDetector``'s on the same event sequence, ``max_cycles``
truncation included: the relation and clocks are built by the very same
update steps, and the cycles come from the same enumeration
(:func:`~repro.core.detector.find_cycles`) over the same relation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.core.detector import DetectionResult, find_cycles
from repro.core.lockdep import LockDependencyRelation, entry_from_acquire
from repro.core.vclock import VectorClockState, update_clocks
from repro.runtime.events import AcquireEvent, Trace, TraceEvent
from repro.util.ids import ThreadId


class StreamingDetector:
    """Incremental Extended Dynamic Cycle Detector.

    Feed events in trace order (``feed`` is also the sink protocol used by
    :class:`~repro.runtime.events.SinkTrace`, so a runtime can stream
    straight into the analysis); call :meth:`finish` once the stream ends.

    ``max_length``/``max_cycles`` mean exactly what they mean on the batch
    detector.
    """

    def __init__(self, *, max_length: int = 4, max_cycles: int = 10_000) -> None:
        if max_length < 2:
            raise ValueError(f"max_length must be >= 2, got {max_length}")
        if max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
        self.max_length = max_length
        self.max_cycles = max_cycles
        #: Events consumed so far (the stream's length; the engine itself
        #: never materializes the event sequence).
        self.events_seen = 0
        self.truncated = False
        self._vclocks = VectorClockState()
        self._rel = LockDependencyRelation()
        self._positions: Dict[ThreadId, int] = {}

    # -- the fused per-event update -----------------------------------------

    def feed(self, ev: TraceEvent) -> None:
        """Consume one event: clocks and ``D_sigma``."""
        self.events_seen += 1
        update_clocks(self._vclocks, ev)
        if not isinstance(ev, AcquireEvent) or ev.reentrant:
            return
        pos = self._positions.get(ev.thread, 0)
        self._positions[ev.thread] = pos + 1
        self._rel.add(
            entry_from_acquire(
                ev, pos=pos, tau=self._vclocks.acquire_tau.get(ev.step, 1)
            )
        )

    def feed_many(self, events: Iterable[TraceEvent]) -> None:
        for ev in events:
            self.feed(ev)

    # -- introspection --------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Live counters for a long-running ingestion tier's ``/stats``.

        Cheap (no enumeration, no copies): the daemon polls this per
        stream to report detector progress.
        """
        return {
            "events_seen": self.events_seen,
            "tuples": len(self._rel),
            "truncated": int(self.truncated),
        }

    # -- finalization ---------------------------------------------------------

    @property
    def vclocks(self) -> VectorClockState:
        return self._vclocks

    @property
    def relation(self) -> LockDependencyRelation:
        return self._rel

    def finish(self, trace: Optional[Trace] = None) -> DetectionResult:
        """Seal the stream, enumerate its cycles and return the result.

        ``trace`` optionally attaches the materialized trace (when the
        caller happens to hold one, e.g. the in-memory pipeline); without
        it the result carries an empty placeholder — downstream stages
        (Pruner, Generator) consume only the relation and clocks.
        """
        cycles, self.truncated = find_cycles(
            self._rel, max_length=self.max_length, max_cycles=self.max_cycles
        )
        return DetectionResult(
            trace=trace if trace is not None else Trace(),
            relation=self._rel,
            cycles=cycles,
            max_length=self.max_length,
            max_cycles=self.max_cycles,
            vclocks=self._vclocks,
            truncated=self.truncated,
        )

    def analyze(self, trace: Trace) -> DetectionResult:
        """Batch-detector-shaped convenience: one fused pass over an
        in-memory trace (``ExtendedDetector.analyze`` drop-in)."""
        self.feed_many(trace)
        return self.finish(trace)
