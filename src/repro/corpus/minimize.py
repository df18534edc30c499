"""Trace minimization: relation-guided reduction + chunk delta-debugging.

A raw campaign trace records everything the scheduler did; the defect it
witnesses usually needs a fraction of it.  Minimization keeps corpus
traces small enough to commit (KBs) and fast to re-detect in CI, while
*provably* preserving the trace's defect-key set — every candidate cut is
validated by re-running detection, never assumed.

Two passes, coarse to fine:

1. **Relation-guided thread cut** — :func:`repro.core.reduction.reduce_relation`
   deletes ``D_sigma`` tuples that cannot participate in any cycle;
   threads with no surviving tuple cannot contribute to any defect, so
   all their events are dropped in one stroke.  (Sound because each
   ``AcquireEvent`` carries its own held-lockset context: removing other
   threads' events never changes a surviving tuple.)
2. **Chunk-level delta-debugging** — the survivor events are re-packed
   into fine-grained ``.wtrc`` chunks and classic ddmin runs over the
   chunk list, re-detecting each candidate subset via
   :meth:`TraceFileReader.iter_events_in` span selection (identity-table
   chunks are always decoded; dropped EVENTS chunks are seeked past).
   The smallest chunk subset whose defect-key set still equals the
   target wins.

Both passes compare *exact* key sets: dropping events can only remove
``D_sigma`` tuples, so cycles (and keys) only ever disappear — equality
with the original key set is the preservation criterion.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Set

from repro.core.detector import BaseDetector
from repro.core.lockdep import build_lockdep
from repro.core.reduction import reduce_relation
from repro.runtime.events import Trace, TraceEvent
from repro.runtime.tracefile import (
    ChunkSpan,
    TraceFileReader,
    TraceFileWriter,
    read_trace,
)
from repro.util.ids import Site

#: Chunk granularity for the delta-debugging pass — small chunks give the
#: ddmin fine cuts (corpus traces are tens-to-hundreds of events, so 8
#: events/chunk yields enough chunks to bisect); the final file is
#: re-packed at this size too, and the ~4 bytes/chunk framing overhead is
#: noise at corpus scale.
MINIMIZE_EVENTS_PER_CHUNK = 8


@dataclass
class MinimizeResult:
    """Before/after accounting for one trace."""

    events_before: int
    events_after: int
    bytes_before: int
    bytes_after: int
    #: re-detections performed by the ddmin pass
    probes: int
    #: events removed by the relation-guided thread cut alone
    thread_cut: int

    @property
    def event_ratio(self) -> float:
        return self.events_after / self.events_before if self.events_before else 1.0


def detect_defect_keys(
    events: Sequence[TraceEvent] | Trace,
    *,
    max_length: int = 4,
    max_cycles: int = 10_000,
) -> FrozenSet[FrozenSet[Site]]:
    """Defect keys witnessed by an event sequence.

    Uses the base (order-agnostic) detector: cycles — and therefore keys
    — are identical to the extended detector's, and minimization
    re-detects candidates many times, so the cheapest equivalent pass
    wins.
    """
    trace = events if isinstance(events, Trace) else _as_trace(events)
    det = BaseDetector(max_length=max_length, max_cycles=max_cycles)
    return frozenset(det.analyze(trace).defect_keys())


def _as_trace(events: Sequence[TraceEvent], program: str = "", seed: int = 0) -> Trace:
    trace = Trace(program=program, seed=seed)
    for ev in events:
        trace.append(ev)
    return trace


def _thread_cut(trace: Trace, target: FrozenSet[FrozenSet[Site]]) -> Trace:
    """Drop every event of threads with no cycle-capable ``D_sigma``
    tuple; fall back to the full trace if (unexpectedly) keys change."""
    reduced, removed = reduce_relation(build_lockdep(trace))
    if not removed:
        return trace
    keep = {e.thread for e in reduced.entries}
    events = [ev for ev in trace if ev.thread in keep]
    if len(events) == len(trace):
        return trace
    cut = _as_trace(events, program=trace.program, seed=trace.seed)
    if detect_defect_keys(cut) != target:
        return trace
    return cut


def _probe_spans(
    path: str, spans: Sequence[ChunkSpan], target: FrozenSet[FrozenSet[Site]]
) -> bool:
    """Does the trace restricted to ``spans`` still witness ``target``?"""
    with TraceFileReader(path) as reader:
        events = list(reader.iter_events_in(spans))
    return detect_defect_keys(events) == target


def _ddmin_spans(
    path: str,
    spans: List[ChunkSpan],
    target: FrozenSet[FrozenSet[Site]],
) -> tuple[List[ChunkSpan], int]:
    """Classic ddmin over the chunk list; returns (kept spans, probes)."""
    probes = 0
    n = 2
    while len(spans) >= 2:
        size = max(1, len(spans) // n)
        reduced = False
        start = 0
        while start < len(spans):
            complement = spans[:start] + spans[start + size :]
            if complement:
                probes += 1
                if _probe_spans(path, complement, target):
                    spans = complement
                    n = max(n - 1, 2)
                    reduced = True
                    break
            start += size
        if not reduced:
            if n >= len(spans):
                break
            n = min(len(spans), n * 2)
    return spans, probes


def minimize_trace(
    trace: Trace,
    dest: str,
    *,
    events_per_chunk: int = MINIMIZE_EVENTS_PER_CHUNK,
) -> MinimizeResult:
    """Minimize an in-memory trace into the ``.wtrc`` file ``dest``."""
    target = detect_defect_keys(trace)
    events_before = len(trace)

    cut = _thread_cut(trace, target)
    thread_cut = events_before - len(cut)

    # Re-pack the survivors at fine chunk granularity in a scratch file:
    # ddmin needs many selective re-reads, and the spans come for free.
    fd, scratch = tempfile.mkstemp(suffix=".wtrc", dir=os.path.dirname(dest) or ".")
    os.close(fd)
    probes = 0
    try:
        with TraceFileWriter(
            scratch,
            program=trace.program,
            seed=trace.seed,
            events_per_chunk=events_per_chunk,
        ) as writer:
            for ev in cut:
                writer.write_event(ev)
        # Spans are complete only after close(): the final partial chunk
        # is flushed by the END-chunk sealing.
        spans = list(writer.event_spans)
        kept, probes = _ddmin_spans(scratch, spans, target)
        if len(kept) < len(spans):
            with TraceFileReader(scratch) as reader:
                events = list(reader.iter_events_in(kept))
        else:
            events = list(cut)
    finally:
        bytes_before_scratch = os.path.getsize(scratch)
        os.unlink(scratch)

    with TraceFileWriter(
        dest,
        program=trace.program,
        seed=trace.seed,
        events_per_chunk=events_per_chunk,
    ) as writer:
        for ev in events:
            writer.write_event(ev)

    final_keys = detect_defect_keys(events)
    if final_keys != target:  # pragma: no cover - every cut was validated
        raise AssertionError("minimization changed the defect-key set")
    return MinimizeResult(
        events_before=events_before,
        events_after=len(events),
        bytes_before=bytes_before_scratch,
        bytes_after=os.path.getsize(dest),
        probes=probes,
        thread_cut=thread_cut,
    )


def minimize_trace_file(
    src: str,
    dest: str,
    *,
    events_per_chunk: int = MINIMIZE_EVENTS_PER_CHUNK,
) -> MinimizeResult:
    """Minimize the ``.wtrc`` file ``src`` into ``dest``."""
    trace = read_trace(src)
    result = minimize_trace(trace, dest, events_per_chunk=events_per_chunk)
    # Report the true on-disk starting size, not the scratch re-pack's.
    result.bytes_before = os.path.getsize(src)
    return result


def drop_threads_events(trace: Trace, keep: Set) -> List[TraceEvent]:
    """Events of ``trace`` restricted to the ``keep`` threads (exposed for
    tests exercising the thread-cut soundness argument directly)."""
    return [ev for ev in trace if ev.thread in keep]
