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
   into fine-grained ``.wtrc`` chunks in memory and read back, so every
   event carries the identities the packed file gives it, and classic
   ddmin runs over the list of chunks, re-detecting each candidate
   subset.  The smallest chunk subset whose defect-key set still equals
   the target wins.

Both passes compare *exact* key sets: dropping events can only remove
``D_sigma`` tuples, so cycles (and keys) only ever disappear — equality
with the original key set is the preservation criterion.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import FrozenSet, List, Sequence

from repro.core.detector import BaseDetector
from repro.core.lockdep import build_lockdep
from repro.core.reduction import reduce_relation
from repro.runtime.events import Trace, TraceEvent
from repro.runtime.tracefile import read_trace, write_trace
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


def _joined(chunks: Sequence[List[TraceEvent]]) -> List[TraceEvent]:
    return [ev for chunk in chunks for ev in chunk]


def _ddmin_chunks(
    chunks: List[List[TraceEvent]],
    target: FrozenSet[FrozenSet[Site]],
) -> tuple[List[List[TraceEvent]], int]:
    """Classic ddmin over the chunk list; returns (kept chunks, probes)."""
    probes = 0
    n = 2
    while len(chunks) >= 2:
        size = max(1, len(chunks) // n)
        reduced = False
        start = 0
        while start < len(chunks):
            complement = chunks[:start] + chunks[start + size :]
            if complement:
                probes += 1
                if detect_defect_keys(_joined(complement)) == target:
                    chunks = complement
                    n = max(n - 1, 2)
                    reduced = True
                    break
            start += size
        if not reduced:
            if n >= len(chunks):
                break
            n = min(len(chunks), n * 2)
    return chunks, probes


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

    # Re-pack the survivors at fine chunk granularity and read them back:
    # the writer starts a chunk every ``events_per_chunk`` events, so the
    # decoded list splits into exactly the file's chunks.
    packed = io.BytesIO()
    bytes_packed = write_trace(cut, packed, events_per_chunk=events_per_chunk)
    packed.seek(0)
    decoded = read_trace(packed).events
    chunks = [
        decoded[i : i + events_per_chunk]
        for i in range(0, len(decoded), events_per_chunk)
    ]
    kept, probes = _ddmin_chunks(chunks, target)
    events = _joined(kept)
    bytes_after = write_trace(
        _as_trace(events, program=trace.program, seed=trace.seed),
        dest,
        events_per_chunk=events_per_chunk,
    )

    final_keys = detect_defect_keys(events)
    if final_keys != target:  # pragma: no cover - every cut was validated
        raise AssertionError("minimization changed the defect-key set")
    return MinimizeResult(
        events_before=events_before,
        events_after=len(events),
        bytes_before=bytes_packed,
        bytes_after=bytes_after,
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
    # Report the true on-disk starting size, not the re-pack's.
    result.bytes_before = os.path.getsize(src)
    return result
