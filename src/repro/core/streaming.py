"""Streaming single-pass analysis: the online form of Algorithm 1.

The paper's pipeline is inherently online — ``D_sigma``, timestamps and
the ``(S, J)`` vector clocks are maintained *as the program executes* —
but the batch :class:`~repro.core.detector.ExtendedDetector` walks a fully
materialized trace three times (clocks, ``D_sigma``, cycles).  This module
fuses all three into one per-event update so a trace can be analyzed while
it is being recorded, or decoded from disk one event at a time
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
   :class:`~repro.core.lockdep.LockDependencyRelation`;
3. the new tuple is probed against the "waits-for-holder" index: every
   tuple cycle that exists now but not before *must* pass through the
   newest tuple (it has the maximal trace step), so a DFS rooted at the
   new tuple over the per-lock holder lists — pruned by the same
   lock-level reachability bound the batch detector uses, maintained
   incrementally — enumerates exactly the new cycles.  Cycle enumeration
   is thereby amortized per event instead of recomputed from scratch.

**Equivalence.**  :meth:`finish` returns a
:class:`~repro.core.detector.DetectionResult` equal to the batch
``ExtendedDetector``'s on the same event sequence: the relation and clocks
are built by the very same update steps, and the cycles — each found once,
anchored at its minimum-step tuple by rotation — are emitted in the batch
enumeration order (ascending lexicographic in the tuples' trace steps,
which is precisely the order the batch DFS discovers them in).  The one
carve-out is ``max_cycles`` truncation: both engines stop at the cap and
report ``truncated=True``, but *which* cycles survive the cap may differ
because the engines enumerate in different interim orders.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.detector import DetectionResult, PotentialDeadlock, find_cycles
from repro.core.lockdep import (
    LockDepEntry,
    LockDependencyRelation,
    entry_from_acquire,
)
from repro.core.vclock import VectorClockState, update_clocks
from repro.runtime.events import AcquireEvent, Trace, TraceEvent
from repro.util.ids import LockId, ThreadId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.parallel import ExecutionEngine, SupervisionPolicy
    from repro.runtime.tracefile import ChunkSpan

#: Event count at which ``--engine auto`` switches from batch to
#: streaming.  BENCH_core.json's micro/macro numbers motivate it: at 449
#: events the streaming engine *loses* (2.7 ms vs 2.1 ms — the fused
#: per-event update has constant overhead the three cheap batch passes
#: don't) while at 120k events it wins 1.5x end-to-end; the crossover
#: sits in the low tens of thousands, and exactness doesn't matter —
#: both engines produce identical reports and near-identical times in
#: the crossover region.
AUTO_ENGINE_THRESHOLD = 20_000


def resolve_engine(engine: str, n_events: Optional[int]) -> str:
    """Resolve an ``"auto"`` engine choice from the event count.

    ``n_events=None`` means the count is unknown without a full scan
    (e.g. an on-disk ``.wtrc``): pick streaming, which never pays to
    materialize the events.
    """
    if engine != "auto":
        return engine
    if n_events is None or n_events >= AUTO_ENGINE_THRESHOLD:
        return "streaming"
    return "batch"


class StreamingDetector:
    """Incremental Extended Dynamic Cycle Detector.

    Feed events in trace order (``feed`` is also the sink protocol used by
    :class:`~repro.runtime.events.SinkTrace`, so a runtime can stream
    straight into the analysis); call :meth:`finish` once the stream ends.

    ``max_length``/``max_cycles`` mean exactly what they mean on the batch
    detector.

    ``shard_cycles=True`` (the streaming engine's pipeline default)
    defers cycle enumeration to :meth:`finish` and runs it through the
    deduplicated SCC-sharded search (:mod:`repro.core.sharding`) instead
    of probing per event — same output, but loop-heavy streams stop
    paying a DFS probe per duplicate tuple.  ``reduce=True`` likewise
    defers enumeration and applies the MagicFuzzer reduction first (the
    reduction needs the whole relation, so it cannot run per event).
    Either flag trades the online per-event cycle emission for a faster
    end-of-stream enumeration.
    """

    def __init__(
        self,
        *,
        max_length: int = 4,
        max_cycles: int = 10_000,
        shard_cycles: bool = False,
        reduce: bool = False,
    ) -> None:
        if max_length < 2:
            raise ValueError(f"max_length must be >= 2, got {max_length}")
        if max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
        self.max_length = max_length
        self.max_cycles = max_cycles
        self.shard_cycles = shard_cycles
        self.reduce = reduce
        #: Enumerate at finish() instead of probing per event.
        self._deferred = shard_cycles or reduce
        #: Events consumed so far (the stream's length; the engine itself
        #: never materializes the event sequence).
        self.events_seen = 0
        self.truncated = False
        self._vclocks = VectorClockState()
        self._rel = LockDependencyRelation()
        self._positions: Dict[ThreadId, int] = {}
        self._cycles: List[PotentialDeadlock] = []
        # Lock-level reachability index (held -> wanted edges), kept
        # incrementally: distances only shrink as edges arrive, and a new
        # distinct edge can appear at most |locks|^2 times over the whole
        # stream, so the all-pairs BFS recompute is amortized out.
        self._lock_adj: Dict[LockId, Set[LockId]] = {}
        self._lock_dist: Dict[LockId, Dict[LockId, int]] = {}
        self._dist_dirty = False

    # -- the fused per-event update -----------------------------------------

    def feed(self, ev: TraceEvent) -> None:
        """Consume one event: clocks, ``D_sigma``, and new cycles."""
        self.events_seen += 1
        update_clocks(self._vclocks, ev)
        if not isinstance(ev, AcquireEvent) or ev.reentrant:
            return
        pos = self._positions.get(ev.thread, 0)
        self._positions[ev.thread] = pos + 1
        entry = entry_from_acquire(
            ev, pos=pos, tau=self._vclocks.acquire_tau.get(ev.step, 1)
        )
        self._rel.add(entry)
        if self._deferred:
            return
        self._add_lock_edges(entry)
        self._probe(entry)

    def feed_many(self, events: Iterable[TraceEvent]) -> None:
        for ev in events:
            self.feed(ev)

    # -- reachability index --------------------------------------------------

    def _add_lock_edges(self, entry: LockDepEntry) -> None:
        adj = self._lock_adj
        wanted = entry.lock
        for held in entry.lockset:
            out = adj.get(held)
            if out is None:
                adj[held] = {wanted}
                self._dist_dirty = True
            elif wanted not in out:
                out.add(wanted)
                self._dist_dirty = True

    def _refresh_dist(self) -> None:
        """All-pairs BFS over the lock graph (same as batch find_cycles);
        run only when a genuinely new (held, wanted) edge appeared."""
        adj = self._lock_adj
        dist: Dict[LockId, Dict[LockId, int]] = {}
        for src in adj:
            d = {src: 0}
            frontier = [src]
            while frontier:
                nxt_frontier = []
                for u in frontier:
                    for v in adj.get(u, ()):
                        if v not in d:
                            d[v] = d[u] + 1
                            nxt_frontier.append(v)
                frontier = nxt_frontier
            dist[src] = d
        self._lock_dist = dist
        self._dist_dirty = False

    def _can_reach(
        self, lock: LockId, targets: frozenset, budget: int
    ) -> bool:
        dist = self._lock_dist.get(lock)
        if dist is None:
            return False
        sentinel = self.max_length + 1
        return any(dist.get(t, sentinel) <= budget for t in targets)

    # -- incremental cycle probe ---------------------------------------------

    def _probe(self, z: LockDepEntry) -> None:
        """Enumerate every cycle through the newest tuple ``z``.

        ``z`` has the maximal step, so any cycle containing it consists of
        ``z`` plus already-seen tuples — a closed path
        ``z -> n_1 -> ... -> n_m -> z`` over the waits-for-holder edges
        (``u -> v`` iff ``lock(u) ∈ lockset(v)``).  Each such cycle has
        exactly one linearization starting at ``z``, so the DFS finds each
        new cycle exactly once.
        """
        if not z.lockset or self.truncated:
            return
        if self._dist_dirty:
            self._refresh_dist()
        z_lockset = z.lockset_set
        max_length = self.max_length
        # Anchor cut, as in the batch find_cycles: a cycle through ``z``
        # walks the lock graph from ``lock(z)`` back into ``lockset(z)``.
        if not self._can_reach(z.lock, z_lockset, max_length - 1):
            return
        holding = self._rel.holding
        path: List[LockDepEntry] = [z]
        threads: Set[ThreadId] = {z.thread}

        def extend() -> bool:
            """Returns False when the cycle budget is exhausted."""
            last = path[-1]
            budget = max_length - len(path) - 1  # entries allowed after nxt
            for nxt in holding.get(last.lock, ()):
                if nxt.thread in threads:
                    continue
                closes = nxt.lock in z_lockset
                extendable = budget > 0 and self._can_reach(
                    nxt.lock, z_lockset, budget
                )
                if not closes and not extendable:
                    continue
                # Guard-lock check: locksets pairwise disjoint.
                nxt_lockset = nxt.lockset_set
                if any(nxt_lockset & prev.lockset_set for prev in path):
                    continue
                path.append(nxt)
                threads.add(nxt.thread)
                if closes:
                    self._emit(tuple(path))
                    if len(self._cycles) >= self.max_cycles:
                        self.truncated = True
                        path.pop()
                        threads.discard(nxt.thread)
                        return False
                if extendable and not extend():
                    path.pop()
                    threads.discard(nxt.thread)
                    return False
                path.pop()
                threads.discard(nxt.thread)
            return True

        extend()

    def _emit(self, entries: Tuple[LockDepEntry, ...]) -> None:
        """Record one cycle in canonical rotation (min-step tuple first)."""
        k = min(range(len(entries)), key=lambda i: entries[i].step)
        self._cycles.append(PotentialDeadlock(entries[k:] + entries[:k]))

    # -- introspection --------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Live counters for a long-running ingestion tier's ``/stats``.

        Cheap (no enumeration, no copies): the daemon polls this per
        stream to report detector progress.  ``cycles_found`` is only
        populated in per-event probe mode — deferred mode (``shard_cycles``
        / ``reduce``) enumerates at :meth:`finish`, which is exactly what
        ``deferred`` tells the caller.
        """
        return {
            "events_seen": self.events_seen,
            "tuples": len(self._rel),
            "lock_edges": sum(len(v) for v in self._lock_adj.values()),
            "cycles_found": len(self._cycles),
            "deferred": int(self._deferred),
            "truncated": int(self.truncated),
        }

    # -- finalization ---------------------------------------------------------

    @property
    def vclocks(self) -> VectorClockState:
        return self._vclocks

    @property
    def relation(self) -> LockDependencyRelation:
        return self._rel

    def finish(
        self,
        trace: Optional[Trace] = None,
        *,
        shard_engine: Optional["ExecutionEngine"] = None,
        policy: Optional["SupervisionPolicy"] = None,
        trace_path: Optional[str] = None,
        chunk_spans: Optional[Sequence["ChunkSpan"]] = None,
    ) -> DetectionResult:
        """Seal the stream and return the batch-equivalent result.

        ``trace`` optionally attaches the materialized trace (when the
        caller happens to hold one, e.g. the in-memory pipeline); without
        it the result carries an empty placeholder — downstream stages
        (Pruner, Generator) consume only the relation and clocks.

        In deferred mode (``shard_cycles``/``reduce``) enumeration runs
        here; with ``shard_cycles`` a parallel ``shard_engine`` plus the
        backing ``.wtrc``'s ``trace_path``/``chunk_spans`` additionally
        fan the shards out to workers via the zero-copy hand-off.
        """
        removed = 0
        stats = None
        if self._deferred:
            search_rel = self._rel
            if self.reduce:
                from repro.core.reduction import reduce_relation

                search_rel, removed = reduce_relation(self._rel)
            if self.shard_cycles:
                from repro.core.sharding import find_cycles_sharded

                cycles, self.truncated, stats = find_cycles_sharded(
                    search_rel,
                    max_length=self.max_length,
                    max_cycles=self.max_cycles,
                    engine=shard_engine,
                    policy=policy,
                    trace_path=trace_path,
                    chunk_spans=chunk_spans,
                )
            else:
                cycles, self.truncated = find_cycles(
                    search_rel,
                    max_length=self.max_length,
                    max_cycles=self.max_cycles,
                )
        else:
            # The batch DFS discovers cycles grouped by ascending anchor
            # step and, within an anchor, in lexicographic step order of
            # the rest of the tuple; sorting by the full step tuple
            # reproduces that order exactly (steps are globally unique,
            # so the key is total).
            cycles = sorted(
                self._cycles, key=lambda c: tuple(e.step for e in c.entries)
            )
        return DetectionResult(
            trace=trace if trace is not None else Trace(),
            relation=self._rel,
            cycles=cycles,
            vclocks=self._vclocks,
            truncated=self.truncated,
            reduced_away=removed,
            sharding=stats,
        )

    def analyze(self, trace: Trace) -> DetectionResult:
        """Batch-detector-shaped convenience: one fused pass over an
        in-memory trace (``ExtendedDetector.analyze`` drop-in)."""
        self.feed_many(trace)
        return self.finish(trace)


def analyze_stream(
    events: Iterable[TraceEvent],
    *,
    max_length: int = 4,
    max_cycles: int = 10_000,
    trace: Optional[Trace] = None,
    shard_cycles: bool = False,
    reduce: bool = False,
) -> DetectionResult:
    """Analyze an event stream in one pass without materializing it."""
    det = StreamingDetector(
        max_length=max_length,
        max_cycles=max_cycles,
        shard_cycles=shard_cycles,
        reduce=reduce,
    )
    det.feed_many(events)
    return det.finish(trace)
