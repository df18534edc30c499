"""Cycle detection over ``D_sigma``: base iGoodLock and the extended
detector (paper §3.1-§3.2, Algorithm 1).

A potential deadlock is a tuple cycle ``theta = (eta_1 ... eta_n)`` where

* ``lock(eta_i) ∈ lockset(eta_{i+1})`` cyclically — every thread attempts
  a lock some other thread in the cycle holds;
* threads are pairwise distinct and locksets pairwise disjoint — each
  thread contributes one edge and no common guard lock protects the cycle.

:class:`BaseDetector` is iGoodLock: order-agnostic, it reports every such
cycle.  :class:`ExtendedDetector` additionally computes the timestamps and
``(S, J)`` vector clocks of Algorithm 1 and stamps each ``eta`` with the
``tau`` of its acquisition, enabling the Pruner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.lockdep import LockDepEntry, LockDependencyRelation, build_lockdep
from repro.core.vclock import VectorClockState, compute_vector_clocks
from repro.runtime.events import Trace
from repro.util.ids import ExecIndex, LockId, Site, ThreadId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sharding import ShardStats


@dataclass(frozen=True)
class PotentialDeadlock:
    """One detected cycle ``theta`` (rotation-canonical: the entry with
    the smallest trace step comes first)."""

    entries: Tuple[LockDepEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def threads(self) -> Tuple[ThreadId, ...]:
        return tuple(e.thread for e in self.entries)

    @property
    def locks(self) -> Tuple[LockId, ...]:
        """The contended locks, one per entry (the acquisition targets)."""
        return tuple(e.lock for e in self.entries)

    @property
    def indices(self) -> Tuple[ExecIndex, ...]:
        """Execution indices of the deadlocking acquisitions."""
        return tuple(e.index for e in self.entries)

    @property
    def sites(self) -> FrozenSet[Site]:
        return frozenset(e.index.site for e in self.entries)

    @property
    def defect_key(self) -> FrozenSet[Site]:
        """Source-location identity used for the paper's defect counting
        (§4.3): the set of deadlocking acquisition sites."""
        return self.sites

    def pretty(self) -> str:
        parts = []
        for e in self.entries:
            held = ",".join(l.pretty() for l in e.lockset) or "-"
            parts.append(
                f"{e.thread.pretty()}[{held}] wants {e.lock.pretty()} at {e.index.site}"
            )
        return "potential deadlock: " + " | ".join(parts)


@dataclass
class DetectionResult:
    """Everything one detection pass produced."""

    trace: Trace
    relation: LockDependencyRelation
    cycles: List[PotentialDeadlock]
    vclocks: Optional[VectorClockState] = None
    truncated: bool = False
    #: Tuples the MagicFuzzer reduction removed before enumeration (0
    #: when reduction was off — ``relation`` is always the full relation).
    reduced_away: int = 0
    #: Instrumentation from the sharded enumeration (``None`` when the
    #: monolithic DFS ran).
    sharding: Optional["ShardStats"] = None

    def defect_keys(self) -> List[FrozenSet[Site]]:
        seen: Dict[FrozenSet[Site], None] = {}
        for c in self.cycles:
            seen.setdefault(c.defect_key, None)
        return list(seen)


def find_cycles(
    rel: LockDependencyRelation,
    *,
    max_length: int = 4,
    max_cycles: int = 10_000,
) -> Tuple[List[PotentialDeadlock], bool]:
    """Enumerate tuple cycles in ``D_sigma``.

    DFS over the "waits-for-holder" relation, anchored at the entry with
    the smallest trace ``step`` in each cycle so every cycle is produced
    exactly once (in canonical rotation).  Returns ``(cycles, truncated)``
    where ``truncated`` reports hitting ``max_cycles``.
    """
    cycles: List[PotentialDeadlock] = []
    truncated = False

    # ``rel.holding`` lists are in trace order (ascending ``step``), so
    # the anchor constraint (later-step entries only) is a binary search,
    # not a scan.
    from bisect import bisect_right

    def candidates_after(lock, step: int):
        lst = rel.holding.get(lock)
        if not lst:
            return ()
        i = bisect_right(lst, step, key=lambda e: e.step)
        return lst[i:]

    # Lock-level reachability: appending an entry to a partial path adds
    # one edge in the (held -> wanted) lock graph, so a candidate whose
    # wanted lock cannot reach the anchor's lockset within the remaining
    # length budget can never close a cycle.  Locks are few; all-pairs
    # BFS is cheap and prunes the DFS to (near) output-sensitive cost.
    lock_adj: Dict[LockId, Set[LockId]] = {}
    for e in rel.entries:
        for held in e.lockset:
            lock_adj.setdefault(held, set()).add(e.lock)
    lock_dist: Dict[LockId, Dict[LockId, int]] = {}
    for src in lock_adj:
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt_frontier = []
            for u in frontier:
                for v in lock_adj.get(u, ()):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt_frontier.append(v)
            frontier = nxt_frontier
        lock_dist[src] = dist

    def can_reach_anchor(lock: LockId, anchor_locks, budget: int) -> bool:
        dist = lock_dist.get(lock)
        if dist is None:
            return False
        return any(
            dist.get(l, max_length + 1) <= budget for l in anchor_locks
        )

    def extend(path: List[LockDepEntry], threads: Set[ThreadId]) -> bool:
        """Returns False when the cycle budget is exhausted."""
        nonlocal truncated
        first, last = path[0], path[-1]
        budget = max_length - len(path) - 1  # entries allowed after nxt
        for nxt in candidates_after(last.lock, first.step):
            if nxt.thread in threads:
                continue
            closes = nxt.lock in first.lockset
            extendable = budget > 0 and can_reach_anchor(
                nxt.lock, first.lockset, budget
            )
            if not closes and not extendable:
                continue
            # Guard-lock check: locksets pairwise disjoint (cached
            # frozensets — see LockDepEntry.lockset_set).
            nxt_lockset = nxt.lockset_set
            if any(nxt_lockset & prev.lockset_set for prev in path):
                continue
            path.append(nxt)
            threads.add(nxt.thread)
            # Close the cycle when the newcomer's wanted lock is held by
            # the anchor: lock(eta_n) ∈ lockset(eta_1).
            if closes and len(path) >= 2:
                cycles.append(PotentialDeadlock(tuple(path)))
                if len(cycles) >= max_cycles:
                    truncated = True
                    path.pop()
                    threads.discard(nxt.thread)
                    return False
            if extendable and not extend(path, threads):
                path.pop()
                threads.discard(nxt.thread)
                return False
            path.pop()
            threads.discard(nxt.thread)
        return True

    for start in rel.entries:
        if not start.lockset:
            # An entry holding nothing cannot be waited on; it can still
            # *wait*, but as the anchor it must also be held-from, so only
            # entries with a non-empty lockset can ever close a cycle...
            # except as the waiter: the anchor both waits (via its lock)
            # and is waited on (via its lockset).  Empty lockset => no one
            # can wait on the anchor => no cycle through it as anchor.
            continue
        if len(cycles) >= max_cycles:
            truncated = True
            break
        # Anchor cut (after the budget check, so ``truncated`` is what the
        # uncut search reports): the wanted locks of a cycle
        # ``start, e_2 .. e_n`` walk the lock graph from ``lock(start)``
        # to ``lock(e_n) ∈ lockset(start)`` in ``n - 1`` edges.  No such
        # walk within ``max_length - 1`` edges, no cycle through ``start``.
        if not can_reach_anchor(start.lock, start.lockset, max_length - 1):
            continue
        if not extend([start], {start.thread}):
            break
    return cycles, truncated


class BaseDetector:
    """iGoodLock: order-agnostic cycle detection (paper §3.1).

    ``magic_reduce=True`` applies the MagicFuzzer-style relation reduction
    (:mod:`repro.core.reduction`) before cycle enumeration — same cycles,
    less search (paper §5 notes the techniques compose).

    ``shard_cycles=True`` swaps the monolithic DFS for the deduplicated
    SCC-sharded enumeration (:mod:`repro.core.sharding`) — output
    identical by construction, with per-stage stats on the result.
    """

    def __init__(
        self,
        *,
        max_length: int = 4,
        max_cycles: int = 10_000,
        magic_reduce: bool = False,
        shard_cycles: bool = False,
    ) -> None:
        self.max_length = max_length
        self.max_cycles = max_cycles
        self.magic_reduce = magic_reduce
        self.shard_cycles = shard_cycles

    def _detect(self, rel):
        """Returns ``(cycles, truncated, reduced_away, shard_stats)``."""
        search_rel = rel
        removed = 0
        if self.magic_reduce:
            from repro.core.reduction import reduce_relation

            search_rel, removed = reduce_relation(rel)
        if self.shard_cycles:
            from repro.core.sharding import find_cycles_sharded

            cycles, truncated, stats = find_cycles_sharded(
                search_rel, max_length=self.max_length, max_cycles=self.max_cycles
            )
            return cycles, truncated, removed, stats
        cycles, truncated = find_cycles(
            search_rel, max_length=self.max_length, max_cycles=self.max_cycles
        )
        return cycles, truncated, removed, None

    def analyze(self, trace: Trace) -> DetectionResult:
        rel = build_lockdep(trace)
        cycles, truncated, removed, stats = self._detect(rel)
        return DetectionResult(
            trace=trace,
            relation=rel,
            cycles=cycles,
            truncated=truncated,
            reduced_away=removed,
            sharding=stats,
        )


class ExtendedDetector(BaseDetector):
    """Algorithm 1: iGoodLock plus timestamps and vector clocks.

    Same cycles as the base detector (the paper's extension changes the
    recorded data, not which cycles exist), but each ``eta`` carries the
    acquiring thread's ``tau`` and the result carries the final clocks —
    the inputs the Pruner needs.
    """

    def analyze(self, trace: Trace) -> DetectionResult:
        vclocks = compute_vector_clocks(trace)
        rel = build_lockdep(trace, taus=vclocks.acquire_tau)
        cycles, truncated, removed, stats = self._detect(rel)
        return DetectionResult(
            trace=trace,
            relation=rel,
            cycles=cycles,
            vclocks=vclocks,
            truncated=truncated,
            reduced_away=removed,
            sharding=stats,
        )
