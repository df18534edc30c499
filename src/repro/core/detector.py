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

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.lockdep import (
    CycleColumns,
    LockDepEntry,
    LockDependencyRelation,
    build_lockdep,
)
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

    The search runs on the relation's integer
    :meth:`~repro.core.lockdep.LockDependencyRelation.cycle_columns`
    (the kernel-backed relation hands over its flat logs without minting
    entries); only the members of the cycles found become
    :class:`LockDepEntry` objects.
    """
    cols = rel.cycle_columns()
    found, truncated = _search_cycles(cols, max_length, max_cycles)
    rows = sorted({r for cycle in found for r in cycle})
    by_row = dict(zip(rows, cols.entries(rows)))
    return [
        PotentialDeadlock(tuple(by_row[r] for r in cycle)) for cycle in found
    ], truncated


def _search_cycles(
    cols: CycleColumns, max_length: int, max_cycles: int
) -> Tuple[List[Tuple[int, ...]], bool]:
    """The DFS of :func:`find_cycles` over integer columns; cycles come
    back as tuples of rows."""
    steps, threads, locks, held = cols.steps, cols.threads, cols.locks, cols.held
    # Locksets as frozensets for the guard-lock check, one per distinct
    # lockset (loops repeat a few locksets many times).
    shared: Dict[Tuple[int, ...], FrozenSet[int]] = {}
    lsets: List[FrozenSet[int]] = []
    for h in held:
        s = shared.get(h)
        if s is None:
            s = shared[h] = frozenset(h)
        lsets.append(s)
    # holding[l]: rows whose lockset holds l, in trace order (ascending
    # step), so the anchor constraint (later-step rows only) is a binary
    # search over holding_steps[l], not a scan.
    holding: Dict[int, List[int]] = {}
    # Lock-level reachability: appending a row to a partial path adds one
    # edge in the (held -> wanted) lock graph, so a candidate whose wanted
    # lock cannot reach the anchor's lockset within the remaining length
    # budget can never close a cycle.  Locks are few; all-pairs BFS is
    # cheap and prunes the DFS to (near) output-sensitive cost.
    lock_adj: Dict[int, Set[int]] = {}
    for row, h in enumerate(held):
        wanted = locks[row]
        for l in h:
            holding.setdefault(l, []).append(row)
            lock_adj.setdefault(l, set()).add(wanted)
    holding_steps = {l: [steps[r] for r in rows] for l, rows in holding.items()}
    lock_dist: Dict[int, Dict[int, int]] = {}
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
    unreachable = max_length + 1

    def can_reach_anchor(lock: int, anchor_locks: Tuple[int, ...], budget: int) -> bool:
        dist = lock_dist.get(lock)
        if dist is None:
            return False
        return any(dist.get(l, unreachable) <= budget for l in anchor_locks)

    cycles: List[Tuple[int, ...]] = []
    truncated = False

    def extend(path: List[int], on_path: Set[int]) -> bool:
        """Returns False when the cycle budget is exhausted."""
        nonlocal truncated
        first = path[0]
        anchor_locks, anchor_set = held[first], lsets[first]
        lock = locks[path[-1]]
        rows = holding.get(lock)
        if not rows:
            return True
        budget = max_length - len(path) - 1  # rows allowed after nxt
        for nxt in rows[bisect_right(holding_steps[lock], steps[first]):]:
            thread = threads[nxt]
            if thread in on_path:
                continue
            wanted = locks[nxt]
            closes = wanted in anchor_set
            extendable = budget > 0 and can_reach_anchor(wanted, anchor_locks, budget)
            if not closes and not extendable:
                continue
            # Guard-lock check: locksets pairwise disjoint.
            nxt_set = lsets[nxt]
            if any(not nxt_set.isdisjoint(lsets[p]) for p in path):
                continue
            path.append(nxt)
            on_path.add(thread)
            # Close the cycle when the newcomer's wanted lock is held by
            # the anchor: lock(eta_n) ∈ lockset(eta_1).
            if closes:
                cycles.append(tuple(path))
                if len(cycles) >= max_cycles:
                    truncated = True
                    path.pop()
                    on_path.discard(thread)
                    return False
            if extendable and not extend(path, on_path):
                path.pop()
                on_path.discard(thread)
                return False
            path.pop()
            on_path.discard(thread)
        return True

    # Every row holds a lock: an entry holding nothing cannot be waited
    # on, so it never closes a cycle as the anchor (the columns leave it
    # out, and it can never be a later member either).
    for start in range(len(steps)):
        if len(cycles) >= max_cycles:
            truncated = True
            break
        # Anchor cut (after the budget check, so ``truncated`` is what the
        # uncut search reports): the wanted locks of a cycle
        # ``start, e_2 .. e_n`` walk the lock graph from ``lock(start)``
        # to ``lock(e_n) ∈ lockset(start)`` in ``n - 1`` edges.  No such
        # walk within ``max_length - 1`` edges, no cycle through ``start``.
        if not can_reach_anchor(locks[start], held[start], max_length - 1):
            continue
        if not extend([start], {threads[start]}):
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
