"""Object-level reference cycle search over ``D_sigma`` (test oracle only).

This is iGoodLock's DFS as it stood before :func:`repro.core.detector.find_cycles`
moved to integer columns and collapsed duplicate rows: every probe reads
:class:`LockDepEntry` fields, the :func:`holding` index and the entries'
locksets as sets.  The differential suite (``tests/test_cycle_search.py``)
checks that the integer search returns the same cycles, in the same order,
with the same ``truncated`` flag.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.detector import PotentialDeadlock
from repro.core.lockdep import LockDepEntry, LockDependencyRelation
from repro.util.ids import LockId, ThreadId


def holding(rel: LockDependencyRelation) -> Dict[LockId, List[LockDepEntry]]:
    """The entries whose lockset holds each lock, in trace order.

    An entry is listed once per distinct held lock: a lockset that
    repeats a lock would otherwise list it twice, and the DFS would
    report each of its cycles twice.
    """
    index: Dict[LockId, List[LockDepEntry]] = {}
    for e in rel.entries:
        for lock in dict.fromkeys(e.lockset):
            index.setdefault(lock, []).append(e)
    return index


def reference_find_cycles(
    rel: LockDependencyRelation,
    *,
    max_length: int = 4,
    max_cycles: int = 10_000,
) -> Tuple[List[PotentialDeadlock], bool]:
    """Enumerate tuple cycles in ``D_sigma`` with the object DFS.

    DFS over the "waits-for-holder" relation, anchored at the entry with
    the smallest trace ``step`` in each cycle so every cycle is produced
    exactly once (in canonical rotation).  Returns ``(cycles, truncated)``
    where ``truncated`` reports hitting ``max_cycles``.
    """
    cycles: List[PotentialDeadlock] = []
    truncated = False
    holders = holding(rel)
    locksets: Dict[int, FrozenSet[LockId]] = {
        id(e): frozenset(e.lockset) for e in rel.entries
    }

    # ``holders`` lists are in trace order (ascending ``step``), so the
    # anchor constraint (later-step entries only) is a binary search,
    # not a scan.
    def candidates_after(lock, step: int):
        lst = holders.get(lock)
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
            # Guard-lock check: locksets pairwise disjoint.
            nxt_lockset = locksets[id(nxt)]
            if any(nxt_lockset & locksets[id(prev)] for prev in path):
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
