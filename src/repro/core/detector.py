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

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product
from operator import lt
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.lockdep import (
    CycleColumns,
    LockDepEntry,
    LockDependencyRelation,
    build_lockdep,
)
from repro.core.vclock import VectorClockState, compute_vector_clocks
from repro.runtime.events import Trace
from repro.util.ids import ExecIndex, LockId, Site, ThreadId


@dataclass(frozen=True)
class PotentialDeadlock:
    """One detected cycle ``theta`` (rotation-canonical: the entry with
    the smallest trace step comes first).  ``sites`` is computed once, and
    stays out of pickled and copied state."""

    entries: Tuple[LockDepEntry, ...]

    def __getstate__(self) -> dict:
        return {"entries": self.entries}

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

    @cached_property
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
    entries), with duplicate rows collapsed first
    (:func:`_collapsed_search`); only the members of the cycles found
    become :class:`LockDepEntry` objects.
    """
    cols = rel.cycle_columns()
    found, truncated = _collapsed_search(cols, max_length, max_cycles)
    return _as_deadlocks(cols, found), truncated


def _as_deadlocks(
    cols: CycleColumns, found: List[Tuple[int, ...]]
) -> List[PotentialDeadlock]:
    """Cycles of rows as :class:`PotentialDeadlock` objects, minting each
    member row's entry once."""
    rows = sorted({r for cycle in found for r in cycle})
    by_row = dict(zip(rows, cols.entries(rows), strict=True))
    return [PotentialDeadlock(tuple(by_row[r] for r in cycle)) for cycle in found]


def _collapsed_search(
    cols: CycleColumns, max_length: int, max_cycles: int
) -> Tuple[List[Tuple[int, ...]], bool]:
    """:func:`_search_cycles` with duplicate rows collapsed: the same
    cycles in the same order, with the same ``truncated`` flag.

    Whether rows form a cycle depends only on their (thread, lockset as a
    set, wanted lock), and loops repeat a few such keys many times.  Rows
    are grouped by key, the search runs on each group's earliest row, and
    each cycle found (a *shape*) expands to every combination of its
    groups' rows, anchored at the combination's earliest row.  The DFS
    emits a trace's cycles in ascending step-tuple order, and so does the
    expansion.  The earliest rows of a cycle's groups form a cycle that
    sorts no later than it, so the first ``max_cycles`` shapes cover the
    first ``max_cycles`` cycles: capping the witness search is exact.

    All of this needs rows in strictly ascending step order, which every
    recorded trace has; a relation without it (only a crafted ``.wtrc``
    can give one) is searched row by row.
    """
    steps = cols.steps
    if not all(map(lt, steps, islice(steps, 1, None))):
        return _search_cycles(cols, max_length, max_cycles)
    groups = _group_rows(cols)
    # Group ids follow their earliest rows, so the witness columns keep
    # trace order and a witness row is its group's id.
    witness = [g[0] for g in groups]
    shapes, truncated = _search_cycles(
        CycleColumns(
            [steps[r] for r in witness],
            [cols.threads[r] for r in witness],
            [cols.locks[r] for r in witness],
            [cols.held[r] for r in witness],
            lambda rows: cols.entries([witness[r] for r in rows]),
        ),
        max_length,
        max_cycles,
    )
    found, capped = _expand_shapes(shapes, groups, max_cycles)
    return found, truncated or capped


def _group_rows(cols: CycleColumns) -> List[List[int]]:
    """The rows of ``cols`` grouped by (thread, lockset as a set, wanted
    lock), each group in row order, groups in order of their first row."""
    lockset_ids: Dict[Tuple[int, ...], int] = {}
    set_ids: Dict[FrozenSet[int], int] = {}
    group_of: Dict[Tuple[int, int, int], int] = {}
    groups: List[List[int]] = []
    for row, (t, h, l) in enumerate(
        zip(cols.threads, cols.held, cols.locks, strict=True)
    ):
        s = lockset_ids.get(h)
        if s is None:
            s = lockset_ids[h] = set_ids.setdefault(frozenset(h), len(set_ids))
        g = group_of.setdefault((t, s, l), len(groups))
        if g == len(groups):
            groups.append([row])
        else:
            groups[g].append(row)
    return groups


def _expand_shapes(
    shapes: List[Tuple[int, ...]], groups: List[List[int]], max_cycles: int
) -> Tuple[List[Tuple[int, ...]], bool]:
    """Every row combination of each shape, in ascending row order (rows
    ascend with steps), stopping at ``max_cycles``.

    A combination is led by its earliest row, so anchors are visited in
    row order, and each anchor's rotations draw the other members from
    the later rows of their groups.  ``product`` over ascending pools
    yields in lexicographic order, and ``heapq.merge`` interleaves the
    rotations an anchor leads.  A combination determines its shape (each
    row has one group), so none is emitted twice.
    """
    # rotations[g]: the other groups of each shape rotation led by g.
    rotations: Dict[int, List[Tuple[int, ...]]] = {}
    for shape in shapes:
        for p, g in enumerate(shape):
            rotations.setdefault(g, []).append(shape[p + 1 :] + shape[:p])
    anchors = sorted((r, g) for g in rotations for r in groups[g])
    found: List[Tuple[int, ...]] = []
    for anchor, g in anchors:
        combos: List[Iterable[Tuple[int, ...]]] = []
        for rest in rotations[g]:
            pools = [[anchor]]
            for h in rest:
                rows = groups[h]
                i = bisect_right(rows, anchor)
                if i == len(rows):
                    break
                pools.append(rows[i:])
            else:
                combos.append(product(*pools))
        for cycle in combos[0] if len(combos) == 1 else heapq.merge(*combos):
            found.append(cycle)
            if len(found) >= max_cycles:
                return found, True
    return found, False


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
    """iGoodLock: order-agnostic cycle detection (paper §3.1)."""

    def __init__(self, *, max_length: int = 4, max_cycles: int = 10_000) -> None:
        self.max_length = max_length
        self.max_cycles = max_cycles

    def analyze(self, trace: Trace) -> DetectionResult:
        rel = build_lockdep(trace)
        cycles, truncated = find_cycles(
            rel, max_length=self.max_length, max_cycles=self.max_cycles
        )
        return DetectionResult(
            trace=trace, relation=rel, cycles=cycles, truncated=truncated
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
        cycles, truncated = find_cycles(
            rel, max_length=self.max_length, max_cycles=self.max_cycles
        )
        return DetectionResult(
            trace=trace,
            relation=rel,
            cycles=cycles,
            vclocks=vclocks,
            truncated=truncated,
        )
