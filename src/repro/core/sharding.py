"""Sharded, deduplicated cycle enumeration over ``D_sigma``.

The monolithic DFS in :func:`repro.core.detector.find_cycles` re-probes
every tuple a loop-heavy workload emits, even though iterations of the
same loop produce tuples that are interchangeable for cycle *existence*:
DeadlockFuzzer (Joshi et al., PLDI 2009) abstracts such duplicates away,
and MagicFuzzer (Cai & Chan, ICSE 2012) partitions the relation so each
piece is searched independently.  This module composes both ideas while
staying **output-identical** to the monolithic DFS:

1. **Deduplication.**  Entries with the same equivalence key
   ``(thread, lockset_set, lock)`` are collapsed to one canonical witness
   (the earliest by trace step) plus a multiplicity count.  Whether a
   tuple combination forms a cycle depends only on these key fields, so
   searching witnesses finds every cycle *shape*.
2. **SCC sharding.**  The wanted locks of a cycle form a closed walk in
   the (held -> wanted) lock digraph, hence live in one strongly
   connected component.  The witness relation is partitioned by the SCC
   of each entry's wanted lock; singleton SCCs (necessarily acyclic —
   a non-reentrant acquisition never holds its own wanted lock, so the
   lock graph has no self-loops) are skipped outright.
3. **Per-shard enumeration** — the unchanged :func:`find_cycles` DFS on
   each shard's sub-relation, serially or fanned out to worker processes
   (:mod:`repro.core.parallel`) with a zero-copy ``.wtrc`` hand-off.
4. **Expansion.**  Each canonical cycle (a *shape*) is expanded back to
   every concrete combination of duplicate entries, anchored at the
   combination's minimum-step member, and streamed out in ascending
   lexicographic step-tuple order — precisely the order the monolithic
   DFS emits, so downstream consumers (defect keys, Pruner, Generator,
   report JSON) cannot tell the difference.

The single carve-out is ``max_cycles`` truncation: both paths stop at
the cap and report ``truncated=True``, but *which* cycles survive may
differ when a single shard's shape count itself exceeds the cap — the
sharded search then keeps a different subset of the same size.
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import product
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.detector import PotentialDeadlock, find_cycles
from repro.core.lockdep import DedupKey, LockDepEntry, LockDependencyRelation
from repro.util.ids import LockId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.parallel import ExecutionEngine, SupervisionPolicy
    from repro.runtime.tracefile import ChunkSpan


@dataclass
class DedupedRelation:
    """``D_sigma`` collapsed by :attr:`~repro.core.lockdep.LockDepEntry.dedup_key`.

    ``groups`` maps each key to its concrete entries in ascending step
    order; ``witnesses`` holds the canonical (earliest) entry per key, in
    ascending step order overall.
    """

    groups: Dict[DedupKey, List[LockDepEntry]]
    witnesses: List[LockDepEntry]

    @property
    def n_entries(self) -> int:
        return sum(len(g) for g in self.groups.values())

    def multiplicity(self, key: DedupKey) -> int:
        return len(self.groups[key])


def dedupe_relation(rel: LockDependencyRelation) -> DedupedRelation:
    """Collapse ``rel`` to one canonical witness per equivalence key.

    Entries arrive in trace order (ascending step), so each group is
    step-sorted and the first member is the canonical witness.
    """
    groups: Dict[DedupKey, List[LockDepEntry]] = {}
    witnesses: List[LockDepEntry] = []
    for e in rel.entries:
        bucket = groups.get(e.dedup_key)
        if bucket is None:
            groups[e.dedup_key] = [e]
            witnesses.append(e)
        else:
            bucket.append(e)
    return DedupedRelation(groups=groups, witnesses=witnesses)


def lock_sccs(entries: Sequence[LockDepEntry]) -> Dict[LockId, int]:
    """Strongly connected components of the (held -> wanted) lock graph.

    Returns ``lock -> component id``.  Iterative Tarjan — traces can
    involve thousands of locks and the recursion limit is not ours to
    spend.
    """
    adj: Dict[LockId, List[LockId]] = {}
    seen_edges: set = set()
    for e in entries:
        for held in e.lockset:
            if (held, e.lock) not in seen_edges:
                seen_edges.add((held, e.lock))
                adj.setdefault(held, []).append(e.lock)
        adj.setdefault(e.lock, [])

    index_of: Dict[LockId, int] = {}
    low: Dict[LockId, int] = {}
    comp: Dict[LockId, int] = {}
    on_stack: set = set()
    stack: List[LockId] = []
    counter = 0
    n_comps = 0

    for root in adj:
        if root in index_of:
            continue
        # Each work item is (node, iterator position into its adjacency).
        work: List[Tuple[LockId, int]] = [(root, 0)]
        while work:
            node, i = work.pop()
            if i == 0:
                index_of[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            neighbors = adj[node]
            while i < len(neighbors):
                succ = neighbors[i]
                i += 1
                if succ not in index_of:
                    work.append((node, i))
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index_of[succ])
            if advanced:
                continue
            if low[node] == index_of[node]:
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp[w] = n_comps
                    if w == node:
                        break
                n_comps += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp


@dataclass(frozen=True)
class Shard:
    """One independently enumerable slice of the witness relation."""

    #: locks of the underlying SCC (every cycle's wanted locks live here)
    locks: FrozenSet[LockId]
    #: canonical witnesses assigned to this shard, ascending step order
    entries: Tuple[LockDepEntry, ...]


def partition_shards(dedup: DedupedRelation) -> Tuple[List[Shard], int, int]:
    """Split the witnesses into independent shards by lock SCC.

    An entry lands in the shard of its wanted lock's SCC, and only if it
    also *holds* a lock of that SCC (otherwise no in-shard entry can ever
    wait on it, so it cannot join a cycle).  Returns
    ``(shards, n_multi_sccs, n_singleton_sccs)``; shards are ordered by
    their first witness's step so downstream merges are deterministic.
    """
    comp = lock_sccs(dedup.witnesses)
    members: Dict[int, List[LockId]] = {}
    for lock, cid in comp.items():
        members.setdefault(cid, []).append(lock)
    multi = {cid for cid, locks in members.items() if len(locks) > 1}
    singleton_sccs = len(members) - len(multi)

    by_comp: Dict[int, List[LockDepEntry]] = {}
    lockset_cache: Dict[int, FrozenSet[LockId]] = {
        cid: frozenset(members[cid]) for cid in multi
    }
    for e in dedup.witnesses:
        cid = comp[e.lock]
        if cid not in multi:
            continue
        if not (e.lockset_set & lockset_cache[cid]):
            continue
        by_comp.setdefault(cid, []).append(e)

    shards = [
        Shard(locks=lockset_cache[cid], entries=tuple(entries))
        for cid, entries in by_comp.items()
        if entries
    ]
    shards.sort(key=lambda s: s.entries[0].step)
    return shards, len(multi), singleton_sccs


@dataclass
class ShardStats:
    """Instrumentation for one sharded enumeration pass."""

    n_entries: int = 0
    n_keys: int = 0
    duplicates_collapsed: int = 0
    n_sccs: int = 0
    singleton_sccs: int = 0
    n_shards: int = 0
    largest_shard: int = 0
    canonical_cycles: int = 0
    expanded_cycles: int = 0
    #: shards enumerated in worker processes (0 on the serial path)
    parallel_shards: int = 0
    #: per-stage wall seconds: dedup / scc / enumerate / expand
    timings_s: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_entries": self.n_entries,
            "n_keys": self.n_keys,
            "duplicates_collapsed": self.duplicates_collapsed,
            "n_sccs": self.n_sccs,
            "singleton_sccs": self.singleton_sccs,
            "n_shards": self.n_shards,
            "largest_shard": self.largest_shard,
            "canonical_cycles": self.canonical_cycles,
            "expanded_cycles": self.expanded_cycles,
            "parallel_shards": self.parallel_shards,
            "timings_s": {k: round(v, 6) for k, v in self.timings_s.items()},
        }


def _anchored_products(
    anchor: LockDepEntry, pools: Sequence[Sequence[LockDepEntry]]
):
    """All concrete cycles led by ``anchor``, in lexicographic step order
    (``product`` iterates rightmost-fastest over step-sorted pools).

    A separate function so each rotation's generator binds its own
    ``pools`` — a generator expression in the caller's loop would close
    over the loop variable and see the *last* rotation's pools.
    """
    for rest in product(*pools):
        yield (anchor, *rest)


def _expand_cycles(
    shapes: Sequence[PotentialDeadlock],
    dedup: DedupedRelation,
    max_cycles: int,
) -> Tuple[List[PotentialDeadlock], bool]:
    """Expand canonical cycles back to all concrete duplicate cycles.

    Every concrete cycle is anchored at its minimum-step member; anchors
    are visited in ascending step order and, per anchor, the rotations'
    cartesian products are heap-merged by step tuple.  Products iterate
    rightmost-fastest over step-sorted pools, so each generator is itself
    lexicographic — the merged stream reproduces the monolithic DFS's
    global emission order exactly.
    """
    # Rotations of each shape, indexed by the key that leads them.  Two
    # distinct shapes never share a rotation (a linearization determines
    # the cyclic key sequence), so no concrete cycle is produced twice.
    anchor_rotations: Dict[DedupKey, List[Tuple[DedupKey, ...]]] = {}
    for shape in shapes:
        keys = tuple(e.dedup_key for e in shape.entries)
        for p in range(len(keys)):
            rot = keys[p:] + keys[:p]
            anchor_rotations.setdefault(rot[0], []).append(rot)

    anchors = sorted(
        (e for key in anchor_rotations for e in dedup.groups[key]),
        key=lambda e: e.step,
    )

    out: List[PotentialDeadlock] = []
    truncated = False
    for anchor in anchors:
        gens = []
        for rot in anchor_rotations[anchor.dedup_key]:
            pools: List[List[LockDepEntry]] = []
            feasible = True
            for key in rot[1:]:
                group = dedup.groups[key]
                # Only members after the anchor keep it the minimum.
                i = bisect_right(group, anchor.step, key=lambda e: e.step)
                if i >= len(group):
                    feasible = False
                    break
                pools.append(group[i:])
            if feasible:
                gens.append(_anchored_products(anchor, pools))
        merged = heapq.merge(
            *gens, key=lambda entries: tuple(e.step for e in entries)
        )
        for entries in merged:
            out.append(PotentialDeadlock(tuple(entries)))
            if len(out) >= max_cycles:
                return out, True
    return out, truncated


def _steps_to_entries(
    step_cycles: Sequence[Tuple[int, ...]],
    by_step: Dict[int, LockDepEntry],
) -> List[PotentialDeadlock]:
    return [
        PotentialDeadlock(tuple(by_step[s] for s in steps))
        for steps in step_cycles
    ]


def _select_spans(
    spans: Sequence["ChunkSpan"], steps: Sequence[int]
) -> Tuple["ChunkSpan", ...]:
    """EVENTS chunks whose step range covers any of ``steps``.

    A chunk holds the steps in ``(base_step, last_step]`` (steps are
    monotonically increasing trace positions; deltas are decoded against
    ``base_step``).
    """
    selected = []
    for span in spans:
        i = bisect_right(steps, span.base_step)
        if i < len(steps) and steps[i] <= span.last_step:
            selected.append(span)
    return tuple(selected)


def find_cycles_sharded(
    rel: LockDependencyRelation,
    *,
    max_length: int = 4,
    max_cycles: int = 10_000,
    engine: Optional["ExecutionEngine"] = None,
    policy: Optional["SupervisionPolicy"] = None,
    trace_path: Optional[str] = None,
    chunk_spans: Optional[Sequence["ChunkSpan"]] = None,
) -> Tuple[List[PotentialDeadlock], bool, ShardStats]:
    """Sharded, deduplicated enumeration — output-identical to
    :func:`find_cycles` (same cycles, same order, same entries), modulo
    the documented ``max_cycles`` carve-out.

    When ``engine`` is a parallel :class:`~repro.core.parallel`
    execution engine *and* the trace is available on disk
    (``trace_path`` + its EVENTS ``chunk_spans``), shards are enumerated
    in worker processes via the zero-copy hand-off: each task ships only
    the path, the relevant chunk offsets and the witness steps — never a
    pickled trace.  Any worker failure falls back to enumerating that
    shard in-process, so the merged output never depends on worker
    health or count.
    """
    stats = ShardStats()
    t0 = time.perf_counter()
    dedup = dedupe_relation(rel)
    t1 = time.perf_counter()
    shards, n_multi, n_single = partition_shards(dedup)
    t2 = time.perf_counter()

    stats.n_entries = len(rel.entries)
    stats.n_keys = len(dedup.witnesses)
    stats.duplicates_collapsed = stats.n_entries - stats.n_keys
    stats.n_sccs = n_multi
    stats.singleton_sccs = n_single
    stats.n_shards = len(shards)
    stats.largest_shard = max((len(s.entries) for s in shards), default=0)

    shard_results: List[Optional[Tuple[List[PotentialDeadlock], bool]]] = [
        None
    ] * len(shards)

    use_parallel = (
        engine is not None
        and getattr(engine, "parallel", False)
        and trace_path is not None
        and chunk_spans
        and len(shards) > 1
    )
    if use_parallel:
        from repro.core.parallel import (
            ShardEnumTask,
            SupervisionPolicy,
            run_shard_enum_task,
        )

        sorted_spans = sorted(chunk_spans or (), key=lambda s: s.offset)
        tasks = []
        for shard in shards:
            steps = tuple(e.step for e in shard.entries)
            tasks.append(
                ShardEnumTask(
                    trace_path=str(trace_path),
                    spans=_select_spans(sorted_spans, steps),
                    entry_steps=steps,
                    max_length=max_length,
                    max_cycles=max_cycles,
                )
            )
        outcomes = engine.map_supervised(
            run_shard_enum_task, tasks, policy or SupervisionPolicy()
        )
        for i, (shard, outcome) in enumerate(
            zip(shards, outcomes, strict=True)
        ):
            if outcome.ok and outcome.value is not None:
                by_step = {e.step: e for e in shard.entries}
                shard_results[i] = (
                    _steps_to_entries(outcome.value.cycles, by_step),
                    outcome.value.truncated,
                )
                stats.parallel_shards += 1
        # Failed shards (if any) are enumerated in-process below.

    truncated = False
    for i, shard in enumerate(shards):
        if shard_results[i] is None:
            sub = LockDependencyRelation(list(shard.entries))
            shard_results[i] = find_cycles(
                sub, max_length=max_length, max_cycles=max_cycles
            )

    shapes: List[PotentialDeadlock] = []
    for result in shard_results:
        assert result is not None
        cycles, shard_truncated = result
        shapes.extend(cycles)
        truncated = truncated or shard_truncated
    # Deterministic merge: shards are step-ordered already, but the full
    # sort by step tuple makes the order independent of shard boundaries
    # (and is exactly the monolithic DFS order).
    shapes.sort(key=lambda c: tuple(e.step for e in c.entries))
    stats.canonical_cycles = len(shapes)
    t3 = time.perf_counter()

    expanded, exp_truncated = _expand_cycles(shapes, dedup, max_cycles)
    truncated = truncated or exp_truncated
    stats.expanded_cycles = len(expanded)
    t4 = time.perf_counter()

    stats.timings_s = {
        "dedup": t1 - t0,
        "scc": t2 - t1,
        "enumerate": t3 - t2,
        "expand": t4 - t3,
    }
    return expanded, truncated, stats


# Re-exported for callers that only need the span selection logic (the
# CLI's parallel analyze-trace path builds tasks through
# find_cycles_sharded, but tests exercise this directly).
__all__ = [
    "DedupedRelation",
    "Shard",
    "ShardStats",
    "dedupe_relation",
    "find_cycles_sharded",
    "lock_sccs",
    "partition_shards",
]
