"""The synchronization dependency graph ``Gs`` (paper §3.4, Algorithm 3).

Vertices are the lock acquisitions (execution indices) leading up to a
potential deadlock; an edge ``(u, v)`` demands "the acquisition at ``u``
executes before the acquisition at ``v``" in a deadlocking re-execution.
Three edge kinds:

* **type-D** — the deadlock condition itself: the thread that *holds*
  lock ``l`` in the cycle must acquire it before the thread that *waits*
  on ``l`` attempts it;
* **type-C** — context: every earlier acquisition of a cycle-relevant
  lock by the *other* cycle threads must complete before the cycle thread
  takes (or attempts) it, because the cycle thread never lets go again;
* **type-P** — program order within each cycle thread.

A cycle in ``Gs`` means the required ordering is self-contradictory: no
schedule over this trace deadlocks there, so the potential deadlock is a
false positive (paper Figure 7(b)).  An acyclic ``Gs`` is the Replayer's
script.

Construction notes (validated against the paper's Figures 7(a)/(b) in the
test suite):

* the paper's ``mu_i`` is defined on ``lockset(eta_i) ∪ {lock(eta_i)}``
  because the recorded context includes the pending acquisition (Fig. 5);
* type-C targets likewise range over ``lockset ∪ {lock}`` — the paper's
  edge ``(11, 33)`` orders t1's *earlier* acquisition of ``l1`` before
  t3's deadlocking attempt on it;
* type-C sources are the strictly-before tuples ``D'_sigma`` of the other
  cycle threads, excluding the deadlocking tuples themselves (otherwise
  every type-D edge would be contradicted).

The one builder runs on integers: :class:`SyncGraphBuilder` reads a
trace's :class:`~repro.core.lockdep.AcquisitionTables` (the per-lock
acquisition lists and per-thread entry lists, with one vertex id per
acquisition), which the Generator builds once per trace from its
relation.  A vertex is identified by value, ``(ExecIndex, LockId)``, as a
canonical :data:`~repro.core.lockdep.VertexKey`, so a held acquisition
with no entry of its own still gets one.  The builder decides a cycle's
``Gs`` on ints (:meth:`SyncGraphBuilder.decide`) and builds it whole
(:meth:`SyncGraphBuilder.build`), the second only for a reader of the
graph: the Replayer, the sanitizer, a dot export.

The builder is the reference for the Generator's decision.  On a
kernel-backed relation the kernel decides every cycle's ``Gs`` by the
same rules (``wk_decide_gs``, see :mod:`repro.core.nativekernel`), and a
graph that is read is built from the materialized relation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from repro.core.detector import PotentialDeadlock
from repro.core.lockdep import AcquisitionTables, LockDependencyRelation, LockDepEntry
from repro.util.digraph import DiGraph
from repro.util.ids import ExecIndex, LockId, ThreadId, hash_once


class EdgeKind(enum.Enum):
    D = "type-D"
    C = "type-C"
    P = "type-P"


@hash_once
@dataclass(frozen=True)
class GsVertex:
    """One acquisition vertex: (thread, execution index, lock).

    ``index.thread`` carries the thread, so ``(index, lock)`` suffices for
    identity; the ``thread`` property mirrors the paper's triple."""

    index: ExecIndex
    lock: LockId

    @property
    def thread(self) -> ThreadId:
        return self.index.thread

    def pretty(self) -> str:
        return f"({self.thread.pretty()}, {self.index.site}x{self.index.occ})"


def _has_cycle(n: int, edges) -> bool:
    """Kahn's algorithm over ``n`` vertices and ``(u, v)`` int pairs."""
    succ: List[List[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in edges:
        succ[u].append(v)
        indeg[v] += 1
    ready = [u for u in range(n) if not indeg[u]]
    for u in ready:  # grows while it is walked: a FIFO queue
        for v in succ[u]:
            indeg[v] -= 1
            if not indeg[v]:
                ready.append(v)
    return len(ready) < n


@dataclass(init=False)
class SyncGraph:
    """``Gs`` plus the metadata the Replayer needs.

    Stored compactly: ``edges`` maps ``(u, v)`` vertex positions to the
    edge's kind, in insertion order (the first kind given for a pair is
    kept), and acyclicity is decided on ints.  ``vertices`` lists each
    :class:`GsVertex` once, in insertion order.  ``graph``, ``edge_kinds``
    and ``by_index`` are object views built on first read, with nodes and
    edges in insertion order.  Pickling keeps ``cycle``, ``vertices`` and
    ``edges`` only; the vertex-interning dict is rebuilt on unpickle.
    """

    cycle: PotentialDeadlock
    vertices: List[GsVertex]
    edges: Dict[Tuple[int, int], EdgeKind]
    _ids: Dict[Tuple[ExecIndex, LockId], int] = field(repr=False, compare=False)

    def __init__(
        self,
        cycle: PotentialDeadlock,
        vertices: Optional[List[GsVertex]] = None,
        edges: Optional[Dict[Tuple[int, int], EdgeKind]] = None,
    ) -> None:
        self.cycle = cycle
        self.vertices = [] if vertices is None else vertices
        self.edges = {} if edges is None else edges
        self._ids = {(v.index, v.lock): i for i, v in enumerate(self.vertices)}

    def __getstate__(self) -> dict:
        return {"cycle": self.cycle, "vertices": self.vertices, "edges": self.edges}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    # -- construction ------------------------------------------------------

    def _intern(self, index: ExecIndex, lock: LockId) -> int:
        """The id of vertex ``(index, lock)``, appending it when new."""
        n = len(self.vertices)
        vid = self._ids.setdefault((index, lock), n)
        if vid == n:
            self.vertices.append(GsVertex(index=index, lock=lock))
        return vid

    def add_edge(self, u: GsVertex, v: GsVertex, kind: EdgeKind) -> None:
        if u == v:
            return
        key = (self._intern(u.index, u.lock), self._intern(v.index, v.lock))
        self.edges.setdefault(key, kind)
        for view in ("graph", "edge_kinds", "by_index"):
            self.__dict__.pop(view, None)  # rebuilt on next read

    # -- views -------------------------------------------------------------

    @cached_property
    def graph(self) -> DiGraph:
        g = DiGraph()
        vs = self.vertices
        for v in vs:
            g.add_node(v)
        for u, v in self.edges:
            g.add_edge(vs[u], vs[v])
        return g

    @cached_property
    def edge_kinds(self) -> Dict[Tuple[GsVertex, GsVertex], EdgeKind]:
        vs = self.vertices
        return {(vs[u], vs[v]): kind for (u, v), kind in self.edges.items()}

    @cached_property
    def by_index(self) -> Dict[ExecIndex, GsVertex]:
        return {v.index: v for v in self.vertices}

    # -- queries -----------------------------------------------------------

    @property
    def threads(self) -> Set[ThreadId]:
        return set(self.cycle.threads)

    def num_vertices(self) -> int:
        return len(self.vertices)

    def num_edges(self) -> int:
        return len(self.edges)

    def is_cyclic(self) -> bool:
        """Kahn's algorithm over the int edge table."""
        return _has_cycle(len(self.vertices), self.edges)

    def find_cycle(self) -> Optional[List[GsVertex]]:
        """One ordering cycle of ``Gs`` (:meth:`DiGraph.find_cycle` on
        :attr:`graph`), or ``None``; the view is built only when the int
        table is cyclic."""
        return self.graph.find_cycle() if self.is_cyclic() else None

    def pretty(self) -> str:
        vs = self.vertices
        lines = [f"Gs for {self.cycle.pretty()}"]
        for (u, v), kind in self.edges.items():
            lines.append(f"  {vs[u].pretty()} -> {vs[v].pretty()}  [{kind.value}]")
        return "\n".join(lines)


class _Member:
    """One cycle entry on the tables' ids: canonical thread, lock and
    lockset, and ``mu`` as canonical lock -> (vertex id, ExecIndex)."""

    __slots__ = ("entry", "thread", "lock", "held", "mu")

    def __init__(self, entry: LockDepEntry, tables: AcquisitionTables) -> None:
        thread_ids, lock_ids = tables.thread_ids, tables.lock_ids
        vertex_ids = tables.vertex_ids
        self.entry = entry
        self.thread = _canon(thread_ids, entry.thread)
        self.lock = _canon(lock_ids, entry.lock)
        self.held = tuple(_canon(lock_ids, l) for l in entry.lockset)
        # mu(l) is the entry's own index for its lock, else the index of
        # the first held slot with an equal lock (LockDepEntry.mu).
        mu: Dict[int, Tuple[int, ExecIndex]] = {}
        for lock, index in zip(
            (self.lock,) + self.held, (entry.index,) + entry.context, strict=True
        ):
            if lock not in mu:
                key = (_canon(thread_ids, index.thread), index.site, index.occ, lock)
                mu[lock] = (vertex_ids.setdefault(key, len(vertex_ids)), index)
        self.mu = mu


def _canon(ids: Dict, value) -> int:
    """``value``'s canonical id in ``ids``; a value no table row holds
    gets a fresh negative id, which no row shares."""
    got = ids.get(value)
    if got is None:
        got = ids[value] = -1 - len(ids)
    return got


class _Plan:
    """One cycle's ``Gs`` in the making: its members, the vertex ids met
    so far (table vertex id -> position), the objects each first
    appeared with (an ``(ExecIndex, LockId)`` pair, or a table row and
    the lock it was met under, ``None`` for the row's own) and the edge
    table."""

    __slots__ = ("theta", "local", "sources", "edges")

    def __init__(self, theta: List[_Member]) -> None:
        self.theta = theta
        self.local: Dict[int, int] = {}
        self.sources: List[Tuple[object, Optional[LockId]]] = []
        self.edges: Dict[Tuple[int, int], EdgeKind] = {}

    def intern(self, vid: int, index: object, lock: Optional[LockId]) -> int:
        got = self.local.get(vid)
        if got is None:
            got = self.local[vid] = len(self.sources)
            self.sources.append((index, lock))
        return got


class SyncGraphBuilder:
    """Algorithm 3 over one trace's :class:`AcquisitionTables`, shared by
    every cycle it decides or builds ``Gs`` for.

    :meth:`decide` says whether ``Gs`` is cyclic and :meth:`build` makes
    the whole graph; both start from the type-D and type-C edges.  The
    type-P edges walk each cycle thread's whole ``D'_sigma`` and
    outnumber the rest, so :meth:`decide` contracts each program-order
    chain to the vertices the other passes met: a chain vertex with no
    other edge has one edge in and one out, so dropping it keeps every
    cycle.  That holds while no vertex occurs twice on the chains; where
    one may (two entries with one vertex, a cycle thread twice, a chain
    that passes its own end), the type-P pass runs in full and Kahn's
    algorithm decides on the whole table.
    """

    def __init__(self, tables: AcquisitionTables) -> None:
        self.tables = tables
        # Cycles share their members: each entry is put on the tables'
        # ids once.  Keyed by identity, which stays unique while the
        # member holds its entry.
        self._members: Dict[int, _Member] = {}

    def _member(self, entry: LockDepEntry) -> _Member:
        m = self._members.get(id(entry))
        if m is None:
            m = self._members[id(entry)] = _Member(entry, self.tables)
        return m

    @cached_property
    def _chain_at(self) -> Optional[Dict[int, Tuple[int, int]]]:
        """Each entry's vertex id -> (thread, position in the thread's
        list); ``None`` when two entries share a vertex."""
        at: Dict[int, Tuple[int, int]] = {}
        rows = 0
        for t, lst in self.tables.by_thread.items():
            rows += len(lst)
            for i, (vid, _) in enumerate(lst):
                at[vid] = (t, i)
        return at if len(at) == rows else None

    def decide(self, cycle: PotentialDeadlock) -> bool:
        """Whether ``Gs`` for ``cycle`` is cyclic, decided on ints: what
        ``build(cycle).is_cyclic()`` says, with no graph built."""
        plan = self._plan(cycle)
        cyclic = self._decide(plan)
        if cyclic is None:
            self._program_order(plan)
            cyclic = _has_cycle(len(plan.sources), plan.edges)
        return cyclic

    def build(self, cycle: PotentialDeadlock) -> SyncGraph:
        """``Gs`` for ``cycle``, whole: its type-D, type-C and type-P
        edges, and each vertex minted from the objects it first appeared
        with, in order of first appearance."""
        plan = self._whole(cycle)
        entries = self.tables.entries
        vertices = []
        for index, lock in plan.sources:
            if type(index) is int:  # a table row
                e = entries[index]
                index, lock = e.index, e.lock if lock is None else lock
            vertices.append(GsVertex(index=index, lock=lock))
        return SyncGraph(cycle, vertices, plan.edges)

    def count_vertices(self, cycle: PotentialDeadlock) -> int:
        """``len(build(cycle).vertices)``, with no vertex minted."""
        return len(self._whole(cycle).sources)

    def _whole(self, cycle: PotentialDeadlock) -> _Plan:
        """``cycle``'s plan with every edge kind in."""
        plan = self._plan(cycle)
        self._program_order(plan)
        return plan

    def _plan(self, cycle: PotentialDeadlock) -> _Plan:
        """``cycle``'s type-D and type-C edges, from the trace's
        ``D_sigma``.

        Vertices are interned by vertex id as they first appear, source
        first; that order is the views' node order.  Cycle threads are
        distinct, so no rule below orders an acquisition before itself;
        ``u != v`` keeps the table free of self-loops regardless.
        """
        plan = _Plan([self._member(e) for e in cycle.entries])
        theta, local, sources, edges = plan.theta, plan.local, plan.sources, plan.edges
        intern = plan.intern

        # D'_sigma cutoffs: per cycle thread, its deadlocking acquisition's
        # trace step — "strictly before" is a step comparison because a
        # thread's entries appear in trace order (paper §3.4).
        cutoff: Dict[int, int] = {m.thread: m.entry.step for m in theta}

        # --- type-D edges ---------------------------------------------------
        # For adjacent (eta_i, eta_{i+1}): eta_i waits on lock l_i which
        # eta_{i+1} holds.  Holder's acquisition precedes waiter's attempt.
        for mi in theta:
            li, li_obj = mi.lock, mi.entry.lock
            for mj in theta:
                if mi is not mj and li in mj.held:
                    vid, index = mj.mu[li]
                    u = intern(vid, index, li_obj)  # eta_j's acquisition of l_i
                    vid, index = mi.mu[li]
                    v = intern(vid, index, li_obj)  # eta_i's pending attempt
                    if u != v:
                        edges.setdefault((u, v), EdgeKind.D)

        # --- type-C edges ---------------------------------------------------
        # Each cycle-relevant lock l_k that eta_i holds (or finally
        # attempts) must be taken by t_i only after every *other* cycle
        # thread's earlier acquisitions of l_k have come and gone.  Sources
        # come from the per-lock acquisition lists (trace-ordered), which
        # keeps Gs construction near-linear in the acquisitions of the
        # relevant locks.
        acquiring = self.tables.acquiring
        max_cutoff = max(cutoff.values())
        for mi in theta:
            ti, ei = mi.thread, mi.entry
            for lk, lk_obj in zip(
                mi.held + (mi.lock,), ei.lockset + (ei.lock,), strict=True
            ):
                vid, index = mi.mu[lk]
                v = intern(vid, index, lk_obj)
                for step, tx, vid, row in acquiring.get(lk, ()):
                    if step >= max_cutoff:
                        break  # trace-ordered: nothing later can qualify
                    c = cutoff.get(tx)
                    if c is None or step >= c or tx == ti:
                        continue
                    u = local.get(vid)
                    if u is None:
                        u = local[vid] = len(sources)
                        sources.append((row, lk_obj))
                    if u != v:
                        edges.setdefault((u, v), EdgeKind.C)
        return plan

    def _decide(self, plan: _Plan) -> Optional[bool]:
        """Whether ``plan`` is cyclic once its type-P edges are in, from
        the chains contracted to the vertices already met; ``None`` where
        a chain may meet a vertex twice."""
        chain_at = self._chain_at
        theta, local = plan.theta, plan.local
        if chain_at is None or len({m.thread for m in theta}) < len(theta):
            return None
        by_thread = self.tables.by_thread
        # Per cycle thread: its chain's length, and the met vertices on it.
        length = {
            m.thread: min(m.entry.pos, len(by_thread.get(m.thread, ()))) for m in theta
        }
        met: Dict[int, List[Tuple[int, int]]] = {t: [] for t in length}
        for vid, u in local.items():
            at = chain_at.get(vid)
            if at is not None and at[1] < length.get(at[0], 0):
                met[at[0]].append((at[1], u))
        edges = list(plan.edges)
        for m in theta:
            end = local[m.mu[m.lock][0]]
            walk = [u for _, u in sorted(met[m.thread])]
            if end in walk:
                return None  # the chain passes its own end
            walk.append(end)
            edges.extend(zip(walk, walk[1:], strict=False))
        return _has_cycle(len(local), edges)

    def _program_order(self, plan: _Plan) -> None:
        """Add ``plan``'s type-P edges: program order along each cycle
        thread's acquisitions, ending at its deadlocking attempt (a vertex
        since the type-C pass, so a thread with no earlier entry adds
        nothing here)."""
        local, sources, edges = plan.local, plan.sources, plan.edges
        by_thread = self.tables.by_thread
        for m in plan.theta:
            e = m.entry
            chain = []
            for vid, row in by_thread.get(m.thread, ())[: e.pos]:
                v = local.get(vid)
                if v is None:
                    v = local[vid] = len(sources)
                    sources.append((row, None))
                chain.append(v)
            vid, index = m.mu[m.lock]
            chain.append(plan.intern(vid, index, e.lock))
            for u, v in zip(chain, chain[1:], strict=False):
                if u != v:
                    edges.setdefault((u, v), EdgeKind.P)


def build_sync_graph(
    cycle: PotentialDeadlock, relation: LockDependencyRelation
) -> SyncGraph:
    """Algorithm 3 for one cycle: ``Gs`` from ``relation``'s tables.

    The tables are built per call; the Generator builds them once per
    trace and shares them across its cycles.
    """
    return SyncGraphBuilder(relation.acquisition_tables()).build(cycle)
