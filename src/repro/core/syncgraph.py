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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from repro.core.detector import PotentialDeadlock
from repro.core.lockdep import LockDependencyRelation
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


@dataclass
class SyncGraph:
    """``Gs`` plus the metadata the Replayer needs.

    Stored compactly: ``vertices`` lists each :class:`GsVertex` once, in
    insertion order, and ``edges`` maps ``(u, v)`` vertex positions to the
    edge's kind, also in insertion order (the first kind given for a pair
    is kept).  Acyclicity is decided on these ints.  ``graph``,
    ``edge_kinds`` and ``by_index`` are object views built on first read,
    with nodes and edges in insertion order.  Neither the views nor the
    vertex-interning dict are pickled; the dict is rebuilt on unpickle.
    """

    cycle: PotentialDeadlock
    vertices: List[GsVertex] = field(default_factory=list)
    edges: Dict[Tuple[int, int], EdgeKind] = field(default_factory=dict)
    _ids: Dict[Tuple[ExecIndex, LockId], int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._ids = {(v.index, v.lock): i for i, v in enumerate(self.vertices)}

    def __getstate__(self) -> dict:
        return {"cycle": self.cycle, "vertices": self.vertices, "edges": self.edges}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

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
        n = len(self.vertices)
        succ: List[List[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for u, v in self.edges:
            succ[u].append(v)
            indeg[v] += 1
        ready = [u for u in range(n) if not indeg[u]]
        for u in ready:  # grows while it is walked: a FIFO queue
            for v in succ[u]:
                indeg[v] -= 1
                if not indeg[v]:
                    ready.append(v)
        return len(ready) < n

    def find_cycle(self) -> Optional[List[GsVertex]]:
        """One ordering cycle of ``Gs`` (:meth:`DiGraph.find_cycle` on
        :attr:`graph`), or ``None``; the view is built only when the int
        table is cyclic."""
        return self.graph.find_cycle() if self.is_cyclic() else None

    def edges_of_kind(self, kind: EdgeKind) -> List[Tuple[GsVertex, GsVertex]]:
        return [e for e, k in self.edge_kinds.items() if k == kind]

    def pretty(self) -> str:
        vs = self.vertices
        lines = [f"Gs for {self.cycle.pretty()}"]
        for (u, v), kind in self.edges.items():
            lines.append(f"  {vs[u].pretty()} -> {vs[v].pretty()}  [{kind.value}]")
        return "\n".join(lines)


def build_sync_graph(
    cycle: PotentialDeadlock, relation: LockDependencyRelation
) -> SyncGraph:
    """Algorithm 3: construct ``Gs`` for ``cycle`` from the trace's
    ``D_sigma``.

    Each vertex key is looked up once per appearance and stored once; an
    edge is one int-pair insert.
    """
    gs = SyncGraph(cycle=cycle)
    intern, edges = gs._intern, gs.edges
    theta = cycle.entries

    # D'_sigma cutoffs: per cycle thread, its deadlocking acquisition's
    # trace step — "strictly before" is a step comparison because a
    # thread's entries appear in trace order (paper §3.4).
    cutoff: Dict[ThreadId, int] = {e.thread: e.step for e in theta}

    # An edge's endpoints are interned source first, as they first appear;
    # that order is the view's node order.  Cycle threads are distinct, so
    # no rule below orders an acquisition before itself; `u != v` keeps
    # the table free of self-loops regardless.

    # --- type-D edges -------------------------------------------------------
    # For adjacent (eta_i, eta_{i+1}): eta_i waits on lock l_i which
    # eta_{i+1} holds.  Holder's acquisition precedes waiter's attempt.
    for ei in theta:
        li = ei.lock
        for ej in theta:
            if ei is not ej and li in ej.lockset:
                u = intern(ej.mu(li), li)  # eta_j's acquisition of l_i
                v = intern(ei.mu(li), li)  # eta_i's pending attempt on l_i
                if u != v:
                    edges.setdefault((u, v), EdgeKind.D)

    # --- type-C edges -------------------------------------------------------
    # Each cycle-relevant lock l_k that eta_i holds (or finally attempts)
    # must be taken by t_i only after every *other* cycle thread's earlier
    # acquisitions of l_k have come and gone.  Sources are drawn from the
    # relation's per-lock acquisition index (trace-ordered) rather than a
    # scan of all of D'_sigma — this keeps Gs construction near-linear in
    # the acquisitions of the relevant locks.
    max_cutoff = max(cutoff.values())
    for ei in theta:
        ti = ei.thread
        for lk in tuple(ei.lockset) + (ei.lock,):
            v = intern(ei.mu(lk), lk)
            for ex in relation.acquiring.get(lk, ()):
                if ex.step >= max_cutoff:
                    break  # trace-ordered: nothing later can qualify
                tx = ex.thread
                c = cutoff.get(tx)
                if c is None or ex.step >= c or tx == ti:
                    continue
                u = intern(ex.index, lk)
                if u != v:
                    edges.setdefault((u, v), EdgeKind.C)

    # --- type-P edges -------------------------------------------------------
    # Program order along each cycle thread's acquisitions, ending at its
    # deadlocking attempt (a vertex since the type-C pass, so a thread
    # with no earlier entry adds nothing here).
    for e in theta:
        chain = relation.before(e) + [e]
        u = intern(chain[0].index, chain[0].lock)
        for nxt in chain[1:]:
            v = intern(nxt.index, nxt.lock)
            if u != v:
                edges.setdefault((u, v), EdgeKind.P)
            u = v

    return gs
