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
from typing import Dict, List, Set, Tuple

from repro.core.detector import PotentialDeadlock
from repro.core.lockdep import LockDepEntry, LockDependencyRelation
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
    """``Gs`` plus the metadata the Replayer needs."""

    cycle: PotentialDeadlock
    graph: DiGraph = field(default_factory=DiGraph)
    edge_kinds: Dict[Tuple[GsVertex, GsVertex], EdgeKind] = field(default_factory=dict)
    by_index: Dict[ExecIndex, GsVertex] = field(default_factory=dict)

    def add_vertex(self, v: GsVertex) -> None:
        self.graph.add_node(v)
        self.by_index[v.index] = v

    def add_edge(self, u: GsVertex, v: GsVertex, kind: EdgeKind) -> None:
        if u == v:
            return
        self.add_vertex(u)
        self.add_vertex(v)
        if not self.graph.has_edge(u, v):
            self.graph.add_edge(u, v)
            self.edge_kinds[(u, v)] = kind

    @property
    def threads(self) -> Set[ThreadId]:
        return set(self.cycle.threads)

    def num_vertices(self) -> int:
        return len(self.graph)

    def num_edges(self) -> int:
        return self.graph.num_edges()

    def is_cyclic(self) -> bool:
        return self.graph.has_cycle()

    def edges_of_kind(self, kind: EdgeKind) -> List[Tuple[GsVertex, GsVertex]]:
        return [e for e, k in self.edge_kinds.items() if k == kind]

    def pretty(self) -> str:
        lines = [f"Gs for {self.cycle.pretty()}"]
        for (u, v), kind in self.edge_kinds.items():
            lines.append(f"  {u.pretty()} -> {v.pretty()}  [{kind.value}]")
        return "\n".join(lines)


def _vertex(entry: LockDepEntry, lock: LockId) -> GsVertex:
    """Vertex for ``entry``'s acquisition of ``lock`` (``mu`` lookup)."""
    return GsVertex(index=entry.mu(lock), lock=lock)


def build_sync_graph(
    cycle: PotentialDeadlock, relation: LockDependencyRelation
) -> SyncGraph:
    """Algorithm 3: construct ``Gs`` for ``cycle`` from the trace's
    ``D_sigma``."""
    gs = SyncGraph(cycle=cycle)
    theta = cycle.entries

    # D'_sigma cutoffs: per cycle thread, its deadlocking acquisition's
    # trace step — "strictly before" is a step comparison because a
    # thread's entries appear in trace order (paper §3.4).
    cutoff: Dict[ThreadId, int] = {e.thread: e.step for e in theta}

    # --- type-D edges -------------------------------------------------------
    # For adjacent (eta_i, eta_{i+1}): eta_i waits on lock l_i which
    # eta_{i+1} holds.  Holder's acquisition precedes waiter's attempt.
    for ei in theta:
        for ej in theta:
            if ei is ej:
                continue
            li = ei.lock
            if li in ej.lockset:
                waiter = _vertex(ei, li)  # eta_i's pending attempt on l_i
                holder = _vertex(ej, li)  # eta_j's acquisition of l_i
                gs.add_edge(holder, waiter, EdgeKind.D)

    # --- type-C edges -------------------------------------------------------
    # Each cycle-relevant lock l_k that eta_i holds (or finally attempts)
    # must be taken by t_i only after every *other* cycle thread's earlier
    # acquisitions of l_k have come and gone.  Sources are drawn from the
    # relation's per-lock acquisition index (trace-ordered) rather than a
    # scan of all of D'_sigma — this keeps Gs construction near-linear in
    # the acquisitions of the relevant locks.
    max_cutoff = max(cutoff.values())
    for ei in theta:
        relevant = tuple(ei.lockset) + (ei.lock,)
        for lk in relevant:
            v = _vertex(ei, lk)
            gs.add_vertex(v)
            for ex in relation.acquiring.get(lk, ()):
                if ex.step >= max_cutoff:
                    break  # trace-ordered: nothing later can qualify
                tx = ex.thread
                if tx == ei.thread or tx not in cutoff:
                    continue
                if ex.step >= cutoff[tx]:
                    continue
                u = GsVertex(index=ex.index, lock=lk)
                gs.add_edge(u, v, EdgeKind.C)

    # --- type-P edges -------------------------------------------------------
    # Program order along each cycle thread's acquisitions, ending at its
    # deadlocking attempt.
    for e in theta:
        chain = relation.before(e) + [e]
        for prev, nxt in zip(chain, chain[1:], strict=False):
            u = GsVertex(index=prev.index, lock=prev.lock)
            v = GsVertex(index=nxt.index, lock=nxt.lock)
            gs.add_edge(u, v, EdgeKind.P)

    return gs
