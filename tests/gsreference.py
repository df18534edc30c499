"""Object-level reference builder for ``Gs`` (test oracle only).

This is the Algorithm 3 construction as it stood before ``SyncGraph``
moved to interned vertex ids: every vertex a :class:`GsVertex` object,
every edge inserted into a :class:`DiGraph` keyed by those objects.  The
differential suite (``tests/test_syncgraph_differential.py``) checks that
the compact graph's views reproduce it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.detector import PotentialDeadlock
from repro.core.lockdep import LockDepEntry, LockDependencyRelation
from repro.core.syncgraph import EdgeKind, GsVertex
from repro.util.digraph import DiGraph
from repro.util.ids import ExecIndex, LockId, ThreadId


class RelationIndex:
    """The object indexes of ``D_sigma`` the reference builder reads,
    built from ``rel.entries``: entries per thread and per acquired lock,
    in trace order."""

    def __init__(self, rel: LockDependencyRelation) -> None:
        self.by_thread: Dict[ThreadId, List[LockDepEntry]] = {}
        self.acquiring: Dict[LockId, List[LockDepEntry]] = {}
        for e in rel.entries:
            self.by_thread.setdefault(e.thread, []).append(e)
            self.acquiring.setdefault(e.lock, []).append(e)

    def threads(self) -> List[ThreadId]:
        return list(self.by_thread)

    def entries_of(self, thread: ThreadId) -> List[LockDepEntry]:
        return self.by_thread.get(thread, [])

    def before(self, entry: LockDepEntry) -> List[LockDepEntry]:
        """This thread's entries strictly before ``entry`` (``D'_sigma``
        restricted to one thread, paper §3.4)."""
        return self.by_thread[entry.thread][: entry.pos]


@dataclass
class ReferenceGs:
    """``Gs`` as Algorithm 3 states it: every acquisition a rule names is a
    vertex, even where the rule's edge would be a self-loop (two entries
    sharing a vertex), and no self-loop is added."""

    cycle: PotentialDeadlock
    graph: DiGraph = field(default_factory=DiGraph)
    edge_kinds: Dict[Tuple[GsVertex, GsVertex], EdgeKind] = field(default_factory=dict)

    @property
    def by_index(self) -> Dict[ExecIndex, GsVertex]:
        """Each execution index's vertex; where one index carries two locks,
        the later in vertex order."""
        return {v.index: v for v in self.graph.nodes()}

    def add_vertex(self, v: GsVertex) -> None:
        self.graph.add_node(v)

    def add_edge(self, u: GsVertex, v: GsVertex, kind: EdgeKind) -> None:
        self.add_vertex(u)
        self.add_vertex(v)
        if u != v and not self.graph.has_edge(u, v):
            self.graph.add_edge(u, v)
            self.edge_kinds[(u, v)] = kind


def _vertex(entry: LockDepEntry, lock: LockId) -> GsVertex:
    return GsVertex(index=entry.mu(lock), lock=lock)


def reference_sync_graph(
    cycle: PotentialDeadlock, relation: LockDependencyRelation
) -> ReferenceGs:
    gs = ReferenceGs(cycle=cycle)
    index = RelationIndex(relation)
    theta = cycle.entries
    cutoff: Dict[ThreadId, int] = {e.thread: e.step for e in theta}

    for ei in theta:
        for ej in theta:
            if ei is ej:
                continue
            li = ei.lock
            if li in ej.lockset:
                gs.add_edge(_vertex(ej, li), _vertex(ei, li), EdgeKind.D)

    max_cutoff = max(cutoff.values())
    for ei in theta:
        for lk in tuple(ei.lockset) + (ei.lock,):
            v = _vertex(ei, lk)
            gs.add_vertex(v)
            for ex in index.acquiring.get(lk, ()):
                if ex.step >= max_cutoff:
                    break
                tx = ex.thread
                if tx == ei.thread or tx not in cutoff:
                    continue
                if ex.step >= cutoff[tx]:
                    continue
                gs.add_edge(GsVertex(index=ex.index, lock=lk), v, EdgeKind.C)

    for e in theta:
        chain = index.before(e) + [e]
        for prev, nxt in zip(chain, chain[1:], strict=False):
            u = GsVertex(index=prev.index, lock=prev.lock)
            v = GsVertex(index=nxt.index, lock=nxt.lock)
            gs.add_edge(u, v, EdgeKind.P)

    return gs
