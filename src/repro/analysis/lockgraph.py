"""Interprocedural static lock-order graph + cycle enumeration (pass 2).

Consumes the per-function summaries of :mod:`repro.analysis.locksets`:

1. computes a ``may_acquire`` fixpoint — for every function, the set of
   ``(token, site)`` acquisitions it may perform transitively through
   calls (conservative call resolution: annotated receivers narrow the
   dispatch set; unknown receivers fan out to every corpus method of the
   same name; unresolvable names are no-ops);
2. emits order edges ``held -> acquired`` for every direct acquisition
   under a non-empty held stack and for every call made under locks;
3. enumerates elementary cycles of the resulting graph (including
   self-loops on ``many`` tokens — two instances of one lock class
   acquired in opposite order) as :class:`StaticCycle` candidates that
   mirror the dynamic detector's ``PotentialDeadlock`` report.

Everything is deterministic: functions, edges, and cycles are processed
and emitted in sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.analysis.locksets import (
    CorpusSummary,
    FunctionSummary,
    LockToken,
    StaticCall,
)


@dataclass(frozen=True)
class StaticEdge:
    """Witness that ``src`` may be held while ``dst`` is acquired."""

    src: LockToken
    dst: LockToken
    src_site: str
    dst_site: str
    function: str
    file: str
    line: int

    def key(self) -> Tuple[str, str, str, str]:
        return (self.src.name, self.dst.name, self.src_site, self.dst_site)


@dataclass(frozen=True)
class StaticCycle:
    """A cycle in the static lock-order graph: a candidate deadlock.

    ``sites`` holds the acquisition-site patterns of the witness edges
    (``*`` matches f-string holes); a dynamic ``PotentialDeadlock`` whose
    defect key is covered by these patterns is *confirmed-by-both*.
    """

    tokens: Tuple[LockToken, ...]
    edges: Tuple[StaticEdge, ...]
    sites: Tuple[str, ...]

    def describe(self) -> str:
        locks = " -> ".join(t.pretty() for t in self.tokens)
        if len(self.tokens) == 1:
            locks = f"{self.tokens[0].pretty()} (two instances)"
        return f"{locks} @ {{{', '.join(self.sites)}}}"


@dataclass
class StaticLockOrderGraph:
    """The lock-order graph plus its provenance."""

    tokens: List[LockToken] = field(default_factory=list)
    edges: List[StaticEdge] = field(default_factory=list)
    #: function qualname -> transitively acquirable (token, site) pairs.
    may_acquire: Dict[str, List[Tuple[LockToken, str]]] = field(
        default_factory=dict
    )

    def successors(self, token: LockToken) -> List[LockToken]:
        out: List[LockToken] = []
        seen: Set[str] = set()
        for e in self.edges:
            if e.src == token and e.dst.name not in seen:
                seen.add(e.dst.name)
                out.append(e.dst)
        return out

    def edges_between(self, src: LockToken, dst: LockToken) -> List[StaticEdge]:
        return [e for e in self.edges if e.src == src and e.dst == dst]

    def enumerate_cycles(self, max_length: int = 3) -> List[StaticCycle]:
        """Elementary cycles up to ``max_length`` tokens, each emitted
        once anchored at its lexicographically smallest token."""
        cycles: List[StaticCycle] = []
        tokens = sorted(self.tokens, key=lambda t: t.name)
        for anchor in tokens:
            self._dfs(anchor, anchor, [anchor], max_length, cycles)
        return cycles

    def _dfs(
        self,
        anchor: LockToken,
        current: LockToken,
        path: List[LockToken],
        max_length: int,
        cycles: List[StaticCycle],
    ) -> None:
        for nxt in sorted(self.successors(current), key=lambda t: t.name):
            if nxt == anchor:
                # Self-loop (path length 1) is a deadlock only between
                # two *instances* of a ``many`` token.
                if len(path) == 1 and not anchor.many:
                    continue
                cycles.append(self._close(path))
            elif (
                len(path) < max_length
                and nxt.name > anchor.name
                and nxt not in path
            ):
                path.append(nxt)
                self._dfs(anchor, nxt, path, max_length, cycles)
                path.pop()

    def _close(self, path: List[LockToken]) -> StaticCycle:
        witness: List[StaticEdge] = []
        for i, src in enumerate(path):
            dst = path[(i + 1) % len(path)]
            witness.extend(self.edges_between(src, dst))
        sites: List[str] = []
        for e in witness:
            for s in (e.src_site, e.dst_site):
                if s not in sites:
                    sites.append(s)
        return StaticCycle(
            tokens=tuple(path), edges=tuple(witness), sites=tuple(sorted(sites))
        )


def _resolve_call(corpus: CorpusSummary, call: StaticCall) -> List[str]:
    """Callee qualnames a call may dispatch to (empty = unresolvable)."""
    if call.plain:
        return sorted(
            qual
            for qual, fn in corpus.functions.items()
            if qual.rsplit(".", 1)[-1] == call.name
            and fn.class_name is None
        ) or sorted(
            qual
            for qual in corpus.functions
            if qual.rsplit(".", 1)[-1] == call.name
        )
    classes = corpus.classes
    if call.receiver_class is not None and call.receiver_class in classes:
        names: List[str] = []
        seen: Set[str] = set()

        def add(cls: str) -> None:
            if cls in seen or cls not in classes:
                return
            seen.add(cls)
            names.append(cls)
            for base in classes[cls].bases:
                add(base)

        add(call.receiver_class)
        for cls in sorted(classes):
            if cls not in seen and any(b in seen for b in classes[cls].bases):
                add(cls)
        candidates = names
    else:
        candidates = sorted(classes)
    out: List[str] = []
    for cls in candidates:
        qual = classes[cls].methods.get(call.name)
        if qual is not None and qual not in out:
            out.append(qual)
    return out


def _fixpoint_may_acquire(
    corpus: CorpusSummary,
) -> Dict[str, List[Tuple[LockToken, str]]]:
    """Worklist fixpoint of transitive acquisitions per function."""
    acquired: Dict[str, Set[Tuple[LockToken, str]]] = {
        qual: {(a.token, a.site) for a in fn.acquires}
        for qual, fn in corpus.functions.items()
    }
    callees: Dict[str, List[str]] = {
        qual: sorted(
            {
                target
                for call in fn.calls
                for target in _resolve_call(corpus, call)
                if target != qual
            }
        )
        for qual, fn in corpus.functions.items()
    }
    callers: Dict[str, Set[str]] = {qual: set() for qual in corpus.functions}
    for qual, targets in callees.items():
        for target in targets:
            callers.setdefault(target, set()).add(qual)
    work = sorted(corpus.functions)
    pending = set(work)
    while work:
        qual = work.pop()
        pending.discard(qual)
        merged = set(acquired[qual])
        for target in callees[qual]:
            merged |= acquired.get(target, set())
        if merged != acquired[qual]:
            acquired[qual] = merged
            for caller in sorted(callers.get(qual, ())):
                if caller not in pending:
                    pending.add(caller)
                    work.append(caller)
    return {
        qual: sorted(acquired[qual], key=lambda ts: (ts[0].name, ts[1]))
        for qual in sorted(acquired)
    }


def build_lock_order_graph(corpus: CorpusSummary) -> StaticLockOrderGraph:
    """Assemble the interprocedural lock-order graph from ``corpus``."""
    may_acquire = _fixpoint_may_acquire(corpus)
    graph = StaticLockOrderGraph(may_acquire=may_acquire)
    seen_edges: Set[Tuple[str, str, str, str]] = set()
    token_names: Set[str] = set()

    def add_token(token: LockToken) -> None:
        if token.name not in token_names:
            token_names.add(token.name)
            graph.tokens.append(token)

    def add_edge(edge: StaticEdge) -> None:
        if edge.src == edge.dst and not edge.src.many:
            return  # reentrant acquisition of a singleton lock
        if edge.key() in seen_edges:
            return
        seen_edges.add(edge.key())
        add_token(edge.src)
        add_token(edge.dst)
        graph.edges.append(edge)

    for qual in sorted(corpus.functions):
        fn: FunctionSummary = corpus.functions[qual]
        for acq in fn.acquires:
            add_token(acq.token)
            for held_token, held_site in acq.held:
                add_edge(
                    StaticEdge(
                        src=held_token,
                        dst=acq.token,
                        src_site=held_site,
                        dst_site=acq.site,
                        function=qual,
                        file=acq.file,
                        line=acq.line,
                    )
                )
        for call in fn.calls:
            if not call.held:
                continue
            for target in _resolve_call(corpus, call):
                for token, site in may_acquire.get(target, []):
                    for held_token, held_site in call.held:
                        add_edge(
                            StaticEdge(
                                src=held_token,
                                dst=token,
                                src_site=held_site,
                                dst_site=site,
                                function=qual,
                                file=call.file,
                                line=call.line,
                            )
                        )
    graph.tokens.sort(key=lambda t: t.name)
    graph.edges.sort(key=lambda e: e.key())
    return graph
