"""The lock dependency relation ``D_sigma`` (paper §3.1).

During execution ``sigma``, when thread ``t`` acquires lock ``l`` while
holding the locks ``L_t`` (acquired at execution indices ``C_t``), the
tuple ``eta = (t, L_t, l, C_t, tau_t)`` joins ``D_sigma``.  Following the
paper's Figure 5, the recorded context contains the indices of the held
acquisitions *plus* the index of this acquisition itself (e.g.
``eta'_8 = (1, {l1}, l2, {18, 19}, 2)``), so :meth:`LockDepEntry.mu` is
defined on ``lockset(eta) ∪ {lock(eta)}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.runtime.events import AcquireEvent, Trace
from repro.util.ids import ExecIndex, LockId, ThreadId

if TYPE_CHECKING:
    from repro.core.detector import PotentialDeadlock


@dataclass(frozen=True)
class LockDepEntry:
    """One ``eta`` tuple of ``D_sigma``.

    ``lockset``/``context`` are parallel, in acquisition order; ``index``
    is the execution index of this acquisition (the last element of the
    paper's ``C_t``); ``tau`` is the acquiring thread's timestamp
    (Algorithm 1); ``step`` is the global trace position, and ``pos`` the
    0-based position among this thread's entries (used to slice
    ``D'_sigma`` in the Generator).
    """

    thread: ThreadId
    lockset: Tuple[LockId, ...]
    lock: LockId
    context: Tuple[ExecIndex, ...]
    index: ExecIndex
    tau: int
    step: int
    pos: int

    def mu(self, lock: LockId) -> ExecIndex:
        """Map ``lock`` to the execution index where this entry's thread
        acquired it (paper's per-tuple function ``mu_i``)."""
        if lock == self.lock:
            return self.index
        for held, idx in zip(self.lockset, self.context, strict=True):
            if held == lock:
                return idx
        raise KeyError(f"{lock!r} not in lockset/lock of {self!r}")

    def pretty(self) -> str:
        held = "{" + ",".join(l.pretty() for l in self.lockset) + "}"
        return (
            f"eta({self.thread.pretty()}, {held}, {self.lock.pretty()}, "
            f"tau={self.tau})@{self.index.pretty()}"
        )


@dataclass
class CycleColumns:
    """The entries of ``D_sigma`` that hold a lock, as integer columns in
    trace order: what the cycle search of
    :func:`repro.core.detector.find_cycles` reads.

    Row ``i`` is one entry: its ``step``, its thread and wanted lock as
    canonical ids, and its lockset as a tuple of canonical lock ids in
    acquisition order, each id once.  Ids are canonical by value: two equal
    :class:`~repro.util.ids.ThreadId` (or :class:`~repro.util.ids.LockId`)
    get one id whatever their ``name``, as object equality has it.
    ``entries`` maps rows back to :class:`LockDepEntry` objects, so only
    the rows a caller asks for (the cycle members) ever need one.
    """

    steps: List[int]
    threads: List[int]
    locks: List[int]
    held: List[Tuple[int, ...]]
    entries: Callable[[Sequence[int]], List[LockDepEntry]]


#: A ``Gs`` vertex by value: canonical thread of the acquisition's
#: execution index, its site and occurrence, canonical lock.
VertexKey = Tuple[int, str, int, int]


@dataclass
class AcquisitionTables:
    """The acquisitions of ``D_sigma`` as integer tables: what the
    Generator's ``Gs`` builder (:mod:`repro.core.syncgraph`) reads, built
    once per trace and shared by every cycle it examines.

    Threads and locks have canonical ids by value, as in
    :class:`CycleColumns`; ``thread_ids`` and ``lock_ids`` hold them for
    the builder's lookups of cycle members.  Each entry (row ``r``, in
    trace order) is one acquisition vertex, interned in ``vertex_ids`` by
    its :data:`VertexKey`, the identity of a ``Gs`` vertex.
    ``acquiring`` lists ``(step, thread, vertex, row)`` per acquired lock
    and ``by_thread`` ``(vertex, row)`` per thread, both in trace order,
    so a thread's ``D'_sigma`` is a prefix of its list.  ``entries``
    holds each row's entry, whose objects a built graph's vertices are
    minted from.
    """

    thread_ids: Dict[ThreadId, int]
    lock_ids: Dict[LockId, int]
    vertex_ids: Dict[VertexKey, int]
    acquiring: Dict[int, List[Tuple[int, int, int, int]]]
    by_thread: Dict[int, List[Tuple[int, int]]]
    entries: List[LockDepEntry]


class LockDependencyRelation:
    """``D_sigma``: its entries in trace order.

    The cycle search and the Generator read integer views instead
    (:meth:`cycle_columns`, :meth:`acquisition_tables`).  A kernel-backed
    relation serves the cycle search from its logs and decides each
    cycle's ``Gs`` natively (:meth:`gs_cyclic`).
    """

    def __init__(self, entries: Optional[List[LockDepEntry]] = None) -> None:
        self.entries: List[LockDepEntry] = list(entries or ())

    def add(self, entry: LockDepEntry) -> None:
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[LockDepEntry]:
        return iter(self.entries)

    def cycle_columns(self) -> CycleColumns:
        """The lock-holding entries as :class:`CycleColumns`, with ids
        interned by value in order of first appearance."""
        rows = [e for e in self.entries if e.lockset]
        thread_ids: Dict[ThreadId, int] = {}
        lock_ids: Dict[LockId, int] = {}
        # Loops repeat a few locksets many times: map each raw one once,
        # and each lock in it once (a repeated lock would list the row
        # twice among the lock's holders, so the search would report its
        # cycles twice).
        canon_of: Dict[Tuple[LockId, ...], Tuple[int, ...]] = {}
        cols = CycleColumns([], [], [], [], lambda picked: [rows[i] for i in picked])
        for e in rows:
            cols.steps.append(e.step)
            cols.threads.append(thread_ids.setdefault(e.thread, len(thread_ids)))
            cols.locks.append(lock_ids.setdefault(e.lock, len(lock_ids)))
            h = canon_of.get(e.lockset)
            if h is None:
                h = canon_of[e.lockset] = tuple(
                    dict.fromkeys(
                        lock_ids.setdefault(l, len(lock_ids)) for l in e.lockset
                    )
                )
            cols.held.append(h)
        return cols

    def gs_cyclic(self, cycles: Sequence["PotentialDeadlock"]) -> Optional[List[bool]]:
        """Whether each cycle's ``Gs`` is cyclic, when the relation can
        decide that natively; ``None`` here, so the Generator decides each
        ``Gs`` on :meth:`acquisition_tables` (the kernel-backed relation
        decides in the kernel)."""
        return None

    def acquisition_tables(self) -> AcquisitionTables:
        """Every entry as :class:`AcquisitionTables`, with ids interned
        by value in order of first appearance."""
        entries = self.entries
        thread_ids: Dict[ThreadId, int] = {}
        lock_ids: Dict[LockId, int] = {}
        vertex_ids: Dict[VertexKey, int] = {}
        acquiring: Dict[int, List[Tuple[int, int, int, int]]] = {}
        by_thread: Dict[int, List[Tuple[int, int]]] = {}
        for row, e in enumerate(entries):
            t = thread_ids.setdefault(e.thread, len(thread_ids))
            l = lock_ids.setdefault(e.lock, len(lock_ids))
            ix = e.index
            it = thread_ids.setdefault(ix.thread, len(thread_ids))
            v = vertex_ids.setdefault((it, ix.site, ix.occ, l), len(vertex_ids))
            acquiring.setdefault(l, []).append((e.step, t, v, row))
            by_thread.setdefault(t, []).append((v, row))
        return AcquisitionTables(
            thread_ids, lock_ids, vertex_ids, acquiring, by_thread, entries
        )


def entry_from_acquire(ev: AcquireEvent, *, pos: int, tau: int = 1) -> LockDepEntry:
    """Mint the ``eta`` tuple for one (non-reentrant) acquisition.

    The single place an :class:`AcquireEvent` becomes a
    :class:`LockDepEntry` — shared by the batch :func:`build_lockdep` walk
    and the per-event update step of :mod:`repro.core.streaming`, so the
    two engines cannot drift on what ``D_sigma`` records.
    """
    return LockDepEntry(
        thread=ev.thread,
        lockset=ev.held,
        lock=ev.lock,
        context=ev.held_indices,
        index=ev.index,
        tau=tau,
        step=ev.step,
        pos=pos,
    )


def build_lockdep(
    trace: Trace, taus: Optional[Dict[int, int]] = None
) -> LockDependencyRelation:
    """Construct ``D_sigma`` from a trace.

    ``taus`` optionally maps a trace step number to the acquiring thread's
    timestamp at that step (supplied by the extended detector); without it
    all ``tau`` fields are 1, which reproduces the base iGoodLock relation.

    Reentrant (recursive) acquisitions are skipped: re-acquiring a monitor
    already in ``L_t`` adds no dependency edge and would only manufacture
    self-guarded tuples.
    """
    rel = LockDependencyRelation()
    positions: Dict[ThreadId, int] = {}
    for ev in trace:
        if not isinstance(ev, AcquireEvent) or ev.reentrant:
            continue
        pos = positions.get(ev.thread, 0)
        positions[ev.thread] = pos + 1
        rel.add(entry_from_acquire(ev, pos=pos, tau=(taus or {}).get(ev.step, 1)))
    return rel
