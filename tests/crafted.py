"""Traces built for the differential suites.

* :class:`AliasingWriter` writes identity tables the way a foreign
  producer may: a :class:`ThreadId` or :class:`LockId` repeated under
  another ``name`` gets a row of its own.  Ids compare by value (names
  aside), so every analysis must treat such rows as one identity.  WOLF's
  own writer interns by value and never emits them.
* :func:`thread_alias_trace` and :func:`lock_alias_trace` are the two
  crafted files built with it; :func:`site_alias_trace` also writes one
  site string under two rows (:class:`SiteAliasWriter`), and
  :func:`repeated_lock_trace` records a lockset that lists one lock
  twice.
* :func:`nested_lock_trace` records seeded nested-lock programs shaped
  like the benchmark's analyze-trace inputs: ``long`` ones take their
  locks in one global order (a large relation, no cycle), ``dense`` ones
  add rings of threads that each hold one ring lock while taking the
  next.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.runtime.events import (
    AcquireEvent,
    BeginEvent,
    EndEvent,
    JoinEvent,
    ReleaseEvent,
    SpawnEvent,
)
from repro.runtime.tracefile import TraceFileWriter, _put_uvarint
from repro.util.ids import ExecIndex, LockId, ThreadId


class AliasingWriter(TraceFileWriter):
    """Interns threads and locks by ``(identity, name)``."""

    def _thread(self, tid: ThreadId) -> int:
        key = (tid, tid.name)
        idx = self._threads.get(key)
        if idx is not None:
            return idx
        parent = self._thread(tid.parent) + 1 if tid.parent is not None else 0
        spawn_site = self._string(tid.spawn_site)
        name = self._string(tid.name)
        idx = self._threads[key] = len(self._threads)
        for field in (parent, spawn_site, tid.seq, name):
            _put_uvarint(self._pending_threads, field)
        self._pending_thread_rows += 1
        return idx

    def _lock(self, lid: LockId) -> int:
        key = (lid, lid.name)
        idx = self._locks.get(key)
        if idx is not None:
            return idx
        owner = self._thread(lid.owner)
        create_site = self._string(lid.create_site)
        name = self._string(lid.name)
        idx = self._locks[key] = len(self._locks)
        for field in (owner, create_site, lid.seq, name):
            _put_uvarint(self._pending_locks, field)
        self._pending_lock_rows += 1
        return idx


class SiteAliasWriter(AliasingWriter):
    """Also writes each string of ``aliased`` under a second row from its
    second use on, so an acquisition's site and the same site in a later
    held context name different rows of one string."""

    def __init__(self, *args, aliased=(), **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._aliased = frozenset(aliased)

    def _string(self, s: str) -> int:
        if s not in self._aliased:
            return super()._string(s)
        key = (s, (s, 0) in self._strings)
        idx = self._strings.get(key)
        if idx is None:
            idx = self._strings[key] = len(self._strings)
            self._pending_strings.append(s)
        return idx


class _Script:
    """Events in step order, with per-(thread, site) occurrence counts."""

    def __init__(self) -> None:
        self.events: list = []
        self._occ: dict = {}
        self._held: dict = {}

    def _next(self) -> int:
        return len(self.events)

    def begin(self, t):
        self.events.append(BeginEvent(self._next(), t))

    def end(self, t):
        self.events.append(EndEvent(self._next(), t))

    def spawn(self, t, child):
        self.events.append(SpawnEvent(self._next(), t, child=child))

    def join(self, t, target):
        self.events.append(JoinEvent(self._next(), t, target=target))

    def acquire(self, t, lock, site, *, repeat_held: bool = False):
        """``repeat_held`` records the innermost held lock twice in this
        acquisition's lockset (and context), as a foreign producer may."""
        key = (t, site)
        self._occ[key] = self._occ.get(key, 0) + 1
        index = ExecIndex(t, site, self._occ[key])
        held = self._held.setdefault(t, [])
        recorded = held + held[-1:] if repeat_held else held
        self.events.append(
            AcquireEvent(
                self._next(),
                t,
                lock=lock,
                index=index,
                held=tuple(l for l, _ in recorded),
                held_indices=tuple(ix for _, ix in recorded),
                stack_depth=len(held) + 1,
            )
        )
        held.append((lock, index))

    def release(self, t, lock, site):
        held = self._held[t]
        held.pop(max(i for i, (l, _) in enumerate(held) if l is lock))
        self.events.append(ReleaseEvent(self._next(), t, lock=lock, site=site))

    def write(self, path: str, program: str, writer=AliasingWriter, **kwargs) -> str:
        with writer(path, program=program, **kwargs) as w:
            for ev in self.events:
                w.write_event(ev)
        return path


def thread_alias_trace(path: str, own_row_locks: int = 0) -> str:
    """Main spawns A, A spawns B (so ``tau[A]`` goes 1 -> 2); B takes L1
    then L2; events under ``A-alias`` (A's parent, spawn site and seq,
    another name) take L2 then L1.  With ``own_row_locks`` > 0, A first
    takes that many locks under its own row, so the alias's entries do
    not start at position 0.  Without it the file has 17 events."""
    main = ThreadId.root()
    a = ThreadId(main, "craft:spawn", 0, name="A")
    alias = ThreadId(main, "craft:spawn", 0, name="A-alias")
    b = ThreadId(a, "craft:spawn", 0, name="B")
    l1, l2 = (LockId(main, "craft:lock", i, name=f"L{i}") for i in (1, 2))
    s = _Script()
    s.begin(main)
    s.spawn(main, a)
    s.begin(a)
    s.spawn(a, b)
    s.begin(b)
    for i in range(own_row_locks):
        own = LockId(main, "craft:own", i, name=f"own{i}")
        s.acquire(a, own, "A.own")
        s.release(a, own, "A.own")
    s.acquire(b, l1, "B.outer")
    s.acquire(b, l2, "B.inner")
    s.release(b, l2, "B.inner")
    s.release(b, l1, "B.outer")
    s.end(b)
    s.acquire(alias, l2, "A.outer")
    s.acquire(alias, l1, "A.inner")
    s.release(alias, l1, "A.inner")
    s.release(alias, l2, "A.outer")
    s.end(a)
    s.join(main, a)
    s.end(main)
    return s.write(path, "thread-alias")


def lock_alias_trace(path: str) -> str:
    """T1 holds L1 while taking L2 under ``L2``'s row; T2 holds L2 under
    the ``L2-alias`` row (an equal LockId, another name) while taking L1,
    so only value equality closes the T1/T2 cycle.  T3 holds L2 under
    both rows at once: its lockset repeats one lock."""
    main = ThreadId.root()
    t1, t2, t3 = (ThreadId(main, "craft:spawn", i, name=f"T{i + 1}") for i in range(3))
    l1 = LockId(main, "craft:lock", 1, name="L1")
    l2 = LockId(main, "craft:lock", 2, name="L2")
    l2_alias = LockId(main, "craft:lock", 2, name="L2-alias")
    l3 = LockId(main, "craft:lock", 3, name="L3")
    s = _Script()
    s.begin(main)
    for t in (t1, t2, t3):
        s.spawn(main, t)
    for t in (t1, t2, t3):
        s.begin(t)
    s.acquire(t1, l1, "T1.outer")
    s.acquire(t1, l2, "T1.inner")
    s.release(t1, l2, "T1.inner")
    s.release(t1, l1, "T1.outer")
    s.acquire(t2, l2_alias, "T2.outer")
    s.acquire(t2, l1, "T2.inner")
    s.release(t2, l1, "T2.inner")
    s.release(t2, l2_alias, "T2.outer")
    s.acquire(t3, l2, "T3.outer")
    s.acquire(t3, l2_alias, "T3.middle")
    s.acquire(t3, l1, "T3.inner")
    s.release(t3, l1, "T3.inner")
    s.release(t3, l2_alias, "T3.middle")
    s.release(t3, l2, "T3.outer")
    s.acquire(t1, l3, "T1.last")
    s.release(t1, l3, "T1.last")
    for t in (t1, t2, t3):
        s.end(t)
        s.join(main, t)
    s.end(main)
    return s.write(path, "lock-alias")


def site_alias_trace(path: str) -> str:
    """A Generator-FALSE cycle whose ``Gs`` cycle runs through two site
    strings written under two rows each.  T1 takes A at ``T1.h`` and,
    holding it, B at ``T1.r``; T2 takes B at ``T2.q`` and, holding it, A
    at ``T2.p``; then T1, holding A, wants B and T2, holding B, wants A.
    ``Gs`` orders h -> r (program order), r -> q and p -> h (each thread's
    earlier acquisitions of the other's locks) and q -> p: a cycle.  The
    trace breaks mutual exclusion, which no rule of ``Gs`` reads.  Each
    outer site names one row at its acquisition and the other in every
    held context, so only value equality of the strings closes it."""
    main = ThreadId.root()
    t1, t2 = (ThreadId(main, "craft:spawn", i, name=f"T{i + 1}") for i in range(2))
    a = LockId(main, "craft:lock", 1, name="A")
    b = LockId(main, "craft:lock", 2, name="B")
    s = _Script()
    s.begin(main)
    for t in (t1, t2):
        s.spawn(main, t)
    for t in (t1, t2):
        s.begin(t)
    for t, outer, inner, site in ((t1, a, b, "T1.r"), (t2, b, a, "T2.p")):
        s.acquire(t, outer, f"{t.name}.{'h' if t is t1 else 'q'}")
        s.acquire(t, inner, site)
        s.release(t, inner, site)
    for t, inner in ((t1, b), (t2, a)):
        s.acquire(t, inner, f"{t.name}.wants")
    for t, outer, inner in ((t1, a, b), (t2, b, a)):
        s.release(t, inner, f"{t.name}.wants")
        s.release(t, outer, f"{t.name}.{'h' if t is t1 else 'q'}")
        s.end(t)
        s.join(main, t)
    s.end(main)
    return s.write(path, "site-alias", SiteAliasWriter, aliased=("T1.h", "T2.q"))


def repeated_lock_trace(path: str) -> str:
    """T1 takes A then B; T2 takes B then A, and its second acquisition
    records its lockset as ``(B, B)``.  One cycle, whose T2 member holds
    B once as a set."""
    main = ThreadId.root()
    t1, t2 = (ThreadId(main, "craft:spawn", i, name=f"T{i + 1}") for i in range(2))
    a = LockId(main, "craft:lock", 1, name="A")
    b = LockId(main, "craft:lock", 2, name="B")
    s = _Script()
    s.begin(main)
    for t in (t1, t2):
        s.spawn(main, t)
    for t in (t1, t2):
        s.begin(t)
    s.acquire(t1, a, "T1.outer")
    s.acquire(t1, b, "T1.inner")
    s.release(t1, b, "T1.inner")
    s.release(t1, a, "T1.outer")
    s.acquire(t2, b, "T2.outer")
    s.acquire(t2, a, "T2.inner", repeat_held=True)
    s.release(t2, a, "T2.inner")
    s.release(t2, b, "T2.outer")
    for t in (t1, t2):
        s.end(t)
        s.join(main, t)
    s.end(main)
    return s.write(path, "repeated-lock")


# ---------------------------------------------------------------------------
# seeded nested-lock programs
# ---------------------------------------------------------------------------

#: kind -> (threads, background locks, sections per thread, ring sizes)
NESTED_SHAPES = {
    "long": (4, 6, 100, ()),
    "dense": (6, 5, 12, (2, 2, 3, 3)),
}


class NestedLockProgram:
    """Per-thread lists of nested sections ``((lock, site), ...)``, each
    acquired in order and released in reverse."""

    def __init__(self, n_locks: int, threads: List[List[Tuple[Tuple[int, str], ...]]]):
        self.n_locks = n_locks
        self.threads = threads

    def __call__(self, rt) -> None:
        locks = [rt.new_lock(name=f"L{i}", site="nl:locks") for i in range(self.n_locks)]

        def body(sections) -> None:
            for section in sections:
                for lock, site in section:
                    locks[lock].acquire(site=site)
                for lock, site in reversed(section):
                    locks[lock].release(site=site)

        handles = [
            rt.spawn(lambda s=sections: body(s), name=f"t{i}", site="nl:spawn")
            for i, sections in enumerate(self.threads)
        ]
        for h in handles:
            h.join()


def nested_lock_program(kind: str, seed: int) -> NestedLockProgram:
    n_threads, bg_locks, n_sections, rings = NESTED_SHAPES[kind]
    rng = random.Random(f"nested/{kind}/{seed}")
    threads: List[list] = [[] for _ in range(n_threads)]
    for t in range(n_threads):
        for _ in range(n_sections):
            chosen = sorted(rng.sample(range(bg_locks), rng.randint(2, 3)))
            threads[t].append(tuple((l, f"t{t}:bg{d}") for d, l in enumerate(chosen)))
    next_lock = bg_locks
    for k, size in enumerate(rings):
        ring = list(range(next_lock, next_lock + size))
        next_lock += size
        for i, t in enumerate(rng.sample(range(n_threads), size)):
            section = ((ring[i], f"inv{k}.{i}.o"), (ring[(i + 1) % size], f"inv{k}.{i}.i"))
            for _ in range(2):
                threads[t].insert(rng.randrange(len(threads[t]) + 1), section)
    return NestedLockProgram(next_lock, threads)


def nested_lock_trace(kind: str, seed: int):
    """A complete recording of ``nested_lock_program(kind, seed)`` (the
    first schedule in which no ring deadlocks for real)."""
    from repro.core.pipeline import run_detection
    from repro.runtime.sim.result import RunStatus

    program = nested_lock_program(kind, seed)
    for attempt in range(50):
        run = run_detection(program, seed * 100 + attempt, name=f"nl-{kind}-{seed}", tries=1)
        if run.status is RunStatus.COMPLETED:
            return run.trace
    raise RuntimeError(f"no complete recording of nl-{kind}-{seed}")
