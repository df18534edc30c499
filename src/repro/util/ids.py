"""Deterministic identity model for threads, locks and lock acquisitions.

The paper (§3.1, footnote 2, and §4) requires *execution indices* that
identify instructions, objects and threads **across runs**: the Replayer
re-executes the program and must recognise "the same" thread, lock and
acquisition site it saw during detection.  WOLF's strategy (paper §4) is to
assign identifiers deterministically from the schedule-independent parts of
the execution:

* a :class:`ThreadId` is ``(parent, spawn_site, seq)`` — the ``seq``-th
  thread spawned by ``parent`` from source location ``spawn_site``;
* a :class:`LockId` is ``(owner_thread, create_site, seq)`` — the
  ``seq``-th lock created by ``owner_thread`` at ``create_site``;
* an :class:`ExecIndex` is ``(thread, site, occ)`` — the ``occ``-th time
  ``thread`` performed the operation at source location ``site``.

Two runs of the same program on the same input that make the same
control-flow decisions produce identical identifiers regardless of thread
interleaving, which is exactly the property Algorithm 4 (Replayer) needs.

:class:`ThreadId` and :class:`LockId` additionally expose the weaker
*abstraction* used by DeadlockFuzzer (Joshi et al., PLDI'09): the chain of
creation sites **without** occurrence counters.  Distinct threads executing
the same code collapse to one abstraction — the imprecision behind the
paper's Figure 9, which we reproduce in :mod:`repro.baselines`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Optional, Tuple, TypeVar

#: A source location.  Plain strings keep hashing cheap; helpers below
#: construct them from frames or explicit labels.
Site = str


def auto_site(depth: int = 1) -> Site:
    """Return the caller's source location as a ``file.py:lineno`` site.

    ``depth`` is the number of stack frames to skip: ``1`` names the caller
    of :func:`auto_site`, ``2`` the caller's caller, and so on.  Frame
    inspection is deterministic across runs (it depends only on control
    flow), which makes auto-derived sites valid execution-index components.
    """
    frame = sys._getframe(depth)
    filename = frame.f_code.co_filename.rsplit("/", 1)[-1]
    return f"{filename}:{frame.f_lineno}"


_C = TypeVar("_C", bound=type)


def hash_once(cls: _C) -> _C:
    """Cache a frozen dataclass's hash on each object after its first use.

    The generated dataclass ``__hash__`` rebuilds the field tuple and
    re-hashes every nested identity on each dict or set lookup; a
    :class:`ExecIndex` key re-walks its thread's whole parent chain.  The
    cached value is exactly the field-tuple hash the dataclass would
    compute, so every set and dict iterates in the same order.  It stays
    out of pickled and copied state: string hashes differ between
    processes, and a worker must rehash what it unpickles.
    """
    names = tuple(
        f.name for f in fields(cls) if (f.compare if f.hash is None else f.hash)
    )
    # attrgetter returns a tuple for two or more names, the value for one.
    get = attrgetter(*names)
    field_tuple = get if len(names) > 1 else lambda self: (get(self),)

    def __hash__(self) -> int:
        # Before the first hash, ``_hash`` reads the class's ``None``: the
        # first hash of an object is as common as the later ones, so it
        # must not cost a raised AttributeError.
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = hash(field_tuple(self))
        return h

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls._hash = None
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@hash_once
@dataclass(frozen=True)
class ThreadId:
    """Deterministic cross-run thread identity.

    ``parent is None`` marks the root (main) thread.  ``seq`` counts spawns
    per ``(parent, spawn_site)`` pair so loops that spawn several threads
    from one line still get distinct identities.
    """

    parent: Optional["ThreadId"]
    spawn_site: Site
    seq: int
    #: Optional human-readable name, excluded from identity.
    name: str = field(default="", compare=False)

    @staticmethod
    def root(name: str = "main") -> "ThreadId":
        return ThreadId(None, "<root>", 0, name=name)

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def abstraction(self) -> Tuple[Site, ...]:
        """DeadlockFuzzer-style thread abstraction: spawn-site chain only.

        Drops the occurrence counters, so sibling threads spawned from the
        same site are indistinguishable (deliberately imprecise).
        """
        chain: Tuple[Site, ...] = (self.spawn_site,)
        node = self.parent
        while node is not None:
            chain = (node.spawn_site,) + chain
            node = node.parent
        return chain

    @property
    def depth(self) -> int:
        """Distance from the root thread (root has depth 0)."""
        d, node = 0, self.parent
        while node is not None:
            d += 1
            node = node.parent
        return d

    def pretty(self) -> str:
        if self.name:
            return self.name
        if self.is_root:
            return "main"
        return f"{self.parent.pretty()}/{self.spawn_site}#{self.seq}"

    def __repr__(self) -> str:  # compact for trace dumps
        return f"T<{self.pretty()}>"


@hash_once
@dataclass(frozen=True)
class LockId:
    """Deterministic cross-run lock identity (creation-order based)."""

    owner: ThreadId
    create_site: Site
    seq: int
    name: str = field(default="", compare=False)

    def abstraction(self) -> Tuple[Site, ...]:
        """DeadlockFuzzer-style lock abstraction: creation site chain."""
        return self.owner.abstraction() + (self.create_site,)

    def pretty(self) -> str:
        if self.name:
            return self.name
        return f"{self.create_site}#{self.seq}@{self.owner.pretty()}"

    def __repr__(self) -> str:
        return f"L<{self.pretty()}>"


@hash_once
@dataclass(frozen=True)
class ExecIndex:
    """Execution index of one dynamic lock operation: paper §3.1 fn. 2.

    ``occ`` is the per-``(thread, site)`` dynamic occurrence count, starting
    at 1, so the same source line executed in a loop yields distinct
    indices while remaining stable across schedules.
    """

    thread: ThreadId
    site: Site
    occ: int

    def matches_site(self, site: Site) -> bool:
        return self.site == site

    def pretty(self) -> str:
        return f"{self.thread.pretty()}:{self.site}x{self.occ}"

    def __repr__(self) -> str:
        return f"I<{self.pretty()}>"


class OccurrenceCounter:
    """Per-key dynamic occurrence counter used to mint :class:`ExecIndex`.

    One instance lives in each runtime thread record; keys are sites.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: dict = {}

    def next(self, key) -> int:
        n = self._counts.get(key, 0) + 1
        self._counts[key] = n
        return n

    def peek(self, key) -> int:
        return self._counts.get(key, 0)
