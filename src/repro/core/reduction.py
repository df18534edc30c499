"""MagicFuzzer-style lock-dependency reduction (paper §5, related work).

Cai & Chan's MagicFuzzer (ICSE 2012) scales cycle detection by iteratively
deleting tuples that cannot participate in any cycle before enumeration.
The paper notes the technique "can be easily incorporated in WOLF".  The
cycle search no longer needs it: it collapses duplicate tuples itself
and prunes by lock reachability, and ran faster alone than after a
reduction pass.  The corpus minimizer's thread cut
(:mod:`repro.corpus.minimize`) uses it to find the threads no cycle can
involve.

A tuple ``eta`` can only join a cycle if

* some *other* thread's tuple **waits on a lock ``eta`` holds**
  (otherwise nothing ever points *at* ``eta``), and
* some other thread's tuple **holds the lock ``eta`` waits on**
  (otherwise ``eta`` points at nothing).

Deleting a tuple can strip the last holder/waiter of a lock, so the rule
is applied to a fixpoint.  The result is an equivalent (cycle-preserving)
relation — a property test checks equality of detected cycles with and
without reduction — that can be dramatically smaller on skewed workloads.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.lockdep import LockDepEntry, LockDependencyRelation
from repro.util.ids import LockId, ThreadId


def reduce_relation(
    rel: LockDependencyRelation,
) -> Tuple[LockDependencyRelation, int]:
    """Return ``(reduced_relation, removed_count)``.

    Iterates the holder/waiter pruning rule to a fixpoint.  Entry order
    (and therefore ``pos``/``step`` fields) is preserved for survivors;
    the *full* relation is still the one ``Gs`` construction reads.
    """
    alive: List[LockDepEntry] = list(rel.entries)
    removed = 0
    changed = True
    while changed:
        changed = False
        # Index the currently-alive tuples.
        waiters_by_lock: Dict[LockId, Set[ThreadId]] = {}
        holders_by_lock: Dict[LockId, Set[ThreadId]] = {}
        for e in alive:
            waiters_by_lock.setdefault(e.lock, set()).add(e.thread)
            for l in e.lockset:
                holders_by_lock.setdefault(l, set()).add(e.thread)

        def cycle_capable(e: LockDepEntry) -> bool:
            # Someone else must hold what e waits on...
            holders = holders_by_lock.get(e.lock, set()) - {e.thread}
            if not holders:
                return False
            # ...and someone else must wait on something e holds.
            for l in e.lockset:
                if waiters_by_lock.get(l, set()) - {e.thread}:
                    return True
            return False

        survivors = [e for e in alive if cycle_capable(e)]
        if len(survivors) != len(alive):
            removed += len(alive) - len(survivors)
            alive = survivors
            changed = True

    # Rebuilding through the constructor re-adds survivors as-is, so the
    # original pos/step fields are preserved (identity matters for
    # cross-checking cycles against the unreduced relation).
    return LockDependencyRelation(alive), removed
