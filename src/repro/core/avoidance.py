"""Deadlock immunity: avoid confirmed deadlocks at runtime.

Closes the loop the paper opens: WOLF *confirms* a deadlock by
reproducing it; Jula et al.'s deadlock immunity (OSDI 2008, the paper's
[16]) then keeps production runs out of the confirmed pattern.  This
module implements the scheduler-level variant for the simulated runtime:

* a confirmed cycle is distilled to its **site pattern** — for each cycle
  edge, (sites of the held acquisitions) → (site of the deadlocking
  acquisition);
* :class:`AvoidanceStrategy` watches every lock request: a thread about
  to perform a deadlocking acquisition of a known pattern while the rest
  of the pattern is *armed* (other threads already hold the locks that
  complete the cycle) is paused until the danger passes.

This is avoidance, not prevention: unknown deadlocks still manifest, and
the strategy never reorders anything unless a confirmed pattern is one
acquisition away from closing — mirroring the immunity paper's "avoid
only what you have seen" philosophy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.detector import PotentialDeadlock
from repro.runtime.sim.scheduler import AcquireOp, ThreadState
from repro.runtime.sim.strategy import SchedulingStrategy, sticky_pick
from repro.util.ids import Site, ThreadId
from repro.util.rng import DeterministicRNG


@dataclass(frozen=True)
class AvoidancePattern:
    """One confirmed cycle, reduced to source sites.

    ``edges[i]`` is ``(held_sites, wanted_site)``: some thread holding
    locks acquired at ``held_sites`` attempts the acquisition at
    ``wanted_site``.  The pattern closes when every edge is active at
    once.
    """

    edges: Tuple[Tuple[FrozenSet[Site], Site], ...]

    @staticmethod
    def of(cycle: PotentialDeadlock) -> "AvoidancePattern":
        return AvoidancePattern(
            edges=tuple(
                (frozenset(ix.site for ix in e.context), e.index.site)
                for e in cycle.entries
            )
        )

    @property
    def wanted_sites(self) -> FrozenSet[Site]:
        return frozenset(w for _, w in self.edges)


class AvoidanceStrategy(SchedulingStrategy):
    """Random scheduling plus immunity against the given patterns."""

    def __init__(
        self,
        patterns: Iterable[AvoidancePattern],
        *,
        seed: int = 0,
        stickiness: float = 0.0,
    ) -> None:
        self.patterns: List[AvoidancePattern] = list(patterns)
        self.rng = DeterministicRNG(seed)
        self.stickiness = stickiness
        self._last: Optional[ThreadId] = None
        #: Number of acquisitions deferred by the immunity check.
        self.avoided = 0

    # -- policy ---------------------------------------------------------------

    def pick(self, ready: List[ThreadId]) -> ThreadId:
        choice = sticky_pick(self.rng, ready, self._last, self.stickiness)
        self._last = choice
        return choice

    def before_acquire(self, thread: ThreadId, op: AcquireOp) -> bool:
        if self._dangerous(thread, op):
            self.avoided += 1
            return False
        return True

    def on_event(self, event) -> None:
        from repro.runtime.events import ReleaseEvent

        # A release may disarm a pattern: re-examine paused threads.
        if isinstance(event, ReleaseEvent):
            for record in self.sched.records.values():
                if record.state != ThreadState.PAUSED:
                    continue
                op = record.op
                if isinstance(op, AcquireOp) and not self._dangerous(
                    record.tid, op
                ):
                    self.sched.unpause(record.tid)

    def choose_unpause(self, paused: List[ThreadId]) -> Optional[ThreadId]:
        # Progress guarantee: immunity must never wedge the program.
        return self.rng.choice(paused) if paused else None

    # -- pattern matching ---------------------------------------------------------

    def _held_sites(self, thread: ThreadId) -> FrozenSet[Site]:
        record = self.sched.records[thread]
        return frozenset(ix.site for _, ix in record.held)

    def _dangerous(self, thread: ThreadId, op: AcquireOp) -> bool:
        """Would granting this acquisition arm the *last* free edge of a
        confirmed pattern (or close an already-armed one)?

        Blocking only the closing acquisition is too late: once every
        edge is armed, each thread holds what the next one wants and the
        deadlock is inevitable regardless of grant order.  Immunity must
        therefore refuse the acquisition that would complete the danger
        state — either the final *arming* acquisition (the thread takes
        the last missing guard lock) or, defensively, the closing attempt
        itself."""
        mine = self._held_sites(thread)
        after = mine | {op.site}
        for pattern in self.patterns:
            for k, (held_sites, wanted) in enumerate(pattern.edges):
                closing = op.site == wanted and held_sites <= mine
                arming = (
                    op.site in held_sites
                    and held_sites <= after
                    and not held_sites <= mine
                )
                if not closing and not arming:
                    continue
                if self._rest_armed(pattern, skip_index=k, me=thread):
                    return True
        return False

    def _rest_armed(
        self, pattern: AvoidancePattern, *, skip_index: int, me: ThreadId
    ) -> bool:
        """Are all edges other than ``edges[skip_index]`` armed by
        distinct other threads?  (Index-based skip: a symmetric pattern —
        two threads running the same code — has *equal* edges, and each
        occupies one slot.)"""
        others = [
            e for k, e in enumerate(pattern.edges) if k != skip_index
        ]
        used: Set[ThreadId] = {me}
        for held_sites, _wanted in others:
            holder = next(
                (
                    r.tid
                    for r in self.sched.records.values()
                    if r.tid not in used
                    and r.state != ThreadState.DONE
                    and held_sites <= frozenset(ix.site for _, ix in r.held)
                ),
                None,
            )
            if holder is None:
                return False
            used.add(holder)
        return True


def patterns_from_report(report) -> List[AvoidancePattern]:
    """Extract avoidance patterns from a :class:`WolfReport`'s confirmed
    cycles — the detect → confirm → immunize pipeline."""
    from repro.core.report import Classification

    return [
        AvoidancePattern.of(cr.cycle)
        for cr in report.cycle_reports
        if cr.classification is Classification.CONFIRMED
    ]
