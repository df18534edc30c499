"""Timestamps and ``(S, J)`` vector clocks (paper §3.2, Algorithm 1).

Each thread ``t`` carries a scalar timestamp ``tau_t`` that starts at 1
when ``t`` first runs and increments on every ``start``/``join`` ``t``
executes, partitioning ``t``'s execution into epochs.  Each thread also
keeps a vector ``V_t`` of ordered pairs ``(S, J)``, one per peer ``t'``:

* ``S``: every operation of ``t'`` with timestamp `` < S`` always completes
  before ``t`` begins (no overlap possible);
* ``J``: every operation of ``t`` with timestamp ``>= J`` always executes
  after ``t'`` has been joined (no overlap possible).

Unlike classic Lamport/Mattern clocks, these are updated **only** at
start/join — never at lock operations — which is why the paper's overhead
is ~10% (§5: "we do not instrument memory accesses").

This module recomputes the clocks from a recorded trace; the result is
identical to maintaining them online because start/join events appear in
the trace in their real global order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Final, Hashable, Optional, Set

from repro.runtime.events import (
    AcquireEvent,
    JoinEvent,
    SpawnEvent,
    Trace,
    TraceEvent,
)
from repro.util.ids import ThreadId

#: The paper's "bottom": thread not started / no ordering information.
BOT: Final = None


@dataclass(frozen=True)
class SJ:
    """One ordered pair of the vector clock.  ``None`` encodes ⊥."""

    S: Optional[int] = BOT
    J: Optional[int] = BOT

    def pretty(self) -> str:
        s = "⊥" if self.S is BOT else str(self.S)
        j = "⊥" if self.J is BOT else str(self.J)
        return f"({s},{j})"


#: ``V_t(t')`` for a peer ``t`` has no opinion about (shared: SJ is frozen).
_UNKNOWN: Final = SJ()


@dataclass
class VectorClockState:
    """Final timestamps and vector clocks of one execution, plus the
    timestamp each lock acquisition was made at (keyed by trace step).

    Threads key the state by identity: :class:`ThreadId` objects when
    events are replayed, canonical thread rows when the native kernel's
    clock log is (:mod:`repro.core.nativekernel`).  :meth:`touch`,
    :meth:`spawn` and :meth:`join` are Algorithm 1's updates for either
    key, and :func:`update_clocks` applies them per event."""

    tau: Dict[Hashable, Optional[int]] = field(default_factory=dict)
    clocks: Dict[Hashable, Dict[Hashable, SJ]] = field(default_factory=dict)
    #: trace step of an AcquireEvent -> acquiring thread's tau at that time
    acquire_tau: Dict[int, int] = field(default_factory=dict)

    def V(self, t: ThreadId, other: ThreadId) -> SJ:
        """``V_t(other)`` — thread ``t``'s view of ``other``."""
        return self.clocks.get(t, {}).get(other, _UNKNOWN)

    def _clock(self, t: Hashable) -> Dict[Hashable, SJ]:
        return self.clocks.setdefault(t, {})

    def _bump(self, t: Hashable) -> int:
        """Increment ``tau_t`` (set on the thread's first event, so never
        ⊥ here) and return the new value."""
        current = self.tau[t]
        assert current is not BOT
        self.tau[t] = current + 1
        return current + 1

    def touch(self, t: Hashable) -> None:
        """Algorithm 1 line 11: a thread's timestamp becomes 1 when it
        first executes anything."""
        if self.tau.get(t) is BOT:
            self.tau[t] = 1
            self._clock(t)

    def spawn(self, t: Hashable, c: Hashable) -> None:
        """Algorithm 1's update when ``t`` starts ``c``."""
        tau_t = self._bump(t)
        self.tau[c] = 1
        vc = self._clock(c)
        vp = self._clock(t)
        # Peers are every thread either side has an opinion about.
        peers: Set[Hashable] = set(vp) | {t}
        for i in peers:
            prior = vc.get(i, _UNKNOWN)
            s, j = prior.S, prior.J
            # line 17: if t_i already joined (from the parent's view),
            # then *everything* the child does is after t_i.
            if vp.get(i, _UNKNOWN).J is not BOT:
                j = self.tau[c]
            # lines 19-20: operations of the parent before this start,
            # and whatever the parent knows finished before it began,
            # precede the child's entire execution.
            if i == t:
                s = tau_t
            else:
                s = vp.get(i, _UNKNOWN).S
            vc[i] = SJ(s, j)

    def join(self, t: Hashable, c: Hashable) -> None:
        """Algorithm 1's update when ``t`` joins ``c``."""
        tau_t = self._bump(t)
        vp = self._clock(t)
        vt_child = self._clock(c)
        join_peers: Set[Hashable] = set(vt_child) | {c}
        for i in join_peers:
            # line 25: the joined thread itself, and transitively any
            # thread it saw joined, are now wholly in t's past.
            already = vp.get(i, _UNKNOWN)
            if i == c or (
                vt_child.get(i, _UNKNOWN).J is not BOT and already.J is BOT
            ):
                vp[i] = SJ(already.S, tau_t)


def update_clocks(st: VectorClockState, ev: TraceEvent) -> None:
    """Apply Algorithm 1's update for one event to the running state.

    This is the online step the paper maintains during execution: feeding
    a trace's events through it one at a time (as
    :func:`compute_vector_clocks` and the streaming engine both do) yields
    the same state as any batch recomputation, because start/join events
    appear in the trace in their real global order.
    """
    t = ev.thread
    st.touch(t)
    if isinstance(ev, SpawnEvent):
        st.spawn(t, ev.child)
    elif isinstance(ev, JoinEvent):
        st.join(t, ev.target)
    elif isinstance(ev, AcquireEvent):
        tau_now = st.tau[t]
        assert tau_now is not BOT  # set on the thread's first event
        st.acquire_tau[ev.step] = tau_now


def compute_vector_clocks(trace: Trace) -> VectorClockState:
    """Run Algorithm 1's timestamp/vector-clock updates over a trace."""
    st = VectorClockState()
    for ev in trace:
        update_clocks(st, ev)
    return st
