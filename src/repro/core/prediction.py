"""Sound sync-preserving deadlock prediction: certify or refute without replay.

The WOLF pipeline confirms every surviving cycle by re-executing the
program (Algorithm 4).  At fleet scale replay is the bottleneck — and for
``wolf serve`` streams there is no program to re-run at all.  Following
*Sound Dynamic Deadlock Prediction in Linear Time* (Tunç et al.) and
*Partial Orders for Precise and Efficient Dynamic Deadlock Prediction*,
this pass decides feasibility from the trace alone and returns a
three-valued verdict per cycle:

* **CERTIFIED** — a sync-preserving correct reordering of the recorded
  trace ends with every cycle thread parked at its deadlocking
  acquisition.  The reordering is emitted as a replay-free witness
  schedule (per-thread event prefixes, linearized in trace order).
* **REFUTED** — constraints that *every* correct reordering must satisfy
  are contradictory: no reordering of this trace manifests the cycle.
* **UNDECIDED** — neither holds (or the trace is truncated / uses
  condition variables, where closure reasoning stops); the cycle falls
  through to the replayer exactly as before.

Both verdicts are computed as least fixpoints over per-thread *cuts*: the
cut of thread ``t`` is the length of the prefix of ``t``'s events that
must execute before the deadlock state.  Cycle threads are capped at
their deadlocking acquisition — a rule that forces a cycle thread past
its cap proves the required state unreachable.

Closure rules (monotone, so the least fixpoint is unique):

* **spawn** — a thread with a non-empty cut requires its parent's
  ``SpawnEvent`` (threads do not exist before they are started);
* **join** — a ``JoinEvent`` inside a cut requires the target's complete
  event list, ``EndEvent`` included (joins only return after death);
* **mutual exclusion** — at the deadlock state each cycle-relevant lock
  is held by its *designated* acquisition (the ``mu_i`` of the entry
  holding it), so every other included acquisition of that lock must
  have its matching release included;
* **sync-preservation** (certification only) — included critical
  sections on the same lock keep their trace order, so an included
  acquisition requires the release of every earlier included acquisition
  of that lock.  This stronger closure is what makes the witness
  constructive: every constraint edge points forward in trace order, so
  executing the included events *in original trace order* satisfies all
  of them and the pending acquisitions then deadlock at exactly the
  cycle's sites.

Refutation deliberately uses only the universally-necessary rules (spawn,
join, mutual exclusion) — a contradiction there holds for *any* correct
reordering, not merely sync-preserving ones, which is what the soundness
gate (a REFUTED cycle may never be confirmed by replay) requires.

**Soundness boundary.** A certificate is a statement about the *trace*:
it assumes every inter-thread communication the program performs appears
as a trace event (lock, spawn, join, wait/notify).  Programs that
synchronize through plain shared memory — the paper's §4.4 limitation,
modeled by the Jigsaw indexer/validator pair — can take a different
branch when the witness parks a peer that the recorded run let finish.
That divergence is *detectable*: witness order entries carry the expected
event token (kind + site), so the replayer notices the first event that
contradicts the certificate and reports ``witness_diverged`` instead of
silently missing.  The pipeline demotes diverged certificates to
ordinary replay, and the soundness gate accepts a certified miss only
when the divergence was flagged.

Within one trace, verdicts lift from cycle instances to defects
(*key-level promotion*): replay confirmation is site-level, so an
UNDECIDED instance whose ``defect_key`` already has a CERTIFIED sibling
is promoted to CERTIFIED with the sibling's witness — typically the
sibling is the same site pair in an earlier loop iteration whose window
happens to linearize.  Reports, which read verdicts only, settle each
key once: after an instance certifies, :meth:`Predictor.refutation`
decides whether a later instance is REFUTED, and otherwise it inherits
the certified sibling's witness
(:func:`repro.core.parallel.predict_decisions`, ``promote_early``).
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, compress, count
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.detector import PotentialDeadlock
from repro.runtime.events import (
    AcquireEvent,
    BeginEvent,
    BlockEvent,
    EndEvent,
    JoinEvent,
    NotifyEvent,
    ReleaseEvent,
    SpawnEvent,
    TraceEvent,
    WaitEvent,
)
from repro.runtime.tracefile import _EV_TAG
from repro.util.ids import ExecIndex, LockId, ThreadId

__all__ = [
    "PredictionVerdict",
    "WitnessSchedule",
    "CyclePrediction",
    "ClosureIndex",
    "ThreadColumns",
    "Predictor",
    "event_token",
    "promote_by_defect",
    "promoted_from",
]


class PredictionVerdict(enum.Enum):
    #: A sync-preserving witness reordering exists; replay is redundant.
    CERTIFIED = "certified"
    #: No correct reordering of the trace manifests the cycle.
    REFUTED = "refuted"
    #: Closure reasoning could not decide; the replayer gets the cycle.
    UNDECIDED = "undecided"


#: Schema tag for serialized witness schedules (bump on format change).
WITNESS_SCHEMA = "wolf-witness/1"

# Compact per-event codes (kept small: ClosureIndex stores a few ints per
# event, so daemon streams can build the index without holding events).
_OTHER = 0
_ACQ = 1
_JOIN = 2
_CONDVAR = 3
_BLOCK = 4
_REL = 5


def event_token(ev: TraceEvent) -> str:
    """Stable identity token for one trace event, shared between witness
    construction and replay-side cursor matching.

    Tokens are deliberately coarse — kind plus the source site for lock
    operations — so they match across the record and replay processes
    (execution indices don't: occurrence counters restart).  A thread
    whose next replay event tokenizes differently from the witness entry
    has *diverged* (control flow took another branch), which is exactly
    the condition that voids a certificate.
    """
    if isinstance(ev, AcquireEvent):
        return f"acq+@{ev.index.site}" if ev.reentrant else f"acq@{ev.index.site}"
    if isinstance(ev, ReleaseEvent):
        return f"rel+@{ev.site}" if ev.reentrant else f"rel@{ev.site}"
    if isinstance(ev, SpawnEvent):
        return f"spawn:{ev.child.pretty()}"
    if isinstance(ev, JoinEvent):
        return f"join:{ev.target.pretty()}"
    if isinstance(ev, WaitEvent):
        return f"wait@{ev.site}"
    if isinstance(ev, NotifyEvent):
        return f"notify@{ev.site}"
    if isinstance(ev, BlockEvent):
        return f"block@{ev.index.site}"
    if isinstance(ev, EndEvent):
        return "end"
    return type(ev).__name__.removesuffix("Event").lower()


@dataclass(frozen=True)
class WitnessSchedule:
    """A replay-free witness: the included events of a certified cycle.

    ``order`` lists ``(thread, token)`` for each included event in
    original trace order — the thread by ``pretty()`` name, the event by
    :func:`event_token` — so a scheduling strategy that follows it
    re-creates the deadlock state deterministically *and* can tell the
    moment the re-execution stops matching the certificate.  Names and
    tokens are plain strings so schedules serialize and survive the
    round-trip into a fresh replay process.
    """

    sites: Tuple[str, ...]
    threads: Tuple[str, ...]
    order: Tuple[Tuple[str, str], ...]
    prefix_lens: Tuple[Tuple[str, int], ...]

    def to_doc(self) -> dict:
        return {
            "schema": WITNESS_SCHEMA,
            "sites": list(self.sites),
            "threads": list(self.threads),
            "order": [[t, tok] for t, tok in self.order],
            "prefix_lens": {t: n for t, n in self.prefix_lens},
        }

    @staticmethod
    def from_doc(doc: dict) -> "WitnessSchedule":
        if doc.get("schema") != WITNESS_SCHEMA:
            raise ValueError(f"not a witness schedule: {doc.get('schema')!r}")
        return WitnessSchedule(
            sites=tuple(doc["sites"]),
            threads=tuple(doc["threads"]),
            order=tuple((t, tok) for t, tok in doc["order"]),
            prefix_lens=tuple(sorted(doc["prefix_lens"].items())),
        )


@dataclass(frozen=True)
class CyclePrediction:
    """One cycle's verdict plus the evidence behind it."""

    verdict: PredictionVerdict
    reason: str = ""
    witness: Optional[WitnessSchedule] = None
    #: True when the verdict was lifted from a same-``defect_key`` sibling
    #: cycle rather than this instance's own closure.
    promoted: bool = False

    @property
    def decided(self) -> bool:
        return self.verdict is not PredictionVerdict.UNDECIDED


# Wire tags of the event kinds.
(
    _TAG_BEGIN,
    _TAG_END,
    _TAG_SPAWN,
    _TAG_JOIN,
    _TAG_ACQUIRE,
    _TAG_RELEASE,
    _TAG_WAIT,
    _TAG_NOTIFY,
    _TAG_BLOCK,
) = (
    _EV_TAG[cls]
    for cls in (
        BeginEvent,
        EndEvent,
        SpawnEvent,
        JoinEvent,
        AcquireEvent,
        ReleaseEvent,
        WaitEvent,
        NotifyEvent,
        BlockEvent,
    )
)

#: Ints per thread, event, acquisition and spot run of
#: :class:`ThreadColumns` (``WK_THREAD_WIDTH``, ``WK_EVENT_WIDTH``,
#: ``WK_ACQ_WIDTH`` and ``WK_RUN_WIDTH`` in the kernel).
THREAD_WIDTH, EVENT_WIDTH, ACQ_WIDTH, RUN_WIDTH = 5, 5, 6, 2
#: The lock ids of a thread's two leading spot runs (all its spots, and
#: its joins and condition-variable events).
SPOTS_ALL, SPOTS_RULES = -2, -1
#: A token key is ``arg << TOKEN_SHIFT | tag``, plus ``TOKEN_REENTRANT``
#: for a reentrant acquire or release.
TOKEN_SHIFT, TOKEN_REENTRANT = 5, 16


@dataclass
class ThreadColumns:
    """A trace regrouped by thread: the native kernel's column re-read.

    Threads and locks have dense ids, in the order the trace first
    mentions each identity, as :meth:`ClosureIndex.feed` interns them (a
    non-reentrant acquisition mentions its execution index's thread).
    ``threads`` holds :data:`THREAD_WIDTH` ints per thread id: the table
    row of its first mention, the thread id and position of the spawn that
    started it (-1 and -1 without one), whether it ended, and its event
    count.  ``locks`` holds the table row of each lock id's first mention.
    ``events`` holds :data:`EVENT_WIDTH` ints per event, grouped by thread
    id and in trace order within a thread: step, kind, aux, release
    position and token key, as :class:`ClosureIndex` defines them (a token
    key's ``arg`` is the row of the event's site, or of the spawned child
    or join target).  ``acquisitions`` holds :data:`ACQ_WIDTH` ints per
    non-reentrant acquisition, in trace order: step, thread id, position,
    and its execution index's thread id, site row and occurrence.
    ``spots`` lists, thread by thread in id order, the positions a
    closure rule can fire on, in groups ascending within themselves: all
    of them (joins, condition-variable events and non-reentrant
    acquisitions), then the joins and condition-variable events, then
    the acquisitions of each lock.  ``runs`` cuts it into
    :data:`RUN_WIDTH` ints per group: the lock id (:data:`SPOTS_ALL` and
    :data:`SPOTS_RULES` for the two groups every thread leads with) and
    the group's end in ``spots``.  Rows index the trace's own tables
    ``strings``, ``thread_rows`` and ``lock_rows``.
    """

    threads: Sequence[int]
    locks: Sequence[int]
    events: Sequence[int]
    acquisitions: Sequence[int]
    spots: Sequence[int]
    runs: Sequence[int]
    strings: List[str]
    thread_rows: List[ThreadId]
    lock_rows: List[LockId]

    def tokens_of(self, key_lists: List[List[int]]) -> Callable[[int], List[str]]:
        """A formatter of one thread's witness tokens from its token keys;
        each distinct key is formatted once."""
        strings, rows = self.strings, self.thread_rows
        memo: Dict[int, str] = {}

        def format_tokens(thread: int) -> List[str]:
            out = []
            for key in key_lists[thread]:
                token = memo.get(key)
                if token is None:
                    tag, arg = key & (TOKEN_REENTRANT - 1), key >> TOKEN_SHIFT
                    if tag == _TAG_SPAWN or tag == _TAG_JOIN:
                        site, other = "", rows[arg].pretty()
                    else:
                        site, other = strings[arg], ""
                    token = memo[key] = _record_token(
                        tag, key & TOKEN_REENTRANT, site, other
                    )
                out.append(token)
            return out

        return format_tokens


def _record_token(tag: int, reentrant: int, site: str, other: str) -> str:
    """:func:`event_token` of an event given by its wire tag, reentrant
    bit, site and (spawn, join) the child's or target's pretty name."""
    if tag == _TAG_ACQUIRE or tag == _TAG_RELEASE:
        verb = "acq" if tag == _TAG_ACQUIRE else "rel"
        return f"{verb}+@{site}" if reentrant else f"{verb}@{site}"
    if tag == _TAG_SPAWN:
        return f"spawn:{other}"
    if tag == _TAG_JOIN:
        return f"join:{other}"
    if tag == _TAG_WAIT:
        return f"wait@{site}"
    if tag == _TAG_NOTIFY:
        return f"notify@{site}"
    if tag == _TAG_BLOCK:
        return f"block@{site}"
    return "end" if tag == _TAG_END else "begin"


class ClosureIndex:
    """Per-thread compact event index the closures run over.

    One trace pass builds everything both closures need: :meth:`feed`
    per event object, or :meth:`from_events` over a whole trace.  Threads
    and locks are interned to dense ints the first time the trace
    mentions them: a thread as an event's thread, a spawned child, a join
    target or the thread of an acquisition's execution index; a lock by
    a non-reentrant acquire or release.  ``threads`` and ``locks`` map an
    id back to its identity, which the closures need only for reason
    strings and witness names.  Every per-thread table is a list indexed
    by thread id, holding one entry per event position: ``steps``,
    ``kinds``, ``aux`` (the lock id of an acquire or release, the thread
    id of a join target, else -1) and ``rel_pos`` (for a non-reentrant
    acquisition, its matching release's position; -1 while open and for
    every other event).  Three more per-thread tables list the positions
    a closure rule can fire on, ascending: ``rule_pos``, the thread's join
    and condition-variable events; ``acq_pos``, a dict from lock id to the
    thread's non-reentrant acquisitions of that lock; and ``spot_pos``,
    both kinds together.
    ``acq_by_step`` locates each non-reentrant
    acquisition by step as ``(thread id, position)``, and
    :meth:`acquisition` by execution index.  Witness tokens are read per
    thread through :meth:`thread_tokens`.  Event objects are not
    retained, so the index can be built from a ``.wtrc`` re-read (daemon
    / corpus paths) without materializing the trace; the native
    backend's re-read hands over the kernel's :class:`ThreadColumns` and
    never builds an event, and its tokens are formatted when a witness
    first reads them.
    """

    def __init__(self) -> None:
        self.threads: List[ThreadId] = []
        self.locks: List[LockId] = []
        self.thread_ids: Dict[ThreadId, int] = {}
        self.lock_ids: Dict[LockId, int] = {}
        self.steps: List[List[int]] = []
        self.kinds: List[List[int]] = []
        self.aux: List[List[int]] = []
        #: per thread: its tokens, or ``None`` until first formatted.
        self.tokens: List[Optional[List[str]]] = []
        self.rel_pos: List[List[int]] = []
        #: per thread: positions of its join and condition-variable events.
        self.rule_pos: List[List[int]] = []
        #: per thread: lock id -> positions of its acquisitions of the lock.
        self.acq_pos: List[Dict[int, List[int]]] = []
        #: per thread: positions of its joins, condition-variable events
        #: and acquisitions.
        self.spot_pos: List[List[int]] = []
        #: per thread: lock id -> position of its open acquisition.
        self._open: List[Dict[int, int]] = []
        #: per thread: (parent id, position) of the spawn that started it.
        self.spawn_of: List[Optional[Tuple[int, int]]] = []
        self.has_end: List[bool] = []
        self.acq_by_step: Dict[int, Tuple[int, int]] = {}
        #: (thread id, site, occ) of an execution index -> (thread id,
        #: position).
        self.acq_by_index: Dict[Tuple[int, str, int], Tuple[int, int]] = {}
        self.events_seen = 0
        self._format_tokens: Optional[Callable[[int], List[str]]] = None

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "ClosureIndex":
        """Index ``events``: an iterable of trace events, or a source
        whose ``read_columns()`` returns the whole trace as
        :class:`ThreadColumns` (the native re-read of a ``.wtrc``)."""
        read_columns = getattr(events, "read_columns", None)
        if read_columns is not None:
            return cls._from_columns(read_columns())
        index = cls()
        for ev in events:
            index.feed(ev)
        return index

    @classmethod
    def _from_columns(cls, cols: ThreadColumns) -> "ClosureIndex":
        """The index :meth:`feed` builds from the same trace, from array
        slices.  Tokens are formatted per thread on first read."""
        index = cls()
        rows = cols.thread_rows
        threads = cols.threads
        index.threads = [rows[r] for r in threads[0::THREAD_WIDTH]]
        index.locks = [cols.lock_rows[r] for r in cols.locks]
        index.thread_ids = {t: i for i, t in enumerate(index.threads)}
        index.lock_ids = {l: i for i, l in enumerate(index.locks)}
        ends = list(accumulate(threads[4::THREAD_WIDTH]))
        spans = [
            (EVENT_WIDTH * lo, EVENT_WIDTH * hi) for lo, hi in zip([0, *ends], ends)
        ]
        flat = cols.events.tolist()
        w = EVENT_WIDTH
        index.steps = [flat[lo:hi:w] for lo, hi in spans]
        index.kinds = [flat[lo + 1 : hi : w] for lo, hi in spans]
        index.aux = [flat[lo + 2 : hi : w] for lo, hi in spans]
        index.rel_pos = [flat[lo + 3 : hi : w] for lo, hi in spans]
        index.tokens = [None] * len(spans)
        keys = [flat[lo + 4 : hi : w] for lo, hi in spans]
        index._format_tokens = cols.tokens_of(keys)
        index._open = [{} for _ in spans]
        spots = cols.spots.tolist()
        locks, ends = cols.runs[0::RUN_WIDTH].tolist(), cols.runs[1::RUN_WIDTH].tolist()
        runs = [spots[lo:hi] for lo, hi in zip([0, *ends], ends)]
        heads = [*compress(count(), map(SPOTS_ALL.__eq__, locks)), len(runs)]
        index.spot_pos = [runs[lo] for lo in heads[:-1]]
        index.rule_pos = [runs[lo + 1] for lo in heads[:-1]]
        index.acq_pos = [
            dict(zip(locks[lo + 2 : hi], runs[lo + 2 : hi]))
            for lo, hi in zip(heads, heads[1:])
        ]
        index.spawn_of = [
            None if parent < 0 else (parent, pos)
            for parent, pos in zip(threads[1::THREAD_WIDTH], threads[2::THREAD_WIDTH])
        ]
        index.has_end = [bool(e) for e in threads[3::THREAD_WIDTH]]
        acqs, aw = cols.acquisitions, ACQ_WIDTH
        homes = list(zip(acqs[1::aw], acqs[2::aw]))
        index.acq_by_step = dict(zip(acqs[0::aw], homes))
        sites = map(cols.strings.__getitem__, acqs[4::aw])
        index.acq_by_index = dict(zip(zip(acqs[3::aw], sites, acqs[5::aw]), homes))
        index.events_seen = len(flat) // EVENT_WIDTH
        return index

    def thread_id(self, thread: ThreadId) -> int:
        """``thread``'s id, interning it (with empty tables) when new."""
        tid = self.thread_ids.get(thread)
        if tid is None:
            tid = self.thread_ids[thread] = len(self.threads)
            self.threads.append(thread)
            for table in (
                self.steps,
                self.kinds,
                self.aux,
                self.tokens,
                self.rel_pos,
                self.rule_pos,
                self.spot_pos,
            ):
                table.append([])
            self.acq_pos.append({})
            self._open.append({})
            self.spawn_of.append(None)
            self.has_end.append(False)
        return tid

    def lock_id(self, lock: LockId) -> int:
        """``lock``'s id, interning it when new."""
        lid = self.lock_ids.get(lock)
        if lid is None:
            lid = self.lock_ids[lock] = len(self.locks)
            self.locks.append(lock)
        return lid

    def acquisition(self, index: ExecIndex) -> Optional[Tuple[int, int]]:
        """``(thread id, position)`` of the non-reentrant acquisition whose
        execution index equals ``index``, or ``None``."""
        thread = self.thread_ids.get(index.thread)
        if thread is None:
            return None
        return self.acq_by_index.get((thread, index.site, index.occ))

    def thread_tokens(self, thread: int) -> List[str]:
        """:func:`event_token` of each of ``thread``'s events."""
        tokens = self.tokens[thread]
        if tokens is None:
            tokens = self.tokens[thread] = self._format_tokens(thread)
        return tokens

    def feed(self, ev: TraceEvent) -> None:
        """Index one event object."""
        t = self.thread_id(ev.thread)
        tag = _EV_TAG.get(type(ev), _TAG_BEGIN)
        steps = self.steps[t]
        pos = len(steps)
        kind, aux = _OTHER, -1
        if tag == _TAG_ACQUIRE:
            if not ev.reentrant:
                kind = _ACQ
                aux = self.lock_id(ev.lock)
                ix = ev.index
                key = (self.thread_id(ix.thread), ix.site, ix.occ)
                self.acq_by_step[ev.step] = self.acq_by_index[key] = (t, pos)
                self.acq_pos[t].setdefault(aux, []).append(pos)
                self.spot_pos[t].append(pos)
                self._open[t][aux] = pos
        elif tag == _TAG_RELEASE:
            if not ev.reentrant:
                kind = _REL
                aux = self.lock_id(ev.lock)
                acq = self._open[t].pop(aux, None)
                if acq is not None:
                    self.rel_pos[t][acq] = pos
        elif tag == _TAG_JOIN:
            kind, aux = _JOIN, self.thread_id(ev.target)
            self.rule_pos[t].append(pos)
            self.spot_pos[t].append(pos)
        elif tag == _TAG_SPAWN:
            child = self.thread_id(ev.child)
            if self.spawn_of[child] is None:
                self.spawn_of[child] = (t, pos)
        elif tag == _TAG_WAIT or tag == _TAG_NOTIFY:
            kind = _CONDVAR
            self.rule_pos[t].append(pos)
            self.spot_pos[t].append(pos)
        elif tag == _TAG_BLOCK:
            kind = _BLOCK
        elif tag == _TAG_END:
            self.has_end[t] = True
        self.events_seen += 1
        steps.append(ev.step)
        self.kinds[t].append(kind)
        self.aux[t].append(aux)
        self.rel_pos[t].append(-1)
        self.tokens[t].append(event_token(ev))

    def release_pos(self, thread: int, acq_pos: int) -> int:
        return self.rel_pos[thread][acq_pos]


class _Stuck(Exception):
    """The schedule search could not place every required event."""


class _Inconsistent(Exception):
    """A rule forced a cycle thread past its deadlocking acquisition."""


class _Incomplete(Exception):
    """A rule needed information the trace does not carry (truncation,
    condition variables) — the closure cannot decide soundly."""


class _Closure:
    """One least-fixpoint computation over per-thread cuts.

    A rule fires only at a join, a condition-variable event or an
    acquisition: with sync-preservation at any acquisition, without it
    only at an acquisition of a designated lock.  So each closure visits
    just those positions of a required prefix, ascending
    (:meth:`_visits`), and every ``require``, exception and reason comes
    in the order the walk over every event gives; releases, blocked
    attempts and the rest are never read.  Threads and locks are
    :class:`ClosureIndex` ids throughout."""

    def __init__(
        self,
        index: ClosureIndex,
        caps: Dict[int, int],
        designated: Dict[int, Tuple[int, int]],
        *,
        sync_preserving: bool,
    ) -> None:
        self.index = index
        self.caps = caps
        #: lock -> the acquisition that must be held at the deadlock.
        self.designated = designated
        self.sync_preserving = sync_preserving
        self.need: Dict[int, int] = {}
        self._done: Dict[int, int] = {}
        self._dirty: List[int] = []
        #: lock -> (step, thread, pos) of the max-step included acquire.
        self._max_acq: Dict[int, Tuple[int, int, int]] = {}

    def require(self, thread: int, n: int) -> None:
        have = self.need.get(thread, 0)
        if n <= have:
            return
        index = self.index
        cap = self.caps.get(thread)
        if cap is not None and n > cap:
            raise _Inconsistent(
                f"{index.threads[thread].pretty()} is forced past its deadlocking "
                f"acquisition (needs {n} events, capped at {cap})"
            )
        total = len(index.steps[thread])
        if n > total:
            raise _Incomplete(
                f"{index.threads[thread].pretty()} is required to run {n} events "
                f"but the trace records only {total}"
            )
        self.need[thread] = n
        if thread not in self._done:
            self._done[thread] = 0
            parent = index.spawn_of[thread]
            if parent is not None:
                self.require(parent[0], parent[1] + 1)
        self._dirty.append(thread)

    def _require_release(self, thread: int, acq_pos: int, lock: int) -> None:
        index = self.index
        rel = index.rel_pos[thread][acq_pos]
        if rel < 0:
            name, lock_name = index.threads[thread].pretty(), index.locks[lock].pretty()
            if index.has_end[thread]:
                # The thread died holding the lock: no reordering frees it.
                raise _Inconsistent(
                    f"{name} must release {lock_name} for the deadlock state "
                    f"but never does"
                )
            raise _Incomplete(
                f"{name}'s release of {lock_name} is missing from the "
                f"(truncated) trace"
            )
        self.require(thread, rel + 1)

    def _visit_acquire(self, thread: int, pos: int, lock: int) -> None:
        step = self.index.steps[thread][pos]
        des = self.designated.get(lock)
        if des is not None and des != (thread, pos):
            # Mutual exclusion: the designated owner holds `lock` at the
            # deadlock, so this included acquisition must be released.
            self._require_release(thread, pos, lock)
        if not self.sync_preserving:
            return
        # Sync-preservation: included critical sections on one lock keep
        # their trace order, so every included acquire except the
        # step-maximal one needs its release included.  Tracking the max
        # keeps the rule amortized O(1) per included acquisition.
        prev = self._max_acq.get(lock)
        if prev is None or step > prev[0]:
            self._max_acq[lock] = (step, thread, pos)
            if prev is not None:
                self._require_release(prev[1], prev[2], lock)
        else:
            self._require_release(thread, pos, lock)

    def _visits(self, thread: int, done: int, goal: int) -> Iterable[int]:
        """The positions in ``[done, goal)`` of ``thread`` where a rule can
        fire, ascending."""
        index = self.index
        if self.sync_preserving:
            spots = index.spot_pos[thread]
            return spots[bisect_left(spots, done) : bisect_left(spots, goal)]
        rules = index.rule_pos[thread]
        picked = rules[bisect_left(rules, done) : bisect_left(rules, goal)]
        acquired = index.acq_pos[thread]
        for lock in self.designated:
            at = acquired.get(lock)
            if at:
                picked += at[bisect_left(at, done) : bisect_left(at, goal)]
        picked.sort()
        return picked

    def run(self) -> None:
        index = self.index
        while self._dirty:
            thread = self._dirty.pop()
            done, goal = self._done.get(thread, 0), self.need.get(thread, 0)
            if done >= goal:
                continue
            kinds, aux = index.kinds[thread], index.aux[thread]
            self._done[thread] = goal
            for pos in self._visits(thread, done, goal):
                kind = kinds[pos]
                if kind == _ACQ:
                    self._visit_acquire(thread, pos, aux[pos])
                elif kind == _JOIN:
                    target = aux[pos]
                    total = len(index.steps[target])
                    if total == 0 or not index.has_end[target]:
                        raise _Incomplete(
                            f"{index.threads[thread].pretty()} joins "
                            f"{index.threads[target].pretty()} whose "
                            f"termination the trace does not record"
                        )
                    self.require(target, total)
                elif kind == _CONDVAR:
                    raise _Incomplete(
                        f"{index.threads[thread].pretty()}'s required prefix "
                        f"crosses a condition-variable operation"
                    )
            # Rule applications may have grown our own cut again.
            if self.need.get(thread, 0) > goal:
                self._dirty.append(thread)


class _ScheduleSearch:
    """Deterministic feasible-schedule search — the precision tier.

    Sync-preservation is sufficient, not necessary: in a lock-only trace
    every interleaving that respects per-thread program order, mutual
    exclusion and spawn/join is a correct reordering, so same-lock
    critical sections may swap (the *Partial Orders for Precise and
    Efficient Dynamic Deadlock Prediction* direction).  When the
    linearization tier fails, this search schedules the universal
    closure's required events directly:

    * among enabled events, always take the smallest trace step
      (deterministic, least divergence from the recording);
    * a *designated* acquisition (held at the deadlock, never released)
      is deferred until no other required acquisition of its lock
      remains — taking it earlier would wedge a critical section that
      still has to complete;
    * when nothing is enabled, the cut of the thread in the way is grown
      on demand — a lock holder runs to its release, a join target runs
      to its end, a spawn parent runs past the spawn — and the search
      resumes.  Growing a cycle thread past its cap is refused: the
      deadlock state caps it by definition.

    A completed schedule *is* a certificate: it was constructed under
    lock semantics event by event, so it is a correct reordering of the
    trace ending in the deadlock state.  Threads and locks are
    :class:`ClosureIndex` ids.
    """

    def __init__(
        self,
        index: ClosureIndex,
        caps: Dict[int, int],
        designated: Dict[int, Tuple[int, int]],
        need: Dict[int, int],
    ) -> None:
        self.index = index
        self.caps = caps
        self.designated = designated
        self._des_set = set(designated.values())
        self.need: Dict[int, int] = {}
        #: events scheduled so far, per thread id (0 outside ``need``).
        self.consumed: List[int] = [0] * len(index.threads)
        #: lock -> (holder, holder's acquire position) while held.
        self._held: Dict[int, Tuple[int, int]] = {}
        #: not-yet-scheduled required non-designated acquisitions per lock.
        self._pending_acqs: Dict[int, int] = {}
        for thread, n in need.items():
            if not self._extend(thread, n):
                raise _Stuck(
                    f"cannot admit {index.threads[thread].pretty()}'s required prefix"
                )

    def _extend(self, thread: int, n: int) -> bool:
        """Grow ``thread``'s cut to ``n`` events if the extension is legal."""
        cur = self.need.get(thread, 0)
        if n <= cur:
            return True
        cap = self.caps.get(thread)
        if cap is not None and n > cap:
            return False
        kinds = self.index.kinds[thread]
        if n > len(kinds):
            return False
        if _CONDVAR in kinds[cur:n]:
            return False
        aux = self.index.aux[thread]
        pending = self._pending_acqs
        for pos in range(cur, n):
            if kinds[pos] == _ACQ and (thread, pos) not in self._des_set:
                lock = aux[pos]
                pending[lock] = pending.get(lock, 0) + 1
        self.need[thread] = n
        return True

    def _enabled(self, thread: int, pos: int) -> bool:
        """Whether ``thread``'s event at ``pos`` (below its cut) can run."""
        index = self.index
        if pos == 0:
            spawned = index.spawn_of[thread]
            if spawned is not None and self.consumed[spawned[0]] <= spawned[1]:
                return False
        kind = index.kinds[thread][pos]
        if kind == _ACQ:
            lock = index.aux[thread][pos]
            if lock in self._held:
                return False
            if (thread, pos) in self._des_set and self._pending_acqs.get(lock, 0):
                return False
            return True
        if kind == _JOIN:
            target = index.aux[thread][pos]
            return self.consumed[target] >= len(index.steps[target])
        return True

    def _consume(self, thread: int, pos: int) -> None:
        kind = self.index.kinds[thread][pos]
        if kind == _ACQ:
            lock = self.index.aux[thread][pos]
            if (thread, pos) not in self._des_set:
                self._pending_acqs[lock] -= 1
            self._held[lock] = (thread, pos)
        elif kind == _REL:
            self._held.pop(self.index.aux[thread][pos], None)
        self.consumed[thread] = pos + 1

    def _unblock(self) -> None:
        """Apply one demand-driven cut extension, or give up."""
        index, consumed = self.index, self.consumed
        blocked = sorted(
            (index.steps[t][consumed[t]], t)
            for t, n in self.need.items()
            if consumed[t] < n
        )
        for _, thread in blocked:
            pos = consumed[thread]
            if pos == 0:
                spawned = index.spawn_of[thread]
                if spawned is not None and consumed[spawned[0]] <= spawned[1]:
                    if self._extend(spawned[0], spawned[1] + 1):
                        return
                    continue
            kind = index.kinds[thread][pos]
            if kind == _ACQ:
                holder = self._held.get(index.aux[thread][pos])
                if holder is not None:
                    rel = index.rel_pos[holder[0]][holder[1]]
                    if rel >= 0 and self._extend(holder[0], rel + 1):
                        return
            elif kind == _JOIN:
                target = index.aux[thread][pos]
                total = len(index.steps[target])
                if total and index.has_end[target] and self._extend(target, total):
                    return
        raise _Stuck("no required event is schedulable and no cut can grow")

    def run(self) -> List[Tuple[int, int]]:
        steps, consumed, need = self.index.steps, self.consumed, self.need
        order: List[Tuple[int, int]] = []
        while True:
            best_step, best = -1, -1
            remaining = False
            for thread, n in need.items():
                pos = consumed[thread]
                if pos >= n:
                    continue
                remaining = True
                if self._enabled(thread, pos):
                    step = steps[thread][pos]
                    if best < 0 or step < best_step:
                        best_step, best = step, thread
            if not remaining:
                break
            if best < 0:
                self._unblock()
                continue
            pos = consumed[best]
            self._consume(best, pos)
            order.append((best, pos))
        for lock, owner in self.designated.items():
            if self._held.get(lock) != owner:
                raise _Stuck(
                    f"{self.index.locks[lock].pretty()} not held by its "
                    f"designated owner"
                )
        return order


class Predictor:
    """Three-valued feasibility verdicts over one trace's candidate cycles."""

    def __init__(self, index: ClosureIndex) -> None:
        self.index = index

    def _base(
        self, cycle: PotentialDeadlock
    ) -> Tuple[Dict[int, int], Dict[int, Tuple[int, int]]]:
        """Caps (deadlocking-acquisition positions) and designated owners,
        keyed by thread and lock id."""
        index = self.index
        caps: Dict[int, int] = {}
        designated: Dict[int, Tuple[int, int]] = {}
        for entry in cycle.entries:
            found = index.acq_by_step.get(entry.step)
            if found is None or found[0] != index.thread_ids.get(entry.thread):
                raise _Incomplete(
                    f"cycle acquisition at step {entry.step} is not in the trace"
                )
            caps[found[0]] = found[1]
            for lock in entry.lockset:
                des = index.acquisition(entry.mu(lock))
                if des is None:
                    raise _Incomplete(
                        f"held acquisition of {lock.pretty()} is not in the trace"
                    )
                designated[index.lock_id(lock)] = des
        return caps, designated

    def _close(
        self,
        caps: Dict[int, int],
        designated: Dict[int, Tuple[int, int]],
        *,
        sync_preserving: bool,
    ) -> _Closure:
        closure = _Closure(
            self.index, caps, designated, sync_preserving=sync_preserving
        )
        for thread, cap in caps.items():
            closure.require(thread, cap)
        closure.run()
        return closure

    def _witness(
        self, cycle: PotentialDeadlock, closure: _Closure
    ) -> WitnessSchedule:
        index = self.index
        included: List[Tuple[int, str, str]] = []
        prefix_lens: List[Tuple[str, int]] = []
        for thread, n in closure.need.items():
            name = index.threads[thread].pretty()
            prefix_lens.append((name, n))
            steps = index.steps[thread]
            kinds = index.kinds[thread]
            tokens = index.thread_tokens(thread)
            included.extend(
                (steps[pos], name, tokens[pos])
                for pos in range(n)
                # Blocked attempts are schedule artifacts of the recorded
                # run; the witness linearization never blocks mid-prefix.
                if kinds[pos] != _BLOCK
            )
        included.sort()
        return WitnessSchedule(
            sites=tuple(sorted(cycle.sites)),
            threads=tuple(t.pretty() for t in cycle.threads),
            order=tuple((name, token) for _, name, token in included),
            prefix_lens=tuple(sorted(prefix_lens)),
        )

    def _search_witness(
        self,
        cycle: PotentialDeadlock,
        search: _ScheduleSearch,
        order: List[Tuple[int, int]],
    ) -> WitnessSchedule:
        """A witness from a discovered schedule: already in execution
        order, so no linearization — just tokens, minus blocked attempts."""
        index = self.index
        kinds = index.kinds
        tokens = {t: index.thread_tokens(t) for t in search.need}
        names = {t: index.threads[t].pretty() for t in search.need}
        return WitnessSchedule(
            sites=tuple(sorted(cycle.sites)),
            threads=tuple(t.pretty() for t in cycle.threads),
            order=tuple(
                (names[thread], tokens[thread][pos])
                for thread, pos in order
                if kinds[thread][pos] != _BLOCK
            ),
            prefix_lens=tuple(sorted((names[t], n) for t, n in search.need.items())),
        )

    def _witness_valid(self, cycle: PotentialDeadlock, closure: _Closure) -> bool:
        """Defensive self-check: simulate the witness linearization under
        pure lock semantics and confirm it really ends in the deadlock
        state (no included acquisition conflicts, every designated lock
        held by its owner, every pending acquisition blocked on a held
        lock).  The closure rules guarantee this by construction; the
        check keeps a bug here from ever producing an unsound
        certificate."""
        index = self.index
        included: List[Tuple[int, int, int]] = []
        for thread, n in closure.need.items():
            steps = index.steps[thread]
            included.extend((steps[pos], thread, pos) for pos in range(n))
        included.sort()
        held: Dict[int, int] = {}
        for _, thread, pos in included:
            kind = index.kinds[thread][pos]
            if kind == _ACQ:
                lock = index.aux[thread][pos]
                if held.get(lock) is not None:
                    return False
                held[lock] = thread
            elif kind == _REL:
                held.pop(index.aux[thread][pos], None)
        for entry in cycle.entries:
            thread = index.thread_ids[entry.thread]
            for lock in entry.lockset:
                if held.get(index.lock_id(lock)) != thread:
                    return False
            if held.get(index.lock_id(entry.lock)) is None:
                return False
        return True

    def examine(self, cycle: PotentialDeadlock) -> CyclePrediction:
        if self.index.events_seen == 0:
            return CyclePrediction(
                PredictionVerdict.UNDECIDED, reason="no trace events available"
            )
        try:
            caps, designated = self._base(cycle)
            closure = self._close(caps, designated, sync_preserving=True)
        except _Inconsistent:
            # No *sync-preserving* witness — but a non-sync-preserving
            # reordering may still exist, so try the universal closure
            # before claiming infeasibility.
            pass
        except _Incomplete as exc:
            return CyclePrediction(PredictionVerdict.UNDECIDED, reason=str(exc))
        else:
            if not self._witness_valid(cycle, closure):
                return CyclePrediction(
                    PredictionVerdict.UNDECIDED,
                    reason="closure consistent but witness failed lock-"
                    "semantics validation",
                )
            return CyclePrediction(
                PredictionVerdict.CERTIFIED,
                reason="sync-preserving witness reordering constructed",
                witness=self._witness(cycle, closure),
            )
        try:
            universal = self._close(caps, designated, sync_preserving=False)
        except _Inconsistent as exc:
            return CyclePrediction(PredictionVerdict.REFUTED, reason=str(exc))
        except _Incomplete as exc:
            return CyclePrediction(PredictionVerdict.UNDECIDED, reason=str(exc))
        # The universal closure is consistent but no sync-preserving
        # linearization exists — search for a schedule that reorders
        # same-lock critical sections.
        try:
            search = _ScheduleSearch(
                self.index, universal.caps, universal.designated, universal.need
            )
            order = search.run()
        except _Stuck as exc:
            return CyclePrediction(
                PredictionVerdict.UNDECIDED,
                reason=f"no feasible schedule found: {exc}",
            )
        return CyclePrediction(
            PredictionVerdict.CERTIFIED,
            reason="feasible reordering constructed by schedule search",
            witness=self._search_witness(cycle, search, order),
        )

    def refutation(self, cycle: PotentialDeadlock) -> Optional[CyclePrediction]:
        """The REFUTED prediction :meth:`examine` returns for ``cycle``, or
        ``None`` when it returns another verdict.

        :meth:`examine` refutes exactly when both closures are
        inconsistent, with the universal closure's reason.  So the
        universal closure runs first, and the sync-preserving one only
        when the universal one is inconsistent; no schedule search runs
        and no witness is built or checked.
        """
        if self.index.events_seen == 0:
            return None
        try:
            caps, designated = self._base(cycle)
            self._close(caps, designated, sync_preserving=False)
            return None
        except _Inconsistent as exc:
            reason = str(exc)
        except _Incomplete:
            return None
        try:
            self._close(caps, designated, sync_preserving=True)
        except _Inconsistent:
            return CyclePrediction(PredictionVerdict.REFUTED, reason=reason)
        except _Incomplete:
            pass
        return None


def promote_by_defect(
    cycles: List[PotentialDeadlock], predictions: List[Optional[CyclePrediction]]
) -> List[Optional[CyclePrediction]]:
    """Key-level promotion: lift an UNDECIDED instance to CERTIFIED when a
    same-``defect_key`` sibling certified.

    Replay confirmation is site-level (``is_hit`` compares deadlock sites,
    and ``skip_confirmed_defects`` collapses by ``defect_key``), so the
    sibling's witness — which deadlocks at exactly the shared sites — is a
    witness for this instance too.  The common case is a lock pair inside
    a loop: one iteration's window linearizes, later iterations' windows
    conflict with each other and stay individually undecided.  REFUTED is
    never promoted: infeasibility established for one instance's
    acquisitions says nothing about its siblings'.
    """
    certified: Dict[object, CyclePrediction] = {}
    for cycle, pred in zip(cycles, predictions):
        if (
            pred is not None
            and pred.verdict is PredictionVerdict.CERTIFIED
            and not pred.promoted
            and cycle.defect_key not in certified
        ):
            certified[cycle.defect_key] = pred
    out: List[Optional[CyclePrediction]] = []
    for cycle, pred in zip(cycles, predictions):
        sibling = certified.get(cycle.defect_key)
        if (
            pred is not None
            and pred.verdict is PredictionVerdict.UNDECIDED
            and sibling is not None
        ):
            pred = promoted_from(sibling)
        out.append(pred)
    return out


def promoted_from(sibling: CyclePrediction) -> CyclePrediction:
    """The CERTIFIED prediction an instance inherits from ``sibling``, a
    certified instance of its ``defect_key``: the sibling's witness, which
    deadlocks at the shared sites."""
    return CyclePrediction(
        PredictionVerdict.CERTIFIED,
        reason="promoted: sibling cycle at the same sites certified",
        witness=sibling.witness,
        promoted=True,
    )
