"""The Replayer (paper §3.5, Algorithm 4).

Re-executes the program while a :class:`WolfReplayStrategy` steers the
schedule by the synchronization dependency graph:

* a cycle thread about to acquire at a ``Gs`` vertex with a remaining
  **cross-thread** in-edge is paused (the acquisition it depends on has
  not happened yet);
* when a tracked acquisition executes, its vertex *and every vertex that
  reaches it* are retired (the latter handles control-flow divergence:
  a skipped acquisition must not wedge other threads forever);
* paused threads whose vertices lose their last cross-thread in-edge are
  released;
* if nothing is runnable but paused threads remain, a random one is
  released (Algorithm 4 lines 5-7) — progress beats fidelity;
* threads outside the cycle run unconstrained, and a cycle thread that
  terminates retires all its remaining vertices.

Attempts share ``Gs`` read-only; :class:`GsDrain`, also used by the
real-thread replayer, keeps each attempt's retired vertices in a set.

A *hit* (paper §4.2) is a manifested deadlock whose blocked acquisitions
come from exactly the target cycle's source locations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.core.generator import GeneratorDecision
from repro.core.prediction import WitnessSchedule, event_token
from repro.core.syncgraph import GsVertex, SyncGraph
from repro.runtime.events import AcquireEvent, BlockEvent, EndEvent, TraceEvent
from repro.runtime.sim.result import RunResult, RunStatus
from repro.runtime.sim.runtime import Program, run_program
from repro.runtime.sim.scheduler import AcquireOp, ThreadState
from repro.runtime.sim.strategy import SchedulingStrategy
from repro.util.ids import ExecIndex, ThreadId
from repro.util.rng import DeterministicRNG


class GsDrain:
    """Algorithm 4's retirement rule over a shared, read-only ``Gs``.

    One attempt's retired vertices are kept in a set; the live vertices
    and the edges between them are the working graph the paper deletes
    from.  Callers serialize access.
    """

    __slots__ = ("_by_index", "_preds", "_vertices", "retired")

    def __init__(self, gs: SyncGraph) -> None:
        self._by_index = gs.by_index
        self._preds = gs.graph.predecessors
        self._vertices = gs.vertices
        self.retired: Set[GsVertex] = set()

    def _live(self, index: ExecIndex) -> Optional[GsVertex]:
        v = self._by_index.get(index)
        return None if v is None or v in self.retired else v

    def gates(self, index: ExecIndex) -> bool:
        """Whether the acquisition at ``index`` must wait: its vertex is
        live with a live in-edge from another thread."""
        v = self._live(index)
        return v is not None and any(
            u.thread != v.thread and u not in self.retired for u in self._preds(v)
        )

    def acquire(self, index: ExecIndex) -> bool:
        """Retire the vertex acquired at ``index`` and every vertex with a
        path of *live* vertices to it (skipped acquisitions; a retired
        vertex cut its paths); returns whether the vertex was live."""
        v = self._live(index)
        if v is None:
            return False
        self.retired.add(v)
        stack = [v]
        while stack:
            for u in self._preds(stack.pop()):
                if u not in self.retired:
                    self.retired.add(u)
                    stack.append(u)
        return True

    def end_thread(self, thread: ThreadId) -> bool:
        """Retire an ended thread's live vertices; whether it had any."""
        doomed = {v for v in self._vertices if v.thread == thread} - self.retired
        self.retired |= doomed
        return bool(doomed)


class WolfReplayStrategy(SchedulingStrategy):
    """Algorithm 4 as a scheduling strategy, draining ``Gs`` in place."""

    def __init__(self, gs: SyncGraph, seed: int = 0) -> None:
        self.gs = gs
        self.drain = GsDrain(gs)
        self.cycle_threads: Set[ThreadId] = set(gs.threads)
        self.rng = DeterministicRNG(seed)
        #: Number of times the scheduler had to force-release a paused
        #: thread (the paper's "very rarely" safety valve) — useful for
        #: diagnosing why an attempt missed.
        self.forced_releases = 0

    # -- policy -----------------------------------------------------------

    def pick(self, ready: List[ThreadId]) -> ThreadId:
        return self.rng.choice(ready)

    def before_acquire(self, thread: ThreadId, op: AcquireOp) -> bool:
        return thread not in self.cycle_threads or not self.drain.gates(op.index)

    def on_event(self, event: TraceEvent) -> None:
        if isinstance(event, AcquireEvent):
            if self.drain.acquire(event.index):
                self._release_eligible()
        elif isinstance(event, EndEvent) and event.thread in self.cycle_threads:
            if self.drain.end_thread(event.thread):
                self._release_eligible()

    def choose_unpause(self, paused: List[ThreadId]) -> Optional[ThreadId]:
        self.forced_releases += 1
        return self.rng.choice(paused) if paused else None

    # -- helpers -----------------------------------------------------------

    def _release_eligible(self) -> None:
        gates = self.drain.gates
        for record in self.sched.records.values():
            if record.state != ThreadState.PAUSED:
                continue
            op = record.op
            if isinstance(op, AcquireOp) and not gates(op.index):
                self.sched.unpause(record.tid)


class WitnessReplayStrategy(WolfReplayStrategy):
    """Follows a CERTIFIED prediction's witness schedule.

    The witness linearizes the included event prefixes, so scheduling each
    listed thread in turn re-creates the deadlock state without search.
    Each order entry carries the expected event token, and the strategy
    keeps a per-thread queue of them: a prefix-incomplete thread that
    emits a *different* event has diverged from the certificate (control
    flow gated on state the trace does not record — the §4.4 limitation).
    Once a cycle thread's prefix is done its very next event must be its
    deadlocking acquisition (or the block attempting it) — a thread that
    instead branches away, releases, and exits has diverged *after* the
    prefix, which is just as fatal to the certificate and is what the
    ``pending`` check catches.  ``diverged`` reports either kind so the
    pipeline can demote the certificate instead of trusting it.

    While the run is on script the base class's ``Gs`` gating is bypassed
    (the witness is already a complete schedule; pausing threads on
    trace-order dependencies would fight the reordering).  After a
    divergence the ``Gs`` machinery — kept up to date throughout — takes
    back over, so a diverged run degrades to deterministic Gs-steered
    replay instead of wedging.
    """

    def __init__(
        self, gs: SyncGraph, witness: WitnessSchedule, seed: int = 0
    ) -> None:
        super().__init__(gs, seed=seed)
        self.order = witness.order
        #: Per-thread queues of expected tokens, in witness order.
        self._queues: dict = {}
        for name, token in witness.order:
            self._queues.setdefault(name, []).append(token)
        for q in self._queues.values():
            q.reverse()  # pop() from the end == consume in order
        #: Global cursor used only for scheduling preference; advanced
        #: lazily past entries their thread has already consumed.
        self._pos = 0
        self._ordinal: List[int] = []
        counts: dict = {}
        for name, _ in witness.order:
            self._ordinal.append(counts.get(name, 0))
            counts[name] = counts.get(name, 0) + 1
        self._consumed: dict = {name: 0 for name in counts}
        #: After its prefix, each cycle thread owes exactly its
        #: deadlocking acquisition: thread name -> expected site.
        self._pending = {e.thread.pretty(): e.index.site for e in gs.cycle.entries}
        self._fulfilled: set = set()
        #: Count of events contradicting the witness — the certificate's
        #: trace-completeness assumption failed for this program.
        self.divergences = 0

    @property
    def diverged(self) -> bool:
        return (
            self.divergences > 0
            or any(self._queues.values())
            or any(name not in self._fulfilled for name in self._pending)
        )

    @property
    def _on_script(self) -> bool:
        return self.divergences == 0

    def pick(self, ready: List[ThreadId]) -> ThreadId:
        by_name = {t.pretty(): t for t in ready}
        # Fast-forward past entries already consumed (a thread run early
        # by the fallback still counts against its queue).
        while (
            self._pos < len(self.order)
            and self._consumed[self.order[self._pos][0]] > self._ordinal[self._pos]
        ):
            self._pos += 1
        # The next unconsumed witness entry whose thread is runnable;
        # entries whose thread is momentarily blocked are looked *past*.
        for pos in range(self._pos, len(self.order)):
            name = self.order[pos][0]
            if self._consumed[name] > self._ordinal[pos]:
                continue
            tid = by_name.get(name)
            if tid is not None:
                return tid
        # Witness exhausted (or every scripted thread blocked): park the
        # cycle threads at their pending acquisitions first, then drain
        # the rest — deterministically.
        ranked = sorted(ready, key=lambda t: (t not in self.cycle_threads, t.pretty()))
        return ranked[0]

    def before_acquire(self, thread: ThreadId, op: AcquireOp) -> bool:
        if self._on_script:
            return True
        return super().before_acquire(thread, op)

    def on_event(self, event: TraceEvent) -> None:
        name = event.thread.pretty()
        queue = self._queues.get(name)
        if queue:
            if event_token(event) == queue[-1]:
                queue.pop()
                self._consumed[name] += 1
            elif not isinstance(event, BlockEvent):
                # A blocked attempt is a scheduling artifact; any other
                # mismatch is the thread refusing the witness.
                self.divergences += 1
        elif name in self._pending and name not in self._fulfilled:
            site = self._pending[name]
            token = event_token(event)
            if token in (f"acq@{site}", f"block@{site}"):
                self._fulfilled.add(name)
            elif not isinstance(event, BlockEvent):
                # Prefix complete but the thread's next move is not the
                # deadlocking acquisition: post-prefix divergence.
                self.divergences += 1
                self._fulfilled.add(name)
        super().on_event(event)


@dataclass
class ReplayOutcome:
    """Result of attempting to reproduce one potential deadlock."""

    decision: GeneratorDecision
    reproduced: bool
    attempts: int
    hits: int
    statuses: List[RunStatus] = field(default_factory=list)
    hit_run: Optional[RunResult] = None
    #: Total forced releases across all attempts: times the replay
    #: scheduler hit Algorithm 4's "release a random paused thread" safety
    #: valve (the paper's "very rarely" path).  A high count means the
    #: schedule diverged from the recorded trace — useful for diagnosing
    #: why an attempt missed, and surfaced in the markdown report.
    forced_releases: int = 0
    wall_time_s: float = 0.0
    #: True when the witness-steered first attempt diverged from its
    #: certificate (a scheduled thread emitted an event contradicting the
    #: witness, or the cursor never completed): the program synchronizes
    #: through state the trace does not record, so the certificate is
    #: void for this program and the pipeline demotes it.
    witness_diverged: bool = False
    #: CPU seconds of the process that ran the attempts.  The simulated
    #: runtime runs one thread at a time and a parked thread waits on its
    #: baton without using CPU, so this is close to ``wall_time_s`` on an
    #: idle host.  A gap is time the process waited: for a CPU (a loaded
    #: host, or a handoff to a thread the OS placed on a busy CPU) or for
    #: workload code that sleeps.  It matters when replays fan out across
    #: worker processes (``WolfConfig.workers``).
    cpu_time_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.attempts if self.attempts else 0.0


def is_hit(result: RunResult, gs: SyncGraph) -> bool:
    """Paper's hit criterion: the replay deadlocked at the target cycle's
    source locations."""
    return (
        result.status is RunStatus.DEADLOCK
        and result.deadlock is not None
        and result.deadlock.sites == gs.cycle.sites
    )


class Replayer:
    """Runs replay attempts for Generator survivors."""

    def __init__(
        self,
        program: Program,
        *,
        name: str = "",
        attempts: int = 5,
        seed: int = 0,
        max_steps: int = 200_000,
        step_timeout: float = 30.0,
    ) -> None:
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        if step_timeout <= 0:
            raise ValueError(f"step_timeout must be > 0, got {step_timeout}")
        self.program = program
        self.name = name
        self.attempts = attempts
        self.seed = seed
        self.max_steps = max_steps
        self.step_timeout = step_timeout

    def _run_attempt(
        self,
        decision: GeneratorDecision,
        seed: int,
        witness: Optional[WitnessSchedule] = None,
    ):
        if witness is not None:
            strategy: WolfReplayStrategy = WitnessReplayStrategy(
                decision.gs, witness, seed=seed
            )
        else:
            strategy = WolfReplayStrategy(decision.gs, seed=seed)
        result = run_program(
            self.program,
            strategy,
            seed=seed,
            name=self.name,
            max_steps=self.max_steps,
            step_timeout=self.step_timeout,
        )
        return result, strategy

    def replay(
        self,
        decision: GeneratorDecision,
        *,
        attempts: Optional[int] = None,
        stop_on_hit: bool = True,
        witness: Optional[WitnessSchedule] = None,
    ) -> ReplayOutcome:
        """Attempt reproduction up to ``attempts`` times.

        With ``stop_on_hit`` (the pipeline's mode) the first hit confirms
        the defect; without it every attempt runs (hit-rate measurement,
        paper Figure 8).  A ``witness`` schedule makes the first attempt
        follow the predicted reordering deterministically; later attempts
        (divergence fallback) run the usual Gs-steered search.
        """
        n = attempts if attempts is not None else self.attempts
        if n < 1:
            raise ValueError(f"attempts must be >= 1, got {n}")
        t0 = time.perf_counter()
        c0 = time.process_time()
        statuses: List[RunStatus] = []
        hits = 0
        forced = 0
        hit_run: Optional[RunResult] = None
        made = 0
        diverged = False
        for k in range(n):
            # Sorted: formatting the raw frozenset would bake the process's
            # hash seed into the replay seed, which breaks determinism
            # across interpreter launches and worker processes.
            rng = DeterministicRNG(self.seed).fork(
                f"replay:{sorted(decision.cycle.sites)}:{k}"
            )
            result, strategy = self._run_attempt(
                decision, seed=rng.seed, witness=witness if k == 0 else None
            )
            made += 1
            forced += strategy.forced_releases
            if (
                isinstance(strategy, WitnessReplayStrategy)
                and strategy.diverged
                and not is_hit(result, decision.gs)
            ):
                diverged = True
            statuses.append(result.status)
            if is_hit(result, decision.gs):
                hits += 1
                if hit_run is None:
                    hit_run = result
                if stop_on_hit:
                    break
        return ReplayOutcome(
            decision=decision,
            reproduced=hits > 0,
            attempts=made,
            hits=hits,
            statuses=statuses,
            hit_run=hit_run,
            forced_releases=forced,
            wall_time_s=time.perf_counter() - t0,
            cpu_time_s=time.process_time() - c0,
            witness_diverged=diverged,
        )
