"""DeadlockFuzzer (Joshi et al., PLDI 2009), the paper's comparator.

Detection is plain iGoodLock (no timestamps, no pruning, no ``Gs``).
Reproduction re-executes the program under random scheduling and pauses
threads at the brink of the cycle's deadlocking acquisitions, identified
by **abstractions**: creation-site chains of threads and locks, *without*
occurrence counters.  When every position in the cycle has a paused
thread, all are released at once, hopefully interleaving into the
deadlock.

The deliberate imprecision (paper §2, §4.2, Figure 9):

* distinct threads executing the same code share an abstraction, so the
  *wrong* thread can fill a position — DeadlockFuzzer then reproduces a
  different deadlock (not a hit) or none at all;
* **every** thread matching a position is paused, not just the intended
  one, unlike WOLF which monitors exactly the ``k`` cycle threads;
* scheduling between the pause points is uniformly random, biasing runs
  toward deadlocks that occur earlier in the code (the theta_1 vs theta_2
  effect of paper Figure 2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.detector import BaseDetector, PotentialDeadlock
from repro.core.pipeline import run_detection
from repro.core.report import Classification, CycleReport, WolfReport
from repro.runtime.sim.result import RunResult, RunStatus
from repro.runtime.sim.runtime import Program, run_program
from repro.runtime.sim.scheduler import AcquireOp, ThreadState
from repro.runtime.sim.strategy import SchedulingStrategy
from repro.util.ids import Site, ThreadId
from repro.util.rng import DeterministicRNG

Abstraction = Tuple[Site, ...]


@dataclass(frozen=True)
class DfTarget:
    """One position of the target cycle, described only by abstractions."""

    thread_abs: Abstraction
    lock_abs: Abstraction
    site: Site
    #: Abstractions of the locks the thread must already hold (the cycle
    #: edge's guard context).
    guard_abs: FrozenSet[Abstraction]

    @staticmethod
    def of(entry) -> "DfTarget":
        return DfTarget(
            thread_abs=entry.thread.abstraction(),
            lock_abs=entry.lock.abstraction(),
            site=entry.index.site,
            guard_abs=frozenset(l.abstraction() for l in entry.lockset),
        )


class DfReplayStrategy(SchedulingStrategy):
    """Randomized pause-at-abstraction reproduction."""

    def __init__(self, cycle: PotentialDeadlock, seed: int = 0) -> None:
        self.cycle = cycle
        self.targets: List[DfTarget] = [DfTarget.of(e) for e in cycle.entries]
        self.rng = DeterministicRNG(seed)
        #: position index -> threads currently paused there
        self.paused_at: Dict[int, Set[ThreadId]] = {
            k: set() for k in range(len(self.targets))
        }
        self.released = False

    def pick(self, ready: List[ThreadId]) -> ThreadId:
        return self.rng.choice(ready)

    def before_acquire(self, thread: ThreadId, op: AcquireOp) -> bool:
        if self.released:
            return True
        pos = self._match(thread, op)
        if pos is None:
            return True
        self.paused_at[pos].add(thread)
        if all(self.paused_at[k] for k in self.paused_at):
            # Every position is (apparently) occupied: release the pack.
            self.released = True
            self._unpause_all()
            return True
        return False

    def choose_unpause(self, paused: List[ThreadId]) -> Optional[ThreadId]:
        victim = self.rng.choice(paused) if paused else None
        if victim is not None:
            self._forget(victim)
        return victim

    # -- helpers ------------------------------------------------------------

    def _match(self, thread: ThreadId, op: AcquireOp) -> Optional[int]:
        """Index of the first target position this acquisition matches.

        Abstraction equality only: occurrence counters are *not* compared,
        which is exactly DeadlockFuzzer's thread/lock aliasing.
        """
        t_abs = thread.abstraction()
        l_abs = op.lock.lid.abstraction()
        record = self.sched.records[thread]
        held_abs = {l.lid.abstraction() for l, _ in record.held}
        for k, tgt in enumerate(self.targets):
            if (
                t_abs == tgt.thread_abs
                and l_abs == tgt.lock_abs
                and op.site == tgt.site
                and tgt.guard_abs <= held_abs
            ):
                return k
        return None

    def _unpause_all(self) -> None:
        for record in self.sched.records.values():
            if record.state == ThreadState.PAUSED:
                self.sched.unpause(record.tid)
        for k in self.paused_at:
            self.paused_at[k].clear()

    def _forget(self, thread: ThreadId) -> None:
        for holders in self.paused_at.values():
            holders.discard(thread)


def df_is_hit(result: RunResult, cycle: PotentialDeadlock) -> bool:
    return (
        result.status is RunStatus.DEADLOCK
        and result.deadlock is not None
        and result.deadlock.sites == cycle.sites
    )


@dataclass
class DfConfig:
    """Baseline knobs: one detection run at ``seed``, scheduled exactly as
    WOLF's (:func:`~repro.core.pipeline.run_detection`)."""

    seed: int = 0
    replay_attempts: int = 5
    max_cycle_length: int = 4
    max_cycles: int = 10_000
    max_steps: int = 200_000
    step_timeout: float = 30.0


class DeadlockFuzzer:
    """End-to-end DeadlockFuzzer pipeline: detect (iGoodLock) then fuzz.

    Produces a :class:`~repro.core.report.WolfReport` for apples-to-apples
    comparison; cycles are only ever ``CONFIRMED`` or ``UNKNOWN`` — the
    tool has no false-positive elimination.
    """

    def __init__(self, seed: int = 0, config: Optional[DfConfig] = None, **kw):
        if config is None:
            config = DfConfig(seed=seed, **kw)
        self.config = config

    def replay_once(
        self, program: Program, cycle: PotentialDeadlock, seed: int, *, name: str = ""
    ) -> RunResult:
        strategy = DfReplayStrategy(cycle, seed=seed)
        return run_program(
            program,
            strategy,
            seed=seed,
            name=name,
            max_steps=self.config.max_steps,
            step_timeout=self.config.step_timeout,
        )

    def analyze(self, program: Program, *, name: str = "") -> WolfReport:
        cfg = self.config
        seed = cfg.seed
        report = WolfReport(
            program=name or getattr(program, "__name__", "program"),
            seeds=[seed],
        )
        t0 = time.perf_counter()
        run = run_detection(
            program,
            seed,
            name=report.program,
            max_steps=cfg.max_steps,
            step_timeout=cfg.step_timeout,
        )
        detector = BaseDetector(
            max_length=cfg.max_cycle_length, max_cycles=cfg.max_cycles
        )
        detection = detector.analyze(run.trace)
        report.detections.append(detection)
        detect_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        for cycle in detection.cycles:
            hit = False
            for k in range(cfg.replay_attempts):
                rng = DeterministicRNG(seed).fork(f"df:{sorted(cycle.sites)}:{k}")
                result = self.replay_once(
                    program, cycle, rng.seed, name=report.program
                )
                if df_is_hit(result, cycle):
                    hit = True
                    break
            report.cycle_reports.append(
                CycleReport(
                    cycle=cycle,
                    classification=(
                        Classification.CONFIRMED if hit else Classification.UNKNOWN
                    ),
                )
            )
        report.timings = {"detect": detect_s, "replay": time.perf_counter() - t0}
        return report
