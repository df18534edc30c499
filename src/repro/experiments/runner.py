"""Shared experiment plumbing: run WOLF and DeadlockFuzzer on a benchmark
with matched settings, as the paper does ("the program is executed twice —
DeadlockFuzzer analyzes one execution and WOLF the other", §4.1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.baselines.deadlockfuzzer import DeadlockFuzzer, DfConfig
from repro.core.pipeline import Wolf, WolfConfig
from repro.core.report import WolfReport
from repro.workloads.registry import BENCHMARKS, Benchmark


@dataclass
class ExperimentSettings:
    """Knobs shared by every experiment driver."""

    seed: Optional[int] = None  # None: use each benchmark's detect_seed
    replay_attempts: Optional[int] = None  # None: per-benchmark default
    max_cycles: int = 10_000
    max_steps: int = 200_000
    #: Worker processes for the WOLF pipeline (1 = serial; see
    #: :mod:`repro.core.parallel`).  The DeadlockFuzzer baseline always
    #: runs serially, as the original tool does.
    workers: int = 1
    #: Per-task deadline for the WOLF pipeline's supervised execution
    #: (None = unbounded); blown deadlines become report faults.
    task_timeout: Optional[float] = None
    #: Retries before a failing detection/replay task is quarantined.
    task_retries: int = 2
    #: Sync-preserving prediction pass between Generator and Replayer
    #: (``"off"``/``"filter"``/``"certify"``; see
    #: :mod:`repro.core.prediction`).  ``"off"`` keeps the historical
    #: replay-everything tables byte-stable.
    predict: str = "off"

    def seed_for(self, b: Benchmark) -> int:
        return self.seed if self.seed is not None else b.detect_seed

    def attempts_for(self, b: Benchmark) -> int:
        return (
            self.replay_attempts
            if self.replay_attempts is not None
            else b.replay_attempts
        )


def run_wolf(b: Benchmark, settings: ExperimentSettings) -> WolfReport:
    cfg = WolfConfig(
        seed=settings.seed_for(b),
        replay_attempts=settings.attempts_for(b),
        max_cycle_length=b.max_cycle_length,
        max_cycles=settings.max_cycles,
        max_steps=settings.max_steps,
        workers=settings.workers,
        task_timeout=settings.task_timeout,
        task_retries=settings.task_retries,
        predict=settings.predict,
    )
    return Wolf(config=cfg).analyze(b.program, name=b.name)


def run_df(b: Benchmark, settings: ExperimentSettings) -> WolfReport:
    cfg = DfConfig(
        seed=settings.seed_for(b),
        replay_attempts=settings.attempts_for(b),
        max_cycle_length=b.max_cycle_length,
        max_cycles=settings.max_cycles,
        max_steps=settings.max_steps,
    )
    return DeadlockFuzzer(config=cfg).analyze(b.program, name=b.name)


def run_both(
    b: Benchmark, settings: ExperimentSettings
) -> Tuple[WolfReport, WolfReport]:
    return run_wolf(b, settings), run_df(b, settings)


def select_benchmarks(names: Optional[Sequence[str]] = None) -> Sequence[Benchmark]:
    if not names:
        return BENCHMARKS
    by_name = {b.name: b for b in BENCHMARKS}
    return [by_name[n] for n in names]
