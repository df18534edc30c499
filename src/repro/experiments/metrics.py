"""Measurements behind Table 1's statistics columns.

* **detection slowdown** — instrumented run (trace recording + detector
  analysis) over baseline run (events discarded);
* **SL** — average workload stack depth of the deadlocking acquisitions;
* **|Vs|** — average synchronization-dependency-graph size (taken from
  the reports directly).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.detector import ExtendedDetector
from repro.core.pipeline import DETECT_STICKINESS
from repro.core.report import WolfReport
from repro.runtime.sim.runtime import Program, run_program
from repro.runtime.sim.strategy import RandomStrategy


def detection_slowdown(
    program: Program,
    *,
    seed: int = 0,
    runs: int = 3,
    max_steps: int = 200_000,
) -> float:
    """Mean wall-clock ratio of (instrumented run + analysis) to an
    event-free run of the same schedule.

    Uses the same seeds, under the detection scheduler's
    :data:`~repro.core.pipeline.DETECT_STICKINESS`, for both sides so the
    schedules — and therefore the executed work — are identical, leaving
    only the instrumentation cost in the ratio.
    """
    instrumented = 0.0
    baseline = 0.0
    detector = ExtendedDetector()
    for k in range(runs):
        strategy = RandomStrategy(seed + k, stickiness=DETECT_STICKINESS)
        t0 = time.perf_counter()
        result = run_program(
            program, strategy, seed=seed + k, max_steps=max_steps
        )
        detector.analyze(result.trace)
        instrumented += time.perf_counter() - t0

        strategy = RandomStrategy(seed + k, stickiness=DETECT_STICKINESS)
        t0 = time.perf_counter()
        run_program(
            program,
            strategy,
            seed=seed + k,
            max_steps=max_steps,
            record_trace=False,
        )
        baseline += time.perf_counter() - t0
    return instrumented / baseline if baseline > 0 else float("nan")


def average_stack_length(report: WolfReport) -> Optional[float]:
    """Paper's SL: mean stack depth over the deadlocking acquisitions of
    every reported cycle (``None`` when no cycles were reported)."""
    depths = []
    for detection in report.detections:
        table = detection.trace.stack_depths()
        for cycle in detection.cycles:
            for entry in cycle.entries:
                d = table.get(entry.index)
                if d:
                    depths.append(d)
    return sum(depths) / len(depths) if depths else None
