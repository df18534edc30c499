"""Scalability study: analysis cost versus workload size (extension).

The paper calls its algorithm "novel and scalable" and reports ``Gs``
sizes up to 1486 vertices (Jigsaw) — this driver measures how detection
and ``Gs`` construction scale with workload size on graded synthetic
programs, separating the two costs the substrate caveat in
EXPERIMENTS.md discusses:

* trace recording and ``D_sigma`` construction (linear in events);
* cycle enumeration (depends on contention structure, bounded by
  ``max_cycles``);
* per-cycle ``Gs`` construction (scales with ``D'_sigma`` size — the
  dominant extra cost over plain iGoodLock).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.detector import ExtendedDetector
from repro.core.generator import Generator
from repro.core.pipeline import run_detection
from repro.core.pruner import Pruner
from repro.runtime.sim.runtime import Program, SimRuntime
from repro.util.fmt import render_table


class ScaledWorkload:
    """Graded contention workload: threads cycle over ordered lock pairs
    (deadlock-free bulk) plus one inverted pair seeding real cycles.

    A plain class with integer state rather than a closure so instances
    are picklable — the parallel engine (``WolfConfig.workers``) ships the
    program object to worker processes.
    """

    def __init__(self, n_threads: int, n_locks: int, iters: int) -> None:
        self.n_threads = n_threads
        self.n_locks = n_locks
        self.iters = iters
        self.__name__ = f"scaled_{n_threads}t_{n_locks}l_{iters}i"

    def __call__(self, rt: SimRuntime) -> None:
        n_locks, iters = self.n_locks, self.iters
        locks = [
            rt.new_lock(name=f"L{i}", site="scale:locks") for i in range(n_locks)
        ]

        def worker(k: int) -> None:
            for i in range(iters):
                a = locks[(k + i) % n_locks]
                b = locks[(k + i + 1) % n_locks]
                first, second = (a, b) if (k + i) % n_locks < (k + i + 1) % n_locks else (b, a)
                with first.at(f"w{k}:o{i % 4}"):
                    with second.at(f"w{k}:i{i % 4}"):
                        pass

        def inverter() -> None:
            with locks[1].at("inv:outer"):
                with locks[0].at("inv:inner"):
                    pass

        handles = [
            rt.spawn(lambda j=i: worker(j), name=f"w{i}", site="scale:spawn")
            for i in range(self.n_threads)
        ]
        handles.append(rt.spawn(inverter, name="inv", site="scale:spawn_inv"))
        for h in handles:
            h.join()


def make_scaled_workload(
    n_threads: int, n_locks: int, iters: int
) -> Program:
    """Factory kept for callers that predate :class:`ScaledWorkload`."""
    return ScaledWorkload(n_threads, n_locks, iters)


@dataclass
class ScalingRow:
    n_threads: int
    iters: int
    events: int
    entries: int
    cycles: int
    run_s: float
    detect_s: float
    gs_s: float
    avg_gs_vertices: float


def measure_point(
    n_threads: int, iters: int, *, n_locks: int = 6, seed: int = 0
) -> ScalingRow:
    program = make_scaled_workload(n_threads, n_locks, iters)

    t0 = time.perf_counter()
    result = run_detection(program, seed, tries=20, max_steps=500_000)
    run_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    detection = ExtendedDetector(max_length=3).analyze(result.trace)
    prune = Pruner(detection.vclocks).prune(detection.cycles)
    detect_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    gen = Generator(detection.relation).run(prune.survivors)
    gs_s = time.perf_counter() - t0

    sizes = [d.gs_vertices for d in gen.decisions]
    return ScalingRow(
        n_threads=n_threads,
        iters=iters,
        events=len(result.trace),
        entries=len(detection.relation),
        cycles=len(detection.cycles),
        run_s=run_s,
        detect_s=detect_s,
        gs_s=gs_s,
        avg_gs_vertices=sum(sizes) / len(sizes) if sizes else 0.0,
    )


def run_scaling(
    points: Optional[Sequence[tuple]] = None, *, seed: int = 0
) -> List[ScalingRow]:
    points = points or [(2, 10), (2, 40), (4, 40), (4, 160), (8, 160)]
    return [measure_point(t, i, seed=seed) for t, i in points]


def render_scaling(rows: List[ScalingRow]) -> str:
    return render_table(
        [
            "threads",
            "iters",
            "events",
            "entries",
            "cycles",
            "run(s)",
            "analyze(s)",
            "Gs(s)",
            "avg |Vs|",
        ],
        [
            [
                r.n_threads,
                r.iters,
                r.events,
                r.entries,
                r.cycles,
                f"{r.run_s:.3f}",
                f"{r.detect_s:.3f}",
                f"{r.gs_s:.3f}",
                f"{r.avg_gs_vertices:.0f}",
            ]
            for r in rows
        ],
        title="Scaling: analysis cost vs workload size",
        align_left=(),
    )
