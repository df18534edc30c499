"""Golden digest of every simulated run.

Every :class:`~repro.runtime.sim.result.RunResult` that
:meth:`Scheduler.run` returns while this module drives the runtime goes
into one sha256: its status, the ``repr`` of every event, the sorted
deadlock sites and the sorted ``(thread, error type, message)`` of its
errors.  The runs cover the paper's pipeline on the 18 registry programs
at two detection seeds (the detection run and every replay attempt,
witness replays included), the DeadlockFuzzer baseline, schedule
exploration, condition waits, generated programs and deadlock immunity,
so the digest pins every scheduling decision the runtime makes for them.
A change to the scheduler that claims identical runs must reproduce it; a
change that means to move runs re-records it (``python -m
tests.test_sim_golden`` prints the digest and the run count) and says why.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager

from repro.baselines.deadlockfuzzer import DeadlockFuzzer
from repro.core.avoidance import AvoidanceStrategy, patterns_from_report
from repro.core.pipeline import Wolf, WolfConfig
from repro.runtime.sim.explore import explore_runs
from repro.runtime.sim.runtime import run_program
from repro.runtime.sim.scheduler import Scheduler
from repro.runtime.sim.strategy import RandomStrategy
from repro.workloads.boundedbuffer import pipeline_program, transfer_deadlock_program
from repro.workloads.randomgen import build_program, random_spec
from repro.workloads.registry import all_benchmarks, get_benchmark
from tests.conftest import two_lock_program

#: sha256 over every run's row, in the order this module makes the runs.
GOLDEN = "54b42380567653b30ecf7163ed18ed9365143827b426aa9e89b6acaf18531375"
#: Runs behind the digest, so a mismatch says whether the set of runs or
#: only their contents moved.
GOLDEN_RUNS = 797
DETECT_SEEDS = (0, 1)
SEEDS = 10
RANDOM_PROGRAMS = 20
AVOIDANCE_BENCH = "HashMap"


def run_row(result):
    deadlock = sorted(result.deadlock.sites) if result.deadlock is not None else None
    errors = sorted(
        (tid.pretty(), type(exc).__name__, str(exc))
        for tid, exc in result.errors.items()
    )
    return [
        result.status.value,
        [repr(ev) for ev in result.trace],
        deadlock,
        [list(e) for e in errors],
    ]


@contextmanager
def recorded_runs(rows):
    """Append :func:`run_row` of every run :meth:`Scheduler.run` returns."""
    run = Scheduler.run

    def recording(self, root):
        result = run(self, root)
        rows.append(run_row(result))
        return result

    Scheduler.run = recording
    try:
        yield rows
    finally:
        Scheduler.run = run


def drive_runtime():
    """Make every run the digest covers, in a fixed order."""
    reports = {}
    for bench in all_benchmarks():
        for seed in DETECT_SEEDS:
            config = WolfConfig(
                seed=seed,
                predict="filter",
                workers=1,
                max_cycle_length=bench.max_cycle_length,
                replay_attempts=bench.replay_attempts,
            )
            reports[bench.name, seed] = Wolf(config=config).analyze(
                bench.program, name=bench.name
            )
    for name in ("fig9", "ArrayList"):
        DeadlockFuzzer(seed=0).analyze(get_benchmark(name).program, name=name)
    for _ in explore_runs(two_lock_program, max_runs=200):
        pass
    for program in (pipeline_program, transfer_deadlock_program):
        for seed in range(SEEDS):
            run_program(program, RandomStrategy(seed))
    for seed in range(RANDOM_PROGRAMS):
        spec = random_spec(seed, max_threads=4, max_locks=4)
        run_program(build_program(spec), RandomStrategy(seed, stickiness=0.5))
    patterns = patterns_from_report(reports[AVOIDANCE_BENCH, DETECT_SEEDS[0]])
    assert patterns, "the immunity runs need a confirmed pattern"
    bench = get_benchmark(AVOIDANCE_BENCH)
    for seed in range(SEEDS):
        run_program(bench.program, AvoidanceStrategy(patterns, seed=seed))


def sim_digest():
    rows = []
    with recorded_runs(rows):
        drive_runtime()
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps(row).encode())
        h.update(b"\n")
    return h.hexdigest(), len(rows)


def test_runs_match_golden_digest():
    digest, runs = sim_digest()
    assert runs == GOLDEN_RUNS
    assert digest == GOLDEN


if __name__ == "__main__":
    print(*sim_digest())
