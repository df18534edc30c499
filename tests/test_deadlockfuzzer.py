"""DeadlockFuzzer baseline tests, including the Figure 9 comparison the
paper highlights (§4.2): WOLF reproduces the addAll/removeAll deadlock
reliably; DeadlockFuzzer's abstractions pause the wrong thread."""

from __future__ import annotations

import pytest

from repro.baselines.deadlockfuzzer import (
    DeadlockFuzzer,
    DfConfig,
    DfReplayStrategy,
    DfTarget,
    df_is_hit,
)
from repro.core.detector import BaseDetector, ExtendedDetector
from repro.core.generator import Generator, GeneratorVerdict
from repro.core.pipeline import run_detection
from repro.core.pruner import Pruner
from repro.core.replayer import Replayer
from repro.core.report import Classification as C
from repro.util.rng import DeterministicRNG
from repro.workloads.figures import fig9_program
from tests.conftest import ordered_program, two_lock_program

FIG9_CROSS_SITES = frozenset({"Collections.java:1570", "Collections.java:1567"})


def fig9_cycles():
    run = run_detection(fig9_program, 0, name="fig9")
    return BaseDetector().analyze(run.trace)


class TestDfTarget:
    def test_of_entry(self):
        detection = fig9_cycles()
        entry = detection.cycles[0].entries[0]
        target = DfTarget.of(entry)
        assert target.site == entry.index.site
        assert target.thread_abs == entry.thread.abstraction()
        assert target.lock_abs == entry.lock.abstraction()
        assert target.guard_abs == frozenset(
            l.abstraction() for l in entry.lockset
        )

    def test_fig9_threads_share_abstraction(self):
        """The deliberate aliasing: both workers look identical to DF."""
        detection = fig9_cycles()
        threads = {t for c in detection.cycles for t in c.threads}
        assert len(threads) == 2
        a, b = threads
        assert a.abstraction() == b.abstraction()

    def test_fig9_mutexes_share_abstraction(self):
        detection = fig9_cycles()
        locks = {l for c in detection.cycles for l in c.locks}
        assert len(locks) == 2
        a, b = locks
        assert a.abstraction() == b.abstraction()


class TestFig9Comparison:
    def test_wolf_hits_df_misses_cross_op_deadlock(self):
        run = run_detection(fig9_program, 0, name="fig9")
        detection = ExtendedDetector().analyze(run.trace)
        surv = Pruner(detection.vclocks).prune(detection.cycles).survivors
        gen = Generator(detection.relation).run(surv)
        cross = [
            d
            for d in gen.decisions
            if d.cycle.sites == FIG9_CROSS_SITES
            and d.verdict is GeneratorVerdict.UNKNOWN
        ]
        assert cross, "expected feasible cross-op cycles"
        dec = cross[0]

        wolf_outcome = Replayer(fig9_program, seed=0).replay(
            dec, attempts=10, stop_on_hit=False
        )
        assert wolf_outcome.hit_rate == 1.0

        fuzzer = DeadlockFuzzer(config=DfConfig(seed=0))
        df_hits = 0
        for k in range(10):
            rng = DeterministicRNG(0).fork(f"t:{k}")
            result = fuzzer.replay_once(fig9_program, dec.cycle, rng.seed, name="fig9")
            df_hits += df_is_hit(result, dec.cycle)
        assert df_hits == 0  # "never reproduced the deadlock in 100 runs"


class TestDfPipeline:
    def test_no_false_positive_elimination(self):
        report = DeadlockFuzzer(seed=0).analyze(fig9_program, name="fig9")
        classes = {cr.classification for cr in report.cycle_reports}
        assert classes <= {C.CONFIRMED, C.UNKNOWN}

    def test_confirms_trivial_deadlock(self):
        report = DeadlockFuzzer(seed=0, replay_attempts=10).analyze(
            two_lock_program, name="abba"
        )
        assert report.count_cycles(C.CONFIRMED) == 1

    def test_clean_program_empty(self):
        report = DeadlockFuzzer(seed=0).analyze(ordered_program, name="safe")
        assert report.n_cycles == 0

    def test_timings(self):
        report = DeadlockFuzzer(seed=0).analyze(two_lock_program, name="abba")
        assert set(report.timings) == {"detect", "replay"}

    def test_detects_at_its_one_seed_with_wolfs_scheduler(self):
        report = DeadlockFuzzer(seed=3).analyze(two_lock_program, name="abba")
        assert report.seeds == [3]
        assert len(report.detections) == 1
        for retired in ("detect_seeds", "detect_stickiness", "detect_tries"):
            with pytest.raises(TypeError):
                DfConfig(**{retired: 1})


class TestDfStrategyMechanics:
    def test_released_lets_everything_through(self):
        detection = fig9_cycles()
        strategy = DfReplayStrategy(detection.cycles[0], seed=0)
        strategy.released = True

        class FakeOp:
            pass

        assert strategy.before_acquire(detection.cycles[0].threads[0], FakeOp())

    def test_forget_clears_pauses(self):
        detection = fig9_cycles()
        strategy = DfReplayStrategy(detection.cycles[0], seed=0)
        t = detection.cycles[0].threads[0]
        strategy.paused_at[0].add(t)
        strategy._forget(t)
        assert not strategy.paused_at[0]
