"""The parallel execution layer (`repro.core.parallel`).

The load-bearing guarantee: a `workers=N` pipeline run produces the same
cycle classifications, in the same order, as the serial pipeline.
"""

from __future__ import annotations

import json

import pytest

from repro.core import parallel, pipeline
from repro.core.pipeline import Wolf, WolfConfig, run_detection
from repro.experiments.scaling import ScaledWorkload, make_scaled_workload
from repro.workloads.registry import get_benchmark

#: Small but cycle-rich: every seed detects the inverted-pair deadlock
#: family, so multi-seed runs exercise cross-seed defect deduplication.
PROGRAM = ScaledWorkload(2, 4, 6)
SEEDS = [0, 1, 2, 3]


def _config(**kw) -> WolfConfig:
    base = dict(
        detect_seeds=SEEDS,
        replay_attempts=2,
        max_cycle_length=3,
    )
    base.update(kw)
    return WolfConfig(**base)


def _cycle_rows(report) -> list:
    """The machine-readable per-cycle section — classification, ordering,
    replay attempt counts — as plain data for exact comparison."""
    return json.loads(report.to_json())["cycles"]


class TestSerialParallelEquivalence:
    def test_parallel_matches_serial_exactly(self):
        serial = Wolf(config=_config()).analyze(PROGRAM, name="p")
        fanned = Wolf(config=_config(workers=4)).analyze(PROGRAM, name="p")
        assert fanned.workers == 4
        assert serial.workers == 1
        assert _cycle_rows(serial) == _cycle_rows(fanned)
        assert (
            json.loads(serial.to_json())["defects"]
            == json.loads(fanned.to_json())["defects"]
        )

    def test_two_workers_same_as_four(self):
        two = Wolf(config=_config(workers=2)).analyze(PROGRAM, name="p")
        four = Wolf(config=_config(workers=4)).analyze(PROGRAM, name="p")
        assert _cycle_rows(two) == _cycle_rows(four)

    def test_unpicklable_program_falls_back_to_serial(self):
        inner = ScaledWorkload(2, 4, 6)
        closure = lambda rt: inner(rt)  # noqa: E731 — deliberately unpicklable
        serial = Wolf(config=_config()).analyze(closure, name="p")
        fanned = Wolf(config=_config(workers=4)).analyze(closure, name="p")
        assert fanned.workers == 1  # fell back
        assert _cycle_rows(serial) == _cycle_rows(fanned)

    def test_timings_report_wall_and_aggregate(self):
        report = Wolf(config=_config(workers=2)).analyze(PROGRAM, name="p")
        assert set(report.timings) == {
            "detect",
            "prune",
            "generate",
            "replay",
            "wall",
        }
        assert report.timings["wall"] > 0
        assert report.aggregate_s > 0
        assert report.speedup is not None


class TestReplayMap:
    def test_serial_engine_replays_every_candidate_in_one_map(self, monkeypatch):
        """Every replay candidate goes to the engine in one supervised
        map, in report order, never one map per candidate."""
        maps = []
        real = parallel.SerialEngine.map_supervised

        def spy(engine, fn, tasks, policy):
            maps.append((fn, list(tasks)))
            return real(engine, fn, tasks, policy)

        monkeypatch.setattr(parallel.SerialEngine, "map_supervised", spy)
        b = get_benchmark("HashMap")
        cfg = WolfConfig(
            seed=b.detect_seed,
            replay_attempts=b.replay_attempts,
            max_cycle_length=b.max_cycle_length,
        )
        report = Wolf(config=cfg).analyze(b.program, name=b.name)
        assert report.workers == 1
        replay_maps = [tasks for fn, tasks in maps if fn is pipeline.run_replay_task]
        assert len(replay_maps) == 1
        (tasks,) = replay_maps
        replayed = [cr for cr in report.cycle_reports if cr.replay is not None]
        assert len(replayed) > 1
        for task, cr in zip(tasks, replayed, strict=True):
            assert task.decision is cr.generator


class TestEngines:
    def test_make_engine_serial_for_one_worker(self):
        engine = parallel.make_engine(1, PROGRAM)
        assert isinstance(engine, parallel.SerialEngine)
        assert engine.fallback_reason == ""

    def test_make_engine_fallback_reports_reason(self):
        engine = parallel.make_engine(4, lambda rt: None)
        assert isinstance(engine, parallel.SerialEngine)
        assert "picklable" in engine.fallback_reason

    def test_process_engine_preserves_task_order(self):
        engine = parallel.make_engine(2, PROGRAM)
        assert isinstance(engine, parallel.ProcessEngine)
        tasks = [
            parallel.DetectTask(
                program=PROGRAM,
                seed=seed,
                name="order",
                max_cycle_length=3,
                max_cycles=100,
                max_steps=50_000,
                step_timeout=30.0,
            )
            for seed in (3, 1, 2, 0)
        ]
        try:
            outcomes = engine.map_supervised(
                parallel.run_detect_task, tasks, parallel.SupervisionPolicy()
            )
        finally:
            engine.close()
        assert all(o.status is parallel.TaskStatus.OK for o in outcomes)
        assert [o.value.seed for o in outcomes] == [3, 1, 2, 0]

    def test_map_empty_tasks(self):
        engine = parallel.make_engine(2, PROGRAM)
        try:
            policy = parallel.SupervisionPolicy()
            assert engine.map_supervised(parallel.run_detect_task, [], policy) == []
        finally:
            engine.close()

    def test_is_picklable(self):
        assert parallel.is_picklable(PROGRAM)
        assert not parallel.is_picklable(lambda rt: None)


class TestRunDetectionValidation:
    def test_rejects_nonpositive_tries(self):
        with pytest.raises(ValueError, match="tries"):
            run_detection(PROGRAM, 0, tries=0)

    def test_factory_returns_picklable_program(self):
        assert parallel.is_picklable(make_scaled_workload(2, 4, 2))
