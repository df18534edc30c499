"""The supervised fault-tolerant execution layer and its chaos harness.

The load-bearing guarantee mirrors test_parallel.py's: a campaign where
workloads raise, hang, or kill their worker still produces a complete
``WolfReport`` — surviving seeds classified, each failure quarantined as
a ``faults`` entry — and the fault entries and classifications are
identical for ``workers=1`` and ``workers=4``.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import _settings, build_parser
from repro.core.parallel import (
    ProcessEngine,
    SerialEngine,
    SupervisionPolicy,
    TaskStatus,
)
from repro.core.pipeline import Wolf, WolfConfig, run_detection
from repro.core.replayer import Replayer
from repro.core.report import Classification, FaultRecord, WolfReport
from repro.experiments.report_md import render_health_section
from repro.testing.chaos import (
    ChaosError,
    ChaosProgram,
    ChaosTarget,
    echo_task,
    exiting_task,
    failing_task,
    in_worker_process,
    racing_task,
    sleeping_task,
)

#: Tight deadlines/backoffs so fault paths resolve in seconds, not minutes.
FAST = SupervisionPolicy(task_timeout=2.0, retries=1, backoff_base_s=0.01)


def _signatures(outcomes):
    return [(o.status.value, o.error_type, o.retries) for o in outcomes]


def _fault_signatures(report):
    return [(f.kind, f.key, f.failure, f.retries) for f in report.faults]


def _cycle_rows(report):
    return json.loads(report.to_json())["cycles"]


# ---------------------------------------------------------------------------
# Construction-time validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_replayer_rejects_bad_knobs(self, ab_ba_program):
        with pytest.raises(ValueError, match="attempts.*0"):
            Replayer(ab_ba_program, attempts=0)
        with pytest.raises(ValueError, match="max_steps.*0"):
            Replayer(ab_ba_program, max_steps=0)
        with pytest.raises(ValueError, match="step_timeout.*-1"):
            Replayer(ab_ba_program, step_timeout=-1)

    def test_replay_rejects_bad_attempts_override(self, ab_ba_program):
        replayer = Replayer(ab_ba_program, attempts=2)
        with pytest.raises(ValueError, match="attempts"):
            replayer.replay(None, attempts=0)

    def test_run_detection_rejects_bad_knobs(self, ab_ba_program):
        with pytest.raises(ValueError, match="tries.*0"):
            run_detection(ab_ba_program, 0, tries=0)
        with pytest.raises(ValueError, match="max_steps"):
            run_detection(ab_ba_program, 0, max_steps=0)
        with pytest.raises(ValueError, match="step_timeout"):
            run_detection(ab_ba_program, 0, step_timeout=0)
        # Every detection run schedules at DETECT_STICKINESS.
        with pytest.raises(TypeError):
            run_detection(ab_ba_program, 0, stickiness=0.5)

    @pytest.mark.parametrize(
        "kw",
        [
            {"replay_attempts": 0},
            {"max_steps": 0},
            {"step_timeout": 0},
            {"max_cycle_length": 1},
            {"task_timeout": 0},
            {"task_retries": -1},
            {"max_cycles": 0},
        ],
    )
    def test_wolf_config_rejects_bad_knobs(self, kw):
        with pytest.raises(ValueError):
            WolfConfig(**kw)

    def test_value_error_names_the_offending_value(self):
        with pytest.raises(ValueError, match="-3"):
            WolfConfig(task_retries=-3)

    def test_policy_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="task_timeout"):
            SupervisionPolicy(task_timeout=-1)
        with pytest.raises(ValueError, match="retries"):
            SupervisionPolicy(retries=-1)

    def test_chaos_program_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="sabotage"):
            ChaosProgram({1: "sabotage"})
        with pytest.raises(ValueError, match="mode"):
            ChaosProgram()


# ---------------------------------------------------------------------------
# Engine-level supervision (below the pipeline)
# ---------------------------------------------------------------------------


class TestSerialSupervision:
    def test_ok_tasks_keep_order_and_spend_no_retries(self):
        outs = SerialEngine().map_supervised(echo_task, [3, 1, 2], FAST)
        assert [o.value for o in outs] == [3, 1, 2]
        assert all(o.ok and o.retries == 0 for o in outs)

    def test_error_consumes_full_retry_budget(self):
        (out,) = SerialEngine().map_supervised(failing_task, ["x"], FAST)
        assert out.status is TaskStatus.ERROR
        assert out.error_type == "ChaosError"
        assert out.retries == FAST.retries
        assert "failing_task" in out.message  # traceback rides along
        assert out.elapsed_s >= FAST.backoff(0)  # backoff actually slept

    def test_retry_outcomes_deterministic_across_runs(self):
        one = SerialEngine().map_supervised(failing_task, ["a", "b"], FAST)
        two = SerialEngine().map_supervised(failing_task, ["a", "b"], FAST)
        assert _signatures(one) == _signatures(two)

    def test_backoff_schedule_is_deterministic_and_capped(self):
        policy = SupervisionPolicy(backoff_base_s=0.05, backoff_cap_s=0.4)
        assert [policy.backoff(k) for k in range(5)] == [
            0.05,
            0.1,
            0.2,
            0.4,
            0.4,
        ]

    def test_hung_task_times_out_within_deadline(self):
        policy = SupervisionPolicy(task_timeout=0.3, retries=0)
        (out,) = SerialEngine().map_supervised(sleeping_task, [30.0], policy)
        assert out.status is TaskStatus.TIMEOUT
        assert out.error_type == "TaskDeadlineExceeded"
        assert out.elapsed_s < 5  # nowhere near the 30s sleep
        assert "sleeping_task" in out.message  # hung stack captured

    def test_simulated_crash_classifies_crashed_in_process(self):
        assert not in_worker_process()
        (out,) = SerialEngine().map_supervised(exiting_task, [17], FAST)
        assert out.status is TaskStatus.CRASHED
        assert out.error_type == "SimulatedWorkerCrash"
        assert out.retries == FAST.retries

    def test_zero_retries_means_single_attempt(self):
        policy = SupervisionPolicy(retries=0)
        (out,) = SerialEngine().map_supervised(failing_task, ["x"], policy)
        assert out.status is TaskStatus.ERROR and out.retries == 0


class TestProcessSupervision:
    def test_failure_classes_and_degradation_ladder(self):
        """One engine, the whole ladder: ok → error → timeout → crash →
        breakage budget exceeded → degraded in-process, parent intact."""
        with ProcessEngine(2) as engine:
            outs = engine.map_supervised(echo_task, [1, 2, 3], FAST)
            assert [o.value for o in outs] == [1, 2, 3]
            assert all(o.ok for o in outs)

            (err,) = engine.map_supervised(failing_task, ["x"], FAST)
            assert err.status is TaskStatus.ERROR
            assert err.error_type == "ChaosError"
            assert err.retries == FAST.retries

            quick = SupervisionPolicy(task_timeout=0.5, retries=0)
            (hung,) = engine.map_supervised(sleeping_task, [5.0], quick)
            assert hung.status is TaskStatus.TIMEOUT
            assert hung.elapsed_s < 4

            # A hard worker exit breaks the pool: collateral breakage on
            # the batch future, then two attributed solo crashes — past
            # the default budget of 2, so the engine degrades.
            (dead,) = engine.map_supervised(exiting_task, [17], FAST)
            assert dead.status is TaskStatus.CRASHED
            assert dead.retries == FAST.retries
            assert engine.breakages > FAST.max_pool_breakages
            assert "degrading to in-process" in engine.fallback_reason

            # Degraded, not dead: later tasks still run (in-process).
            (after,) = engine.map_supervised(echo_task, [9], FAST)
            assert after.ok and after.value == 9

    def test_retry_beside_the_batch_not_blamed_for_a_crash(self, tmp_path):
        """A retry submitted while the first concurrent batch still runs
        shares its pool: when another task then kills its worker, the
        retry is collateral, not the crasher."""
        policy = SupervisionPolicy(task_timeout=60.0, retries=1, backoff_base_s=0.01)
        jobs = [("raiser", str(tmp_path)), ("crasher", str(tmp_path))]
        with ProcessEngine(2) as engine:
            raiser, crasher = engine.map_supervised(racing_task, jobs, policy)
        assert raiser.ok and raiser.value == "raiser" and raiser.retries == 1
        assert crasher.status is TaskStatus.CRASHED

    def test_serial_and_process_agree_on_failure_signatures(self):
        serial = SerialEngine().map_supervised(failing_task, ["a"], FAST)
        with ProcessEngine(2) as engine:
            fanned = engine.map_supervised(failing_task, ["a"], FAST)
        assert _signatures(serial) == _signatures(fanned)

    def test_context_manager_tears_pool_down_on_success(self):
        with ProcessEngine(2) as engine:
            engine.map_supervised(echo_task, [1], FAST)
            assert engine._pool is not None
        assert engine._pool is None

    def test_context_manager_tears_pool_down_on_exception(self):
        engine = ProcessEngine(2)
        with pytest.raises(ChaosError):
            with engine:
                engine.map_supervised(echo_task, [1], FAST)
                raise ChaosError("interrupted mid-campaign")
        assert engine._pool is None


# ---------------------------------------------------------------------------
# Pipeline-level chaos: faults become report entries, never aborts
# ---------------------------------------------------------------------------

#: seed 0 is clean; 1 raises mid-trace; 2 hangs in a critical section;
#: 3 kills its worker.
CHAOS_FAULTS = {1: "raise", 2: "hang", 3: "crash"}


def _chaos_config(**kw) -> WolfConfig:
    base = dict(
        detect_seeds=[0, 1, 2, 3],
        replay_attempts=3,
        task_timeout=2.0,
        task_retries=1,
        step_timeout=5.0,
    )
    base.update(kw)
    return WolfConfig(**base)


class TestChaosPipeline:
    def test_faulty_seeds_quarantined_others_classified(self):
        program = ChaosProgram(CHAOS_FAULTS, hang_s=30.0)
        report = Wolf(config=_chaos_config()).analyze(program, name="chaos")

        assert _fault_signatures(report) == [
            ("detect", "seed:1", "error", 1),
            ("detect", "seed:2", "timeout", 1),
            ("detect", "seed:3", "crashed", 1),
        ]
        # The hang never stalls the campaign: two bounded attempts, not
        # the 30s sleep.
        assert report.timings["wall"] < 20
        # The clean seed's cycle still classifies (and confirms).
        assert report.count_cycles(Classification.CONFIRMED) == 1
        assert report.fallback_reason == ""
        assert report.count_faults("timeout") == 1
        assert report.count_faults() == 3
        # Fault details survive serialization and the human summary.
        data = json.loads(report.to_json())
        assert [f["key"] for f in data["faults"]] == [
            "seed:1",
            "seed:2",
            "seed:3",
        ]
        assert "TaskDeadlineExceeded" in report.summary()

    def test_parallel_chaos_identical_to_serial(self):
        """The acceptance scenario: one raiser, one hanger, one worker
        killer — the report is identical for workers=1 and workers=4."""
        program = ChaosProgram(CHAOS_FAULTS, hang_s=30.0)
        serial = Wolf(config=_chaos_config()).analyze(program, name="chaos")
        fanned = Wolf(config=_chaos_config(workers=4)).analyze(
            program, name="chaos"
        )
        assert serial.n_faults == fanned.n_faults == 3
        assert _fault_signatures(serial) == _fault_signatures(fanned)
        assert _cycle_rows(serial) == _cycle_rows(fanned)
        assert (
            json.loads(serial.to_json())["defects"]
            == json.loads(fanned.to_json())["defects"]
        )
        # The real os._exit crasher exhausted the breakage budget, so the
        # parallel run finished degraded — and says so.
        assert "degrading to in-process" in fanned.fallback_reason
        assert serial.fallback_reason == ""

    def test_spin_exhausts_step_budget_without_faulting(self):
        """Step-budget exhaustion is a normal detection outcome (the run
        records STEP_LIMIT), not a supervised-task failure."""
        program = ChaosProgram(mode="spin")
        cfg = _chaos_config(detect_seeds=[0], max_steps=1_500, replay_attempts=1)
        report = Wolf(config=cfg).analyze(program, name="spin")
        assert report.n_faults == 0
        assert report.n_cycles == 0

    def test_failed_replay_task_leaves_cycle_unknown(self, monkeypatch):
        """A replay-stage fault quarantines the cycle as UNKNOWN (manual
        review) instead of dropping or mis-confirming it."""
        import repro.core.pipeline as pipeline_mod

        def boom(task):
            raise ChaosError("replay task exploded")

        monkeypatch.setattr(pipeline_mod, "run_replay_task", boom)
        cfg = _chaos_config(task_retries=0)
        report = Wolf(config=cfg).analyze(ChaosTarget(), name="chaos")

        assert report.count_faults("error") == len(report.faults) > 0
        fault = report.faults[0]
        assert fault.kind == "replay"
        assert fault.key.startswith("cycle:chaos:")
        unknown = [
            cr
            for cr in report.cycle_reports
            if cr.classification is Classification.UNKNOWN
        ]
        assert len(unknown) == len(report.faults)
        assert all(cr.replay is None and cr.generator for cr in unknown)

    def test_forced_releases_serialized_with_replay(self):
        report = Wolf(config=_chaos_config()).analyze(
            ChaosProgram(CHAOS_FAULTS, hang_s=30.0), name="chaos"
        )
        replayed = [
            c for c in json.loads(report.to_json())["cycles"] if "replay" in c
        ]
        assert replayed
        assert all("forced_releases" in c["replay"] for c in replayed)


# ---------------------------------------------------------------------------
# Surfacing: markdown health section and CLI knobs
# ---------------------------------------------------------------------------


class TestHealthSection:
    def _report(self, **kw) -> WolfReport:
        rep = WolfReport(program="bench", seeds=[0])
        for key, value in kw.items():
            setattr(rep, key, value)
        return rep

    def test_renders_fault_counts_and_degradation(self):
        faulty = self._report(
            workers=4,
            faults=[
                FaultRecord(kind="detect", key="seed:1", failure="error"),
                FaultRecord(kind="detect", key="seed:2", failure="timeout"),
                FaultRecord(kind="replay", key="cycle:x", failure="crashed"),
            ],
            fallback_reason="pool broke; degrading to in-process execution",
        )
        text = "\n".join(render_health_section([faulty]))
        assert "| bench | 4 | 1/1/1 |" in text
        assert "degrading to in-process execution" in text
        assert "3 task(s) lost to faults" in text

    def test_clean_reports_say_so(self):
        text = "\n".join(render_health_section([self._report()]))
        assert "| bench | 1 | 0/0/0 | 0 | off | none |" in text
        assert "No supervised task faulted" in text
        # Prediction off in every report: no soundness line.
        assert "Prediction soundness" not in text

    def test_prediction_verdicts_render(self):
        text = "\n".join(
            render_health_section([self._report(predict="filter")])
        )
        assert "| bench | 1 | 0/0/0 | 0 | 0/0/0 | none |" in text
        assert "Prediction soundness: 0 disagreement(s)" in text


class TestCliKnobs:
    def test_detect_accepts_supervision_flags(self):
        args = build_parser().parse_args(
            ["detect", "HashMap", "--task-timeout", "5.5", "--retries", "1"]
        )
        assert args.task_timeout == 5.5
        assert args.retries == 1

    def test_settings_thread_supervision_through(self):
        args = build_parser().parse_args(
            ["table2", "--task-timeout", "30", "--retries", "0"]
        )
        settings = _settings(args)
        assert settings.task_timeout == 30.0
        assert settings.task_retries == 0

    def test_supervision_defaults_preserved(self):
        settings = _settings(build_parser().parse_args(["table2"]))
        assert settings.task_timeout is None
        assert settings.task_retries == 2
