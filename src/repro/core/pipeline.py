"""The end-to-end WOLF pipeline (paper Figure 3).

``Wolf.analyze(program)``:

1. run the instrumented program under a seeded random scheduler and record
   the trace (one run per detection seed);
2. **Extended Dynamic Cycle Detector** — ``D_sigma`` + vector clocks +
   cycles;
3. **Pruner** — discard never-overlapping cycles;
4. **Generator** — build ``Gs`` per survivor; cyclic ``Gs`` ⇒ false;
5. **Replayer** — re-execute per survivor following ``Gs``; a hit confirms
   the defect, exhaustion of attempts leaves it unknown.

Every detection run schedules at :data:`DETECT_STICKINESS`, and every
Generator survivor that prediction neither refutes nor (in ``certify``
mode) confirms is replayed: the candidates go to the engine in one
supervised map, in report order.  With ``workers > 1`` the per-seed
detection chains and the per-cycle replay attempts fan out across a
process pool (:mod:`repro.core.parallel`); results are merged back in the
serial pipeline's order, so classifications and report ordering are
identical to a ``workers=1`` run regardless of completion order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.core.generator import GeneratorVerdict
from repro.core.parallel import (
    DetectTask,
    ReplayTask,
    SupervisionPolicy,
    TaskOutcome,
    make_engine,
    run_detect_task,
    run_replay_task,
)
from repro.core.prediction import (
    ClosureIndex,
    CyclePrediction,
    PredictionVerdict,
    WitnessSchedule,
    promote_by_defect,
)
from repro.core.report import Classification, CycleReport, FaultRecord, WolfReport
from repro.runtime.sim.result import RunResult, RunStatus
from repro.runtime.sim.runtime import Program, run_program
from repro.runtime.sim.strategy import RandomStrategy
from repro.util.rng import DeterministicRNG


#: Burst bias of every detection run's scheduler (see
#: :func:`repro.runtime.sim.strategy.sticky_pick`): the evaluation's
#: methodology fixes it at 0.9.
DETECT_STICKINESS = 0.9


def run_detection(
    program: Program,
    seed: int,
    *,
    name: str = "",
    tries: int = 10,
    max_steps: int = 200_000,
    step_timeout: float = 30.0,
) -> RunResult:
    """Execute the instrumented program to record a detection trace.

    A detection run that itself deadlocks yields a truncated trace, so up
    to ``tries`` seeds (derived deterministically from ``seed``) are
    attempted until one completes; failing that, the last run is analyzed
    as-is — a manifested deadlock is still evidence, just with less
    lookahead.
    """
    if tries < 1:
        raise ValueError(f"tries must be >= 1, got {tries}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if step_timeout <= 0:
        raise ValueError(f"step_timeout must be > 0, got {step_timeout}")
    for attempt in range(tries):
        run_seed = (
            seed if attempt == 0 else DeterministicRNG(seed).fork(f"detect:{attempt}").seed
        )
        last = run_program(
            program,
            RandomStrategy(run_seed, stickiness=DETECT_STICKINESS),
            seed=run_seed,
            name=name,
            max_steps=max_steps,
            step_timeout=step_timeout,
        )
        last.raise_errors()
        if last.status is RunStatus.COMPLETED:
            return last
    return last


@dataclass
class WolfConfig:
    """Pipeline knobs (defaults match the evaluation driver)."""

    seed: int = 0
    #: One detection run per seed; cycles from every run are analyzed.
    detect_seeds: Optional[Sequence[int]] = None
    replay_attempts: int = 5
    #: Maximum threads per cycle the detector searches for.
    max_cycle_length: int = 4
    max_cycles: int = 10_000
    max_steps: int = 200_000
    step_timeout: float = 30.0
    #: Process-pool fan-out across detection seeds and replay candidates.
    #: ``1`` runs everything in-process, bit-identical to the historical
    #: serial pipeline; ``>1`` requires a picklable program (the pipeline
    #: falls back to serial otherwise — see :mod:`repro.core.parallel`).
    workers: int = 1
    #: Per-task wall-clock deadline in seconds for detection/replay tasks
    #: (``None`` = unbounded).  A task that blows the deadline is recorded
    #: as a ``timeout`` fault instead of stalling the campaign.
    task_timeout: Optional[float] = None
    #: Retries (with deterministic exponential backoff) before a failing
    #: task is quarantined as a ``WolfReport.faults`` entry.
    task_retries: int = 2
    #: Run the trace sanitizer over every detection trace and the ``Gs``
    #: typing check over every generated graph; violations land in
    #: ``WolfReport.sanitizer`` (see :mod:`repro.analysis.sanitizer`).
    sanitize: bool = False
    #: Accepted for compatibility and validated, but selects nothing:
    #: every detection run goes through
    #: :class:`~repro.core.streaming.StreamingDetector`.
    engine: str = "auto"
    #: Sync-preserving prediction pass (:mod:`repro.core.prediction`)
    #: between Generator and Replayer.  ``"off"`` keeps the historical
    #: replay-everything pipeline.  ``"filter"`` drops REFUTED cycles
    #: before replay and hands each CERTIFIED cycle's witness schedule to
    #: the Replayer (deterministic first-attempt hit; a witness the
    #: program *diverges* from demotes the certificate back to the plain
    #: replay outcome).  ``"certify"`` additionally classifies CERTIFIED
    #: cycles confirmed without any replay — the fleet mode for traces
    #: whose producers cannot be re-executed.
    predict: str = "off"
    #: Directory to write one ``witness-<sha>.json`` per CERTIFIED cycle
    #: into (``None`` = don't persist witnesses).
    witness_dir: Optional[str] = None
    #: Externally supplied witness schedule (``wolf detect
    #: --replay-witness``, typically a file a previous ``witness_dir`` run
    #: wrote): any replay candidate whose sites match follows it on the
    #: first attempt, making the reproduction deterministic without
    #: re-running prediction.
    replay_witness: Optional["WitnessSchedule"] = None

    def __post_init__(self) -> None:
        if self.engine not in ("batch", "streaming", "auto"):
            raise ValueError(
                f"engine must be 'batch', 'streaming' or 'auto', got {self.engine!r}"
            )
        if self.predict not in ("off", "filter", "certify"):
            raise ValueError(
                f"predict must be 'off', 'filter' or 'certify', got {self.predict!r}"
            )
        if self.replay_attempts < 1:
            raise ValueError(
                f"replay_attempts must be >= 1, got {self.replay_attempts}"
            )
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.step_timeout <= 0:
            raise ValueError(f"step_timeout must be > 0, got {self.step_timeout}")
        if self.max_cycle_length < 2:
            raise ValueError(
                f"max_cycle_length must be >= 2, got {self.max_cycle_length}"
            )
        if self.max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {self.max_cycles}")
        # SupervisionPolicy re-validates, but fail at construction with the
        # offending value rather than deep inside analyze().
        self.supervision()

    def supervision(self) -> SupervisionPolicy:
        return SupervisionPolicy(
            task_timeout=self.task_timeout, retries=self.task_retries
        )

    def seeds(self) -> List[int]:
        return list(self.detect_seeds) if self.detect_seeds else [self.seed]


class Wolf:
    """Facade: ``Wolf(seed=7).analyze(program, name="...")``."""

    def __init__(self, seed: int = 0, config: Optional[WolfConfig] = None, **kw):
        if config is None:
            config = WolfConfig(seed=seed, **kw)
        self.config = config

    def analyze(self, program: Program, *, name: str = "") -> WolfReport:
        cfg = self.config
        wall0 = time.perf_counter()
        from repro.core.nativekernel import backend_info

        binfo = backend_info()
        report = WolfReport(
            program=name or getattr(program, "__name__", "program"),
            seeds=cfg.seeds(),
            predict=cfg.predict,
            backend=binfo["backend"],
            kernel=binfo["kernel"],
        )
        timings = {"detect": 0.0, "prune": 0.0, "generate": 0.0, "replay": 0.0}
        policy = cfg.supervision()
        engine = make_engine(cfg.workers, program)
        report.workers = engine.workers

        # The with-statement guarantees teardown (cancelling queued futures
        # and killing workers on the exception/KeyboardInterrupt path), so
        # an interrupted run never leaks spawn workers.
        with engine:
            detect_tasks = [
                DetectTask(
                    program=program,
                    seed=seed,
                    name=report.program,
                    max_cycle_length=cfg.max_cycle_length,
                    max_cycles=cfg.max_cycles,
                    max_steps=cfg.max_steps,
                    step_timeout=cfg.step_timeout,
                    predict=cfg.predict,
                )
                for seed in cfg.seeds()
            ]
            detect_outcomes = engine.map_supervised(
                run_detect_task, detect_tasks, policy
            )

            # Merge in seed order: a failed seed becomes a fault record (it
            # contributes no cycles).
            seed_results = []
            for task, out in zip(detect_tasks, detect_outcomes, strict=True):
                if not out.ok:
                    report.faults.append(
                        self._fault("detect", f"seed:{task.seed}", out)
                    )
                    continue
                res = out.value
                report.detections.append(res.detection)
                for stage, seconds in res.timings.items():
                    timings[stage] = timings.get(stage, 0.0) + seconds
                if cfg.sanitize:
                    # Imported here: repro.analysis depends on core, so a
                    # module-level import would be circular.
                    from repro.analysis.sanitizer import (
                        check_cycle_closure,
                        check_sync_graph,
                        sanitize_trace,
                    )

                    t0 = time.perf_counter()
                    report.sanitizer.extend(sanitize_trace(res.detection.trace))
                    report.sanitizer.extend(
                        check_cycle_closure(
                            ClosureIndex.from_events(res.detection.trace),
                            res.detection.cycles,
                        )
                    )
                    for dec in res.gen.decisions:
                        report.sanitizer.extend(check_sync_graph(dec.gs))
                    timings["sanitize"] = (
                        timings.get("sanitize", 0.0) + time.perf_counter() - t0
                    )
                seed_results.append(res)

            # Cross-seed key-level promotion: an UNDECIDED cycle whose
            # defect key certified under *another* seed's trace inherits
            # that certificate (feasibility is a property of the sites,
            # and ``is_hit`` checks sites — see promote_by_defect).
            preds_by_seed = self._merge_predictions(seed_results)

            # Pruned/false/decided reports become CycleReports immediately;
            # the cycles still headed to replay become positional slots,
            # filled from one supervised map over every candidate.
            slots: List[Union[CycleReport, int]] = []
            candidates: List[ReplayTask] = []
            cand_preds: List[Optional[CyclePrediction]] = []
            for res, preds in zip(seed_results, preds_by_seed, strict=True):
                for dec in res.prune.decisions:
                    if dec.pruned:
                        slots.append(
                            CycleReport(
                                cycle=dec.cycle,
                                classification=Classification.FALSE_PRUNER,
                                prune=dec,
                            )
                        )
                for dec, pred in zip(res.gen.decisions, preds, strict=True):
                    if dec.verdict is GeneratorVerdict.FALSE:
                        slots.append(
                            CycleReport(
                                cycle=dec.cycle,
                                classification=Classification.FALSE_GENERATOR,
                                generator=dec,
                            )
                        )
                        continue
                    if (
                        pred is not None
                        and pred.verdict is PredictionVerdict.REFUTED
                    ):
                        slots.append(
                            CycleReport(
                                cycle=dec.cycle,
                                classification=Classification.FALSE_PREDICTION,
                                generator=dec,
                                prediction=pred,
                            )
                        )
                        continue
                    if (
                        cfg.predict == "certify"
                        and pred is not None
                        and pred.verdict is PredictionVerdict.CERTIFIED
                    ):
                        slots.append(
                            CycleReport(
                                cycle=dec.cycle,
                                classification=Classification.CONFIRMED_PREDICTED,
                                generator=dec,
                                prediction=pred,
                            )
                        )
                        continue
                    witness = (
                        pred.witness
                        if pred is not None
                        and pred.verdict is PredictionVerdict.CERTIFIED
                        else None
                    )
                    if (
                        witness is None
                        and cfg.replay_witness is not None
                        and frozenset(cfg.replay_witness.sites) == dec.cycle.sites
                    ):
                        witness = cfg.replay_witness
                    slots.append(len(candidates))
                    cand_preds.append(pred)
                    candidates.append(
                        ReplayTask(
                            program=program,
                            name=report.program,
                            seed=res.seed,
                            decision=dec,
                            attempts=cfg.replay_attempts,
                            max_steps=cfg.max_steps,
                            step_timeout=cfg.step_timeout,
                            witness=witness,
                        )
                    )

            outcomes = engine.map_supervised(run_replay_task, candidates, policy)

        report.fallback_reason = engine.fallback_reason
        for slot in slots:
            if isinstance(slot, CycleReport):
                report.cycle_reports.append(slot)
                continue
            task, out = candidates[slot], outcomes[slot]
            pred = cand_preds[slot]
            if not out.ok:
                # The replay task itself failed (not "replay didn't hit"):
                # record the fault and leave the cycle for manual review.
                key = ",".join(sorted(task.decision.cycle.sites))
                report.faults.append(self._fault("replay", f"cycle:{key}", out))
                report.cycle_reports.append(
                    CycleReport(
                        cycle=task.decision.cycle,
                        classification=Classification.UNKNOWN,
                        generator=task.decision,
                        prediction=pred,
                    )
                )
                continue
            outcome = out.value
            timings["replay"] += outcome.wall_time_s
            # A CERTIFIED cycle whose witness replay *diverged* without
            # hitting carries a void certificate (the program synchronizes
            # through state the trace does not record); it lands here as a
            # plain replay outcome — UNKNOWN unless a later Gs-steered
            # attempt reproduced it anyway.
            report.cycle_reports.append(
                CycleReport(
                    cycle=task.decision.cycle,
                    classification=(
                        Classification.CONFIRMED
                        if outcome.reproduced
                        else Classification.UNKNOWN
                    ),
                    generator=task.decision,
                    replay=outcome,
                    prediction=pred,
                )
            )

        if cfg.witness_dir is not None:
            self._write_witnesses(report, cfg.witness_dir)
        timings["wall"] = time.perf_counter() - wall0
        report.timings = timings
        return report

    @staticmethod
    def _merge_predictions(
        seed_results,
    ) -> List[List[Optional[CyclePrediction]]]:
        """Per-seed prediction lists aligned with ``gen.decisions``, with
        key-level promotion applied across *all* seeds' cycles at once."""
        all_cycles = []
        flat: List[Optional[CyclePrediction]] = []
        for res in seed_results:
            preds = res.predictions
            if preds is None:
                preds = tuple([None] * len(res.gen.decisions))
            for dec, p in zip(res.gen.decisions, preds, strict=True):
                all_cycles.append(dec.cycle)
                flat.append(p)
        merged = promote_by_defect(all_cycles, flat)
        out: List[List[Optional[CyclePrediction]]] = []
        i = 0
        for res in seed_results:
            n = len(res.gen.decisions)
            out.append(list(merged[i : i + n]))
            i += n
        return out

    @staticmethod
    def _write_witnesses(report: WolfReport, witness_dir: str) -> None:
        """Persist every CERTIFIED cycle's witness schedule as an artifact
        (``witness-<sha12>.json``, keyed by the sorted defect sites) for
        later ``wolf run --replay-witness`` use."""
        import hashlib
        import json
        import os

        os.makedirs(witness_dir, exist_ok=True)
        for cr in report.cycle_reports:
            pred = cr.prediction
            if (
                pred is None
                or pred.verdict is not PredictionVerdict.CERTIFIED
                or pred.witness is None
            ):
                continue
            key = ",".join(sorted(cr.cycle.sites))
            sha = hashlib.sha256(key.encode()).hexdigest()[:12]
            path = os.path.join(witness_dir, f"witness-{sha}.json")
            with open(path, "w") as fh:
                json.dump(pred.witness.to_doc(), fh, indent=2)
                fh.write("\n")

    @staticmethod
    def _fault(kind: str, key: str, out: TaskOutcome) -> FaultRecord:
        return FaultRecord(
            kind=kind,
            key=key,
            failure=out.status.value,
            error_type=out.error_type,
            message=out.message,
            retries=out.retries,
            elapsed_s=out.elapsed_s,
        )
