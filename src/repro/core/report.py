"""Classification results: per-cycle and per-defect reports.

The paper counts defects two ways (§4.3): per *cycle* (Table 2, what
iGoodLock/DeadlockFuzzer report) and per unique set of *source locations*
of the deadlocking acquisitions (Table 1, what a programmer must fix).
:class:`WolfReport` keeps per-cycle classifications and aggregates them
into defects, so both tables derive from one analysis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.analysis.sanitizer import SanitizerDiagnostic

from repro.core.detector import DetectionResult, PotentialDeadlock
from repro.core.generator import GeneratorDecision
from repro.core.prediction import CyclePrediction, PredictionVerdict
from repro.core.pruner import PruneDecision
from repro.core.replayer import ReplayOutcome
from repro.util.fmt import percent
from repro.util.ids import Site


class Classification(enum.Enum):
    """Final verdict for one cycle (paper Figure 3's outputs, plus the
    prediction pass's two replay-free verdicts)."""

    FALSE_PRUNER = "false (pruner)"
    FALSE_GENERATOR = "false (generator)"
    #: The sync-preserving closure proved the cycle infeasible — dropped
    #: before replay (``WolfConfig.predict`` in filter/certify mode).
    FALSE_PREDICTION = "false (prediction)"
    CONFIRMED = "confirmed deadlock"
    #: A witness reordering certified the cycle feasible; confirmed
    #: without executing anything (``predict="certify"``).
    CONFIRMED_PREDICTED = "confirmed (predicted)"
    UNKNOWN = "unknown (manual)"

    @property
    def is_false(self) -> bool:
        return self in (
            Classification.FALSE_PRUNER,
            Classification.FALSE_GENERATOR,
            Classification.FALSE_PREDICTION,
        )


@dataclass
class CycleReport:
    cycle: PotentialDeadlock
    classification: Classification
    prune: Optional[PruneDecision] = None
    generator: Optional[GeneratorDecision] = None
    replay: Optional[ReplayOutcome] = None
    #: Verdict of the sync-preserving prediction pass (``None`` when
    #: prediction was off or the cycle never reached it).
    prediction: Optional[CyclePrediction] = None

    @property
    def gs_vertices(self) -> Optional[int]:
        return self.generator.gs.num_vertices() if self.generator else None

    @property
    def certificate_demoted(self) -> bool:
        """True when this cycle was CERTIFIED but its witness replay
        diverged without hitting: the certificate was void for this
        program (untracked synchronization — the §4.4 limitation) and the
        classification fell back to the plain replay outcome."""
        return (
            self.prediction is not None
            and self.prediction.verdict is PredictionVerdict.CERTIFIED
            and self.replay is not None
            and not self.replay.reproduced
            and self.replay.witness_diverged
        )

    def pretty(self) -> str:
        extra = ""
        if self.classification is Classification.FALSE_PRUNER and self.prune:
            extra = f" — {self.prune.reason}"
        elif (
            self.classification is Classification.FALSE_PREDICTION
            and self.prediction
        ):
            extra = f" — {self.prediction.reason}"
        elif (
            self.classification is Classification.CONFIRMED_PREDICTED
            and self.prediction
        ):
            extra = f" — {self.prediction.reason}"
        elif self.classification is Classification.CONFIRMED and self.replay:
            extra = f" — reproduced in {self.replay.attempts} attempt(s)"
        if self.certificate_demoted:
            extra += " [certificate demoted: witness diverged]"
        return f"[{self.classification.value}] {self.cycle.pretty()}{extra}"


@dataclass
class FaultRecord:
    """One supervised task that failed for good (retries exhausted).

    The pipeline records the fault and keeps going: a failed detection
    seed contributes no cycles, a failed replay leaves its cycle
    ``UNKNOWN`` — the report always arrives (see
    :mod:`repro.core.parallel`).
    """

    #: Which pipeline stage failed: ``"detect"`` or ``"replay"``.
    kind: str
    #: Stable identity of the work unit: ``"seed:N"`` for detection,
    #: ``"cycle:<sorted sites>"`` for replay.
    key: str
    #: Failure class: ``"error"`` / ``"timeout"`` / ``"crashed"``.
    failure: str
    error_type: str = ""
    message: str = ""
    #: Retries consumed before quarantine.
    retries: int = 0
    elapsed_s: float = 0.0

    def pretty(self) -> str:
        return (
            f"[{self.failure}] {self.kind} {self.key}: {self.error_type} "
            f"(after {self.retries} retr{'y' if self.retries == 1 else 'ies'})"
        )


@dataclass
class DefectReport:
    """All cycles sharing one set of deadlocking source locations."""

    key: FrozenSet[Site]
    cycles: List[CycleReport] = field(default_factory=list)

    @property
    def classification(self) -> Classification:
        """Defect-level verdict: confirmed if *any* cycle reproduced
        (one deadlocking execution proves the source locations defective,
        §4.3) — an executed reproduction outranks a predicted one; false
        only if *every* cycle is false; otherwise unknown."""
        classes = [c.classification for c in self.cycles]
        if Classification.CONFIRMED in classes:
            return Classification.CONFIRMED
        if Classification.CONFIRMED_PREDICTED in classes:
            return Classification.CONFIRMED_PREDICTED
        if all(c.is_false for c in classes):
            # Attribute to the earliest stage that eliminated all of them.
            if all(c is Classification.FALSE_PRUNER for c in classes):
                return Classification.FALSE_PRUNER
            if all(
                c in (Classification.FALSE_PRUNER, Classification.FALSE_GENERATOR)
                for c in classes
            ):
                return Classification.FALSE_GENERATOR
            return Classification.FALSE_PREDICTION
        return Classification.UNKNOWN

    @property
    def sites(self) -> FrozenSet[Site]:
        return self.key

    def pretty(self) -> str:
        sites = ", ".join(sorted(self.key))
        return f"defect at {{{sites}}}: {self.classification.value} ({len(self.cycles)} cycle(s))"


@dataclass
class WolfReport:
    """End-to-end pipeline output for one program."""

    program: str
    seeds: List[int]
    detections: List[DetectionResult] = field(default_factory=list)
    cycle_reports: List[CycleReport] = field(default_factory=list)
    #: Aggregate task-seconds per stage (summed across workers, so with
    #: ``workers > 1`` the stage values can exceed wall time), plus a
    #: ``"wall"`` key holding the whole pipeline's wall-clock seconds.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Effective worker-process count the pipeline ran with (1 = serial,
    #: including the fallback for un-picklable programs).
    workers: int = 1
    #: Tasks that failed past their retry budget (quarantined), recorded
    #: instead of aborting the run.
    faults: List[FaultRecord] = field(default_factory=list)
    #: Why the execution engine ran (or finished) in-process despite
    #: ``workers > 1`` — un-picklable program, or repeated pool breakage
    #: mid-run ("" when nothing degraded).
    fallback_reason: str = ""
    #: Trace/graph well-formedness violations found by the sanitizer
    #: (populated only with ``WolfConfig.sanitize``; [] = clean).
    sanitizer: List["SanitizerDiagnostic"] = field(default_factory=list)
    #: Analysis backend (``"python"``/``"native"``) that on-disk
    #: ``.wtrc`` analysis resolves to on this host — attribution for
    #: benchmark artifacts; classifications are backend-independent (the
    #: differential suite proves it).
    backend: str = "python"
    #: Native kernel version (``None`` on the pure-Python backend).
    kernel: Optional[str] = None
    #: Prediction mode the pipeline ran with (``"off"``/``"filter"``/
    #: ``"certify"``) — prediction fields appear in the summary and JSON
    #: only when it is not ``"off"``, keeping default output byte-stable.
    predict: str = "off"

    # -- aggregation --------------------------------------------------------

    @property
    def defects(self) -> List[DefectReport]:
        grouped: Dict[FrozenSet[Site], DefectReport] = {}
        for cr in self.cycle_reports:
            key = cr.cycle.defect_key
            grouped.setdefault(key, DefectReport(key=key)).cycles.append(cr)
        return list(grouped.values())

    def count_cycles(self, classification: Classification) -> int:
        return sum(
            1 for c in self.cycle_reports if c.classification is classification
        )

    def count_defects(self, classification: Classification) -> int:
        return sum(1 for d in self.defects if d.classification is classification)

    @property
    def n_cycles(self) -> int:
        return len(self.cycle_reports)

    @property
    def n_defects(self) -> int:
        return len(self.defects)

    @property
    def n_faults(self) -> int:
        return len(self.faults)

    @property
    def n_diagnostics(self) -> int:
        return len(self.sanitizer)

    def count_faults(self, failure: Optional[str] = None) -> int:
        if failure is None:
            return len(self.faults)
        return sum(1 for f in self.faults if f.failure == failure)

    # -- prediction ---------------------------------------------------------

    def count_predictions(self, verdict: PredictionVerdict) -> int:
        return sum(
            1
            for c in self.cycle_reports
            if c.prediction is not None and c.prediction.verdict is verdict
        )

    @property
    def n_predicted(self) -> int:
        """Cycles the prediction pass examined (Generator survivors)."""
        return sum(1 for c in self.cycle_reports if c.prediction is not None)

    @property
    def n_demoted_certificates(self) -> int:
        return sum(1 for c in self.cycle_reports if c.certificate_demoted)

    @property
    def decided_ratio(self) -> Optional[float]:
        """Fraction of examined cycles decided without replay
        (CERTIFIED + REFUTED over examined); ``None`` when prediction was
        off or saw no cycles."""
        n = self.n_predicted
        if not n:
            return None
        decided = self.count_predictions(
            PredictionVerdict.CERTIFIED
        ) + self.count_predictions(PredictionVerdict.REFUTED)
        return decided / n

    @property
    def prediction_disagreements(self) -> int:
        """Soundness-gate violations visible in this report: CERTIFIED
        cycles whose witness replay exhausted every attempt with no hit
        *and* no detected divergence (a certificate that should have
        reproduced), plus REFUTED cycles that somehow carry a reproduced
        replay.  Always 0 for a sound predictor."""
        bad = 0
        for c in self.cycle_reports:
            if c.prediction is None:
                continue
            if (
                c.prediction.verdict is PredictionVerdict.CERTIFIED
                and c.replay is not None
                and not c.replay.reproduced
                and not c.replay.witness_diverged
            ):
                bad += 1
            if (
                c.prediction.verdict is PredictionVerdict.REFUTED
                and c.replay is not None
                and c.replay.reproduced
            ):
                bad += 1
        return bad

    @property
    def avg_gs_vertices(self) -> Optional[float]:
        sizes = [c.gs_vertices for c in self.cycle_reports if c.gs_vertices]
        return sum(sizes) / len(sizes) if sizes else None

    # -- timing ---------------------------------------------------------------

    @property
    def aggregate_s(self) -> float:
        """Total task-seconds across all stages and workers."""
        return sum(v for k, v in self.timings.items() if k != "wall")

    @property
    def wall_s(self) -> Optional[float]:
        return self.timings.get("wall")

    @property
    def speedup(self) -> Optional[float]:
        """Aggregate-over-wall ratio: >1 means the pipeline overlapped
        stage work across workers (observable parallelism)."""
        wall = self.wall_s
        if not wall:
            return None
        return self.aggregate_s / wall

    # -- presentation ---------------------------------------------------------

    def to_json(self) -> str:
        """Machine-readable report (for dashboards/CI): per-cycle and
        per-defect verdicts plus stage timings."""
        import json

        def cycle_row(cr: CycleReport) -> dict:
            d = {
                "sites": sorted(cr.cycle.sites),
                "threads": [t.pretty() for t in cr.cycle.threads],
                "classification": cr.classification.value,
                "gs_vertices": cr.gs_vertices,
            }
            if cr.replay is not None:
                d["replay"] = {
                    "attempts": cr.replay.attempts,
                    "hits": cr.replay.hits,
                    "hit_rate": cr.replay.hit_rate,
                    "forced_releases": cr.replay.forced_releases,
                }
                if self.predict != "off":
                    d["replay"]["witness_diverged"] = cr.replay.witness_diverged
            if cr.prune is not None and cr.prune.pruned:
                d["prune_reason"] = cr.prune.reason
            if cr.prediction is not None:
                d["prediction"] = {
                    "verdict": cr.prediction.verdict.value,
                    "reason": cr.prediction.reason,
                    "promoted": cr.prediction.promoted,
                    "demoted": cr.certificate_demoted,
                }
            return d

        doc = {
            "program": self.program,
            "seeds": self.seeds,
            "cycles": [cycle_row(cr) for cr in self.cycle_reports],
                "defects": [
                    {
                        "sites": sorted(d.key),
                        "classification": d.classification.value,
                        "n_cycles": len(d.cycles),
                    }
                    for d in self.defects
                ],
                "faults": [
                    {
                        "kind": f.kind,
                        "key": f.key,
                        "failure": f.failure,
                        "error_type": f.error_type,
                        "retries": f.retries,
                        "elapsed_s": f.elapsed_s,
                    }
                    for f in self.faults
                ],
                "sanitizer": [d.to_dict() for d in self.sanitizer],
                "timings": self.timings,
                "workers": self.workers,
                "backend": self.backend,
                "kernel": self.kernel,
                "fallback_reason": self.fallback_reason,
        }
        if self.predict != "off":
            doc["predict"] = self.predict
            doc["prediction"] = {
                "examined": self.n_predicted,
                "certified": self.count_predictions(PredictionVerdict.CERTIFIED),
                "refuted": self.count_predictions(PredictionVerdict.REFUTED),
                "undecided": self.count_predictions(PredictionVerdict.UNDECIDED),
                "decided_ratio": self.decided_ratio,
                "demoted": self.n_demoted_certificates,
                "disagreements": self.prediction_disagreements,
            }
        return json.dumps(doc, indent=2)

    def summary(self) -> str:
        n, nd = self.n_cycles, self.n_defects
        lines = [
            f"WOLF report for {self.program!r} (seeds {self.seeds})",
            f"  cycles detected : {n}",
            f"    false (pruner)    : "
            f"{percent(self.count_cycles(Classification.FALSE_PRUNER), n)}",
            f"    false (generator) : "
            f"{percent(self.count_cycles(Classification.FALSE_GENERATOR), n)}",
        ]
        if self.predict != "off":
            lines += [
                f"    false (prediction): "
                f"{percent(self.count_cycles(Classification.FALSE_PREDICTION), n)}",
                f"    confirmed (pred.) : "
                f"{percent(self.count_cycles(Classification.CONFIRMED_PREDICTED), n)}",
            ]
        lines += [
            f"    confirmed         : "
            f"{percent(self.count_cycles(Classification.CONFIRMED), n)}",
            f"    unknown           : "
            f"{percent(self.count_cycles(Classification.UNKNOWN), n)}",
            f"  defects (unique source locations) : {nd}",
            f"    false     : "
            f"{percent(self.count_defects(Classification.FALSE_PRUNER) + self.count_defects(Classification.FALSE_GENERATOR) + self.count_defects(Classification.FALSE_PREDICTION), nd)}",
            f"    confirmed : {percent(self.count_defects(Classification.CONFIRMED) + self.count_defects(Classification.CONFIRMED_PREDICTED), nd)}",
            f"    unknown   : {percent(self.count_defects(Classification.UNKNOWN), nd)}",
        ]
        if self.predict != "off":
            ratio = self.decided_ratio
            lines.append(
                f"  prediction ({self.predict}) : "
                f"{self.count_predictions(PredictionVerdict.CERTIFIED)} certified, "
                f"{self.count_predictions(PredictionVerdict.REFUTED)} refuted, "
                f"{self.count_predictions(PredictionVerdict.UNDECIDED)} undecided"
                + (f" ({ratio:.0%} decided without replay)" if ratio is not None else "")
            )
            if self.n_demoted_certificates:
                lines.append(
                    f"    demoted certificates (witness diverged) : "
                    f"{self.n_demoted_certificates}"
                )
            if self.prediction_disagreements:
                lines.append(
                    f"    SOUNDNESS DISAGREEMENTS : {self.prediction_disagreements}"
                )
        if self.faults:
            lines.append(
                f"  faults (tasks lost to errors/timeouts/crashes) : "
                f"{self.count_faults('error')} error, "
                f"{self.count_faults('timeout')} timeout, "
                f"{self.count_faults('crashed')} crashed"
            )
            for f in self.faults:
                lines.append(f"    - {f.pretty()}")
        if self.sanitizer:
            lines.append(
                f"  sanitizer diagnostics (trace/graph invariants) : "
                f"{len(self.sanitizer)}"
            )
            for d in self.sanitizer:
                lines.append(f"    - {d.pretty()}")
        if self.fallback_reason:
            lines.append(f"  degraded : {self.fallback_reason}")
        if self.wall_s:
            lines.append(
                f"  timing : {self.wall_s:.2f}s wall, "
                f"{self.aggregate_s:.2f}s aggregate "
                f"({self.speedup:.1f}x overlap, {self.workers} worker(s))"
            )
        for d in self.defects:
            lines.append(f"  - {d.pretty()}")
        return "\n".join(lines)
