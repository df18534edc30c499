"""The paper's contribution: detector, Pruner, Generator, Replayer, and
the :class:`Wolf` pipeline tying them together.

Data flow (paper Figure 3)::

    Trace ──> StreamingDetector ──> potential deadlocks (cycles in D_sigma)
                    │                        │
                    └── vector clocks ──> Pruner ──> false positives
                                             │
                                     Generator (Gs) ──> false positives
                                             │
                                         Replayer ──> confirmed / unknown

One detector does the analysis: :class:`StreamingDetector` keeps
``D_sigma`` and the ``(S, J)`` clocks per event and enumerates cycles
once, at the end.  ``.wtrc`` files go through
:func:`repro.core.nativekernel.analyze_trace_file`, the same analysis
with an optional compiled per-event loop.  :class:`ExtendedDetector` and
:class:`BaseDetector` transcribe Algorithm 1 and iGoodLock literally; they
are the test oracle, and the experiments, cross-validation and the
DeadlockFuzzer baseline call them directly.
"""

from repro.core.lockdep import LockDepEntry, LockDependencyRelation
from repro.core.vclock import SJ, VectorClockState, compute_vector_clocks
from repro.core.detector import (
    BaseDetector,
    DetectionResult,
    ExtendedDetector,
    PotentialDeadlock,
)
from repro.core.pruner import Pruner
from repro.core.syncgraph import GsVertex, SyncGraph, build_sync_graph
from repro.core.generator import Generator, GeneratorVerdict
from repro.core.replayer import Replayer, ReplayOutcome, WolfReplayStrategy
from repro.core.avoidance import (
    AvoidancePattern,
    AvoidanceStrategy,
    patterns_from_report,
)
from repro.core.pipeline import Wolf, WolfConfig
from repro.core.prediction import (
    ClosureIndex,
    CyclePrediction,
    PredictionVerdict,
    Predictor,
    WitnessSchedule,
    event_token,
    promote_by_defect,
)
from repro.core.ranking import RankedDefect, rank_defects, render_ranking
from repro.core.reduction import reduce_relation
from repro.core.report import Classification, CycleReport, DefectReport, WolfReport
from repro.core.streaming import StreamingDetector

__all__ = [
    "AvoidancePattern",
    "AvoidanceStrategy",
    "BaseDetector",
    "Classification",
    "ClosureIndex",
    "CyclePrediction",
    "CycleReport",
    "DefectReport",
    "DetectionResult",
    "ExtendedDetector",
    "Generator",
    "GeneratorVerdict",
    "GsVertex",
    "LockDepEntry",
    "LockDependencyRelation",
    "PotentialDeadlock",
    "PredictionVerdict",
    "Predictor",
    "Pruner",
    "RankedDefect",
    "patterns_from_report",
    "rank_defects",
    "reduce_relation",
    "render_ranking",
    "ReplayOutcome",
    "Replayer",
    "SJ",
    "StreamingDetector",
    "SyncGraph",
    "VectorClockState",
    "WitnessSchedule",
    "Wolf",
    "WolfConfig",
    "WolfReport",
    "build_sync_graph",
    "compute_vector_clocks",
    "event_token",
    "promote_by_defect",
]
