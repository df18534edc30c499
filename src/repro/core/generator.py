"""The Generator (paper §3.4): build ``Gs`` per cycle, classify cyclic
ones as false positives, hand acyclic ones to the Replayer."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.detector import PotentialDeadlock
from repro.core.lockdep import LockDependencyRelation
from repro.core.syncgraph import SyncGraph, build_sync_graph


class GeneratorVerdict(enum.Enum):
    #: ``Gs`` is cyclic: no schedule over this trace manifests the
    #: deadlock — false positive.
    FALSE = "false"
    #: ``Gs`` is acyclic: potentially reproducible; replay next.
    UNKNOWN = "unknown"


@dataclass
class GeneratorDecision:
    cycle: PotentialDeadlock
    verdict: GeneratorVerdict
    gs: SyncGraph
    #: A witness ordering cycle in Gs when verdict is FALSE.
    gs_cycle: Optional[list] = None


@dataclass
class GeneratorResult:
    decisions: List[GeneratorDecision] = field(default_factory=list)

    @property
    def false_positives(self) -> List[GeneratorDecision]:
        return [d for d in self.decisions if d.verdict is GeneratorVerdict.FALSE]

    @property
    def survivors(self) -> List[GeneratorDecision]:
        return [d for d in self.decisions if d.verdict is GeneratorVerdict.UNKNOWN]


class Generator:
    """Algorithm 3 driver over the Pruner's survivors."""

    def __init__(self, relation: LockDependencyRelation) -> None:
        self.relation = relation

    def examine(self, cycle: PotentialDeadlock) -> GeneratorDecision:
        gs = build_sync_graph(cycle, self.relation)
        # Decided on the int edge table; the object graph is built only
        # for a cyclic Gs, to name the ordering cycle.
        ordering_cycle = gs.find_cycle()
        verdict = (
            GeneratorVerdict.FALSE
            if ordering_cycle is not None
            else GeneratorVerdict.UNKNOWN
        )
        return GeneratorDecision(
            cycle=cycle, verdict=verdict, gs=gs, gs_cycle=ordering_cycle
        )

    def run(self, cycles: List[PotentialDeadlock]) -> GeneratorResult:
        return GeneratorResult([self.examine(c) for c in cycles])
