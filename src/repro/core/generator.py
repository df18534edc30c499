"""The Generator (paper §3.4): build ``Gs`` per cycle, classify cyclic
ones as false positives, hand acyclic ones to the Replayer."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

from repro.core.detector import PotentialDeadlock
from repro.core.lockdep import LockDependencyRelation
from repro.core.syncgraph import GsVertex, SyncGraph, SyncGraphBuilder


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

    @cached_property
    def gs_cycle(self) -> Optional[List[GsVertex]]:
        """A witness ordering cycle in Gs when verdict is FALSE, named on
        first read (it mints the graph's vertices)."""
        return self.gs.find_cycle() if self.verdict is GeneratorVerdict.FALSE else None


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
    """Algorithm 3 driver over the Pruner's survivors.

    The relation's :class:`~repro.core.lockdep.AcquisitionTables` are
    built on the first cycle examined and shared by the rest: the kernel
    snapshot's for a native relation (which never materializes), an
    interning view of the entries otherwise.  Each ``Gs`` is decided on
    ints as it is built; no :class:`GsVertex` exists until a view of it
    is read.
    """

    def __init__(self, relation: LockDependencyRelation) -> None:
        self.relation = relation
        self._builder: Optional[SyncGraphBuilder] = None

    def examine(self, cycle: PotentialDeadlock) -> GeneratorDecision:
        if self._builder is None:
            self._builder = SyncGraphBuilder(self.relation.acquisition_tables())
        gs = self._builder.build(cycle)
        verdict = GeneratorVerdict.FALSE if gs.is_cyclic() else GeneratorVerdict.UNKNOWN
        return GeneratorDecision(cycle=cycle, verdict=verdict, gs=gs)

    def run(self, cycles: List[PotentialDeadlock]) -> GeneratorResult:
        return GeneratorResult([self.examine(c) for c in cycles])
