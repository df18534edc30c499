"""The Generator (paper §3.4): decide ``Gs`` per cycle, classify cyclic
ones as false positives, hand acyclic ones to the Replayer.

Every verdict is decided on integers: by the kernel on a kernel-backed
relation (:meth:`~repro.core.lockdep.LockDependencyRelation.gs_cyclic`,
one call per trace), else by :meth:`SyncGraphBuilder.decide`.  A
decision's ``gs`` is built whole when something reads it (the Replayer,
the sanitizer, :attr:`gs_cycle`, the dot export, ``num_vertices``,
pickling); a defect report reads none."""

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
    """One cycle's verdict; its ``gs`` is built by the generator that
    decided it on first read, and travels with it when pickled."""

    cycle: PotentialDeadlock
    verdict: GeneratorVerdict
    _generator: "Generator" = field(repr=False, compare=False)

    @cached_property
    def gs(self) -> SyncGraph:
        return self._generator.build(self.cycle)

    def __getstate__(self) -> dict:
        return {"cycle": self.cycle, "verdict": self.verdict, "gs": self.gs}

    @cached_property
    def gs_cycle(self) -> Optional[List[GsVertex]]:
        """A witness ordering cycle in Gs when verdict is FALSE."""
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

    :meth:`run` asks the relation to decide every cycle's ``Gs`` at once
    (:meth:`~repro.core.lockdep.LockDependencyRelation.gs_cyclic`); a
    kernel-backed relation does, in the kernel.  Otherwise
    :class:`SyncGraphBuilder` decides each cycle on the relation's
    :class:`~repro.core.lockdep.AcquisitionTables`, made once and shared
    with every graph :meth:`build` makes.
    """

    def __init__(self, relation: LockDependencyRelation) -> None:
        self.relation = relation

    @cached_property
    def _builder(self) -> SyncGraphBuilder:
        return SyncGraphBuilder(self.relation.acquisition_tables())

    def build(self, cycle: PotentialDeadlock) -> SyncGraph:
        """``Gs`` for ``cycle``, built whole in Python."""
        return self._builder.build(cycle)

    def run(self, cycles: List[PotentialDeadlock]) -> GeneratorResult:
        cyclic = self.relation.gs_cyclic(cycles)
        if cyclic is None:
            cyclic = [self._builder.decide(c) for c in cycles]
        return GeneratorResult(
            [
                GeneratorDecision(
                    c, GeneratorVerdict.FALSE if x else GeneratorVerdict.UNKNOWN, self
                )
                for c, x in zip(cycles, cyclic, strict=True)
            ]
        )
