"""The Generator (paper §3.4): decide ``Gs`` per cycle, classify cyclic
ones as false positives, hand acyclic ones to the Replayer.

On a kernel-backed relation the kernel decides every cycle's ``Gs`` in
one call per trace (:meth:`~repro.core.lockdep.LockDependencyRelation.
gs_cyclic`), and a decision's ``gs`` is built by the Python builder only
when something reads it (the Replayer, the sanitizer, :attr:`gs_cycle`,
the dot export, ``num_vertices``, pickling).  Elsewhere the builder
builds and decides each ``Gs`` as the reference."""

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

    @classmethod
    def _decided(
        cls, cycle: PotentialDeadlock, verdict: GeneratorVerdict, generator: "Generator"
    ) -> "GeneratorDecision":
        """A decision made without its graph: ``generator`` builds ``gs``
        on first read."""
        dec = cls.__new__(cls)
        dec.cycle = cycle
        dec.verdict = verdict
        dec._generator = generator
        return dec

    def __getattr__(self, name: str):
        # Reached only for the gs of a decision made without its graph.
        generator = self.__dict__.get("_generator")
        if name == "gs" and generator is not None:
            self.gs = generator.build(self.cycle)
            del self._generator
            return self.gs
        raise AttributeError(name)

    def __getstate__(self) -> dict:
        return {"cycle": self.cycle, "verdict": self.verdict, "gs": self.gs}

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

    :meth:`run` asks the relation to decide every cycle's ``Gs`` at once
    (:meth:`~repro.core.lockdep.LockDependencyRelation.gs_cyclic`): a
    kernel-backed relation does, in the kernel, and its decisions build
    their graphs only when read.  Otherwise each ``Gs`` is built and
    decided by :class:`SyncGraphBuilder` on the relation's
    :class:`~repro.core.lockdep.AcquisitionTables`, made on the first
    build and shared by the rest.  No :class:`GsVertex` exists until a
    view of a graph is read.
    """

    def __init__(self, relation: LockDependencyRelation) -> None:
        self.relation = relation
        self._builder: Optional[SyncGraphBuilder] = None

    def build(self, cycle: PotentialDeadlock) -> SyncGraph:
        """``Gs`` for ``cycle``, built and decided in Python."""
        if self._builder is None:
            self._builder = SyncGraphBuilder(self.relation.acquisition_tables())
        return self._builder.build(cycle)

    def examine(self, cycle: PotentialDeadlock) -> GeneratorDecision:
        gs = self.build(cycle)
        verdict = GeneratorVerdict.FALSE if gs.is_cyclic() else GeneratorVerdict.UNKNOWN
        return GeneratorDecision(cycle=cycle, verdict=verdict, gs=gs)

    def run(self, cycles: List[PotentialDeadlock]) -> GeneratorResult:
        cyclic = self.relation.gs_cyclic(cycles)
        if cyclic is None:
            return GeneratorResult([self.examine(c) for c in cycles])
        return GeneratorResult(
            [
                GeneratorDecision._decided(
                    c,
                    GeneratorVerdict.FALSE if x else GeneratorVerdict.UNKNOWN,
                    self,
                )
                for c, x in zip(cycles, cyclic, strict=True)
            ]
        )
