"""The integer ``Gs`` builder, fed by both adapters, against the reference.

The Generator builds ``Gs`` with :class:`~repro.core.syncgraph.
SyncGraphBuilder` over a trace's
:class:`~repro.core.lockdep.AcquisitionTables`, which come from two
adapters: an interning view of a :class:`~repro.core.lockdep.
LockDependencyRelation` (in-memory traces and the pure backend) and the
native kernel's entry log, which never materializes
the relation.  Both must reproduce the object-level builder in
``tests/gsreference.py``: node, successor and predecessor order, edge
kinds, ``by_index``, the ordering cycle of a Generator-FALSE decision,
and the names of the objects each vertex first appeared with.  Inputs:
the registry traces, the committed corpus, the crafted alias files,
seeded dense nested-lock traces and hypothesis relations.  Decisions built
from the kernel's tables cross process boundaries like any other.

The relation-adapter tests run everywhere; the kernel-adapter tests skip
where the kernel cannot load (the pure-Python CI leg).
"""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.core.detector import ExtendedDetector, find_cycles
from repro.core.generator import Generator, GeneratorVerdict
from repro.core.lockdep import LockDependencyRelation
from repro.core.nativekernel import NativeRelation, analyze_trace_file, kernel_available
from repro.runtime.tracefile import write_trace
from repro.serve.report import defect_report_doc
from repro.util.ids import ExecIndex
from tests.crafted import lock_alias_trace, nested_lock_trace, thread_alias_trace
from tests.gsreference import reference_sync_graph
from tests.test_cycle_search import relations
from tests.test_syncgraph_differential import assert_matches_reference, views

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_TRACES = sorted(str(p) for p in (REPO_ROOT / "corpus").glob("*.wtrc"))
DENSE_SEEDS = (1, 2, 3, 4)

needs_kernel = pytest.mark.skipif(
    not kernel_available(), reason="native kernel unavailable on this host"
)


def names(vertices):
    """What vertex equality ignores: the names of its thread and lock."""
    return [(v.thread.name, v.lock.name) for v in vertices]


def check_decisions(relation, cycles, label=""):
    """The Generator's decisions over ``relation`` match the reference
    builder cycle by cycle; returns how many were Generator-FALSE.

    The reference reads the relation's object indexes, so it runs after
    the Generator (a native relation materializes there)."""
    decisions = Generator(relation).run(list(cycles)).decisions
    assert all("vertices" not in vars(d.gs) for d in decisions), label
    n_vertices = [d.gs.num_vertices() for d in decisions]
    false = 0
    for dec, n in zip(decisions, n_vertices, strict=True):
        ref = reference_sync_graph(dec.cycle, relation)
        assert_matches_reference(dec.gs, ref)
        assert names(dec.gs.vertices) == names(ref.graph.nodes()), label
        assert n == len(dec.gs.vertices), label
        assert dec.gs_cycle == ref.graph.find_cycle(), label
        assert (dec.verdict is GeneratorVerdict.FALSE) == ref.graph.has_cycle(), label
        false += dec.verdict is GeneratorVerdict.FALSE
    return false


def native_detection(path: str):
    detection = analyze_trace_file(path, backend="native").detection
    assert isinstance(detection.relation, NativeRelation)
    return detection


def pure_detection(path: str):
    return analyze_trace_file(path, backend="python").detection


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def registry_traces(tmp_path_factory):
    from repro.core.pipeline import run_detection
    from repro.workloads.registry import all_benchmarks

    tmp = tmp_path_factory.mktemp("gs-registry")
    out = []
    for b in all_benchmarks():
        run = run_detection(b.program, b.detect_seed, name=b.name)
        path = str(tmp / f"{b.name}.wtrc")
        write_trace(run.trace, path)
        out.append((b, run.trace, path))
    return out


@pytest.fixture(scope="module")
def crafted_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("gs-crafted")
    return [
        thread_alias_trace(str(tmp / "thread-alias.wtrc")),
        thread_alias_trace(str(tmp / "thread-alias-pos.wtrc"), own_row_locks=3),
        lock_alias_trace(str(tmp / "lock-alias.wtrc")),
    ]


@pytest.fixture(scope="module")
def dense_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("gs-dense")
    out = []
    for seed in DENSE_SEEDS:
        path = str(tmp / f"dense-{seed}.wtrc")
        write_trace(nested_lock_trace("dense", seed), path)
        out.append(path)
    return out


@st.composite
def colliding_relations(draw):
    """Hypothesis relations whose entries may share a vertex: a thread's
    acquisitions of one lock repeat their execution index, so one chain
    can meet a vertex twice."""
    out = LockDependencyRelation()
    for e in draw(relations()):
        index = ExecIndex(e.thread, f"h:acq:{e.lock.seq}", draw(st.integers(0, 2)))
        out.add(dataclasses.replace(e, index=index))
    return out


# ---------------------------------------------------------------------------
# relation adapter (runs on the pure-Python leg too)
# ---------------------------------------------------------------------------


class TestRelationAdapter:
    def test_registry(self, registry_traces):
        false = 0
        for b, trace, _ in registry_traces:
            detection = ExtendedDetector(max_length=b.max_cycle_length).analyze(trace)
            false += check_decisions(detection.relation, detection.cycles, b.name)
        assert false  # the cyclic branch is exercised

    def test_corpus(self):
        for path in CORPUS_TRACES:
            detection = pure_detection(path)
            check_decisions(detection.relation, detection.cycles, path)

    def test_crafted_alias_rows(self, crafted_paths):
        for path in crafted_paths:
            detection = pure_detection(path)
            assert detection.cycles, path
            check_decisions(detection.relation, detection.cycles, path)

    def test_dense_nested_locks(self, dense_paths):
        for path in dense_paths:
            detection = pure_detection(path)
            assert detection.cycles, path
            check_decisions(detection.relation, detection.cycles, path)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(rel=relations())
    def test_hypothesis_relations(self, rel):
        """Random relations: aliased names, locksets that repeat a lock or
        hold the wanted one, positions past a thread's list and steps out
        of trace order."""
        check_decisions(rel, find_cycles(rel, max_length=4)[0])

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(rel=colliding_relations())
    def test_hypothesis_shared_vertices(self, rel):
        check_decisions(rel, find_cycles(rel, max_length=4)[0])


# ---------------------------------------------------------------------------
# kernel adapter
# ---------------------------------------------------------------------------


@needs_kernel
class TestKernelAdapter:
    def test_registry(self, registry_traces):
        for b, _, path in registry_traces:
            detection = native_detection(path)
            check_decisions(detection.relation, detection.cycles, b.name)

    def test_corpus(self):
        false = 0
        for path in CORPUS_TRACES:
            detection = native_detection(path)
            false += check_decisions(detection.relation, detection.cycles, path)
        assert false

    def test_crafted_alias_rows(self, crafted_paths):
        for path in crafted_paths:
            detection = native_detection(path)
            assert detection.cycles, path
            check_decisions(detection.relation, detection.cycles, path)

    def test_dense_nested_locks(self, dense_paths):
        for path in dense_paths:
            detection = native_detection(path)
            check_decisions(detection.relation, detection.cycles, path)

    def test_held_acquisition_without_entry(self):
        """A held acquisition need not be in ``D_sigma``: the corpus holds
        such acquisitions, and their vertices key by value, not by row."""
        found = 0
        for path in CORPUS_TRACES:
            detection = native_detection(path)
            indices = {e.index for e in detection.relation.entries}
            for cycle in detection.cycles:
                for e in cycle.entries:
                    found += sum(ix not in indices for ix in e.context)
        assert found

    def test_report_leaves_relation_unmaterialized(self, dense_paths):
        """The report's tail (Pruner, Generator, prediction) reads the
        kernel's tables: the relation and every Gs vertex stay unminted."""
        decisions = []
        real_run = Generator.run

        def spy(self, cycles):
            result = real_run(self, cycles)
            decisions.extend(result.decisions)
            return result

        for path in dense_paths:
            analysis = analyze_trace_file(path, backend="native")
            detection = analysis.detection
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Generator, "run", spy)
                doc = defect_report_doc(
                    detection,
                    program=analysis.program,
                    seed=analysis.seed,
                    events=analysis.events,
                    trace_path=path,
                )
            assert doc["replay_candidates"] > 0, path
            assert "entries" not in detection.relation.__dict__, path
        assert decisions
        assert all("vertices" not in vars(d.gs) for d in decisions)


# ---------------------------------------------------------------------------
# process boundary
# ---------------------------------------------------------------------------


def native_decisions(path: str):
    """Every cycle of ``path`` through the Generator on the kernel's
    tables."""
    detection = native_detection(path)
    return Generator(detection.relation).run(list(detection.cycles)).decisions


def _false_bearing_corpus_trace() -> str:
    return next(
        path
        for path in CORPUS_TRACES
        if any(d.verdict is GeneratorVerdict.FALSE for d in native_decisions(path))
    )


@needs_kernel
class TestProcessBoundary:
    def test_pickle_and_deepcopy_keep_views(self):
        path = _false_bearing_corpus_trace()
        for dec in native_decisions(path):
            dups = [pickle.loads(pickle.dumps(dec)), copy.deepcopy(dec)]
            before = views(dec.gs)
            for dup in dups:
                assert set(vars(dup.gs)) == {"cycle", "vertices", "edges", "_ids"}
                assert views(dup.gs) == before
                assert names(dup.gs.vertices) == names(dec.gs.vertices)
                assert dup.gs_cycle == dec.gs_cycle
                for i, v in enumerate(dup.gs.vertices):
                    assert dup.gs._intern(v.index, v.lock) == i

    def test_unpickled_in_another_hash_seed(self):
        """A child interpreter with another ``PYTHONHASHSEED`` unpickles
        unminted decisions and finds the views of its own fresh build."""
        path = _false_bearing_corpus_trace()
        decisions = native_decisions(path)
        payload = pickle.dumps(decisions)  # mints each graph's vertices
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join([src, str(REPO_ROOT)])
        child = (
            "import pickle, sys\n"
            "from tests.test_syncgraph_builder import names, native_decisions\n"
            "from tests.test_syncgraph_differential import views\n"
            "got = pickle.loads(sys.stdin.buffer.read())\n"
            f"fresh = native_decisions({path!r})\n"
            "for a, b in zip(got, fresh, strict=True):\n"
            "    assert views(a.gs) == views(b.gs)\n"
            "    assert names(a.gs.vertices) == names(b.gs.vertices)\n"
            "    assert a.gs_cycle == b.gs_cycle and a.verdict is b.verdict\n"
            "print(len(got), sum(d.gs_cycle is not None for d in got))\n"
            "print(hash('probe'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", child],
            input=payload,
            env=env,
            capture_output=True,
            check=True,
            timeout=300,
        )
        counts, probe = out.stdout.decode().strip().splitlines()
        assert int(probe) != hash("probe"), "child shared the hash seed"
        n, cyclic = map(int, counts.split())
        assert n == len(decisions) and cyclic > 0
