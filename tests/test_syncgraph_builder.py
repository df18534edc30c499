"""The integer ``Gs`` builder, on both backends, against the reference.

The Generator decides every cycle's ``Gs`` on integers: the kernel does
on a kernel-backed relation (``wk_decide_gs``), and
:meth:`~repro.core.syncgraph.SyncGraphBuilder.decide` does on any other,
over the relation's :class:`~repro.core.lockdep.AcquisitionTables`.  A
decision builds its graph whole (:meth:`SyncGraphBuilder.build`) only
when it is read; a native relation is materialized for that.  Every
graph must reproduce the object-level builder in
``tests/gsreference.py``: node, successor and predecessor order, edge
kinds, ``by_index``, the ordering cycle of a Generator-FALSE decision,
and the names of the objects each vertex first appeared with.  Inputs:
the registry traces, the committed corpus, the crafted alias files,
seeded dense nested-lock traces and hypothesis relations.  Decisions of
a native detection cross process boundaries like any other.

The three ways to decide agree: the kernel's verdict,
:meth:`SyncGraphBuilder.decide` and ``build(cycle).is_cyclic()`` on the
same relation, for every cycle of the corpus, the registry at detection
seeds 0-1, the crafted alias files (one repeats a site string in its
string table), dense and long nested-lock traces, a loop-heavy trace
and hypothesis relations, which reach the kernel encoded as a
snapshot's logs; known answers cover a Generator-FALSE cycle, a held
acquisition with no entry of its own and two entries sharing a vertex
(where ``decide`` gives up its contraction).  No report builds a graph:
a native report builds no tables either.

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
from array import array
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from benchmarks.bench_core_micro import synthetic_events
from repro.core.detector import ExtendedDetector, PotentialDeadlock, find_cycles
from repro.core.generator import Generator, GeneratorVerdict
from repro.core.lockdep import LockDepEntry, LockDependencyRelation
from repro.core.nativekernel import (
    NativeRelation,
    analyze_trace_file,
    decide_gs,
    kernel_available,
)
from repro.core.syncgraph import SyncGraphBuilder
from repro.runtime.events import Trace
from repro.runtime.tracefile import write_trace
from repro.serve.report import defect_report_doc, render_report, report_doc_for_file
from repro.util.ids import ExecIndex, LockId, ThreadId
from tests.crafted import (
    lock_alias_trace,
    nested_lock_trace,
    site_alias_trace,
    thread_alias_trace,
)
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
    assert all("gs" not in vars(d) for d in decisions), label
    false = 0
    for dec in decisions:
        ref = reference_sync_graph(dec.cycle, relation)
        assert_matches_reference(dec.gs, ref)
        assert names(dec.gs.vertices) == names(ref.graph.nodes()), label
        assert dec.gs_cycle == ref.graph.find_cycle(), label
        assert (dec.verdict is GeneratorVerdict.FALSE) == ref.graph.has_cycle(), label
        false += dec.verdict is GeneratorVerdict.FALSE
    return false


def check_kernel(relation, cycles, label=""):
    """The kernel's verdict for each cycle, the builder's :meth:`decide`
    and its built graph's ``is_cyclic()`` agree on the same relation;
    returns how many are cyclic.  A kernel-backed relation decides in the
    Generator; any other relation is first encoded as a snapshot's logs
    (:func:`encode`)."""
    cycles = list(cycles)
    if isinstance(relation, NativeRelation):
        got = [
            d.verdict is GeneratorVerdict.FALSE
            for d in Generator(relation).run(cycles).decisions
        ]
    else:
        got = decide_gs(*encode(relation, cycles))
    builder = SyncGraphBuilder(relation.acquisition_tables())
    decided = [builder.decide(c) for c in cycles]
    built = [builder.build(c).is_cyclic() for c in cycles]
    assert got == decided == built, label
    return sum(got)


class _Rows:
    """Table rows by ``(value, name)``, so values repeated under other
    names get rows of their own, with each row's canonical row (the first
    row of an equal value)."""

    def __init__(self) -> None:
        self.rows: dict = {}
        self.first: dict = {}
        self.canon = array("q")

    def __call__(self, value) -> int:
        key = (value, getattr(value, "name", None))
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = len(self.canon)
            self.canon.append(self.first.setdefault(value, row))
        return row


def encode(relation, cycles):
    """:func:`decide_gs`'s arguments for ``relation``: its entries as an
    entry log and held pool in the snapshot's layout, the canonical maps
    of its threads, locks and strings, and each cycle's member rows."""
    threads, locks, strings = _Rows(), _Rows(), _Rows()
    ent, held = array("q"), array("q")
    for e in relation.entries:
        ix = e.index
        ent.extend(
            (e.step, threads(e.thread), locks(e.lock), threads(ix.thread))
            + (strings(ix.site), ix.occ, e.tau, e.pos, len(e.lockset), len(held) // 4)
        )
        for lock, h in zip(e.lockset, e.context, strict=True):
            held.extend((locks(lock), threads(h.thread), strings(h.site), h.occ))
    row_of = {id(e): row for row, e in enumerate(relation.entries)}
    rows = [[row_of[id(e)] for e in c.entries] for c in cycles]
    return ent, held, threads.canon, locks.canon, strings.canon, rows


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
        site_alias_trace(str(tmp / "site-alias.wtrc")),
    ]


@pytest.fixture(scope="module")
def registry_seed_paths(tmp_path_factory):
    """Every registry program recorded at detection seeds 0 and 1."""
    from repro.core.pipeline import run_detection
    from repro.workloads.registry import all_benchmarks

    tmp = tmp_path_factory.mktemp("gs-registry-seeds")
    out = []
    for b in all_benchmarks():
        for seed in (0, 1):
            run = run_detection(b.program, seed, name=b.name)
            path = str(tmp / f"{b.name}-{seed}.wtrc")
            write_trace(run.trace, path)
            out.append(path)
    return out


@pytest.fixture(scope="module")
def long_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("gs-long")
    out = []
    for seed in DENSE_SEEDS:
        path = str(tmp / f"long-{seed}.wtrc")
        write_trace(nested_lock_trace("long", seed), path)
        out.append(path)
    return out


@pytest.fixture(scope="module")
def loop_heavy_path(tmp_path_factory):
    """A 20k-event trace whose every iteration takes a nested pair."""
    trace = Trace(program="loop-heavy", seed=0)
    for ev in synthetic_events(20_000, nested_every=1):
        trace.append(ev)
    path = str(tmp_path_factory.mktemp("gs-loop") / "loop-heavy.wtrc")
    write_trace(trace, path)
    return path


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

    def test_kernel_decides_as_the_builder(
        self, registry_seed_paths, crafted_paths, dense_paths, long_paths, loop_heavy_path
    ):
        """The kernel's verdict is the builder's on every cycle of the
        corpus, the registry at detection seeds 0-1, the crafted alias
        files, dense and long nested-lock traces and a loop-heavy trace."""
        false = 0
        paths = CORPUS_TRACES + registry_seed_paths + crafted_paths + dense_paths
        for path in paths + long_paths + [loop_heavy_path]:
            detection = native_detection(path)
            false += check_kernel(detection.relation, detection.cycles, path)
        assert false  # the cyclic branch is exercised
        assert native_detection(loop_heavy_path).cycles

    def test_site_string_under_two_rows(self, crafted_paths):
        """The crafted site-alias file has a Generator-FALSE cycle only
        because its two rows of a site string name one string: mapping
        each string row to itself splits the vertex and loses the cycle."""
        detection = native_detection(crafted_paths[-1])
        snap = detection.relation._snap
        verdicts = detection.relation.gs_cyclic(detection.cycles)
        assert verdicts == [False, False, False, True]
        rows = [[snap._member_rows[snap.first_thread[e.thread], e.pos] for e in c.entries]
                for c in detection.cycles]
        split = array("q", range(len(snap.strings)))
        args = (snap.ent, snap.held, snap.thread_canon, snap.lock_canon)
        assert decide_gs(*args, snap.string_canon, rows) == verdicts
        assert decide_gs(*args, split, rows) == [False] * 4

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(rel=relations())
    def test_hypothesis_relations(self, rel):
        check_kernel(rel, find_cycles(rel, max_length=4)[0])

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(rel=colliding_relations())
    def test_hypothesis_shared_vertices(self, rel):
        check_kernel(rel, find_cycles(rel, max_length=4)[0])

    def test_registry_has_a_generator_false_cycle(self, registry_seed_paths):
        found = 0
        for path in registry_seed_paths:
            detection = native_detection(path)
            for dec in Generator(detection.relation).run(detection.cycles).decisions:
                if dec.verdict is GeneratorVerdict.FALSE:
                    found += 1
                    assert dec.gs.is_cyclic() and dec.gs_cycle, path
        assert found

    def test_known_answers(self):
        """Hand-built relations whose ``Gs`` is worked out by hand:
        ``h -> r`` (program order), ``r -> q`` and ``p -> h`` (earlier
        acquisitions by the other thread) and ``q -> p`` close a cycle.
        Without an entry for ``h`` (a held acquisition with no entry of
        its own) the chain edge ``h -> r`` is gone, and with it the
        cycle; with ``q`` recorded twice under one execution index (two
        entries, one vertex, where the builder's contraction gives up)
        the cycle stays."""
        false = known_relation()
        no_entry = known_relation(drop=("h",))
        shared = known_relation(repeat_q=True)
        assert SyncGraphBuilder(shared.acquisition_tables())._chain_at is None
        for relation, cyclic in ((false, True), (no_entry, False), (shared, True)):
            e1, e2 = relation.entries[-2:]
            cycle = PotentialDeadlock((e1, e2))
            assert decide_gs(*encode(relation, [cycle])) == [cyclic]
            builder = SyncGraphBuilder(relation.acquisition_tables())
            assert builder.decide(cycle) is cyclic
            assert builder.build(cycle).is_cyclic() is cyclic
            held = {ix for e in relation.entries for ix in e.context}
            own = {e.index for e in relation.entries}
            assert (held <= own) is (relation is not no_entry)

    def test_native_report_builds_no_graph(self, dense_paths, monkeypatch):
        """A native report decides every cycle in the kernel: no
        acquisition table, no ``SyncGraphBuilder.build`` call, and the
        bytes of the pure report, which builds its tables to decide but
        no graph either."""
        calls = []
        for owner, name in (
            (LockDependencyRelation, "acquisition_tables"),
            (SyncGraphBuilder, "build"),
        ):
            real = getattr(owner, name)
            monkeypatch.setattr(
                owner,
                name,
                lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k),
            )
        pure_tables = 0
        for path in dense_paths + CORPUS_TRACES:
            native = render_report(report_doc_for_file(path, backend="native"))
            assert calls == [], path
            assert native == render_report(report_doc_for_file(path, backend="python"))
            assert "build" not in calls, path
            pure_tables += calls.count("acquisition_tables")
            calls.clear()
        assert pure_tables  # the pure report decides on its tables

    def test_kernel_decided_graph_is_the_builders(self, dense_paths):
        """A decision's graph, built when read, is the graph the builder
        makes for its cycle, through every view and across pickling."""
        path = _false_bearing_corpus_trace()
        for p in (path, dense_paths[0]):
            detection = native_detection(p)
            decisions = Generator(detection.relation).run(detection.cycles).decisions
            builder = Generator(detection.relation)
            for dec in decisions:
                assert "gs" not in vars(dec)
                want = builder.build(dec.cycle)
                for got in (pickle.loads(pickle.dumps(dec)).gs, dec.gs):
                    assert views(got) == views(want)
                    assert names(got.vertices) == names(want.vertices)
                    assert got.num_vertices() == want.num_vertices()
                    assert got.is_cyclic() is (dec.verdict is GeneratorVerdict.FALSE)
                assert dec.gs_cycle == want.find_cycle()

    def test_report_leaves_relation_unmaterialized(self, dense_paths):
        """The report's tail (Pruner, Generator, prediction) reads the
        kernel's tables: the relation stays unminted and no decision
        holds a graph."""
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
        assert all("gs" not in vars(d) for d in decisions)


def known_relation(*, drop=(), repeat_q=False) -> LockDependencyRelation:
    """T1 takes A at h and, holding it, B at r; T2 takes B at q and,
    holding it, A at p; then T1 (holding A from h) wants B at e1 and T2
    (holding B from q) wants A at e2.  ``drop`` leaves out entries by
    site; ``repeat_q`` records T2's acquisition at q twice."""
    main = ThreadId.root()
    t1, t2 = (ThreadId(main, "known:spawn", i, name=f"T{i + 1}") for i in range(2))
    a, b = (LockId(main, "known:lock", i, name=n) for i, n in enumerate("AB"))
    h, q = ExecIndex(t1, "h", 1), ExecIndex(t2, "q", 1)
    rows = [
        (t1, "h", a, ()),
        (t1, "r", b, ((a, h),)),
        (t2, "q", b, ()),
        *([(t2, "q", b, ())] if repeat_q else []),
        (t2, "p", a, ((b, q),)),
        (t1, "e1", b, ((a, h),)),
        (t2, "e2", a, ((b, q),)),
    ]
    relation = LockDependencyRelation()
    pos: dict = {}
    for step, (t, site, lock, held) in enumerate(rows):
        if site in drop:
            continue
        relation.add(
            LockDepEntry(
                thread=t,
                lockset=tuple(l for l, _ in held),
                lock=lock,
                context=tuple(ix for _, ix in held),
                index=ExecIndex(t, site, 1),
                tau=1,
                step=step,
                pos=pos.setdefault(t, 0),
            )
        )
        pos[t] += 1
    return relation


# ---------------------------------------------------------------------------
# process boundary
# ---------------------------------------------------------------------------


def native_decisions(path: str):
    """Every cycle of ``path`` through the Generator on a native
    detection."""
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
        unbuilt decisions and finds the views of its own fresh build."""
        path = _false_bearing_corpus_trace()
        decisions = native_decisions(path)
        payload = pickle.dumps(decisions)  # builds each graph
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
