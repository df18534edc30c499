"""The integer cycle search against the object DFS it replaced.

:func:`repro.core.detector.find_cycles` runs iGoodLock's DFS over integer
columns (step, canonical thread, canonical lock, lockset), with duplicate
rows collapsed first, fed by two adapters: a
:class:`~repro.core.lockdep.LockDependencyRelation` (the pure path and the
oracle) and the native kernel's logs.  The object DFS it replaced, which
collapses nothing, is kept as the reference in ``tests/cyclereference.py``.
Both adapters must return the reference's cycle entries, in its order,
with its ``truncated`` flag, at caps 1, 2, 3 and uncapped and
``max_length`` 2-4, on the registry traces, the committed corpus, seeded
nested-lock traces, hypothesis relations, a file whose lock table repeats
a ``LockId`` under another name and one whose lockset repeats a lock; and
at caps 1, 2, 3, 5, 17 and uncapped on a loop-heavy relation, where
nearly every row has duplicates.

The relation-adapter tests run everywhere; the kernel-adapter tests skip
where the kernel cannot load (the pure-Python CI leg).
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.nativekernel as nk
from benchmarks.bench_core_micro import synthetic_events
from repro.core.detector import ExtendedDetector, find_cycles
from repro.core.lockdep import LockDepEntry, LockDependencyRelation
from repro.core.nativekernel import NativeRelation, analyze_trace_file, kernel_available
from repro.runtime.events import Trace
from repro.runtime.tracefile import write_trace
from repro.serve.report import report_doc_for_file
from repro.util.ids import ExecIndex, LockId, ThreadId
from tests.crafted import lock_alias_trace, nested_lock_trace, repeated_lock_trace
from tests.cyclereference import reference_find_cycles

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_TRACES = sorted(str(p) for p in (REPO_ROOT / "corpus").glob("*.wtrc"))

CAPS = (1, 2, 3, 10_000)
LOOP_HEAVY_CAPS = (1, 2, 3, 5, 17, 10_000)
LENGTHS = (2, 3, 4)

needs_kernel = pytest.mark.skipif(
    not kernel_available(), reason="native kernel unavailable on this host"
)


def _shape(result):
    """Cycles as entries plus the names equality ignores, and the flag."""
    cycles, truncated = result
    return [
        [
            (e, e.thread.name, e.lock.name, tuple(l.name for l in e.lockset))
            for e in c.entries
        ]
        for c in cycles
    ], truncated


def assert_search_matches(rel, search_rel=None, label="", caps=CAPS):
    """``find_cycles`` over ``search_rel`` (default ``rel``) equals the
    reference DFS over ``rel`` at every cap and length."""
    search_rel = rel if search_rel is None else search_rel
    for max_length in LENGTHS:
        for cap in caps:
            kw = dict(max_length=max_length, max_cycles=cap)
            want = _shape(reference_find_cycles(rel, **kw))
            got = _shape(find_cycles(search_rel, **kw))
            assert got == want, (label, kw)


def native_relation(path: str) -> NativeRelation:
    rel = analyze_trace_file(path, backend="native").detection.relation
    assert isinstance(rel, NativeRelation)
    return rel


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def registry_traces(tmp_path_factory):
    from repro.core.pipeline import run_detection
    from repro.workloads.registry import all_benchmarks

    tmp = tmp_path_factory.mktemp("search-registry")
    out = []
    for b in all_benchmarks():
        run = run_detection(b.program, b.detect_seed, name=b.name)
        path = str(tmp / f"{b.name}.wtrc")
        write_trace(run.trace, path)
        out.append((b.name, run.trace, path))
    return out


NESTED = [("long", 1), ("long", 2), ("dense", 1), ("dense", 2), ("dense", 3)]


@pytest.fixture(scope="module")
def nested_traces(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("search-nested")
    out = []
    for kind, seed in NESTED:
        trace = nested_lock_trace(kind, seed)
        path = str(tmp / f"{kind}-{seed}.wtrc")
        write_trace(trace, path)
        out.append((f"{kind}-{seed}", trace, path))
    return out


@pytest.fixture(scope="module")
def loop_heavy(tmp_path_factory):
    """~3k events in which every iteration takes a nested lock pair, two
    thread pairs inverting theirs once: few keys, many rows per key."""
    trace = Trace(program="loop-heavy", seed=0)
    for ev in synthetic_events(3_000, nested_every=1, invert_pairs=2):
        trace.append(ev)
    path = str(tmp_path_factory.mktemp("search-loop-heavy") / "loop-heavy.wtrc")
    write_trace(trace, path)
    return trace, path


def _pure_relation(trace):
    return ExtendedDetector().analyze(trace).relation


def _assert_loop_heavy_collapses(rel):
    cols = rel.cycle_columns()
    keys = set(zip(cols.threads, map(frozenset, cols.held), cols.locks, strict=True))
    assert len(keys) * 4 < len(cols.steps)  # the collapse has work to do
    assert len(find_cycles(rel, max_length=2)[0]) > 17  # cap 17 binds


# ---------------------------------------------------------------------------
# relation adapter (runs on the pure-Python leg too)
# ---------------------------------------------------------------------------


class TestRelationAdapter:
    def test_registry_integer_search_matches_reference(self, registry_traces):
        for name, trace, _ in registry_traces:
            assert_search_matches(_pure_relation(trace), label=name)

    def test_corpus_integer_search_matches_reference(self):
        for path in CORPUS_TRACES:
            rel = analyze_trace_file(path, backend="python").detection.relation
            assert_search_matches(rel, label=path)

    def test_nested_integer_search_matches_reference(self, nested_traces):
        found = 0
        for name, trace, _ in nested_traces:
            rel = _pure_relation(trace)
            assert_search_matches(rel, label=name)
            found += len(find_cycles(rel)[0])
        assert found  # the dense traces do plant cycles

    def test_lock_alias_closes_by_value(self, tmp_path):
        path = lock_alias_trace(str(tmp_path / "lock-alias.wtrc"))
        rel = analyze_trace_file(path, backend="python").detection.relation
        assert_search_matches(rel)
        _assert_alias_cycle(find_cycles(rel)[0])

    def test_repeated_held_lock_reports_one_cycle(self, tmp_path):
        path = repeated_lock_trace(str(tmp_path / "repeated-lock.wtrc"))
        rel = analyze_trace_file(path, backend="python").detection.relation
        assert_search_matches(rel)
        assert report_doc_for_file(path, backend="python")["cycles"] == 1

    def test_loop_heavy_capped_matches_reference(self, loop_heavy):
        trace, _ = loop_heavy
        rel = _pure_relation(trace)
        _assert_loop_heavy_collapses(rel)
        assert_search_matches(rel, caps=LOOP_HEAVY_CAPS)

    def test_unordered_steps_match_reference(self):
        """Steps out of row order (only a crafted file records them) with
        a duplicate row: the search anchors by row and compares steps, so
        collapsing would report other cycles; it must not collapse."""
        t1, t2 = (ThreadId(_ROOT, "h:spawn", i) for i in (1, 2))
        a, b = (LockId(_ROOT, "h:lock", i) for i in (1, 2))
        rel = LockDependencyRelation()
        for pos, (t, held, lock, step) in enumerate(
            [(t1, a, b, 10), (t2, b, a, 5), (t2, b, a, 20)]
        ):
            rel.add(
                LockDepEntry(
                    thread=t,
                    lockset=(held,),
                    lock=lock,
                    context=(ExecIndex(t, "h:held", pos),),
                    index=ExecIndex(t, "h:acq", pos),
                    tau=1,
                    step=step,
                    pos=pos,
                )
            )
        assert_search_matches(rel)
        assert [[e.step for e in c.entries] for c in find_cycles(rel)[0]] == [
            [10, 20],
            [5, 10],
        ]


def _assert_alias_cycle(cycles):
    """The T1/T2 cycle closes only because ``L2-alias`` equals ``L2``."""
    (cycle,) = [c for c in cycles if {e.thread.name for e in c.entries} == {"T1", "T2"}]
    t1, t2 = sorted(cycle.entries, key=lambda e: e.thread.name)
    assert t1.lock.name == "L2" and [l.name for l in t2.lockset] == ["L2-alias"]


# ---------------------------------------------------------------------------
# hypothesis relations
# ---------------------------------------------------------------------------

_ROOT = ThreadId.root()
_NAMES = ("", "x", "y")


@st.composite
def relations(draw):
    """Random relations: few threads and locks (so cycles form), ids
    repeated under other names, locksets that may repeat a lock or hold
    the wanted one, and steps in trace order or shuffled."""
    n_threads = draw(st.integers(1, 4))
    n_locks = draw(st.integers(1, 5))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_threads - 1),
                st.sampled_from(_NAMES),
                st.lists(
                    st.tuples(st.integers(0, n_locks - 1), st.sampled_from(_NAMES)),
                    max_size=3,
                ),
                st.integers(0, n_locks - 1),
                st.sampled_from(_NAMES),
            ),
            max_size=24,
        )
    )
    steps = list(range(len(rows)))
    if draw(st.booleans()):
        steps = draw(st.permutations(steps))
    rel = LockDependencyRelation()
    for pos, ((t, tname, held, lk, lname), step) in enumerate(zip(rows, steps)):
        thread = ThreadId(_ROOT, "h:spawn", t, name=tname)
        lockset = tuple(LockId(_ROOT, "h:lock", l, name=n) for l, n in held)
        rel.add(
            LockDepEntry(
                thread=thread,
                lockset=lockset,
                lock=LockId(_ROOT, "h:lock", lk, name=lname),
                context=tuple(ExecIndex(thread, "h:held", j) for j in range(len(lockset))),
                index=ExecIndex(thread, "h:acq", pos),
                tau=1,
                step=step,
                pos=pos,
            )
        )
    return rel


class TestHypothesisRelations:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(rel=relations())
    def test_integer_search_matches_reference(self, rel):
        assert_search_matches(rel)


# ---------------------------------------------------------------------------
# kernel adapter
# ---------------------------------------------------------------------------


@needs_kernel
class TestKernelAdapter:
    def test_registry_integer_search_matches_reference(self, registry_traces):
        for name, trace, path in registry_traces:
            rel = native_relation(path)
            assert_search_matches(_pure_relation(trace), rel, label=name)
            assert "entries" not in rel.__dict__, name  # never materialized

    def test_corpus_integer_search_matches_reference(self):
        for path in CORPUS_TRACES:
            pure = analyze_trace_file(path, backend="python").detection.relation
            assert_search_matches(pure, native_relation(path), label=path)

    def test_nested_integer_search_matches_reference(self, nested_traces):
        for name, trace, path in nested_traces:
            assert_search_matches(_pure_relation(trace), native_relation(path), label=name)

    def test_lock_alias_closes_by_value(self, tmp_path):
        path = lock_alias_trace(str(tmp_path / "lock-alias.wtrc"))
        pure = analyze_trace_file(path, backend="python").detection.relation
        native = native_relation(path)
        assert_search_matches(pure, native)
        _assert_alias_cycle(find_cycles(native)[0])

    def test_repeated_held_lock_reports_one_cycle(self, tmp_path):
        path = repeated_lock_trace(str(tmp_path / "repeated-lock.wtrc"))
        pure = analyze_trace_file(path, backend="python").detection.relation
        assert_search_matches(pure, native_relation(path))
        assert report_doc_for_file(path, backend="native")["cycles"] == 1

    def test_loop_heavy_capped_matches_reference(self, loop_heavy):
        trace, path = loop_heavy
        native = native_relation(path)
        _assert_loop_heavy_collapses(native)
        assert_search_matches(_pure_relation(trace), native, caps=LOOP_HEAVY_CAPS)
        assert "entries" not in native.__dict__  # never materialized

    def test_loop_heavy_report_leaves_relation_unmaterialized(
        self, loop_heavy, monkeypatch
    ):
        """A report (``analyze-trace --json``, serve) on a loop-heavy trace
        collapses, searches and expands on the kernel's integers: the
        relation never materializes."""
        _, path = loop_heavy
        seen = []
        real = nk.analyze_trace_file

        def spy(*args, **kw):
            seen.append(real(*args, **kw))
            return seen[-1]

        monkeypatch.setattr(nk, "analyze_trace_file", spy)
        doc = report_doc_for_file(path, backend="native")
        (analysis,) = seen
        assert doc["cycles"] == len(analysis.detection.cycles) > 17
        assert "entries" not in analysis.detection.relation.__dict__

    def test_cycle_free_finish_mints_no_entry(self, nested_traces, monkeypatch):
        """A cycle-free trace's native finish searches the kernel's logs
        and mints no LockDepEntry at all."""
        minted = []

        def counting_entry(**kw):
            minted.append(kw)
            return LockDepEntry(**kw)

        monkeypatch.setattr(nk, "LockDepEntry", counting_entry)
        for name, trace, path in nested_traces:
            detection = analyze_trace_file(path, backend="native").detection
            members = {e.step for c in detection.cycles for e in c.entries}
            if name.startswith("long"):
                assert not detection.cycles, name
            # Only cycle members are minted, each once.
            assert sorted(kw["step"] for kw in minted) == sorted(members), name
            minted.clear()
