"""The kernel's cycle rows and the clocks it replays only on demand.

The native backend hands the cycle search only the entries a tuple cycle
can go through: those whose wanted lock and some held lock lie in one
strongly connected component of two or more locks of the held -> wanted
lock graph (``wk_find_cycle_rows``).  This suite holds those rows to a
plain-Python oracle over the pure relation, with locks compared by value,
on the committed corpus, the registry programs at detection seeds 0-1,
random and lock-ordered generated programs and the crafted alias tables;
pins known answers on shaped traces; and checks that a cycle-free trace
never replays its clock log while a trace with cycles gets the pure
engine's ``V`` between every two threads.  It also covers the column
re-read, which takes its identity tables from the analysis pass.
Everything here needs the kernel.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.nativekernel import (
    NativeColumnReader,
    _KernelSnapshot,
    analyze_trace_file,
    kernel_available,
)
from repro.core.parallel import closure_index_for
from repro.core.pruner import Pruner
from repro.runtime.tracefile import _DecodeCore, write_trace
from repro.serve.report import render_report, report_doc_for_file
from repro.util.ids import LockId, ThreadId
from tests.crafted import (
    _Script,
    lock_alias_trace,
    nested_lock_trace,
    repeated_lock_trace,
    thread_alias_trace,
)
from tests.randprog import build_program, program_specs
from tests.test_kernel_reread import _decisions, assert_same_index, pure_index
from tests.test_nativekernel import assert_same_v
from tests.test_prop_core import ordered_specs

pytestmark = pytest.mark.skipif(
    not kernel_available(), reason="native kernel unavailable on this host"
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_TRACES = sorted(str(p) for p in (REPO_ROOT / "corpus").glob("*.wtrc"))
SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def oracle_rows(relation):
    """Steps of the lock-holding entries whose wanted lock and a held lock
    share a strongly connected component of two or more locks, by mutual
    reachability over the held -> wanted edges (self-edges left out)."""
    succ = {}
    for e in relation.entries:
        for held in e.lockset:
            if held != e.lock:
                succ.setdefault(held, set()).add(e.lock)

    def reach(lock):
        seen, todo = set(), [lock]
        while todo:
            for nxt in succ.get(todo.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    reachable = {}
    for lock in {l for e in relation.entries for l in (e.lock, *e.lockset)}:
        reachable[lock] = reach(lock)

    def component(lock):
        return {lock} | {x for x in reachable[lock] if lock in reachable[x]}

    return [
        e.step
        for e in relation.entries
        if e.lockset
        and len(component(e.lock)) >= 2
        and any(h in component(e.lock) for h in e.lockset)
    ]


def native_rows(path: str):
    cols = analyze_trace_file(path, backend="native").detection.relation.cycle_columns()
    return list(cols.steps)


def assert_rows_match_oracle(path: str) -> list:
    pure = analyze_trace_file(path, backend="python").detection.relation
    want = oracle_rows(pure)
    assert native_rows(path) == want, path
    return want


def _write(tmp, name: str, trace) -> str:
    path = str(tmp / f"{name}.wtrc")
    write_trace(trace, path)
    return path


def _record(tmp, name: str, program, seed: int) -> str:
    from repro.core.pipeline import run_detection

    return _write(tmp, name, run_detection(program, seed, name=name).trace)


@pytest.fixture(scope="module")
def long_path(tmp_path_factory):
    """A trace shaped like wolfbench's long inputs: no cycle."""
    return _write(tmp_path_factory.mktemp("long"), "long", nested_lock_trace("long", 3))


@pytest.fixture(scope="module")
def dense_path(tmp_path_factory):
    """A trace shaped like wolfbench's dense inputs: four lock rings."""
    tmp = tmp_path_factory.mktemp("dense")
    return _write(tmp, "dense", nested_lock_trace("dense", 3))


class TestOracle:
    def test_corpus(self):
        rows = [assert_rows_match_oracle(path) for path in CORPUS_TRACES]
        assert len(rows) == 31 and any(rows)

    def test_registry_seeds_0_and_1(self, tmp_path):
        from repro.workloads.registry import all_benchmarks

        total = 0
        for b in all_benchmarks():
            for seed in (0, 1):
                path = _record(tmp_path, f"{b.name}-{seed}", b.program, seed)
                total += len(assert_rows_match_oracle(path))
        assert total > 0

    def test_alias_tables(self, tmp_path):
        """Rows that repeat a ThreadId or LockId under another name are
        one identity, as the pure relation compares them."""
        paths = [
            thread_alias_trace(str(tmp_path / "thread-alias.wtrc")),
            thread_alias_trace(str(tmp_path / "alias-own.wtrc"), own_row_locks=2),
            lock_alias_trace(str(tmp_path / "lock-alias.wtrc")),
            repeated_lock_trace(str(tmp_path / "repeated.wtrc")),
        ]
        rows = {Path(p).stem: assert_rows_match_oracle(p) for p in paths}
        # Only value equality puts L2 and its alias row in one component.
        assert rows["lock-alias"] and rows["repeated"]

    @given(program_specs())
    @SLOW
    def test_random_programs(self, tmp_path_factory, spec):
        tmp = tmp_path_factory.mktemp("random")
        assert_rows_match_oracle(_record(tmp, "random", build_program(spec), 0))

    @given(ordered_specs())
    @SLOW
    def test_lock_ordered_programs_give_no_rows(self, tmp_path_factory, spec):
        tmp = tmp_path_factory.mktemp("ordered")
        path = _record(tmp, "ordered", build_program(spec), 0)
        assert assert_rows_match_oracle(path) == []
        assert native_rows(path) == []


def _lock(seq: int) -> LockId:
    return LockId(ThreadId.root(), "craft:lock", seq, name=f"L{seq}")


def _scripted(tmp, name: str, sections) -> str:
    """One thread per entry of ``sections``, each taking its locks nested
    in order; returns the written path."""
    main = ThreadId.root()
    s = _Script()
    s.begin(main)
    threads = [
        ThreadId(main, "craft:spawn", i, name=f"T{i}") for i in range(len(sections))
    ]
    for t in threads:
        s.spawn(main, t)
    for t, locks in zip(threads, sections):
        s.begin(t)
        for k, lock in enumerate(locks):
            s.acquire(t, lock, f"{t.name}.{k}")
        for k, lock in reversed(list(enumerate(locks))):
            s.release(t, lock, f"{t.name}.{k}")
        s.end(t)
        s.join(main, t)
    s.end(main)
    return s.write(str(tmp / f"{name}.wtrc"), name)


def _sites(path: str):
    cols = analyze_trace_file(path, backend="native").detection.relation.cycle_columns()
    return [e.index.site for e in cols.entries(range(len(cols.steps)))]


def _count_replays(monkeypatch) -> list:
    """A list that gains an item at each clock-log replay."""
    calls: list = []
    real = _KernelSnapshot.build_vclocks
    monkeypatch.setattr(
        _KernelSnapshot, "build_vclocks", lambda snap: calls.append(1) or real(snap)
    )
    return calls


class TestKnownAnswers:
    def test_long_trace_hands_the_search_no_rows(self, long_path):
        detection = analyze_trace_file(long_path, backend="native").detection
        assert len(detection.relation) > 500  # a large relation, no cycle
        assert native_rows(long_path) == [] and detection.cycles == []

    def test_cycle_free_report_never_replays_the_clocks(self, long_path, monkeypatch):
        want = render_report(report_doc_for_file(long_path, backend="python"))
        calls = _count_replays(monkeypatch)
        assert render_report(report_doc_for_file(long_path, backend="native")) == want
        assert calls == []

    def test_dense_trace_gives_exactly_its_ring_rows(self, dense_path):
        pure = analyze_trace_file(dense_path, backend="python").detection.relation
        inner = re.compile(r"inv\d+\.\d+\.i")  # a ring section's inner acquisition
        ring = [e.step for e in pure.entries if inner.fullmatch(e.index.site)]
        assert len(ring) == 20  # rings of 2, 2, 3 and 3, each section twice
        assert native_rows(dense_path) == ring

    def test_two_disjoint_rings(self, tmp_path):
        a, b, c, d = (_lock(i) for i in range(4))
        path = _scripted(tmp_path, "rings", [(a, b), (b, a), (c, d), (d, c), (a, c)])
        # T4 holds a ring lock and wants a lock of the other ring: no path
        # leads back, so the two rings stay two components.
        assert _sites(path) == ["T0.1", "T1.1", "T2.1", "T3.1"]
        assert native_rows(path) == oracle_rows(
            analyze_trace_file(path, backend="python").detection.relation
        )

    def test_row_wanting_a_lock_outside_the_ring_is_dropped(self, tmp_path):
        a, b, c = (_lock(i) for i in range(3))
        path = _scripted(tmp_path, "exit", [(a, b), (b, a), (a, c), (c,)])
        # T2 holds ring lock a and wants c, which no edge leads back from.
        assert _sites(path) == ["T0.1", "T1.1"]
        # Once T3 takes a under c, c joins the ring's component.
        path = _scripted(tmp_path, "back", [(a, b), (b, a), (a, c), (c, a)])
        assert _sites(path) == ["T0.1", "T1.1", "T2.1", "T3.1"]

    def test_clocks_of_a_trace_with_cycles_equal_the_pure_engines(
        self, dense_path, monkeypatch
    ):
        calls = _count_replays(monkeypatch)
        native = analyze_trace_file(dense_path, backend="native").detection
        pure = analyze_trace_file(dense_path, backend="python").detection
        assert native.cycles and calls == []
        prune = Pruner(native.vclocks).prune(native.cycles)
        assert calls == [1]
        assert_same_v(native.vclocks, pure.vclocks)
        assert calls == [1]  # replayed once
        want = Pruner(pure.vclocks).prune(pure.cycles)
        assert [d.pruned for d in prune.decisions] == [d.pruned for d in want.decisions]

    def test_lazy_detection_pickles(self, dense_path):
        import pickle

        detection = analyze_trace_file(dense_path, backend="native").detection
        copy = pickle.loads(pickle.dumps(detection))
        pure = analyze_trace_file(dense_path, backend="python").detection
        assert_same_v(copy.vclocks, pure.vclocks)
        assert [c.entries for c in copy.cycles] == [c.entries for c in detection.cycles]


class TestColumnReread:
    def test_reread_decodes_no_table(self, dense_path, monkeypatch):
        """The re-read takes the tables the analysis pass decoded."""
        want = pure_index(dense_path)
        detection, decisions = _decisions(dense_path, "native")

        def refuse(self, payload):
            raise AssertionError("a table chunk was decoded again")

        for loader in ("_load_strings", "_load_threads", "_load_locks"):
            monkeypatch.setattr(_DecodeCore, loader, refuse)
        assert_same_index(closure_index_for(detection, decisions, dense_path), want)

    def test_reread_refuses_other_tables(self, dense_path, long_path):
        """A file whose tables are not the analyzed trace's is refused."""
        relation = analyze_trace_file(long_path, backend="native").detection.relation
        with pytest.raises(ValueError, match="differs from the analyzed trace's"):
            with NativeColumnReader(dense_path, relation) as reader:
                reader.read_columns()
