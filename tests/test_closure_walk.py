"""The closures visit only the positions a rule can fire on.

:class:`~repro.core.prediction._Closure` walks, per thread, only the
events a closure rule can fire on: joins, condition-variable events and
acquisitions, all of them with sync-preservation and only those of a
designated lock without it (``ClosureIndex.rule_pos``, ``acq_pos`` and
``spot_pos``).  :class:`OracleClosure` keeps the walk over every event of
each required prefix as it was, and this suite holds the filtered walk
to it on every Generator survivor of the registry at detection seeds 0-1,
40 generated programs, the committed corpus and seeded ring inversions:
the same ``need`` (order included), the same exception class and
message, and the same :meth:`Predictor.examine` and
:meth:`Predictor.refutation` results.  Known answers pin the first rule
of a refutation closure to a join, a condition-variable event and a
designated-lock acquisition behind many acquisitions of other locks.

Everything runs on the pure backend; the kernel's spot columns are held
to the object path's tables where the kernel loads.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import prediction
from repro.core.detector import ExtendedDetector
from repro.core.generator import Generator
from repro.core.nativekernel import NativeColumnReader, analyze_trace_file, kernel_available
from repro.core.prediction import (
    _ACQ,
    _CONDVAR,
    _JOIN,
    ClosureIndex,
    Predictor,
    _Closure,
    _Incomplete,
    _Inconsistent,
)
from repro.core.pruner import Pruner
from repro.runtime.events import WaitEvent
from repro.runtime.tracefile import TraceFileReader
from repro.util.ids import LockId, ThreadId
from repro.workloads.randomgen import build_program, random_spec
from tests.crafted import _Script, nested_lock_trace

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_TRACES = sorted(str(p) for p in (REPO_ROOT / "corpus").glob("*.wtrc"))
DETECT_SEEDS = (0, 1)
RANDOM_SEEDS = range(40)
RING_SEEDS = (1, 2, 3, 4)


class OracleClosure(_Closure):
    """The closure walking every event of each required prefix."""

    def run(self) -> None:
        index = self.index
        while self._dirty:
            thread = self._dirty.pop()
            done, goal = self._done.get(thread, 0), self.need.get(thread, 0)
            if done >= goal:
                continue
            kinds, aux = index.kinds[thread], index.aux[thread]
            self._done[thread] = goal
            for pos in range(done, goal):
                kind = kinds[pos]
                if kind == _ACQ:
                    self._visit_acquire(thread, pos, aux[pos])
                elif kind == _JOIN:
                    target = aux[pos]
                    total = len(index.steps[target])
                    if total == 0 or not index.has_end[target]:
                        raise _Incomplete(
                            f"{index.threads[thread].pretty()} joins "
                            f"{index.threads[target].pretty()} whose "
                            f"termination the trace does not record"
                        )
                    self.require(target, total)
                elif kind == _CONDVAR:
                    raise _Incomplete(
                        f"{index.threads[thread].pretty()}'s required prefix "
                        f"crosses a condition-variable operation"
                    )
            if self.need.get(thread, 0) > goal:
                self._dirty.append(thread)


def outcome(cls, index, caps, designated, *, sync_preserving):
    """What one closure does: the exception it raises (class and message,
    or ``None``) and its cuts, in insertion order, where it stops."""
    closure = cls(index, caps, designated, sync_preserving=sync_preserving)
    raised = None
    try:
        for thread, cap in caps.items():
            closure.require(thread, cap)
        closure.run()
    except (_Inconsistent, _Incomplete) as exc:
        raised = (type(exc), str(exc))
    return raised, list(closure.need.items())


def survivors(detection):
    prune = Pruner(detection.vclocks).prune(detection.cycles)
    return Generator(detection.relation).run(prune.survivors).survivors


def check_walks(index, cycles, monkeypatch, label=""):
    """The filtered walk against the oracle on every cycle; returns how
    many closures each raised, by exception class."""
    raised = {_Inconsistent: 0, _Incomplete: 0}
    predictor = Predictor(index)
    for cycle in cycles:
        try:
            caps, designated = predictor._base(cycle)
        except _Incomplete:
            continue
        for sync in (True, False):
            got = outcome(_Closure, index, caps, designated, sync_preserving=sync)
            want = outcome(OracleClosure, index, caps, designated, sync_preserving=sync)
            assert got == want, (label, cycle.pretty(), sync)
            if got[0] is not None:
                raised[got[0][0]] += 1
    got = [(predictor.examine(c), predictor.refutation(c)) for c in cycles]
    with monkeypatch.context() as mp:
        mp.setattr(prediction, "_Closure", OracleClosure)
        want = [(predictor.examine(c), predictor.refutation(c)) for c in cycles]
    assert got == want, label
    return raised


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _recorded(program, seed: int, name: str):
    from repro.core.pipeline import run_detection

    return run_detection(program, seed, name=name).trace


@pytest.fixture(scope="module")
def registry_cases():
    from repro.workloads.registry import all_benchmarks

    out = []
    for b in all_benchmarks():
        for seed in DETECT_SEEDS:
            trace = _recorded(b.program, seed, b.name)
            detection = ExtendedDetector(max_length=b.max_cycle_length).analyze(trace)
            cycles = [d.cycle for d in survivors(detection)]
            out.append((f"{b.name}@{seed}", ClosureIndex.from_events(trace), cycles))
    return out


class TestAgainstTheOracle:
    def test_registry(self, registry_cases, monkeypatch):
        raised = {_Inconsistent: 0, _Incomplete: 0}
        for label, index, cycles in registry_cases:
            for kind, n in check_walks(index, cycles, monkeypatch, label).items():
                raised[kind] += n
        # Both early exits of a closure are exercised.
        assert raised[_Inconsistent] and raised[_Incomplete]

    def test_random_programs(self, monkeypatch):
        checked = 0
        for seed in RANDOM_SEEDS:
            spec = random_spec(seed, max_threads=4, max_locks=4)
            trace = _recorded(build_program(spec), seed, f"random-{seed}")
            detection = ExtendedDetector(max_length=4).analyze(trace)
            cycles = [d.cycle for d in survivors(detection)]
            check_walks(ClosureIndex.from_events(trace), cycles, monkeypatch, seed)
            checked += len(cycles)
        assert checked

    def test_corpus(self, monkeypatch):
        for path in CORPUS_TRACES:
            detection = analyze_trace_file(path, backend="python").detection
            with TraceFileReader(path) as reader:
                index = ClosureIndex.from_events(reader)
            cycles = [d.cycle for d in survivors(detection)]
            check_walks(index, cycles, monkeypatch, path)

    def test_ring_inversions(self, monkeypatch):
        for seed in RING_SEEDS:
            trace = nested_lock_trace("dense", seed)
            detection = ExtendedDetector(max_length=4).analyze(trace)
            cycles = [d.cycle for d in survivors(detection)]
            assert cycles, seed
            check_walks(ClosureIndex.from_events(trace), cycles, monkeypatch, seed)


@pytest.mark.skipif(not kernel_available(), reason="native kernel unavailable on this host")
def test_kernel_spots_equal_the_object_path():
    """The spot tables sliced from the kernel's columns are the ones
    :meth:`ClosureIndex.feed` appends."""
    for path in CORPUS_TRACES:
        relation = analyze_trace_file(path, backend="native").detection.relation
        with NativeColumnReader(path, relation) as reader:
            got = ClosureIndex.from_events(reader)
        with TraceFileReader(path) as reader:
            want = ClosureIndex.from_events(reader)
        for table in ("rule_pos", "acq_pos", "spot_pos"):
            assert getattr(got, table) == getattr(want, table), (path, table)


# ---------------------------------------------------------------------------
# known answers: the first rule of a refutation closure
# ---------------------------------------------------------------------------

MAIN = ThreadId.root()
A, C, D = (ThreadId(MAIN, "walk:spawn", i, name=n) for i, n in enumerate("ACD"))
M = LockId(MAIN, "walk:lock", 0, name="M")
L = LockId(MAIN, "walk:lock", 1, name="L")
OTHERS = [LockId(MAIN, "walk:other", i, name=f"X{i}") for i in range(40)]


def _script(a_body) -> _Script:
    """Main spawns A, C and D; D takes M first (the designated owner of
    M), C takes M and ends holding it, and A runs ``a_body`` after 40
    acquisitions of other locks."""
    s = _Script()
    s.begin(MAIN)
    for t in (A, C, D):
        s.spawn(MAIN, t)
        s.begin(t)
    s.acquire(D, M, "D.m")
    s.acquire(C, M, "C.m")
    s.end(C)
    for i, lock in enumerate(OTHERS):
        s.acquire(A, lock, f"A.x{i}")
        s.release(A, lock, f"A.x{i}")
    a_body(s)
    return s


def _refute(s: _Script):
    """Run the refutation closure with A capped at its acquisition of L
    and M designated to D's acquisition; A's visited positions, and the
    closure's outcome (checked against the oracle's)."""
    index = ClosureIndex.from_events(s.events)
    a, d = index.thread_ids[A], index.thread_ids[D]
    kinds, aux = index.kinds[a], index.aux[a]
    cap = next(p for p, k in enumerate(kinds) if k == _ACQ and index.locks[aux[p]] == L)
    caps = {a: cap}
    designated = {index.lock_id(M): (d, 0)}
    closure = _Closure(index, caps, designated, sync_preserving=False)
    visited = list(closure._visits(a, 0, cap))
    got = outcome(_Closure, index, caps, designated, sync_preserving=False)
    assert got == outcome(OracleClosure, index, caps, designated, sync_preserving=False)
    return index, a, visited, got


class TestFirstRule:
    def test_a_join(self):
        def body(s):
            s.join(A, C)
            s.acquire(A, L, "A.l")

        index, a, visited, (raised, _) = _refute(_script(body))
        assert [index.kinds[a][p] for p in visited] == [_JOIN]
        # Joining C requires all of C, whose acquisition of M is never
        # released while D holds M at the deadlock.
        assert raised == (_Inconsistent, "C must release M for the deadlock state but never does")

    def test_a_condition_variable_event(self):
        def body(s):
            s.events.append(WaitEvent(len(s.events), A, condition="cv", lock=L, site="A.wait"))
            s.acquire(A, L, "A.l")

        index, a, visited, (raised, _) = _refute(_script(body))
        assert [index.kinds[a][p] for p in visited] == [_CONDVAR]
        assert raised == (
            _Incomplete,
            "A's required prefix crosses a condition-variable operation",
        )

    def test_a_designated_acquisition_after_many_others(self):
        def body(s):
            s.acquire(A, M, "A.m")
            s.acquire(A, L, "A.l")
            s.release(A, L, "A.l")
            s.release(A, M, "A.m")

        index, a, visited, (raised, need) = _refute(_script(body))
        # A's begin and 80 events of other locks come first; only M's
        # acquisition fires, and its release lies past A's cap.
        assert visited == [81]
        assert raised == (
            _Inconsistent,
            "A is forced past its deadlocking acquisition (needs 85 events, capped at 82)",
        )
        assert dict(need)[a] == 82
