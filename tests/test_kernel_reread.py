"""The prediction index built from the kernel's thread columns.

On the native backend :func:`repro.core.parallel.closure_index_for`
re-reads a ``.wtrc`` (or a serve spool) through the kernel, which hands
:class:`~repro.core.prediction.ClosureIndex` per-thread columns instead
of decoded events.  This suite holds that index to the pure re-read's,
table by table, tokens and the acquisition map included, on the registry
traces, the committed corpus, the crafted alias files, dense and long
nested-lock traces at two chunk sizes, generated programs, a trace cut
inside a critical section and a trace with wait/notify.  It checks that
every corpus survivor gets the same witness whichever re-read built its
index, that a native report never runs the pure decoder, that analysis
contexts collect no columns, and that a payload the kernel refuses
during the re-read raises the pure decoder's error, with no pure re-read
standing in.  Everything here needs the kernel.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.generator import Generator
from repro.core.nativekernel import (
    NativeColumnReader,
    NativeTraceFileReader,
    _Kernel,
    analyze_trace_file,
    kernel_available,
)
from repro.core.parallel import closure_index_for, predict_decisions
from repro.core.prediction import _ACQ, ClosureIndex
from repro.core.pruner import Pruner
from repro.runtime.events import AcquireEvent, NotifyEvent, ReleaseEvent, Trace, WaitEvent
from repro.runtime.tracefile import TraceFileReader, _DecodeCore, _get_uvarint, write_trace
from repro.serve.report import render_report, report_doc_for_file
from repro.workloads.randomgen import build_program, random_spec
from tests.crafted import lock_alias_trace, nested_lock_trace, thread_alias_trace

pytestmark = pytest.mark.skipif(
    not kernel_available(), reason="native kernel unavailable on this host"
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_TRACES = sorted(str(p) for p in (REPO_ROOT / "corpus").glob("*.wtrc"))
#: Events per EVENTS chunk of the nested-lock traces: chunks of 4 cut
#: critical sections and spawn/join pairs apart.
CHUNKINGS = (4, 1024)
RANDOM_SEEDS = range(40)

#: Every table the closures read, compared one by one (tokens through
#: ``thread_tokens``, which formats them).
TABLES = (
    "threads",
    "locks",
    "steps",
    "kinds",
    "aux",
    "rel_pos",
    "spawn_of",
    "has_end",
    "acq_by_step",
    "acq_by_index",
    "events_seen",
    "thread_ids",
    "lock_ids",
)


def pure_index(path: str) -> ClosureIndex:
    with TraceFileReader(path) as reader:
        return ClosureIndex.from_events(reader)


def kernel_index(path: str) -> ClosureIndex:
    relation = analyze_trace_file(path, backend="native").detection.relation
    with NativeColumnReader(path, relation) as reader:
        return ClosureIndex.from_events(reader)


def tokens(index: ClosureIndex):
    return [index.thread_tokens(t) for t in range(len(index.threads))]


def assert_same_index(got: ClosureIndex, want: ClosureIndex, label: str = "") -> None:
    for name in TABLES:
        assert getattr(got, name) == getattr(want, name), (label, name)
    assert tokens(got) == tokens(want), label
    # Ids compare by value; the index keeps the first object it met, name
    # included, and witnesses print those names.
    assert [t.name for t in got.threads] == [t.name for t in want.threads], label
    assert [l.name for l in got.locks] == [l.name for l in want.locks], label


def assert_parity(path: str) -> None:
    assert_same_index(kernel_index(path), pure_index(path), path)


def _record(tmp, name: str, program, seed: int, **kw) -> str:
    from repro.core.pipeline import run_detection

    run = run_detection(program, seed, name=name)
    path = str(tmp / f"{name}.wtrc")
    write_trace(run.trace, path, **kw)
    return path


@pytest.fixture(scope="module")
def registry_paths(tmp_path_factory):
    from repro.workloads.registry import all_benchmarks

    tmp = tmp_path_factory.mktemp("reread-registry")
    return [_record(tmp, b.name, b.program, b.detect_seed) for b in all_benchmarks()]


@pytest.fixture(scope="module")
def crafted_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reread-crafted")
    return [
        thread_alias_trace(str(tmp / "thread-alias.wtrc")),
        thread_alias_trace(str(tmp / "thread-alias-pos.wtrc"), own_row_locks=3),
        lock_alias_trace(str(tmp / "lock-alias.wtrc")),
    ]


@pytest.fixture(scope="module")
def nested_traces():
    return {(kind, seed): nested_lock_trace(kind, seed) for kind in ("dense", "long") for seed in (1, 2)}


@pytest.fixture(scope="module")
def dense_path(tmp_path_factory, nested_traces):
    path = str(tmp_path_factory.mktemp("reread-dense") / "dense.wtrc")
    write_trace(nested_traces[("dense", 1)], path)
    return path


class TestTableParity:
    def test_registry(self, registry_paths):
        for path in registry_paths:
            assert_parity(path)

    def test_corpus(self):
        for path in CORPUS_TRACES:
            assert_parity(path)

    def test_crafted(self, crafted_paths):
        for path in crafted_paths:
            assert_parity(path)

    @pytest.mark.parametrize("events_per_chunk", CHUNKINGS)
    def test_nested_lock_traces(self, nested_traces, tmp_path, events_per_chunk):
        for (kind, seed), trace in nested_traces.items():
            path = str(tmp_path / f"{kind}-{seed}.wtrc")
            write_trace(trace, path, events_per_chunk=events_per_chunk)
            assert_parity(path)

    def test_random_programs(self, tmp_path):
        for seed in RANDOM_SEEDS:
            spec = random_spec(seed, max_threads=4, max_locks=4)
            assert_parity(_record(tmp_path, f"random-{seed}", build_program(spec), seed))

    def test_cut_inside_a_critical_section(self, nested_traces, tmp_path):
        """A trace that stops while locks are held: open acquisitions keep
        release position -1 in both indexes."""
        events = list(nested_traces[("dense", 1)])
        held = 0
        for cut, ev in enumerate(events):
            if isinstance(ev, AcquireEvent) and not ev.reentrant:
                held += 1
            elif isinstance(ev, ReleaseEvent) and not ev.reentrant:
                held -= 1
            if held >= 2 and cut > len(events) // 2:
                break
        path = str(tmp_path / "cut.wtrc")
        write_trace(Trace(program="cut", events=events[: cut + 1]), path, events_per_chunk=4)
        index = kernel_index(path)
        open_acquisitions = [
            (t, pos)
            for t, kinds in enumerate(index.kinds)
            for pos, kind in enumerate(kinds)
            if kind == _ACQ and index.rel_pos[t][pos] < 0
        ]
        assert len(open_acquisitions) >= 2
        assert_same_index(index, pure_index(path), path)

    def test_wait_notify(self, tmp_path):
        from repro.workloads.boundedbuffer import pipeline_program

        path = _record(tmp_path, "pipeline", pipeline_program, 0)
        with TraceFileReader(path) as reader:
            kinds = {type(ev) for ev in reader}
        assert {WaitEvent, NotifyEvent} <= kinds
        assert_parity(path)

    def test_closure_index_for_uses_the_kernel_on_native(self, dense_path, monkeypatch):
        """The native detection's index comes from the columns; the pure
        detection's from the Python re-read."""
        calls = []
        real = NativeColumnReader.read_columns

        def spy(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(NativeColumnReader, "read_columns", spy)
        for backend, expect in (("native", 1), ("python", 0)):
            detection, decisions = _decisions(dense_path, backend)
            index = closure_index_for(detection, decisions, dense_path)
            assert len(calls) == expect, backend
            assert_same_index(index, pure_index(dense_path), backend)
            calls.clear()


def _decisions(path: str, backend: str):
    detection = analyze_trace_file(path, backend=backend).detection
    prune = Pruner(detection.vclocks).prune(detection.cycles)
    gen = Generator(detection.relation).run(prune.survivors)
    assert gen.survivors, "the trace must leave Generator survivors"
    return detection, gen.decisions


def _witness_docs(index: ClosureIndex, decisions, **kw):
    return [
        None if p is None else (p.verdict, p.reason, p.promoted, p.witness and p.witness.to_doc())
        for p in predict_decisions(index, decisions, **kw)
    ]


class TestWitnessParity:
    def test_corpus_witnesses(self):
        """Every corpus survivor's prediction, witness included, is the same
        whichever re-read built its index; reports carry no witness, so
        nothing else pins the native tokens."""
        witnesses = 0
        for path in CORPUS_TRACES:
            detection = analyze_trace_file(path, backend="native").detection
            prune = Pruner(detection.vclocks).prune(detection.cycles)
            decisions = Generator(detection.relation).run(prune.survivors).decisions
            native, pure = kernel_index(path), pure_index(path)
            for kw in ({}, {"promote_early": True}):
                got = _witness_docs(native, decisions, **kw)
                assert got == _witness_docs(pure, decisions, **kw), path
                witnesses += sum(row is not None and row[3] is not None for row in got)
        assert witnesses > 0


class TestNoPureDecode:
    def test_native_report_never_runs_the_pure_decoder(self, dense_path, monkeypatch):
        want = render_report(report_doc_for_file(dense_path, backend="python"))

        def refuse(self, payload):
            raise AssertionError("the pure decoder ran")

        monkeypatch.setattr(_DecodeCore, "_decode_events", refuse)
        doc = report_doc_for_file(dense_path, backend="native")
        assert doc["replay_candidates"] > 0  # the index was built
        assert render_report(doc) == want

    def test_analysis_kernels_build_no_columns(self, dense_path):
        """Only the re-read collects columns: an analysis context's memory
        stays proportional to its acquisitions."""
        kernel = _Kernel()
        with NativeTraceFileReader(dense_path, kernel) as reader:
            for _ in reader:
                pass
            assert reader.events_read > 0
        assert [len(col) for col in kernel.columns()] == [0, 0, 0, 0]
        analysis = analyze_trace_file(dense_path, backend="native")
        assert analysis.events > 0
        assert analysis.detection.relation._snap.n_entries > 0


class TestRereadFallback:
    def test_refusal_python_accepts_is_internal_error(self, dense_path, monkeypatch):
        """A payload the kernel refuses but Python accepts is a bug in one
        decoder, not a decode outcome: the re-read raises an error no
        caller classifies, and no pure re-read stands in for it."""
        from repro.corpus.validate import DECODE_ERRORS

        detection, decisions = _decisions(dense_path, "native")
        monkeypatch.setattr(_Kernel, "feed_events", lambda self, payload: -1)
        with pytest.raises(RuntimeError, match="code -1") as exc:
            closure_index_for(detection, decisions, dense_path)
        assert not isinstance(exc.value, DECODE_ERRORS)

    def test_corrupt_payload_raises_the_python_error(self, dense_path, tmp_path):
        """A file corrupted after analysis fails the re-read with exactly
        the pure re-read's exception."""
        path = str(tmp_path / "dense.wtrc")
        data = bytearray(Path(dense_path).read_bytes())
        Path(path).write_bytes(bytes(data))
        detection, decisions = _decisions(path, "native")
        # First event's tag byte of the first EVENTS chunk -> unknown tag.
        pos = 5
        while data[pos] != 4:  # skip the chunks before the first EVENTS
            length, body = _get_uvarint(data, pos + 1)
            pos = body + length
        _, body = _get_uvarint(data, pos + 1)
        _, first_event = _get_uvarint(data, body)
        data[first_event] = 9
        Path(path).write_bytes(bytes(data))

        pure = _outcome(lambda: pure_index(path))
        native = _outcome(lambda: closure_index_for(detection, decisions, path))
        assert native == pure == (ValueError, "unknown event tag 9")


def _outcome(fn):
    """The exception ``fn`` raises, as ``(type, message)``."""
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the outcome IS the assertion
        return type(exc), str(exc)
    raise AssertionError("no exception raised")
