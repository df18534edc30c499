"""The prediction index built from the kernel's event log.

On the native backend :func:`repro.core.parallel.closure_index_for`
re-reads a ``.wtrc`` (or a serve spool) through the kernel, which hands
:class:`~repro.core.prediction.ClosureIndex` a flat integer event log
instead of decoded events.  This suite holds that index to the pure
re-read's, table by table, on the registry traces, the committed corpus
and the crafted alias files; checks that a native report never runs the
pure decoder; and checks the fallback when the kernel rejects a payload
during the re-read.  Everything here needs the kernel.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.generator import Generator
from repro.core.nativekernel import (
    NativeEventLogReader,
    NativeTraceFileReader,
    _Kernel,
    analyze_trace_file,
    kernel_available,
)
from repro.core.parallel import closure_index_for
from repro.core.prediction import ClosureIndex
from repro.core.pruner import Pruner
from repro.runtime.tracefile import TraceFileReader, _DecodeCore, _get_uvarint, write_trace
from repro.serve.report import render_report, report_doc_for_file
from tests.crafted import lock_alias_trace, nested_lock_trace, thread_alias_trace

pytestmark = pytest.mark.skipif(
    not kernel_available(), reason="native kernel unavailable on this host"
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_TRACES = sorted(str(p) for p in (REPO_ROOT / "corpus").glob("*.wtrc"))

#: Every table the closures read, compared one by one.
TABLES = (
    "threads",
    "locks",
    "steps",
    "kinds",
    "aux",
    "tokens",
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
    with NativeEventLogReader(path) as reader:
        return ClosureIndex.from_events(reader)


def assert_same_index(got: ClosureIndex, want: ClosureIndex, label: str = "") -> None:
    for name in TABLES:
        assert getattr(got, name) == getattr(want, name), (label, name)
    # Ids compare by value; the index keeps the first object it met, name
    # included, and witnesses print those names.
    assert [t.name for t in got.threads] == [t.name for t in want.threads], label
    assert [l.name for l in got.locks] == [l.name for l in want.locks], label


@pytest.fixture(scope="module")
def registry_paths(tmp_path_factory):
    from repro.core.pipeline import run_detection
    from repro.workloads.registry import all_benchmarks

    tmp = tmp_path_factory.mktemp("reread-registry")
    out = []
    for b in all_benchmarks():
        run = run_detection(b.program, b.detect_seed, name=b.name)
        path = str(tmp / f"{b.name}.wtrc")
        write_trace(run.trace, path)
        out.append(path)
    return out


@pytest.fixture(scope="module")
def crafted_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reread-crafted")
    return [
        thread_alias_trace(str(tmp / "thread-alias.wtrc")),
        thread_alias_trace(str(tmp / "thread-alias-pos.wtrc"), own_row_locks=3),
        lock_alias_trace(str(tmp / "lock-alias.wtrc")),
    ]


@pytest.fixture(scope="module")
def dense_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("reread-dense") / "dense.wtrc")
    write_trace(nested_lock_trace("dense", 1), path)
    return path


class TestTableParity:
    def test_registry(self, registry_paths):
        for path in registry_paths:
            assert_same_index(kernel_index(path), pure_index(path), path)

    def test_corpus(self):
        for path in CORPUS_TRACES:
            assert_same_index(kernel_index(path), pure_index(path), path)

    def test_crafted(self, crafted_paths):
        for path in crafted_paths:
            assert_same_index(kernel_index(path), pure_index(path), path)

    def test_closure_index_for_uses_the_kernel_on_native(self, dense_path, monkeypatch):
        """The native detection's index comes from the event log; the pure
        detection's from the Python re-read."""
        calls = []
        real = NativeEventLogReader.read_event_log

        def spy(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(NativeEventLogReader, "read_event_log", spy)
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


class TestNoPureDecode:
    def test_native_report_never_runs_the_pure_decoder(self, dense_path, monkeypatch):
        want = render_report(report_doc_for_file(dense_path, backend="python"))

        def refuse(self, payload):
            raise AssertionError("the pure decoder ran")

        monkeypatch.setattr(_DecodeCore, "_decode_events", refuse)
        doc = report_doc_for_file(dense_path, backend="native")
        assert doc["replay_candidates"] > 0  # the index was built
        assert render_report(doc) == want

    def test_analysis_kernels_keep_no_event_log(self, dense_path):
        """Only the re-read logs events: an analysis context's memory
        stays proportional to its acquisitions."""
        kernel = _Kernel()
        with NativeTraceFileReader(dense_path, kernel) as reader:
            for _ in reader:
                pass
            assert reader.events_read > 0
        assert len(kernel.event_log()) == 0


class TestRereadFallback:
    def test_rejected_payload_falls_back_to_python(self, dense_path, monkeypatch):
        """A payload the kernel rejects but Python accepts: the whole
        index comes from the Python re-read."""
        detection, decisions = _decisions(dense_path, "native")
        monkeypatch.setattr(_Kernel, "feed_events", lambda self, payload: -1)
        index = closure_index_for(detection, decisions, dense_path)
        assert_same_index(index, pure_index(dense_path))

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
