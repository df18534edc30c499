"""Binary trace format round trips, including adversarial traces: deep
recursive ThreadId parent chains, reentrant acquisitions, wait/notify and
block events, and empty traces — plus JSON -> binary -> JSON equality."""

from __future__ import annotations

import io

import pytest

from repro.core.pipeline import run_detection
from repro.runtime.events import (
    AcquireEvent,
    BeginEvent,
    BlockEvent,
    EndEvent,
    JoinEvent,
    NotifyEvent,
    ReleaseEvent,
    SpawnEvent,
    Trace,
    WaitEvent,
)
from repro.runtime.serialize import dump_trace, load_trace
from repro.runtime.tracefile import (
    FORMAT_VERSION,
    MAGIC,
    TraceFileReader,
    TraceFileWriter,
    is_tracefile,
    read_trace,
    trace_info,
    write_trace,
)
from repro.util.ids import ExecIndex, LockId, ThreadId
from repro.workloads.registry import all_benchmarks


def roundtrip(trace: Trace) -> Trace:
    buf = io.BytesIO()
    write_trace(trace, buf)
    buf.seek(0)
    return read_trace(buf)


def assert_traces_equal(a: Trace, b: Trace) -> None:
    assert a.program == b.program
    assert a.seed == b.seed
    assert len(a) == len(b)
    for x, y in zip(a, b, strict=True):
        assert x == y, (x, y)


@pytest.mark.parametrize("b", all_benchmarks(), ids=lambda b: b.name)
def test_registry_roundtrip(b):
    run = run_detection(b.program, b.detect_seed, name=b.name)
    assert_traces_equal(run.trace, roundtrip(run.trace))


@pytest.mark.parametrize("b", all_benchmarks(), ids=lambda b: b.name)
def test_binary_smaller_than_json(b):
    run = run_detection(b.program, b.detect_seed, name=b.name)
    buf = io.BytesIO()
    n_binary = write_trace(run.trace, buf)
    n_json = len(dump_trace(run.trace))
    assert n_binary < n_json


class TestAdversarialTraces:
    def test_empty_trace(self):
        t = Trace(program="empty", seed=42)
        back = roundtrip(t)
        assert_traces_equal(t, back)

    def test_deep_recursive_thread_chain(self):
        """A 60-deep spawn chain: every ThreadId's parent is the previous
        thread, exercising parent-before-child row ordering."""
        t = Trace(program="deep", seed=1)
        tid = ThreadId.root()
        step = 0
        t.append(BeginEvent(step, tid))
        step += 1
        for depth in range(60):
            child = ThreadId(tid, f"site:{depth}", depth, name=f"d{depth}")
            t.append(SpawnEvent(step, tid, child=child))
            step += 1
            t.append(BeginEvent(step, child))
            step += 1
            tid = child
        back = roundtrip(t)
        assert_traces_equal(t, back)
        # The identities themselves survive, including the full chain.
        last = back.events[-1].thread
        depth = 0
        while last.parent is not None:
            last = last.parent
            depth += 1
        assert depth == 60

    def test_reentrant_acquisitions(self):
        root = ThreadId.root()
        lock = LockId(root, "L.java:1", 0, name="m")
        ix = ExecIndex(root, "A.java:10", 0)
        ix2 = ExecIndex(root, "A.java:11", 0)
        t = Trace(program="reent")
        t.append(BeginEvent(0, root))
        t.append(
            AcquireEvent(
                1, root, lock=lock, index=ix, held=(), held_indices=(),
                stack_depth=3,
            )
        )
        t.append(
            AcquireEvent(
                2, root, lock=lock, index=ix2, held=(lock,),
                held_indices=(ix,), reentrant=True, stack_depth=4,
            )
        )
        t.append(ReleaseEvent(3, root, lock=lock, site="A.java:12", reentrant=True))
        t.append(ReleaseEvent(4, root, lock=lock, site="A.java:13"))
        t.append(EndEvent(5, root))
        back = roundtrip(t)
        assert_traces_equal(t, back)
        acquires = [e for e in back if isinstance(e, AcquireEvent)]
        assert [a.reentrant for a in acquires] == [False, True]
        assert [a.stack_depth for a in acquires] == [3, 4]

    def test_wait_notify_block_events(self):
        root = ThreadId.root()
        child = ThreadId(root, "spawn:0", 0, name="w")
        lock = LockId(root, "L.java:1", 0, name="m")
        ix = ExecIndex(child, "B.java:5", 2)
        t = Trace(program="condvar", seed=9)
        t.append(BeginEvent(0, root))
        t.append(SpawnEvent(1, root, child=child))
        t.append(WaitEvent(2, child, condition="cv", lock=lock, site="B.java:3"))
        t.append(
            NotifyEvent(
                3, root, condition="cv", lock=lock, site="A.java:7",
                woken=1, notify_all=True,
            )
        )
        t.append(BlockEvent(4, child, lock=lock, index=ix, holder=root))
        t.append(JoinEvent(5, root, target=child))
        t.append(EndEvent(6, root))
        back = roundtrip(t)
        assert_traces_equal(t, back)

    def test_json_binary_json_equality(self):
        """dump -> pack -> unpack -> dump is the identity on the JSON
        machine format (the two formats encode the same model)."""
        run = run_detection(all_benchmarks()[0].program, 0, name="x")
        text = dump_trace(run.trace)
        back = roundtrip(load_trace(text))
        assert dump_trace(back) == text


class TestStreamingIO:
    def test_writer_is_a_sink(self, tmp_path):
        """TraceFileWriter is callable: usable directly as a SinkTrace
        sink, so recording never materializes the event list."""
        from repro.runtime.sim.runtime import run_program
        from repro.runtime.sim.strategy import RandomStrategy
        from tests.conftest import two_lock_program

        path = tmp_path / "t.wtrc"
        with TraceFileWriter(str(path), program="p", seed=0) as w:
            result = run_program(
                two_lock_program, RandomStrategy(0), name="p", trace_sink=w
            )
        assert len(result.trace) == 0
        ref = run_program(two_lock_program, RandomStrategy(0), name="p")
        assert_traces_equal(ref.trace, read_trace(str(path)))

    def test_reader_iterates_without_materializing(self, tmp_path):
        run = run_detection(all_benchmarks()[0].program, 0, name="p")
        path = tmp_path / "t.wtrc"
        write_trace(run.trace, str(path))
        with TraceFileReader(str(path)) as r:
            events = list(r)
        assert events == run.trace.events

    def test_chunked_writes(self, tmp_path):
        """Tiny chunks exercise multi-chunk files + interleaved tables."""
        run = run_detection(all_benchmarks()[0].program, 0, name="p")
        path = tmp_path / "t.wtrc"
        write_trace(run.trace, str(path), events_per_chunk=3)
        assert_traces_equal(run.trace, read_trace(str(path)))

    def test_trace_info_streaming(self, tmp_path):
        run = run_detection(all_benchmarks()[0].program, 0, name="p")
        path = tmp_path / "t.wtrc"
        write_trace(run.trace, str(path))
        info = trace_info(str(path))
        assert info["events"] == len(run.trace)
        assert info["complete"] is True
        assert info["program"] == run.trace.program
        assert sum(info["by_kind"].values()) == len(run.trace)

    def test_is_tracefile(self, tmp_path):
        p = tmp_path / "x.wtrc"
        write_trace(Trace(program="e"), str(p))
        assert is_tracefile(str(p))
        j = tmp_path / "x.json"
        j.write_text("{}")
        assert not is_tracefile(str(j))
        assert not is_tracefile(str(tmp_path / "missing"))

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            read_trace(io.BytesIO(b"NOPE" + bytes(16)))

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError):
            read_trace(io.BytesIO(MAGIC + bytes([FORMAT_VERSION + 1])))

    def test_missing_end_chunk_detected(self, tmp_path):
        """A writer that died mid-trace leaves no END chunk: the stream
        still decodes, but is reported incomplete."""
        run = run_detection(all_benchmarks()[0].program, 0, name="p")
        assert len(run.trace) < 128  # END chunk is then exactly 3 bytes
        path = tmp_path / "t.wtrc"
        write_trace(run.trace, str(path))
        clipped = path.read_bytes()[:-3]  # kind + length + count varint
        info = trace_info(io.BytesIO(clipped))
        assert info["complete"] is False
        assert info["events"] == len(run.trace)

    def test_torn_chunk_rejected(self, tmp_path):
        """A file cut mid-chunk is corrupt, not merely incomplete."""
        run = run_detection(all_benchmarks()[0].program, 0, name="p")
        path = tmp_path / "t.wtrc"
        write_trace(run.trace, str(path))
        with pytest.raises(ValueError, match="truncated"):
            trace_info(io.BytesIO(path.read_bytes()[:-1]))


class TestWriterAbort:
    """A producer that dies mid-trace must never forge completeness."""

    def _trace(self):
        return run_detection(all_benchmarks()[0].program, 0, name="p").trace

    def test_abort_leaves_file_unsealed(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "t.wtrc"
        w = TraceFileWriter(str(path), program="p", seed=0, events_per_chunk=4)
        for ev in trace.events:
            w(ev)
        w.abort()
        assert w.aborted
        # Evidence survives (flushed chunks decode) but the seal does not.
        info = trace_info(str(path))
        assert info["complete"] is False
        assert info["events"] == len(trace)

    def test_exit_on_exception_aborts(self, tmp_path):
        """The satellite property: an exception unwinding the with-block
        routes through abort(), so the file classifies as torn."""
        trace = self._trace()
        path = tmp_path / "t.wtrc"
        with pytest.raises(RuntimeError, match="producer died"):
            with TraceFileWriter(str(path), program="p", seed=0) as w:
                for ev in trace.events:
                    w(ev)
                raise RuntimeError("producer died mid-trace")
        assert w.aborted
        assert trace_info(str(path))["complete"] is False

    def test_exit_clean_seals(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "t.wtrc"
        with TraceFileWriter(str(path), program="p", seed=0) as w:
            for ev in trace.events:
                w(ev)
        assert not w.aborted
        assert trace_info(str(path))["complete"] is True

    def test_abort_idempotent_and_noop_after_close(self, tmp_path):
        path = tmp_path / "t.wtrc"
        w = TraceFileWriter(str(path), program="p", seed=0)
        w.close()
        w.abort()  # no-op: already sealed
        assert not w.aborted
        assert trace_info(str(path))["complete"] is True

    def test_abort_quarantines_as_torn(self, tmp_path):
        """The aborted file lands in the same taxonomy bucket the corpus
        validator and the ingestion daemon use for torn streams."""
        from repro.corpus.validate import classify_trace_file

        trace = self._trace()
        path = tmp_path / "t.wtrc"
        with pytest.raises(RuntimeError):
            with TraceFileWriter(str(path), program="p", seed=0) as w:
                for ev in trace.events:
                    w(ev)
                raise RuntimeError("boom")
        verdict = classify_trace_file(str(path))
        assert verdict is not None and verdict.code == "torn"


class TestChunkDecoder:
    """The incremental decoder behind the ingestion daemon."""

    def _file_bytes(self, events_per_chunk=8):
        run = run_detection(all_benchmarks()[0].program, 0, name="p")
        buf = io.BytesIO()
        write_trace(run.trace, buf, events_per_chunk=events_per_chunk)
        return run.trace, buf.getvalue()

    @pytest.mark.parametrize("step", [1, 3, 17, 1 << 16])
    def test_arbitrary_slices_equal_batch(self, step):
        """Any slicing of the byte stream decodes to the reader's events."""
        from repro.runtime.tracefile import ChunkDecoder

        trace, data = self._file_bytes()
        dec = ChunkDecoder()
        events = []
        for i in range(0, len(data), step):
            events.extend(dec.push(data[i : i + step]))
        assert dec.complete
        assert dec.buffered == 0
        assert dec.bytes_consumed == len(data)
        assert events == trace.events
        assert dec.program == trace.program
        assert dec.seed == trace.seed

    def test_bytes_consumed_is_chunk_aligned(self):
        """Mid-chunk bytes stay buffered: bytes_consumed only advances at
        chunk boundaries — the resume invariant the journal leans on."""
        from repro.runtime.tracefile import ChunkDecoder

        _, data = self._file_bytes()
        dec = ChunkDecoder()
        boundaries = set()
        for i in range(len(data)):
            dec.push(data[i : i + 1])
            assert dec.bytes_consumed + dec.buffered == i + 1
            boundaries.add(dec.bytes_consumed)
        # Re-feeding any journaled prefix lands exactly on its boundary.
        for cut in sorted(boundaries)[1:]:
            fresh = ChunkDecoder()
            fresh.push(data[:cut])
            assert fresh.bytes_consumed == cut

    def test_oversized_chunk_rejected_before_buffering(self):
        from repro.runtime.tracefile import (
            _EVENTS,
            ChunkDecoder,
            OversizedChunkError,
        )

        evil = MAGIC + bytes([FORMAT_VERSION, _EVENTS]) + b"\x80\x80\x80\x80\x01"
        dec = ChunkDecoder(max_chunk_bytes=1 << 20)
        with pytest.raises(OversizedChunkError):
            dec.push(evil)

    def test_unterminated_length_varint_rejected(self, tmp_path):
        """A chunk-length varint that never ends is refused once ten bytes
        carry the continuation bit, on the socket path and the file path
        alike, instead of being rescanned on every push."""
        from repro.corpus.validate import (
            UNREADABLE,
            classify_decode_error,
            classify_trace_file,
        )
        from repro.runtime.tracefile import _EVENTS, ChunkDecoder, _try_uvarint

        # Ten bytes carry any 64-bit length; the eleventh is hostile.
        assert _try_uvarint(b"\xff" * 9 + b"\x01", 0) == ((1 << 64) - 1, 10)
        assert _try_uvarint(b"\x80" * 9, 0) is None
        hostile = MAGIC + bytes([FORMAT_VERSION, _EVENTS]) + b"\x80" * 64
        header = len(MAGIC) + 1
        dec = ChunkDecoder(max_chunk_bytes=1 << 20)
        dec.push(hostile[:header])
        fed = 0
        with pytest.raises(ValueError, match="longer than 10 bytes") as streamed:
            for byte in hostile[header:]:
                fed += 1
                dec.push(bytes([byte]))
        assert fed <= 11  # kind byte + ten length bytes
        code = classify_decode_error(streamed.value).code
        assert code == UNREADABLE
        path = tmp_path / "hostile.wtrc"
        path.write_bytes(hostile)
        assert classify_trace_file(str(path)).code == code
        with pytest.raises(ValueError, match="longer than 10 bytes"):
            read_trace(io.BytesIO(hostile))

    def test_data_after_end_rejected(self):
        from repro.runtime.tracefile import ChunkDecoder

        _, data = self._file_bytes()
        dec = ChunkDecoder()
        dec.push(data)
        assert dec.complete
        with pytest.raises(ValueError, match="data after END"):
            dec.push(b"\x00")

    def test_corruption_matches_batch_reader(self):
        """Bit rot raises through push() just as the batch reader would,
        so one taxonomy classifies both ingestion paths."""
        _, data = self._file_bytes()
        broken = bytearray(data)
        broken[24] ^= 0xFF
        from repro.runtime.tracefile import ChunkDecoder

        with pytest.raises(Exception) as streamed:
            dec = ChunkDecoder()
            dec.push(bytes(broken))
        with pytest.raises(Exception) as batch:
            read_trace(io.BytesIO(bytes(broken)))
        assert type(streamed.value) is type(batch.value)
