"""The fleet-mode ingestion daemon under friendly and hostile producers.

The chaos suite: every misbehavior mode lands in a deterministic
quarantine code, healthy streams next to chaos streams are analyzed
byte-identically to the batch path, SIGTERM drains to a sealed manifest
with exit 0, and ``kill -9`` + restart resumes from the journal without
re-analyzing completed streams.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.pipeline import run_detection
from repro.corpus.validate import Corruption, classify_trace_file
from repro.runtime.tracefile import write_trace
from repro.serve import (
    RUN_MANIFEST_NAME,
    RUN_SCHEMA,
    RunJournal,
    ServeConfig,
    WolfServer,
    chaos_client,
    query_server,
    render_report,
    report_doc_for_file,
    send_trace,
)
from repro.workloads.registry import all_benchmarks

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


class ServerThread:
    """A WolfServer on its own event loop thread, drained (or crashed)
    from the test thread."""

    def __init__(self, cfg: ServeConfig) -> None:
        self.cfg = cfg
        self.server = WolfServer(cfg)
        self.loop = asyncio.new_event_loop()
        self.ready = threading.Event()
        self.startup_error: Exception | None = None
        self.thread = threading.Thread(target=self._main, daemon=True)

    def _main(self) -> None:
        asyncio.set_event_loop(self.loop)

        async def go() -> None:
            # Signal readiness only once the listener is actually bound:
            # after a crash() the *previous* incarnation's socket file is
            # still on disk, so its existence proves nothing.
            try:
                await self.server.start()
            except Exception as exc:  # pragma: no cover - startup failure
                self.startup_error = exc
                raise
            finally:
                self.ready.set()
            await self.server._drain_requested.wait()
            await self.server.drain()

        try:
            self.loop.run_until_complete(go())
        except RuntimeError:
            pass  # crash(): loop stopped from outside, like a kill -9
        finally:
            self.loop.close()

    def start(self) -> "ServerThread":
        self.thread.start()
        if not self.ready.wait(timeout=10):  # pragma: no cover - hang guard
            raise RuntimeError("server did not come up")
        if self.startup_error is not None:  # pragma: no cover
            raise self.startup_error
        return self

    def drain(self) -> None:
        self.loop.call_soon_threadsafe(self.server.request_drain)
        self.thread.join(timeout=30)
        assert not self.thread.is_alive(), "server did not drain"

    def crash(self) -> None:
        """Stop the loop without drain: the in-process stand-in for
        kill -9 (no manifest, no quarantine, journal left as-is)."""
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


@pytest.fixture()
def harness(tmp_path):
    """(make_server, sock, out, traces): two real .wtrc traces plus a
    server factory on a shared run directory."""
    sock = str(tmp_path / "wolf.sock")
    out = str(tmp_path / "run")
    benches = all_benchmarks()
    traces = {}
    for b in benches[:2]:
        run = run_detection(b.program, b.detect_seed, name=b.name)
        path = str(tmp_path / f"{b.name}.wtrc")
        # Small chunks so partial sends still cross journal boundaries.
        write_trace(run.trace, path, events_per_chunk=16)
        traces[b.name] = path
    started = []

    def make(**kw) -> ServerThread:
        kw.setdefault("idle_timeout", 5.0)
        cfg = ServeConfig(out_dir=out, socket_path=sock, **kw)
        st = ServerThread(cfg).start()
        started.append(st)
        return st

    yield make, sock, out, traces
    for st in started:
        if st.thread.is_alive():
            st.drain()


def manifest(out: str) -> dict:
    with open(os.path.join(out, RUN_MANIFEST_NAME)) as fh:
        return json.load(fh)


def rows_by_stream(doc: dict) -> dict:
    return {r["stream"]: r for r in doc["streams"]}


# ---------------------------------------------------------------------------
# healthy path
# ---------------------------------------------------------------------------


class TestHealthyStreams:
    def test_reports_byte_identical_to_batch(self, harness):
        """The acceptance property: a stream ingested over the socket
        yields report bytes identical to the batch analyzer's."""
        make, sock, out, traces = harness
        st = make()
        for name, path in traces.items():
            result = send_trace(path, name, socket_path=sock)
            assert result.ok, (result.error_code, result.response)
            with open(os.path.join(out, "reports", f"{name}.json"), "rb") as fh:
                daemon_bytes = fh.read()
            assert daemon_bytes == render_report(report_doc_for_file(path))
        st.drain()
        doc = manifest(out)
        assert doc["schema"] == RUN_SCHEMA
        assert doc["totals"]["analyzed"] == len(traces)
        assert doc["totals"]["quarantined"] == 0

    def test_concurrent_producers(self, harness):
        """Eight concurrent producers (same traces, distinct stream ids)
        all land analyzed, each byte-identical."""
        make, sock, out, traces = harness
        st = make()
        paths = list(traces.values())
        results = {}

        def ship(i: int) -> None:
            path = paths[i % len(paths)]
            results[f"s{i}"] = (path, send_trace(path, f"s{i}", socket_path=sock))

        threads = [
            threading.Thread(target=ship, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        st.drain()
        assert len(results) == 8
        for sid, (path, result) in results.items():
            assert result.ok, (sid, result.error_code)
            with open(os.path.join(out, "reports", f"{sid}.json"), "rb") as fh:
                assert fh.read() == render_report(report_doc_for_file(path))
        assert manifest(out)["totals"]["analyzed"] == 8

    def test_backpressure_credit_waits(self, harness):
        """A window smaller than the trace forces the producer through
        CREDIT replenishment; the stream still analyzes identically."""
        make, sock, out, traces = harness
        st = make(window=512)
        name, path = max(traces.items(), key=lambda kv: os.path.getsize(kv[1]))
        result = send_trace(path, "bp", socket_path=sock, slice_bytes=256)
        assert result.ok, (result.error_code, result.response)
        assert result.credit_waits > 0
        with open(os.path.join(out, "reports", "bp.json"), "rb") as fh:
            assert fh.read() == render_report(report_doc_for_file(path))
        st.drain()

    def test_introspection(self, harness):
        make, sock, out, traces = harness
        st = make()
        name, path = next(iter(traces.items()))
        assert send_trace(path, name, socket_path=sock).ok
        health = query_server(socket_path=sock, query="healthz")
        assert health["status"] == "ok" and health["accepting"] is True
        assert health["internal_errors"] == 0
        stats = query_server(socket_path=sock, query="stats")
        assert stats["streams"]["analyzed"] == 1
        assert stats["detector"]["events_fed"] > 0
        assert stats["internal_errors"] == 0
        st.drain()

    def test_finished_sessions_drop_analysis_state(self, harness):
        """Completed and quarantined sessions let go of their decoder and
        detector, yet keep what arbitration, stats and the manifest
        read: state, row, journaled bytes and events fed."""
        make, sock, out, traces = harness
        st = make()
        shipped, sizes = {}, {}
        for i, (name, path) in enumerate(list(traces.items()) * 2):
            sid = f"{name}-{i}"
            result = send_trace(path, sid, socket_path=sock)
            assert result.ok, (result.error_code, result.response)
            shipped[sid] = result.response["events"]
            sizes[sid] = os.path.getsize(path)
        path = next(iter(traces.values()))
        garbage = chaos_client("garbage", path, "chaos-garbage", socket_path=sock)
        assert garbage.err["code"] == "unreadable"
        assert chaos_client("kill", path, "gone", socket_path=sock).bytes_sent > 0
        deadline = time.monotonic() + 5
        while st.server.stats.streams_parked == 0:
            assert time.monotonic() < deadline, "stream never parked"
            time.sleep(0.02)

        sessions = st.server.sessions
        for sid, events in shipped.items():
            sess = sessions[sid]
            assert sess.state.name == "COMPLETE"
            assert sess.decoder is None and sess.detector is None
            assert sess.events_fed == events == sess.row["events"]
            assert sess.journaled_bytes == sizes[sid]
        quarantined = sessions["chaos-garbage"]
        assert quarantined.state.name == "QUARANTINED"
        assert quarantined.decoder is None and quarantined.detector is None
        # A parked stream may still resume: it keeps its state until drain.
        assert sessions["gone"].detector is not None

        # Arbitration still sees the settled ids.
        first = next(iter(shipped))
        dup = chaos_client("dup", path, first, socket_path=sock)
        assert dup.err["code"] == "duplicate-stream"
        stats = query_server(socket_path=sock, query="stats")
        assert stats["streams"]["analyzed"] == len(shipped)
        assert stats["streams"]["active"] == 0
        assert stats["streams"]["rejected"] == 1
        assert stats["quarantine_reasons"] == {"unreadable": 1}
        assert stats["detector"]["events_fed"] >= sum(shipped.values())
        assert stats["detector"]["per_stream"] == {}
        assert stats["internal_errors"] == 0
        st.drain()

        assert all(
            s.decoder is None and s.detector is None for s in sessions.values()
        )
        doc = manifest(out)
        rows = rows_by_stream(doc)
        assert {sid: rows[sid]["events"] for sid in shipped} == shipped
        assert rows["chaos-garbage"]["code"] == "unreadable"
        assert rows["gone"]["code"] == "aborted"
        assert doc["totals"] == {
            "streams": len(shipped) + 2,
            "analyzed": len(shipped),
            "quarantined": 2,
            "rejected": 1,
            "events": sum(shipped.values()),
            "defect_keys": sum(rows[sid]["defect_keys"] for sid in shipped),
        }
        assert [r["stream"] for r in doc["rejected"]] == [first]


class _Writer:
    """The slice of ``asyncio.StreamWriter`` a credit grant writes to."""

    def __init__(self) -> None:
        self.frames: list = []

    def write(self, data: bytes) -> None:
        self.frames.append(data)

    async def drain(self) -> None:
        pass


class _Probe:
    """A session stand-in that records which sessions a grant reads."""

    def __init__(self, sid: str, state, reads: list) -> None:
        self.stream_id, self._state, self._reads = sid, state, reads

    @property
    def state(self):
        self._reads.append(("state", self.stream_id))
        return self._state

    @property
    def buffered(self) -> int:
        self._reads.append(("buffered", self.stream_id))
        return 5


class TestServeConfig:
    def test_detector_limits_are_the_corpus_params(self, tmp_path):
        """Detection limits are DETECTOR_PARAMS, never a daemon knob: a
        daemon report must stay byte-identical to analyze-trace --json."""
        from repro.serve.session import StreamSession

        base = dict(out_dir=str(tmp_path / "run"), socket_path=str(tmp_path / "s"))
        for retired in ("max_length", "max_cycles", "fleet_dir"):
            with pytest.raises(TypeError):
                ServeConfig(**base, **{retired: 4})
        for retired in ("max_length", "max_cycles"):
            with pytest.raises(TypeError):
                StreamSession("s", base["out_dir"], None, **{retired: 4})

    @pytest.mark.parametrize("backend", ["python", "native"])
    def test_reports_state_the_limits_detection_ran_with(
        self, tmp_path, monkeypatch, capsysbinary, backend
    ):
        """``wolf analyze-trace --json`` and a daemon session both detect
        with DETECTOR_PARAMS as it reads when they run, and each report
        states the limits its detection used."""
        from repro.cli import main
        from repro.core.nativekernel import analyze_trace_file, kernel_available
        from repro.corpus.manifest import DETECTOR_PARAMS
        from repro.serve.session import StreamSession

        if backend == "native" and not kernel_available():
            pytest.skip("native kernel unavailable on this host")
        path = os.path.join(REPO, "corpus", "Jigsaw-s11578652118208600430.wtrc")
        monkeypatch.setitem(DETECTOR_PARAMS, "max_length", 2)
        assert main(["analyze-trace", path, "--json", "--backend", backend]) == 0
        cli_bytes = capsysbinary.readouterr().out

        out = tmp_path / "run"
        out.mkdir()
        journal = RunJournal(str(out / "journal.jsonl"))
        try:
            session = StreamSession("s", str(out), journal, backend=backend)
            session.open_fresh()
            with open(path, "rb") as fh:
                session.ingest(fh.read())
            served = render_report(session.finalize())
        finally:
            journal.close()
        assert served == cli_bytes
        doc = json.loads(cli_bytes)
        assert doc["detector"] == {"max_length": 2, "max_cycles": 10_000}
        short = analyze_trace_file(path, max_length=2, backend=backend).detection
        full = analyze_trace_file(path, backend=backend).detection
        assert doc["cycles"] == len(short.cycles) < len(full.cycles)

    def test_multi_worker_config_needs_fleet_worker(self, tmp_path):
        base = dict(
            out_dir=str(tmp_path / "run"),
            socket_path=str(tmp_path / "s"),
            worker_index=1,
            num_workers=2,
        )
        with pytest.raises(ValueError, match="fleet_worker"):
            ServeConfig(**base)
        assert ServeConfig(**base, fleet_worker=True).fleet_worker


class TestCreditAccounting:
    def test_grant_reads_only_the_active_sessions(self, tmp_path):
        """A credit grant counts the streams attached now, not every stream
        the run has seen; a stream that settles leaves the count at the
        next grant without its buffer being read."""
        from repro.serve.session import SessionState

        server = WolfServer(
            ServeConfig(out_dir=str(tmp_path / "run"), socket_path=str(tmp_path / "s"))
        )
        reads: list = []
        for i in range(500):
            sid = f"old-{i}"
            server.sessions[sid] = _Probe(sid, SessionState.COMPLETE, reads)
        live = _Probe("live", SessionState.ACTIVE, reads)
        server.sessions["live"] = server._active["live"] = live
        writer = _Writer()
        assert asyncio.run(server._grant_credit(live, writer, 64)) == 64
        assert len(writer.frames) == 1
        assert reads == [("state", "live"), ("buffered", "live")]
        assert server.stats.buffered_bytes == 5

        live._state = SessionState.COMPLETE
        reads.clear()
        assert server._buffered_total() == 0
        assert reads == [("state", "live")] and server._active == {}


# ---------------------------------------------------------------------------
# chaos suite
# ---------------------------------------------------------------------------


class TestChaosSuite:
    """Each misbehavior mode: deterministic code, healthy isolation."""

    @pytest.mark.parametrize(
        "mode,code",
        [
            ("garbage", "unreadable"),
            ("corrupt", "corrupt-payload"),
            ("oversized", "oversized-chunk"),
            ("overdraft", "flow-violation"),
        ],
    )
    def test_hostile_bytes_quarantined(self, harness, mode, code):
        make, sock, out, traces = harness
        st = make()
        name, path = next(iter(traces.items()))
        outcome = chaos_client(mode, path, f"chaos-{mode}", socket_path=sock)
        assert outcome.err is not None, mode
        assert outcome.err["code"] == code, outcome.err
        # The healthy stream right after is untouched by the chaos.
        assert send_trace(path, name, socket_path=sock).ok
        st.drain()
        rows = rows_by_stream(manifest(out))
        row = rows[f"chaos-{mode}"]
        assert row["status"] == "quarantined" and row["code"] == code
        assert rows[name]["status"] == "analyzed"
        reason_path = os.path.join(
            out, "quarantine", f"chaos-{mode}.reason.json"
        )
        with open(reason_path) as fh:
            reason = json.load(fh)
        assert reason["code"] == code
        assert st.server.stats.internal_errors == 0

    @pytest.mark.skipif(
        not hasattr(select, "POLLRDHUP"), reason="needs poll(POLLRDHUP)"
    )
    def test_corrupt_verdict_read_after_daemon_hangs_up(
        self, harness, monkeypatch
    ):
        """The daemon may classify the corrupt DATA frame and hang up
        before the client writes FIN; the client still reads its ERR."""
        from repro.serve import client
        from repro.serve.protocol import FrameKind, encode_frame

        fin = encode_frame(FrameKind.FIN)
        connect = client._connect

        class FinAfterHangUp:
            def __init__(self, sock):
                self._sock = sock

            def __getattr__(self, name):
                return getattr(self._sock, name)

            def sendall(self, data):
                if data == fin:
                    poller = select.poll()
                    poller.register(self._sock, select.POLLRDHUP)
                    assert poller.poll(10_000), "the daemon never hung up"
                self._sock.sendall(data)

        monkeypatch.setattr(
            client, "_connect", lambda *a, **kw: FinAfterHangUp(connect(*a, **kw))
        )
        make, sock, out, traces = harness
        st = make()
        outcome = chaos_client(
            "corrupt", next(iter(traces.values())), "chaos-corrupt", socket_path=sock
        )
        st.drain()
        assert outcome.err is not None
        assert outcome.err["code"] == "corrupt-payload"

    def test_corrupt_mode_breaks_every_corpus_trace(self, harness):
        """``corrupt`` damages what every decoder refuses, whatever the
        trace: each committed corpus trace settles ``corrupt-payload``."""
        make, sock, out, _ = harness
        st = make()
        paths = sorted(Path(REPO, "corpus").glob("*.wtrc"))
        assert paths
        for path in paths:
            outcome = chaos_client("corrupt", str(path), path.stem, socket_path=sock)
            assert outcome.err is not None, path.name
            assert outcome.err["code"] == "corrupt-payload", (path.name, outcome.err)
        st.drain()
        rows = rows_by_stream(manifest(out))
        assert {sid: (r["status"], r["code"]) for sid, r in rows.items()} == {
            path.stem: ("quarantined", "corrupt-payload") for path in paths
        }
        assert st.server.stats.internal_errors == 0

    def test_stall_evicted_as_idle_timeout(self, harness):
        make, sock, out, traces = harness
        st = make(idle_timeout=0.5)
        name, path = next(iter(traces.items()))
        outcome = chaos_client(
            "stall", path, "chaos-stall", socket_path=sock, stall_seconds=10.0
        )
        assert outcome.err is not None
        assert outcome.err["code"] == "idle-timeout"
        assert send_trace(path, name, socket_path=sock).ok
        st.drain()
        rows = rows_by_stream(manifest(out))
        assert rows["chaos-stall"]["code"] == "idle-timeout"
        assert st.server.stats.evictions == 1

    def test_duplicate_stream_rejected_both_ways(self, harness):
        """A settled id and a concurrently-active id both reject without
        touching the original stream."""
        make, sock, out, traces = harness
        st = make(idle_timeout=10.0)
        name, path = next(iter(traces.items()))
        assert send_trace(path, name, socket_path=sock).ok
        dup = chaos_client("dup", path, name, socket_path=sock)
        assert dup.err is not None and dup.err["code"] == "duplicate-stream"
        # Active duplicate: stall a stream open, then HELLO it again.
        stall = threading.Thread(
            target=chaos_client,
            args=("stall", path, "held-open"),
            kwargs={"socket_path": sock, "stall_seconds": 3.0},
        )
        stall.start()
        time.sleep(0.3)
        dup2 = chaos_client("dup", path, "held-open", socket_path=sock)
        stall.join(timeout=15)
        assert dup2.err is not None and dup2.err["code"] == "duplicate-stream"
        st.drain()
        doc = manifest(out)
        assert rows_by_stream(doc)[name]["status"] == "analyzed"
        rejected = {r["stream"] for r in doc["rejected"]}
        assert rejected == {name, "held-open"}

    def test_kill_mid_chunk_aborted_at_drain(self, harness):
        """A producer killed mid-chunk parks (resumable); if it never
        returns, drain settles it as `aborted` with evidence."""
        make, sock, out, traces = harness
        st = make()
        name, path = next(iter(traces.items()))
        outcome = chaos_client("kill", path, "gone", socket_path=sock)
        assert outcome.bytes_sent > 0
        deadline = time.monotonic() + 5
        while st.server.stats.streams_parked == 0:
            assert time.monotonic() < deadline, "stream never parked"
            time.sleep(0.02)
        st.drain()
        row = rows_by_stream(manifest(out))["gone"]
        assert row["status"] == "quarantined" and row["code"] == "aborted"
        assert st.server.stats.internal_errors == 0

    def test_reconnect_resumes_and_matches_batch(self, harness):
        """Kill mid-chunk, reconnect, finish: the daemon resumes from the
        journaled boundary and the final report is still byte-identical."""
        make, sock, out, traces = harness
        st = make()
        name, path = next(iter(traces.items()))
        outcome = chaos_client("reconnect", path, "phoenix", socket_path=sock)
        assert outcome.fin_ack is not None, outcome.err
        assert outcome.reconnected
        with open(os.path.join(out, "reports", "phoenix.json"), "rb") as fh:
            assert fh.read() == render_report(report_doc_for_file(path))
        assert st.server.stats.streams_resumed >= 1
        st.drain()
        assert rows_by_stream(manifest(out))["phoenix"]["status"] == "analyzed"

    def test_fin_before_end_chunk_is_torn(self, harness, tmp_path):
        """An honest FIN on an incomplete stream (no END chunk) is the
        transport twin of a torn file: quarantined `torn`."""
        make, sock, out, traces = harness
        st = make()
        path = next(iter(traces.values()))
        clipped = tmp_path / "clipped.wtrc"
        clipped.write_bytes(open(path, "rb").read()[:-3])  # strip END
        result = send_trace(str(clipped), "torn-stream", socket_path=sock)
        assert not result.ok
        assert result.error_code == "torn"
        st.drain()
        assert rows_by_stream(manifest(out))["torn-stream"]["code"] == "torn"

    def test_half_trace_is_torn_to_serve_and_validator(self, harness, tmp_path):
        """One truncated stream, one code: the first half of a corpus
        trace (cut inside a chunk) followed by FIN is `torn` to the
        daemon, and the same bytes as a file are `torn` to the corpus
        validator's classifier."""
        make, sock, out, _traces = harness
        st = make()
        data = (Path(REPO) / "corpus" / "HashMap-s0.wtrc").read_bytes()
        half = tmp_path / "half.wtrc"
        half.write_bytes(data[: len(data) // 2])
        assert classify_trace_file(str(half)) == Corruption(
            "torn", "torn trace (truncated chunk)"
        )
        result = send_trace(str(half), "half-stream", socket_path=sock)
        assert not result.ok
        assert result.error_code == "torn"
        st.drain()
        row = rows_by_stream(manifest(out))["half-stream"]
        assert row["status"] == "quarantined" and row["code"] == "torn"

    def test_end_only_stream_is_unreadable(self, harness, tmp_path):
        """A stream that seals before its META chunk is refused by the
        one chunk grammar, exactly as the file reader refuses it."""
        make, sock, out, _traces = harness
        st = make()
        end_only = tmp_path / "end-only.wtrc"
        end_only.write_bytes(b"WTRC\x01" + b"\x05\x01\x00")  # END(0)
        result = send_trace(str(end_only), "end-only", socket_path=sock)
        assert not result.ok
        assert result.error_code == "unreadable"
        st.drain()
        row = rows_by_stream(manifest(out))["end-only"]
        assert row["status"] == "quarantined" and row["code"] == "unreadable"
        assert row["detail"] == "trace file must start with a META chunk"


# ---------------------------------------------------------------------------
# one outcome per stream, whichever backend the daemon runs
# ---------------------------------------------------------------------------

HOSTILE_MODES = ("garbage", "corrupt", "oversized", "overdraft")
OVERLONG_DETAIL = "OverflowError('varint longer than 10 bytes')"


def _chunk(kind: int, payload: bytes) -> bytes:
    from repro.runtime.tracefile import _put_uvarint

    head = bytearray([kind])
    _put_uvarint(head, len(payload))
    return bytes(head) + payload


def _crafted_streams(tmp_path) -> dict:
    """Stream id -> path: a corpus trace with an extra EVENTS chunk of one
    event whose step delta is 2^70 (its END count bumped to match), and
    the same trace's tables followed by an EVENTS chunk of 64 KiB of
    0xff."""
    from repro.runtime.tracefile import (
        _END,
        _EVENTS,
        _get_uvarint,
        _put_svarint,
        _put_uvarint,
    )

    corpus = Path(REPO) / "corpus"
    data = (corpus / "ArrayList-s11578652118208600430.wtrc").read_bytes()
    wide = bytearray()
    _put_uvarint(wide, 1)  # one event
    wide.append(0)  # BeginEvent tag
    _put_svarint(wide, 1 << 70)  # step delta: eleven bytes
    _put_uvarint(wide, 0)  # thread index
    spliced, tables = bytearray(data[:5]), b""
    pos = 5  # magic + version byte
    while pos < len(data):
        length, body = _get_uvarint(data, pos + 1)
        if data[pos] == _EVENTS and not tables:
            tables = bytes(spliced)
            spliced += _chunk(_EVENTS, bytes(wide))
        if data[pos] == _END:
            declared, _ = _get_uvarint(data, body)
            end = bytearray()
            _put_uvarint(end, declared + 1)
            spliced += _chunk(_END, bytes(end))
        else:
            spliced += data[pos : body + length]
        pos = body + length
    out = {}
    for sid, stream in (
        ("step-2-70", bytes(spliced)),
        ("ff-run", tables + _chunk(_EVENTS, b"\xff" * 65536)),
    ):
        path = tmp_path / f"{sid}.wtrc"
        path.write_bytes(stream)
        out[sid] = str(path)
    return out


class TestBackendParity:
    """The python and native daemons settle every hostile stream alike:
    the same quarantine code and detail, and no internal error."""

    def test_hostile_streams_settle_alike(self, tmp_path):
        b = all_benchmarks()[0]
        run = run_detection(b.program, b.detect_seed, name=b.name)
        trace = str(tmp_path / f"{b.name}.wtrc")
        write_trace(run.trace, trace, events_per_chunk=16)
        crafted = _crafted_streams(tmp_path)
        rows = {}
        for backend in _backends():
            sock = str(tmp_path / f"{backend}.sock")
            out = str(tmp_path / backend)
            st = ServerThread(
                ServeConfig(
                    out_dir=out, socket_path=sock, idle_timeout=5.0, backend=backend
                )
            ).start()
            try:
                for mode in HOSTILE_MODES:
                    chaos_client(mode, trace, f"chaos-{mode}", socket_path=sock)
                for sid, path in crafted.items():
                    assert not send_trace(path, sid, socket_path=sock).ok
            finally:
                st.drain()
            assert st.server.backend == backend
            assert st.server.stats.internal_errors == 0, backend
            rows[backend] = rows_by_stream(manifest(out))
        want = rows["python"]
        assert {sid: (r["status"], r["code"]) for sid, r in want.items()} == {
            "chaos-garbage": ("quarantined", "unreadable"),
            "chaos-corrupt": ("quarantined", "corrupt-payload"),
            "chaos-oversized": ("quarantined", "oversized-chunk"),
            "chaos-overdraft": ("quarantined", "flow-violation"),
            "step-2-70": ("quarantined", "corrupt-payload"),
            "ff-run": ("quarantined", "corrupt-payload"),
        }
        for sid in ("step-2-70", "ff-run"):
            assert want[sid]["detail"] == OVERLONG_DETAIL, sid
        for backend, got in rows.items():
            assert got == want, backend


# ---------------------------------------------------------------------------
# crash recovery
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_restart_resumes_without_reanalysis(self, harness):
        """Crash (no drain) after one completed and one partial stream:
        the restarted daemon rebuilds the completed row from the journal
        (no second analysis) and resumes the partial stream mid-way."""
        make, sock, out, traces = harness
        (name1, path1), (name2, path2) = list(traces.items())[:2]
        st1 = make()
        assert send_trace(path1, "done", socket_path=sock).ok
        outcome = chaos_client("kill", path2, "partial", socket_path=sock)
        assert outcome.bytes_sent > 0
        deadline = time.monotonic() + 5
        while st1.server.stats.streams_parked == 0:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        journaled = st1.server.sessions["partial"].journaled_bytes
        assert journaled > 0, "kill must land past a chunk boundary"
        with open(os.path.join(out, "reports", "done.json"), "rb") as fh:
            first_report = fh.read()
        st1.crash()

        st2 = make()
        # Completed stream: terminal, never re-analyzed, duplicate rejected.
        dup = send_trace(path1, "done", socket_path=sock)
        assert not dup.ok and dup.error_code == "duplicate-stream"
        # Partial stream: resumes from the journaled chunk boundary.
        result = send_trace(path2, "partial", socket_path=sock)
        assert result.ok, (result.error_code, result.response)
        assert result.resume_offset == journaled
        with open(os.path.join(out, "reports", "partial.json"), "rb") as fh:
            assert fh.read() == render_report(report_doc_for_file(path2))
        st2.drain()
        rows = rows_by_stream(manifest(out))
        assert rows["done"]["status"] == "analyzed"
        assert rows["partial"]["status"] == "analyzed"
        # One complete op per stream across both incarnations.
        completes = []
        with open(os.path.join(out, "journal.jsonl")) as fh:
            for line in fh:
                doc = json.loads(line)
                if doc["op"] == "complete":
                    completes.append(doc["stream"])
        assert sorted(completes) == ["done", "partial"]
        # The first incarnation's report bytes were never rewritten.
        with open(os.path.join(out, "reports", "done.json"), "rb") as fh:
            assert fh.read() == first_report

    def test_never_reattached_partial_aborts_at_drain(self, harness):
        make, sock, out, traces = harness
        path = next(iter(traces.values()))
        st1 = make()
        chaos_client("kill", path, "orphan", socket_path=sock)
        deadline = time.monotonic() + 5
        while st1.server.stats.streams_parked == 0:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        st1.crash()
        st2 = make()
        st2.drain()
        row = rows_by_stream(manifest(out))["orphan"]
        assert row["status"] == "quarantined" and row["code"] == "aborted"

    def test_journal_torn_final_line_ignored(self, tmp_path):
        p = str(tmp_path / "journal.jsonl")
        j = RunJournal(p)
        j.chunk("s", 100)
        j.complete("s", {"stream": "s", "status": "analyzed"})
        j.close()
        with open(p, "a") as fh:
            fh.write('{"op": "quaran')  # crash mid-write
        state = RunJournal.load_state(p)
        assert state.completed["s"]["status"] == "analyzed"
        assert state.resumable() == {}


# ---------------------------------------------------------------------------
# spool durability, one session at a time
# ---------------------------------------------------------------------------


def _backends():
    from repro.core.nativekernel import kernel_available

    return ["python"] + (["native"] if kernel_available() else [])


@pytest.fixture()
def spooled(tmp_path):
    """(trace path, its bytes, run dir, journal) for one session."""
    b = all_benchmarks()[0]
    run = run_detection(b.program, b.detect_seed, name=b.name)
    path = str(tmp_path / "t.wtrc")
    write_trace(run.trace, path, events_per_chunk=16)
    out = tmp_path / "run"
    out.mkdir()
    journal = RunJournal(str(out / "journal.jsonl"))
    yield path, open(path, "rb").read(), str(out), journal
    journal.close()


def _count_fsyncs(monkeypatch) -> list:
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


class TestSpoolDurability:
    @pytest.mark.parametrize("backend", _backends())
    def test_finalize_adds_no_spool_fsync(self, spooled, monkeypatch, backend):
        """Each chunk crossing fsyncs the spool and its journal line; the
        crossing that consumed END already made every spooled byte
        durable, so finalize fsyncs nothing more."""
        from repro.serve.session import StreamSession

        path, data, out, journal = spooled
        calls = _count_fsyncs(monkeypatch)
        session = StreamSession("s", out, journal, backend=backend)
        session.open_fresh()
        crossings = 0
        for i in range(0, len(data), 200):
            before = session.journaled_bytes
            session.ingest(data[i : i + 200])
            crossings += session.journaled_bytes != before
        assert session.decoder.complete
        assert len(calls) == 2 * crossings
        doc = session.finalize()
        assert len(calls) == 2 * crossings
        assert render_report(doc) == render_report(report_doc_for_file(path))

    def test_park_still_fsyncs_the_tail(self, spooled, monkeypatch):
        from repro.serve.session import StreamSession

        _, data, out, journal = spooled
        session = StreamSession("s", out, journal)
        session.open_fresh()
        session.ingest(data[: len(data) // 2])
        calls = _count_fsyncs(monkeypatch)
        session.park()
        assert len(calls) == 1

    @pytest.mark.parametrize("backend", _backends())
    def test_resume_keeps_the_durable_prefix(self, spooled, monkeypatch, backend):
        """Resume never opens an existing spool in a truncating mode: the
        journaled prefix stays on disk untouched, only the unjournaled
        tail is cut, and the resumed stream reports byte-identically."""
        import repro.serve.session as session_mod
        from repro.serve.session import StreamSession

        path, data, out, journal = spooled
        first = StreamSession("s", out, journal, backend=backend)
        first.open_fresh()
        first.ingest(data[: len(data) // 2])
        first.park()
        durable = first.journaled_bytes
        spool_path = first.spool_path
        assert 0 < durable < os.path.getsize(spool_path)

        opened = []
        real_open = open

        def spy_open(file, mode="r", *args, **kwargs):
            opened.append((file, mode, os.path.exists(file)))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(session_mod, "open", spy_open, raising=False)
        inode = os.stat(spool_path).st_ino
        second = StreamSession("s", out, journal, backend=backend)
        second.open_resumed(durable)
        assert opened == [(spool_path, "r+b", True)]
        assert os.stat(spool_path).st_ino == inode
        assert os.path.getsize(spool_path) == durable
        second.ingest(data[durable:])
        doc = second.finalize()
        assert render_report(doc) == render_report(report_doc_for_file(path))
        with real_open(spool_path, "rb") as fh:
            assert fh.read() == data


# ---------------------------------------------------------------------------
# sealed documents
# ---------------------------------------------------------------------------


def _record_durability(monkeypatch) -> list:
    """Log each ``os.replace`` target and whether each fsync hit a file or
    a directory, in call order."""
    ops = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        ops.append(("fsync", kind))
        return fsync(fd)

    def recording_replace(src, dst):
        ops.append(("replace", os.path.basename(dst)))
        return replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    return ops


#: A durable document write: the new file, its rename, the directory entry.
SEALED = [("fsync", "file"), ("replace", RUN_MANIFEST_NAME), ("fsync", "dir")]


class TestDocumentDurability:
    def test_drained_manifest_fsyncs_its_directory(self, harness, monkeypatch):
        make, _, _, _ = harness
        st = make()
        ops = _record_durability(monkeypatch)
        st.drain()
        i = ops.index(("replace", RUN_MANIFEST_NAME))
        assert ops[i - 1 : i + 2] == SEALED

    def test_merged_manifest_fsyncs_its_directory(self, tmp_path, monkeypatch):
        from repro.serve import FleetConfig, FleetSupervisor

        sup = FleetSupervisor(
            FleetConfig(out_dir=str(tmp_path), socket_path=str(tmp_path / "s"))
        )
        ops = _record_durability(monkeypatch)
        sup._write_merged_manifest()
        assert ops == SEALED


# ---------------------------------------------------------------------------
# process-level lifecycle (the real signals)
# ---------------------------------------------------------------------------


def _spawn_daemon(sock: str, out: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            sock,
            "--out",
            out,
            "--idle-timeout",
            "30",
        ],
        env=env,
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + 30
    while True:
        if proc.poll() is not None:  # pragma: no cover - startup failure
            raise RuntimeError(proc.stdout.read().decode())
        try:
            # A live healthz probe, not os.path.exists: after a kill -9
            # the previous incarnation's socket file is still on disk.
            if query_server(socket_path=sock, query="healthz")["status"] == "ok":
                return proc
        except Exception:
            pass
        if time.monotonic() > deadline:  # pragma: no cover - hang guard
            proc.kill()
            raise RuntimeError("daemon did not come up")
        time.sleep(0.05)


@pytest.mark.slow
class TestDaemonProcess:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        b = all_benchmarks()[0]
        run = run_detection(b.program, b.detect_seed, name=b.name)
        trace = str(tmp_path / "t.wtrc")
        write_trace(run.trace, trace, events_per_chunk=16)
        sock = str(tmp_path / "wolf.sock")
        out = str(tmp_path / "run")
        proc = _spawn_daemon(sock, out)
        try:
            assert send_trace(trace, "s1", socket_path=sock).ok
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
        doc = manifest(out)
        assert doc["drained"] is True
        assert doc["totals"]["analyzed"] == 1
        assert not os.path.exists(sock), "socket must be removed at drain"

    def test_kill9_restart_resume(self, tmp_path):
        """The full acceptance scenario across real processes."""
        benches = all_benchmarks()[:2]
        paths = []
        for b in benches:
            run = run_detection(b.program, b.detect_seed, name=b.name)
            p = str(tmp_path / f"{b.name}.wtrc")
            write_trace(run.trace, p, events_per_chunk=8)
            paths.append(p)
        sock = str(tmp_path / "wolf.sock")
        out = str(tmp_path / "run")
        journal = os.path.join(out, "journal.jsonl")

        proc = _spawn_daemon(sock, out)
        try:
            assert send_trace(paths[0], "done", socket_path=sock).ok
            chaos_client("kill", paths[1], "partial", socket_path=sock)
            deadline = time.monotonic() + 10
            while True:  # wait for the partial stream's journal line
                if os.path.exists(journal):
                    with open(journal) as fh:
                        if any(
                            '"partial"' in ln and '"chunk"' in ln for ln in fh
                        ):
                            break
                assert time.monotonic() < deadline, "no journal line"
                time.sleep(0.05)
        finally:
            proc.kill()  # SIGKILL: no drain, no manifest
            proc.wait(timeout=10)
        assert not os.path.exists(os.path.join(out, RUN_MANIFEST_NAME))

        proc = _spawn_daemon(sock, out)
        try:
            result = send_trace(paths[1], "partial", socket_path=sock)
            assert result.ok, (result.error_code, result.response)
            assert result.resume_offset > 0
            dup = send_trace(paths[0], "done", socket_path=sock)
            assert not dup.ok and dup.error_code == "duplicate-stream"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
        rows = rows_by_stream(manifest(out))
        assert rows["done"]["status"] == "analyzed"
        assert rows["partial"]["status"] == "analyzed"
        with open(os.path.join(out, "reports", "partial.json"), "rb") as fh:
            assert fh.read() == render_report(report_doc_for_file(paths[1]))
        completes = []
        with open(journal) as fh:
            for line in fh:
                doc = json.loads(line)
                if doc["op"] == "complete":
                    completes.append(doc["stream"])
        assert sorted(completes) == ["done", "partial"], (
            "completed streams must be analyzed exactly once across restarts"
        )
