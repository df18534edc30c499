"""Multi-process fleet ingestion: routing, crash-resume, determinism.

The contracts this suite pins:

* shard routing is a stable pure function (sha256, not ``hash()``), so
  every component — workers, router, reconnecting producers — agrees on
  stream ownership across processes and restarts;
* the journal rotates (compacts) at a size threshold and crash recovery
  across a rotation boundary is indistinguishable from no rotation;
* fleet rollups are byte-identical at any worker count and arrival
  order, and per-stream reports stay byte-identical to the batch path;
* kill -9 of a single worker mid-stream is survivable: the supervisor
  restarts it, the stream resumes from the journaled chunk boundary,
  and the merged manifest equals the no-crash run's byte-for-byte;
* the supervisor's stream-id router is the one front door, and carries
  streams sent to a public TCP port end-to-end as it does for a unix
  socket, while a worker dialled directly refuses streams it does not own;
* drain with stragglers seals exactly one merged manifest with every
  stream accounted for.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import signal
import socket as socketlib
import sys
import threading
import time

import pytest

from repro.core.pipeline import run_detection
from repro.corpus import build_from_quarantine, validate_corpus
from repro.corpus.manifest import CorpusManifest
from repro.runtime.tracefile import write_trace
from repro.serve import (
    RUN_MANIFEST_NAME,
    FleetConfig,
    FleetSupervisor,
    RunJournal,
    ServeConfig,
    render_report,
    render_rollup,
    report_doc_for_file,
    rollup_reports,
    rollup_run_dirs,
    send_trace,
    shard_of,
)
from repro.serve.client import _hello
from repro.serve.protocol import (
    WRONG_WORKER,
    FrameKind,
    encode_frame,
    recv_frame_sync,
)
from repro.serve.supervisor import (
    fleet_status,
    merge_manifests,
    worker_dir,
    worker_socket_path,
)
from repro.workloads.registry import all_benchmarks

from test_serve import ServerThread


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


class FleetThread:
    """A FleetSupervisor on its own event-loop thread (workers are real
    subprocesses either way; only the supervisor loop is in-process)."""

    def __init__(self, cfg: FleetConfig) -> None:
        self.cfg = cfg
        self.sup = FleetSupervisor(cfg)
        self.loop = asyncio.new_event_loop()
        self.ready = threading.Event()
        self.startup_error: Exception | None = None
        self.thread = threading.Thread(target=self._main, daemon=True)

    def _main(self) -> None:
        asyncio.set_event_loop(self.loop)

        async def go() -> None:
            try:
                await self.sup.start()
            except Exception as exc:  # pragma: no cover - startup failure
                self.startup_error = exc
                raise
            finally:
                self.ready.set()
            await self.sup._drain_requested.wait()
            await self.sup.drain()

        try:
            self.loop.run_until_complete(go())
        finally:
            self.loop.close()

    def start(self) -> "FleetThread":
        self.thread.start()
        if not self.ready.wait(timeout=60):  # pragma: no cover - hang guard
            raise RuntimeError("fleet did not come up")
        if self.startup_error is not None:  # pragma: no cover
            raise self.startup_error
        return self

    def drain(self) -> None:
        self.loop.call_soon_threadsafe(self.sup.request_drain)
        self.thread.join(timeout=60)
        assert not self.thread.is_alive(), "fleet did not drain"

    def kill(self) -> None:  # emergency cleanup only
        for proc in self.sup._procs:
            if proc is not None and proc.poll() is None:
                proc.kill()


@pytest.fixture()
def traces(tmp_path):
    """Real .wtrc traces (small chunks so partial sends cross journal
    boundaries), at least one witnessing a deadlock."""
    out = {}
    for b in all_benchmarks()[:3]:
        run = run_detection(b.program, b.detect_seed, name=b.name)
        path = str(tmp_path / f"{b.name}.wtrc")
        write_trace(run.trace, path, events_per_chunk=16)
        out[b.name] = path
    return out


def run_fleet(tmp_path, traces, *, workers, tag, crash_stream=None, **kw):
    """One full fleet run: ship every trace, optionally kill -9 the
    worker owning ``crash_stream`` mid-stream first, drain, and return
    the fleet directory."""
    fleet_dir = str(tmp_path / f"fleet-{tag}")
    sock = str(tmp_path / f"pub-{tag}.sock")
    cfg = FleetConfig(
        out_dir=fleet_dir,
        workers=workers,
        socket_path=sock,
        idle_timeout=10.0,
        **kw,
    )
    ft = FleetThread(cfg).start()
    try:
        if crash_stream is not None:
            _crash_mid_stream(ft, fleet_dir, traces, crash_stream, workers)
        for i, path in enumerate(traces.values()):
            r = send_trace(path, f"stream-{i}", socket_path=sock)
            assert r.ok, (r.error_code, r.response)
        ft.drain()
    finally:
        ft.kill()
    return fleet_dir


def _crash_mid_stream(ft, fleet_dir, traces, stream_id, workers):
    """Honest partial send to the owner, then SIGKILL that worker."""
    owner = shard_of(stream_id, workers)
    sock_path = worker_socket_path(fleet_dir, owner)
    path = next(iter(traces.values()))
    sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(sock_path)
    frame, doc = _hello(sock, stream_id, "crash-test")
    assert frame is not None and frame.kind is FrameKind.ACK, doc
    credit = int(doc["credit"])
    with open(path, "rb") as fh:
        data = fh.read()
    cut = min(len(data) // 2, credit)
    sock.sendall(encode_frame(FrameKind.DATA, data[:cut]))
    # Wait for the CREDIT replenishment: it proves the worker fully
    # processed (and journaled) the bytes before we pull the plug.
    reply = recv_frame_sync(sock)
    assert reply is not None and reply.kind is FrameKind.CREDIT
    sock.close()

    proc = ft.sup._procs[owner]
    pid = proc.pid
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        cur = ft.sup._procs[owner]
        if cur is not None and cur.pid != pid and cur.poll() is None:
            ep = os.path.join(fleet_dir, "workers", f"w{owner}", "endpoint.json")
            try:
                with open(ep) as fh:
                    if json.load(fh).get("pid") == cur.pid:
                        break
            except (OSError, ValueError):
                pass
        time.sleep(0.05)
    else:  # pragma: no cover - hang guard
        raise RuntimeError("worker was not restarted")
    assert ft.sup.restarts[owner] == 1

    # Resume on the restarted worker: the journal must hand back a
    # non-zero chunk-boundary offset (bytes before the kill were durable).
    r = send_trace(path, stream_id, socket_path=sock_path)
    assert r.ok, (r.error_code, r.response)
    assert r.resume_offset > 0


# ---------------------------------------------------------------------------
# routing + protocol (fast, no subprocesses)
# ---------------------------------------------------------------------------


class TestShardRouting:
    def test_single_worker_owns_everything(self):
        assert shard_of("anything", 1) == 0

    def test_stable_across_calls_and_pinned(self):
        # Pinned values: a change here silently strands every journaled
        # stream on the wrong worker after an upgrade.
        assert shard_of("stream-0", 4) == shard_of("stream-0", 4)
        pinned = [shard_of(f"stream-{i}", 4) for i in range(8)]
        assert pinned == [3, 2, 2, 0, 0, 3, 3, 2]

    def test_spreads_streams(self):
        owners = {shard_of(f"s{i}", 4) for i in range(64)}
        assert len(owners) == 4

    def test_wrong_worker_refusal_from_non_owner(self, tmp_path, traces):
        """A worker refuses a HELLO for a stream it does not own, naming
        the owner's index and no address, and journals nothing about it."""
        fleet_dir = str(tmp_path / "fleet")
        stream = "misrouted"
        owner = shard_of(stream, 4)
        me = (owner + 1) % 4
        wdir = os.path.join(fleet_dir, "workers", f"w{me}")
        os.makedirs(wdir)
        st = ServerThread(
            ServeConfig(
                out_dir=wdir,
                socket_path=str(tmp_path / "w.sock"),
                idle_timeout=5.0,
                worker_index=me,
                num_workers=4,
                fleet_worker=True,
            )
        ).start()
        try:
            sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
            sock.settimeout(5.0)
            sock.connect(str(tmp_path / "w.sock"))
            frame, doc = _hello(sock, stream, "prog")
            sock.close()
            assert frame is not None and frame.kind is FrameKind.ERR
            assert doc == {
                "code": WRONG_WORKER,
                "detail": f"stream belongs to worker {owner}",
                "worker": owner,
            }
            path = next(iter(traces.values()))
            r = send_trace(path, stream, socket_path=str(tmp_path / "w.sock"))
            assert not r.ok and r.error_code == WRONG_WORKER
            assert r.response == doc and r.bytes_sent == 0
            # One connection per attempt: the client follows nothing.
            assert st.server.stats.connections == 2
            assert st.server.stats.redirects == 2
        finally:
            st.drain()
        # Refusals must not reach the journal or the manifest: a
        # misrouted HELLO is not durable state.
        with open(os.path.join(wdir, RUN_MANIFEST_NAME)) as fh:
            doc = json.load(fh)
        assert doc["streams"] == [] and doc["rejected"] == []


class TestRouterShutdown:
    """A routing coroutine still pending when its loop shuts down is
    closed with ``GeneratorExit``: it must unwind without awaiting again
    ("coroutine ignored GeneratorExit", reported as unraisable when the
    collector closes it)."""

    def _close_pending(self, tmp_path, stage: str) -> None:
        cfg = FleetConfig(
            out_dir=str(tmp_path), workers=1, socket_path=str(tmp_path / "pub.sock")
        )
        sup = FleetSupervisor(cfg)
        loop = asyncio.new_event_loop()
        client, peer = socketlib.socketpair()
        held = []

        async def worker(reader, writer):
            held.append(writer)
            await reader.read(1)  # the routed HELLO: the splice is up
            spliced.set()
            await reader.read()

        async def start():
            os.makedirs(os.path.dirname(worker_socket_path(cfg.out_dir, 0)), exist_ok=True)
            server = await asyncio.start_unix_server(
                worker, worker_socket_path(cfg.out_dir, 0)
            )
            reader, writer = await asyncio.open_connection(sock=client)
            task = asyncio.ensure_future(sup._route_connection(reader, writer))
            if stage == "peek":
                await asyncio.sleep(0)  # waiting for the first frame
            else:
                peer.sendall(encode_frame(FrameKind.HELLO, b'{"stream": "s"}'))
                await asyncio.wait_for(spliced.wait(), timeout=10)
            assert not task.done()
            return server, task

        spliced = asyncio.Event()
        unraisable = []
        hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
        try:
            server, task = loop.run_until_complete(start())
            task.get_coro().close()  # what collecting the pending task does
            task.cancel()
            for w in held:
                w.close()
            server.close()
            loop.run_until_complete(server.wait_closed())
            gc.collect()
        finally:
            sys.unraisablehook = hook
            peer.close()
            loop.close()
        assert unraisable == []

    def test_pending_peek(self, tmp_path):
        self._close_pending(tmp_path, "peek")

    def test_pending_splice(self, tmp_path):
        self._close_pending(tmp_path, "splice")


class TestClientBatching:
    def test_batched_send_is_byte_identical(self, tmp_path, traces):
        sock = str(tmp_path / "wolf.sock")
        out = str(tmp_path / "run")
        st = ServerThread(
            ServeConfig(
                out_dir=out,
                socket_path=sock,
                idle_timeout=5.0,
            )
        ).start()
        try:
            name, path = next(iter(traces.items()))
            sliced = send_trace(path, "sliced", socket_path=sock, slice_bytes=512)
            batched = send_trace(path, "batched", socket_path=sock, batch=True)
            assert sliced.ok and batched.ok
            assert batched.bytes_sent == sliced.bytes_sent
        finally:
            st.drain()
        a = open(os.path.join(out, "reports", "sliced.json"), "rb").read()
        b = open(os.path.join(out, "reports", "batched.json"), "rb").read()
        assert a == b
        assert b == render_report(report_doc_for_file(path))


# ---------------------------------------------------------------------------
# journal rotation (fast)
# ---------------------------------------------------------------------------


class TestJournalRotation:
    def test_rotation_compacts_and_preserves_state(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        j = RunJournal(path, max_bytes=2048)
        for i in range(200):
            j.chunk("big-stream", (i + 1) * 64)
        j.complete("done-stream", {"stream": "done-stream", "status": "analyzed"})
        j.quarantine("bad-stream", {"stream": "bad-stream", "status": "quarantined"})
        j.reject("evil", "flow-violation", "nope")
        assert j.rotations > 0
        assert os.path.getsize(path) < 200 * 30  # chunk spam compacted away
        j.close()
        with open(path) as fh:
            first = json.loads(fh.readline())
        assert first["op"] == "snapshot"
        state = RunJournal.load_state(path)
        assert state.resumable() == {"big-stream": 200 * 64}
        assert set(state.completed) == {"done-stream"}
        assert set(state.quarantined) == {"bad-stream"}
        assert state.rejected == [
            {"stream": "evil", "code": "flow-violation", "detail": "nope"}
        ]

    def test_snapshot_drops_terminal_chunk_offsets(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        j = RunJournal(path, max_bytes=512)
        for i in range(50):
            j.chunk("s", (i + 1) * 10)
        j.complete("s", {"stream": "s", "status": "analyzed"})
        for i in range(50):  # force a rotation after the terminal row
            j.chunk("other", (i + 1) * 10)
        j.close()
        state = RunJournal.load_state(path)
        # The terminal stream's dead chunk offsets were shed by the
        # snapshot; it is still terminal, and the live stream resumable.
        assert "s" not in state.bytes_ingested
        assert state.terminal("s")
        assert state.resumable() == {"other": 500}

    def test_restart_resume_across_rotation_boundary(self, tmp_path, traces):
        """kill -9 after the journal has rotated: recovery still resumes
        the partial stream from its last chunk boundary."""
        sock = str(tmp_path / "wolf.sock")
        out = str(tmp_path / "run")
        name, path = next(iter(traces.items()))

        def make():
            return ServerThread(
                ServeConfig(
                    out_dir=out,
                    socket_path=sock,
                    idle_timeout=5.0,
                    journal_max_bytes=160,  # rotate every few appends
                )
            ).start()

        st = make()
        c = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        c.settimeout(5.0)
        c.connect(sock)
        frame, doc = _hello(c, "rotating", "prog")
        assert frame is not None and frame.kind is FrameKind.ACK
        data = open(path, "rb").read()
        cut = len(data) * 2 // 3
        # Many tiny DATA frames: each one that crosses a .wtrc chunk
        # boundary appends a journal row, forcing rotations mid-stream.
        for off in range(0, cut, 64):
            c.sendall(encode_frame(FrameKind.DATA, data[off : off + 64]))
            reply = recv_frame_sync(c)  # journaled before the next push
            assert reply is not None and reply.kind is FrameKind.CREDIT
        c.close()
        # Let the disconnect settle (session parks) before pulling the
        # plug, so the crash tears down a quiescent server.
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            sess = st.server.sessions.get("rotating")
            if sess is not None and sess.state.name == "PARKED":
                break
            time.sleep(0.02)
        assert st.server._journal.rotations > 0, "journal never rotated"
        st.crash()

        st2 = make()
        try:
            r = send_trace(path, "rotating", socket_path=sock)
            assert r.ok and r.resume_offset > 0
        finally:
            st2.drain()
        doc = json.load(open(os.path.join(out, RUN_MANIFEST_NAME)))
        rows = {r["stream"]: r for r in doc["streams"]}
        assert rows["rotating"]["status"] == "analyzed"
        report = open(os.path.join(out, rows["rotating"]["report"]), "rb").read()
        assert report == render_report(report_doc_for_file(path))


# ---------------------------------------------------------------------------
# rollup determinism (fast)
# ---------------------------------------------------------------------------


class TestRollup:
    def _fake_doc(self, program, keys, events):
        return {
            "schema": "wolf-defect-report/2",
            "program": program,
            "events": events,
            "cycles": len(keys),
            "truncated": False,
            "defect_keys": [list(k) for k in keys],
            "decisions": [
                {"sites": list(k), "verdict": "replayable", "prediction": "certified"}
                for k in keys
            ],
        }

    def test_arrival_order_invariance(self):
        named = [
            ("s1", self._fake_doc("a", [("x", "y")], 10)),
            ("s2", self._fake_doc("a", [], 5)),
            ("s3", self._fake_doc("b", [("x", "y"), ("p", "q")], 7)),
        ]
        base = render_rollup(rollup_reports(named))
        for seed in range(5):
            shuffled = list(named)
            random.Random(seed).shuffle(shuffled)
            assert render_rollup(rollup_reports(shuffled)) == base

    def test_aggregates(self):
        doc = rollup_reports(
            [
                ("s1", self._fake_doc("a", [("x", "y")], 10)),
                ("s2", self._fake_doc("a", [], 5)),
                ("s3", self._fake_doc("b", [("x", "y")], 7)),
            ]
        )
        assert doc["streams"] == {
            "analyzed": 3,
            "events": 22,
            "cycles": 2,
            "truncated": 0,
        }
        assert doc["defect_keys"] == {"x|y": 2}
        assert doc["verdicts"] == {"replayable": 2}
        assert doc["prediction"]["certified"] == 2
        assert doc["programs"]["a"] == {
            "streams": 2,
            "with_defects": 1,
            "hit_rate": 0.5,
            "events": 15,
            "distinct_defect_keys": 1,
        }
        assert doc["totals"] == {"defect_hits": 2, "distinct_defect_keys": 1}


# ---------------------------------------------------------------------------
# corpus admission from quarantine (fast)
# ---------------------------------------------------------------------------


def _deadlocking_trace(tmp_path):
    """(program name, .wtrc path) of a trace that witnesses a defect."""
    from repro.core.nativekernel import analyze_trace_file
    from repro.corpus.manifest import canonical_keys

    for b in all_benchmarks():
        run = run_detection(b.program, b.detect_seed, name=b.name)
        path = str(tmp_path / f"{b.name}-cand.wtrc")
        write_trace(run.trace, path, events_per_chunk=16)
        detection = analyze_trace_file(path).detection
        if canonical_keys(detection.defect_keys()):
            return b.name, path
    raise RuntimeError("no registry benchmark witnesses a deadlock")


class TestQuarantineAdmission:
    def test_salvage_and_admit(self, tmp_path):
        # A trace that witnesses a deadlock, quarantined in torn form
        # (evidence from a producer that died mid-stream).
        name, whole = _deadlocking_trace(tmp_path)
        qdir = tmp_path / "quarantine"
        qdir.mkdir()
        blob = open(whole, "rb").read()
        with open(qdir / "torn-stream.wtrc", "wb") as fh:
            fh.write(blob[: len(blob) - 7])  # mid-chunk truncation
        with open(qdir / "hopeless.wtrc", "wb") as fh:
            fh.write(b"\x00" * 64)  # not even a header
        corpus = str(tmp_path / "corpus")
        report = build_from_quarantine(str(qdir), corpus)
        assert report.admitted == 1
        assert report.run_errors == 1  # the hopeless one
        manifest = CorpusManifest.load(os.path.join(corpus, "corpus_manifest.json"))
        (rec,) = manifest.traces
        assert rec.source == "quarantine"
        assert rec.program == name
        assert rec.defect_keys
        assert validate_corpus(corpus) == []

    def test_already_covered_rejected(self, tmp_path):
        import shutil

        _name, whole = _deadlocking_trace(tmp_path)
        qdir = tmp_path / "quarantine"
        qdir.mkdir()
        shutil.copyfile(whole, str(qdir / "dup-a.wtrc"))
        shutil.copyfile(whole, str(qdir / "dup-b.wtrc"))
        corpus = str(tmp_path / "corpus")
        report = build_from_quarantine(str(qdir), corpus)
        assert report.admitted == 1
        assert report.rejected_covered == 1


# ---------------------------------------------------------------------------
# the fleet itself (real worker subprocesses)
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestFleet:
    def test_rollup_byte_identity_across_worker_counts(self, tmp_path, traces):
        one = run_fleet(tmp_path, traces, workers=1, tag="w1")
        two = run_fleet(tmp_path, traces, workers=2, tag="w2")
        assert render_rollup(rollup_run_dirs([one])) == render_rollup(
            rollup_run_dirs([two])
        )
        # Per-stream reports: byte-identical across worker counts AND to
        # the batch path (wolf analyze-trace --json).
        for i, path in enumerate(traces.values()):
            batch = render_report(report_doc_for_file(path))
            for fleet_dir in (one, two):
                hits = [
                    os.path.join(d, f"stream-{i}.json")
                    for d in [
                        os.path.join(fleet_dir, "workers", f"w{k}", "reports")
                        for k in range(2)
                    ]
                    if os.path.exists(os.path.join(d, f"stream-{i}.json"))
                ]
                assert len(hits) == 1  # exactly one worker owns the stream
                assert open(hits[0], "rb").read() == batch

    def test_worker_crash_resume_and_manifest_equality(self, tmp_path, traces):
        crash_stream = "crashy"
        clean = run_fleet(tmp_path, traces, workers=2, tag="clean")
        # Same streams, but the crash run *also* ships crash_stream —
        # half before a SIGKILL of its owner, the rest after restart.
        crashed = run_fleet(
            tmp_path, traces, workers=2, tag="crash", crash_stream=crash_stream
        )
        # Ship crash_stream to the clean fleet too, for comparison…
        # (run_fleet already drained; instead compare after removing the
        # extra stream row is wrong — so re-run clean WITH the stream.)
        clean2_dir = str(tmp_path / "fleet-clean2")
        sock = str(tmp_path / "pub-clean2.sock")
        cfg = FleetConfig(
            out_dir=clean2_dir,
            workers=2,
            socket_path=sock,
            idle_timeout=10.0,
        )
        ft = FleetThread(cfg).start()
        try:
            first = next(iter(traces.values()))
            r = send_trace(first, crash_stream, socket_path=sock)
            assert r.ok
            for i, path in enumerate(traces.values()):
                r = send_trace(path, f"stream-{i}", socket_path=sock)
                assert r.ok
            ft.drain()
        finally:
            ft.kill()
        with open(os.path.join(crashed, RUN_MANIFEST_NAME), "rb") as fh:
            crashed_manifest = fh.read()
        with open(os.path.join(clean2_dir, RUN_MANIFEST_NAME), "rb") as fh:
            clean_manifest = fh.read()
        assert crashed_manifest == clean_manifest
        # …and the no-extra-stream run differs only by that stream.
        base = json.load(open(os.path.join(clean, RUN_MANIFEST_NAME)))
        full = json.loads(crashed_manifest)
        assert {r["stream"] for r in full["streams"]} == {
            r["stream"] for r in base["streams"]
        } | {crash_stream}

    def test_tcp_front_door_routes_every_stream(self, tmp_path, traces):
        """The supervisor's router serves a public TCP port as it serves a
        unix socket: each stream is analyzed by its owner, byte-identical
        to the batch path."""
        fleet_dir = str(tmp_path / "fleet-tcp")
        cfg = FleetConfig(
            out_dir=fleet_dir,
            workers=2,
            tcp=("127.0.0.1", 0),
            idle_timeout=10.0,
        )
        ft = FleetThread(cfg).start()
        events = defect_keys = 0
        try:
            assert ft.sup.tcp_address[1] != 0
            for i, path in enumerate(traces.values()):
                r = send_trace(path, f"stream-{i}", tcp=ft.sup.tcp_address)
                assert r.ok, (r.error_code, r.response)
                events += r.response["events"]
                defect_keys += r.response["defect_keys"]
            ft.drain()
        finally:
            ft.kill()
        owners = set()
        for i, path in enumerate(traces.values()):
            owner = shard_of(f"stream-{i}", 2)
            owners.add(owner)
            report = os.path.join(
                worker_dir(fleet_dir, owner), "reports", f"stream-{i}.json"
            )
            with open(report, "rb") as fh:
                assert fh.read() == render_report(report_doc_for_file(path))
        assert owners == {0, 1}  # both workers were routed to
        with open(os.path.join(fleet_dir, RUN_MANIFEST_NAME)) as fh:
            doc = json.load(fh)
        assert doc["fleet"] == {"workers": 2, "router": "proxy"}
        assert doc["totals"] == {
            "streams": len(traces),
            "analyzed": len(traces),
            "quarantined": 0,
            "rejected": 0,
            "events": events,
            "defect_keys": defect_keys,
        }

    def test_fleet_status_probes_carry_internal_errors(self, tmp_path, traces):
        """One ``fleet_status`` call shows whether any worker swallowed a
        handler error."""
        fleet_dir = str(tmp_path / "fleet-status")
        cfg = FleetConfig(
            out_dir=fleet_dir,
            workers=2,
            socket_path=str(tmp_path / "pub-status.sock"),
            idle_timeout=10.0,
        )
        ft = FleetThread(cfg).start()
        try:
            path = next(iter(traces.values()))
            assert send_trace(path, "s0", socket_path=cfg.socket_path).ok
            probes = fleet_status(fleet_dir)["probes"]
            ft.drain()
        finally:
            ft.kill()
        assert sorted(probes) == ["w0", "w1"]
        for k, probe in probes.items():
            assert probe["status"] == "ok" and probe["internal_errors"] == 0, k

    def test_drain_with_stragglers_seals_one_manifest(self, tmp_path, traces):
        fleet_dir = str(tmp_path / "fleet-straggle")
        sock = str(tmp_path / "pub-straggle.sock")
        cfg = FleetConfig(
            out_dir=fleet_dir,
            workers=2,
            socket_path=sock,
            idle_timeout=10.0,
        )
        ft = FleetThread(cfg).start()
        straggler = None
        try:
            path = next(iter(traces.values()))
            r = send_trace(path, "finished", socket_path=sock)
            assert r.ok
            # A parked straggler: partial bytes, producer vanished.
            owner_sock = worker_socket_path(fleet_dir, shard_of("parked", 2))
            c = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
            c.settimeout(5.0)
            c.connect(owner_sock)
            frame, doc = _hello(c, "parked", "prog")
            assert frame is not None and frame.kind is FrameKind.ACK
            c.sendall(encode_frame(FrameKind.DATA, open(path, "rb").read()[:100]))
            c.close()
            # An active straggler: connection still open mid-stream at
            # drain time.
            owner_sock2 = worker_socket_path(fleet_dir, shard_of("active", 2))
            straggler = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
            straggler.settimeout(5.0)
            straggler.connect(owner_sock2)
            frame, doc = _hello(straggler, "active", "prog")
            assert frame is not None and frame.kind is FrameKind.ACK
            time.sleep(0.2)  # let the parked disconnect settle
            ft.drain()
        finally:
            if straggler is not None:
                straggler.close()
            ft.kill()
        # Exactly ONE merged manifest at the fleet root.
        assert os.path.exists(os.path.join(fleet_dir, RUN_MANIFEST_NAME))
        doc = json.load(open(os.path.join(fleet_dir, RUN_MANIFEST_NAME)))
        assert doc["drained"] is True
        rows = {r["stream"]: r for r in doc["streams"]}
        assert rows["finished"]["status"] == "analyzed"
        assert rows["parked"]["status"] == "quarantined"
        assert rows["active"]["status"] == "quarantined"
        assert doc["totals"]["streams"] == 3
        # merge_manifests is idempotent and deterministic over the sealed
        # worker manifests.
        again = merge_manifests(fleet_dir, 2)
        assert (
            json.dumps(again, indent=2, sort_keys=True) + "\n"
        ).encode() == open(os.path.join(fleet_dir, RUN_MANIFEST_NAME), "rb").read()
