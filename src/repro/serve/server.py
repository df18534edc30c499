"""The ``wolf serve`` asyncio daemon: accept → ingest → detect → drain.

One :class:`WolfServer` owns one *run directory*::

    out/
      journal.jsonl          crash-recovery journal (fsynced JSONL)
      spool/<id>.wtrc        raw stream bytes as received
      reports/<id>.json      per-stream defect reports (canonical bytes)
      quarantine/<id>.wtrc   evidence + <id>.reason.json taxonomy records
      run_manifest.json      sealed at drain: every stream accounted for

Robustness properties, each enforced here and proven by the chaos suite:

* **Slow-loris defense** — every read carries the idle deadline; a silent
  producer is evicted and quarantined ``idle-timeout``.
* **Bounded memory** — credit-based flow control: at most ``window``
  unprocessed bytes per stream in flight, and replenishment credits are
  withheld whenever the global partial-chunk residue exceeds
  ``max_total_buffer``, so hostile producers stall themselves, not the
  healthy streams next to them.
* **Deterministic failure classification** — hostile bytes classify
  through the same corruption taxonomy the corpus validator uses, at any
  worker count, on any connection interleaving.
* **Crash recovery** — ``kill -9`` then restart: completed streams are
  never re-analyzed (their journaled rows rebuild the manifest), and
  partially-ingested streams resume from the last journaled chunk
  boundary.
* **Graceful drain** — SIGTERM/SIGINT stops accepting, settles every
  stream into a terminal state, seals ``run_manifest.json``, exits 0.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.corpus.manifest import DETECTOR_PARAMS, sha256_file
from repro.corpus.validate import DECODE_ERRORS
from repro.serve.client import _connect
from repro.serve.health import ServeStats
from repro.serve.journal import (
    JOURNAL_NAME,
    JournalState,
    RunJournal,
    replace_durably,
)
from repro.serve.protocol import (
    DEFAULT_WINDOW,
    PROTOCOL_VERSION,
    WRONG_WORKER,
    Frame,
    FrameKind,
    ProtocolError,
    TornFrame,
    encode_json_frame,
    read_frame,
    recv_frame_sync,
    shard_of,
)
from repro.serve.report import render_report
from repro.serve.session import (
    ABORTED,
    DUPLICATE_STREAM,
    FLOW_VIOLATION,
    IDLE_TIMEOUT,
    SessionState,
    StreamSession,
    classify_ingest_error,
)

RUN_SCHEMA = "wolf-serve-run/1"
RUN_MANIFEST_NAME = "run_manifest.json"
#: Per-worker advertisement of a fleet worker's pid and unix socket; the
#: supervisor counts a worker ready once this file names its pid.
ENDPOINT_NAME = "endpoint.json"

_STREAM_ID_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")


@dataclass
class ServeConfig:
    """Daemon knobs (each limit names the failure mode it bounds)."""

    out_dir: str
    socket_path: Optional[str] = None
    tcp: Optional[Tuple[str, int]] = None
    max_length: int = DETECTOR_PARAMS["max_length"]
    max_cycles: int = DETECTOR_PARAMS["max_cycles"]
    #: Seconds of producer silence before eviction (slow-loris defense).
    idle_timeout: float = 30.0
    #: Per-stream credit window: bytes in flight before the producer must
    #: wait for replenishment.
    window: int = DEFAULT_WINDOW
    #: Global cap on partial-chunk residue across all streams; beyond it
    #: credit replenishment is withheld until capacity frees.
    max_total_buffer: int = 8 * 1024 * 1024
    #: Largest single ``.wtrc`` chunk a stream may declare.
    max_chunk_bytes: int = 1 << 20
    #: Largest whole stream accepted (None = unbounded).
    max_stream_bytes: Optional[int] = 64 * 1024 * 1024
    #: Rotate (compact) the journal once an append pushes it past this
    #: size; ``None`` disables rotation.  The default bounds journal
    #: growth across long runs and daemon restarts without ever rotating
    #: in short test runs.
    journal_max_bytes: Optional[int] = 32 * 1024 * 1024
    #: This process's shard index in a multi-worker fleet (0-based); with
    #: ``num_workers == 1`` the daemon owns every stream (the historical
    #: single-process mode).
    worker_index: int = 0
    #: Total ingestion worker processes in the fleet this daemon belongs
    #: to.  A HELLO for a stream id hashing to a different worker is
    #: refused with ``wrong-worker`` instead of opening a session.
    num_workers: int = 1
    #: The fleet's top-level run directory (where ``fleet.json`` and the
    #: sibling workers' run dirs live); set for every fleet worker, which
    #: then advertises its ``endpoint.json`` for the supervisor.
    fleet_dir: Optional[str] = None
    #: Analysis backend for per-stream sessions: ``"python"``,
    #: ``"native"`` (compiled kernel; startup fails if it cannot load) or
    #: ``"auto"`` — resolved once at :meth:`WolfServer.start`, so every
    #: session in a run uses the same backend and the manifest can
    #: attribute it.  Reports are byte-identical either way.
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.socket_path is None and self.tcp is None:
            raise ValueError("ServeConfig needs a unix socket path or a TCP address")
        if self.idle_timeout <= 0:
            raise ValueError(f"idle_timeout must be > 0, got {self.idle_timeout}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.backend not in ("python", "native", "auto"):
            raise ValueError(
                f"backend must be 'python', 'native' or 'auto', got {self.backend!r}"
            )
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")
        if not 0 <= self.worker_index < self.num_workers:
            raise ValueError(
                f"worker_index {self.worker_index} outside fleet of "
                f"{self.num_workers}"
            )
        if self.num_workers > 1 and self.fleet_dir is None:
            raise ValueError("a multi-worker ServeConfig needs fleet_dir")


class WolfServer:
    """One ingestion run: many producer connections, one sealed manifest."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.stats = ServeStats(
            worker_index=config.worker_index, num_workers=config.num_workers
        )
        #: stream id -> session, for every stream this incarnation saw.
        self.sessions: Dict[str, StreamSession] = {}
        #: The sessions a credit grant counts: every attached (ACTIVE)
        #: one, plus any that settled since the last count, which drops
        #: them (:meth:`_buffered_total`).
        self._active: Dict[str, StreamSession] = {}
        self._conn_tasks: Set[asyncio.Task] = set()
        self._servers: List[asyncio.AbstractServer] = []
        self._draining = False
        self._drain_requested: Optional[asyncio.Event] = None
        self._drain_done: Optional[asyncio.Event] = None
        self._rejected: List[dict] = []
        self._journal: Optional[RunJournal] = None
        self._recovered = JournalState()
        #: Streams whose credit replenishment is deferred until global
        #: buffer capacity frees: stream id -> (writer, owed bytes).
        self._owed: Dict[str, Tuple[asyncio.StreamWriter, int]] = {}
        self.tcp_address: Optional[Tuple[str, int]] = None
        #: Concrete backend every session runs with ("python"/"native"),
        #: resolved once in :meth:`start`.
        self.backend: str = "python"

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        cfg = self.config
        from repro.core.nativekernel import resolve_backend

        # Resolve once, before accepting: backend="native" with no kernel
        # must fail startup, not the first stream.
        self.backend = resolve_backend(cfg.backend)
        for sub in ("spool", "reports", "quarantine"):
            os.makedirs(os.path.join(cfg.out_dir, sub), exist_ok=True)
        journal_path = os.path.join(cfg.out_dir, JOURNAL_NAME)
        # Crash recovery: journaled terminal rows survive as-is (no
        # re-analysis); journaled partial streams await reconnection.
        self._recovered = RunJournal.load_state(journal_path)
        self._rejected = list(self._recovered.rejected)
        self._journal = RunJournal(journal_path, max_bytes=cfg.journal_max_bytes)
        self._drain_requested = asyncio.Event()
        self._drain_done = asyncio.Event()
        if cfg.socket_path is not None:
            if os.path.exists(cfg.socket_path):
                os.unlink(cfg.socket_path)
            self._servers.append(
                await asyncio.start_unix_server(self._on_connection, cfg.socket_path)
            )
        if cfg.tcp is not None:
            host, port = cfg.tcp
            srv = await asyncio.start_server(self._on_connection, host, port)
            self._servers.append(srv)
            if srv.sockets:
                addr = srv.sockets[0].getsockname()
                self.tcp_address = (addr[0], addr[1])
        if cfg.fleet_dir is not None:
            # The supervisor's readiness probe is "endpoint.json names my
            # pid", so even a one-worker fleet writes it, after the
            # listener is bound so the file always names a live socket.
            self._write_endpoint()

    def _write_endpoint(self) -> None:
        cfg = self.config
        doc = {
            "worker": cfg.worker_index,
            "pid": os.getpid(),
            "socket": os.path.abspath(cfg.socket_path)
            if cfg.socket_path
            else None,
        }
        replace_durably(
            os.path.join(cfg.out_dir, ENDPOINT_NAME),
            json.dumps(doc, sort_keys=True) + "\n",
        )

    @property
    def accepting(self) -> bool:
        return bool(self._servers) and not self._draining

    def request_drain(self) -> None:
        """Signal-handler entry point: idempotent, non-blocking."""
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def run(self) -> None:
        """Serve until a drain is requested, then drain and return."""
        await self.start()
        assert self._drain_requested is not None
        await self._drain_requested.wait()
        await self.drain()

    async def drain(self) -> None:
        """Stop accepting, settle every stream, seal the manifest."""
        if self._draining:
            assert self._drain_done is not None
            await self._drain_done.wait()
            return
        self._draining = True
        self.stats.draining = True
        for srv in self._servers:
            srv.close()
        for srv in self._servers:
            await srv.wait_closed()
        self._servers = []
        # Active connections: cancel; each handler settles its in-flight
        # session as `aborted` on the way out.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        # Parked sessions (producer vanished mid-stream, never returned)
        # and recovered-but-never-reattached partial streams: the run is
        # over, so they settle as aborted.
        for _sid, sess in sorted(self.sessions.items()):
            if sess.state is SessionState.PARKED:
                sess.quarantine(
                    ABORTED, "stream never completed (daemon drained before FIN)"
                )
                self.stats.note_quarantine(ABORTED)
        for sid, nbytes in sorted(self._recovered.resumable().items()):
            if sid in self.sessions:
                continue
            sess = self._make_session(sid)
            sess.journaled_bytes = nbytes
            sess.quarantine(
                ABORTED,
                "stream never completed (daemon drained before reconnection)",
            )
            self.stats.note_quarantine(ABORTED)
            self.sessions[sid] = sess
        self._write_manifest()
        if self._journal is not None:
            self._journal.close()
        if (
            self.config.socket_path is not None
            and os.path.exists(self.config.socket_path)
        ):
            os.unlink(self.config.socket_path)
        assert self._drain_done is not None
        self._drain_done.set()

    # -- manifest ------------------------------------------------------------

    def _manifest_rows(self) -> List[dict]:
        rows: Dict[str, dict] = {}
        rows.update(self._recovered.completed)
        rows.update(self._recovered.quarantined)
        for sid, sess in self.sessions.items():
            if sess.row is not None:
                rows[sid] = sess.row
        return [rows[sid] for sid in sorted(rows)]

    def _write_manifest(self) -> None:
        rows = self._manifest_rows()
        analyzed = [r for r in rows if r["status"] == "analyzed"]
        quarantined = [r for r in rows if r["status"] == "quarantined"]
        from repro.core.nativekernel import kernel_version

        doc = {
            "schema": RUN_SCHEMA,
            "drained": True,
            "detector": {
                "max_length": self.config.max_length,
                "max_cycles": self.config.max_cycles,
                "backend": self.backend,
                "kernel": kernel_version() if self.backend == "native" else None,
            },
            "streams": rows,
            "rejected": sorted(
                self._rejected, key=lambda r: (r["stream"], r["code"])
            ),
            "totals": {
                "streams": len(rows),
                "analyzed": len(analyzed),
                "quarantined": len(quarantined),
                "rejected": len(self._rejected),
                "events": sum(r.get("events", 0) for r in analyzed),
                "defect_keys": sum(r.get("defect_keys", 0) for r in analyzed),
            },
        }
        replace_durably(
            os.path.join(self.config.out_dir, RUN_MANIFEST_NAME),
            json.dumps(doc, indent=2, sort_keys=True) + "\n",
        )

    # -- connection plumbing -------------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._handle_connection(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _read(self, reader: asyncio.StreamReader) -> Optional[Frame]:
        """One frame under the idle deadline (the slow-loris defense)."""
        return await asyncio.wait_for(
            read_frame(reader), timeout=self.config.idle_timeout
        )

    async def _send(
        self, writer: asyncio.StreamWriter, kind: FrameKind, doc: dict
    ) -> None:
        writer.write(encode_json_frame(kind, doc))
        await writer.drain()

    async def _reject(
        self,
        writer: asyncio.StreamWriter,
        stream_id: str,
        code: str,
        detail: str,
    ) -> None:
        record = {"stream": stream_id, "code": code, "detail": detail}
        self._rejected.append(record)
        self.stats.rejected += 1
        if self._journal is not None:
            self._journal.reject(stream_id, code, detail)
        await self._send(writer, FrameKind.ERR, {"code": code, "detail": detail})

    def _make_session(self, stream_id: str) -> StreamSession:
        assert self._journal is not None
        return StreamSession(
            stream_id,
            self.config.out_dir,
            self._journal,
            max_length=self.config.max_length,
            max_cycles=self.config.max_cycles,
            max_chunk_bytes=self.config.max_chunk_bytes,
            max_stream_bytes=self.config.max_stream_bytes,
            backend=self.backend,
        )

    # -- backpressure --------------------------------------------------------

    def _buffered_total(self) -> int:
        """Bytes the ACTIVE sessions buffer, read from ``_active`` only:
        its cost follows the streams attached now, not every stream the
        run has seen."""
        live = SessionState.ACTIVE
        for sid in [sid for sid, s in self._active.items() if s.state is not live]:
            del self._active[sid]
        total = sum(s.buffered for s in self._active.values())
        self.stats.buffered_bytes = total
        return total

    async def _grant_credit(
        self, session: StreamSession, writer: asyncio.StreamWriter, n: int
    ) -> int:
        """Replenish ``n`` bytes of credit, or withhold under pressure."""
        if self._buffered_total() > self.config.max_total_buffer:
            _, owed = self._owed.get(session.stream_id, (writer, 0))
            self._owed[session.stream_id] = (writer, owed + n)
            self.stats.credits_withheld += 1
            return 0
        await self._send(writer, FrameKind.CREDIT, {"credit": n})
        return n

    async def _flush_owed(self) -> None:
        """Grant deferred credits now that buffer capacity freed."""
        for sid in list(self._owed):
            if self._buffered_total() > self.config.max_total_buffer:
                return
            entry = self._owed.pop(sid, None)
            if entry is None:
                continue
            writer, owed = entry
            sess = self.sessions.get(sid)
            if (
                sess is None
                or sess.state is not SessionState.ACTIVE
                or writer.is_closing()
            ):
                continue
            try:
                await self._send(writer, FrameKind.CREDIT, {"credit": owed})
            except (ConnectionError, RuntimeError):  # producer went away
                continue

    # -- the per-connection state machine ------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        # The holder lets cleanup find the session this connection was
        # serving even when cancellation (drain) or a handler bug unwinds
        # the stack mid-stream.
        holder: List[Optional[StreamSession]] = [None]
        try:
            await self._serve_connection(reader, writer, holder)
        except asyncio.CancelledError:
            pass  # drain cancelled us; settle below
        except Exception:
            # Zero-unhandled-exceptions backstop: a bug in the handler
            # must cost one connection, never the daemon.
            self.stats.internal_errors += 1
        finally:
            session = holder[0]
            if session is not None and session.state is SessionState.ACTIVE:
                session.quarantine(
                    ABORTED,
                    "stream never completed (connection settled mid-stream)",
                )
                self.stats.note_quarantine(ABORTED)
                self.stats.streams_active -= 1
                self._owed.pop(session.stream_id, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        holder: List[Optional[StreamSession]],
    ) -> None:
        cfg = self.config
        try:
            frame = await self._read(reader)
        except (asyncio.TimeoutError, ProtocolError, ConnectionError):
            return
        if frame is None:
            return
        if frame.kind is FrameKind.CONTROL:
            await self._serve_control(frame, writer)
            return
        if frame.kind is not FrameKind.HELLO:
            await self._send(
                writer,
                FrameKind.ERR,
                {"code": FLOW_VIOLATION, "detail": "expected HELLO"},
            )
            return
        try:
            hello = frame.json()
        except ProtocolError as exc:
            await self._send(
                writer, FrameKind.ERR, {"code": FLOW_VIOLATION, "detail": str(exc)}
            )
            return
        stream_id = str(hello.get("stream", ""))
        if not _STREAM_ID_RE.match(stream_id):
            await self._reject(
                writer,
                stream_id or "<empty>",
                FLOW_VIOLATION,
                "invalid stream id (want [A-Za-z0-9_.-]{1,64})",
            )
            return
        if hello.get("v") != PROTOCOL_VERSION:
            await self._reject(
                writer,
                stream_id,
                FLOW_VIOLATION,
                f"unsupported protocol version {hello.get('v')!r}",
            )
            return
        if cfg.num_workers > 1:
            owner = shard_of(stream_id, cfg.num_workers)
            if owner != cfg.worker_index:
                # Not ours: the stream's journal segment lives with the
                # owning worker, so refuse it and close.  Deliberately
                # NOT journaled — a misrouted HELLO carries no durable
                # state, and journaling it would make crash-run manifests
                # diverge from clean runs.
                self.stats.redirects += 1
                await self._send(
                    writer,
                    FrameKind.ERR,
                    {
                        "code": WRONG_WORKER,
                        "detail": f"stream belongs to worker {owner}",
                        "worker": owner,
                    },
                )
                return
        if self._draining:
            await self._send(
                writer,
                FrameKind.ERR,
                {"code": "draining", "detail": "daemon is draining"},
            )
            return

        # Duplicate / resume arbitration.
        existing = self.sessions.get(stream_id)
        if existing is not None and existing.state is SessionState.ACTIVE:
            await self._reject(
                writer,
                stream_id,
                DUPLICATE_STREAM,
                "stream id already active on another connection",
            )
            return
        settled = existing is not None and existing.state in (
            SessionState.COMPLETE,
            SessionState.QUARANTINED,
        )
        if settled or self._recovered.terminal(stream_id):
            await self._reject(
                writer,
                stream_id,
                DUPLICATE_STREAM,
                "stream id already settled in this run",
            )
            return
        if existing is not None and existing.state is SessionState.PARKED:
            resume_offset = existing.journaled_bytes
        else:
            resume_offset = self._recovered.resumable().get(stream_id, 0)

        session = self._make_session(stream_id)
        try:
            if resume_offset:
                session.open_resumed(resume_offset)
                self.stats.streams_resumed += 1
            else:
                session.open_fresh()
        except Exception as exc:
            # Journal/spool disagree (operator deleted the spool?): the
            # stream cannot be trusted — settle it, ask for no more.
            code, detail = classify_ingest_error(exc)
            session.quarantine(code, f"resume failed: {detail}")
            self.stats.note_quarantine(code)
            self.sessions[stream_id] = session
            await self._send(
                writer, FrameKind.ERR, {"code": code, "detail": detail}
            )
            return
        self.sessions[stream_id] = self._active[stream_id] = session
        holder[0] = session
        self.stats.streams_accepted += 1
        self.stats.streams_active += 1
        self.stats.events_fed += session.events_fed  # re-fed on resume
        try:
            await self._send(
                writer,
                FrameKind.ACK,
                {
                    "resume_offset": resume_offset,
                    "credit": cfg.window,
                    "v": PROTOCOL_VERSION,
                    "worker": cfg.worker_index,
                },
            )
        except (ConnectionError, RuntimeError):
            session.park()
            self.stats.streams_active -= 1
            self.stats.streams_parked += 1
            return
        await self._ingest_loop(session, reader, writer, cfg.window)

    async def _ingest_loop(
        self,
        session: StreamSession,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        credit: int,
    ) -> None:
        """DATA/FIN loop for one attached producer."""

        async def settle(code: str, detail: str) -> None:
            session.quarantine(code, detail)
            self.stats.note_quarantine(code)
            self.stats.streams_active -= 1
            if code == IDLE_TIMEOUT:
                self.stats.evictions += 1
            self._owed.pop(session.stream_id, None)
            try:
                await self._send(
                    writer, FrameKind.ERR, {"code": code, "detail": detail}
                )
            except (ConnectionError, RuntimeError):
                pass
            await self._flush_owed()

        def park() -> None:
            session.park()
            self.stats.streams_active -= 1
            self.stats.streams_parked += 1
            self._owed.pop(session.stream_id, None)

        while True:
            try:
                frame = await self._read(reader)
            except asyncio.TimeoutError:
                await settle(
                    IDLE_TIMEOUT,
                    f"no frame within {self.config.idle_timeout}s",
                )
                return
            except TornFrame:
                # Producer died mid-frame: resumable, not condemned.
                park()
                await self._flush_owed()
                return
            except (ProtocolError, ConnectionError) as exc:
                await settle(FLOW_VIOLATION, f"protocol violation: {exc}")
                return
            if frame is None:  # clean EOF before FIN: park for resume
                park()
                await self._flush_owed()
                return
            if frame.kind is FrameKind.DATA:
                credit -= len(frame.payload)
                if credit < 0:
                    await settle(
                        FLOW_VIOLATION,
                        f"credit overdraft ({-credit} bytes beyond window)",
                    )
                    return
                journaled_before = session.journaled_bytes
                try:
                    fed = session.ingest(frame.payload)
                except DECODE_ERRORS as exc:  # hostile bytes: classify + settle
                    code, detail = classify_ingest_error(exc)
                    await settle(code, detail)
                    return
                self.stats.events_fed += fed
                self.stats.bytes_ingested += len(frame.payload)
                if session.journaled_bytes > journaled_before:
                    self.stats.journal_chunks += 1
                try:
                    credit += await self._grant_credit(
                        session, writer, len(frame.payload)
                    )
                except (ConnectionError, RuntimeError):
                    # Producer vanished between its last DATA frame and
                    # our CREDIT: a disconnect, so resumable.
                    park()
                    await self._flush_owed()
                    return
            elif frame.kind is FrameKind.FIN:
                if not session.decoder.complete:
                    await settle(
                        "torn",
                        "FIN before END chunk (stream incomplete or trailing "
                        "partial chunk)",
                    )
                    return
                row = await self._finalize(session)
                self.stats.streams_active -= 1
                try:
                    await self._send(
                        writer,
                        FrameKind.FIN_ACK,
                        {
                            "status": "analyzed",
                            "report": row["report"],
                            "defect_keys": row["defect_keys"],
                            "events": row["events"],
                        },
                    )
                except (ConnectionError, RuntimeError):
                    pass  # stream is sealed either way
                await self._flush_owed()
                return
            else:
                await settle(
                    FLOW_VIOLATION,
                    f"unexpected {frame.kind.name} frame mid-stream",
                )
                return

    async def _finalize(self, session: StreamSession) -> dict:
        """Seal one healthy stream: report file + journal row."""
        doc = session.finalize()
        name = os.path.join("reports", f"{session.stream_id}.json")
        path = os.path.join(self.config.out_dir, name)
        payload = render_report(doc)
        with open(path, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        row = session.seal_complete(name, sha256_file(path), doc)
        self.stats.analyzed += 1
        return row

    # -- control channel -----------------------------------------------------

    async def _serve_control(
        self, frame: Frame, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.control_queries += 1
        try:
            query = frame.json().get("query", "stats")
        except ProtocolError:
            query = "stats"
        if query == "healthz":
            doc = self.stats.healthz(accepting=self.accepting, backend=self.backend)
        else:
            from repro.core.nativekernel import kernel_version

            self._buffered_total()
            detectors = {sid: s.detector.stats() for sid, s in self._active.items()}
            doc = self.stats.stats(
                accepting=self.accepting,
                detectors=detectors,
                backend=self.backend,
                kernel=kernel_version() if self.backend == "native" else None,
            )
        await self._send(writer, FrameKind.STATS, doc)


# ---------------------------------------------------------------------------
# introspection client
# ---------------------------------------------------------------------------


def query_server(
    socket_path: Optional[str] = None,
    tcp: Optional[Tuple[str, int]] = None,
    *,
    query: str = "stats",
    timeout: float = 10.0,
) -> dict:
    """Synchronous one-shot CONTROL query (``wolf serve --status``)."""
    sock = _connect(socket_path, tcp, timeout)
    try:
        sock.sendall(encode_json_frame(FrameKind.CONTROL, {"query": query}))
        frame = recv_frame_sync(sock)
        if frame is None or frame.kind is not FrameKind.STATS:
            raise ProtocolError("no STATS response from daemon")
        return frame.json()
    finally:
        sock.close()
