"""The fleet supervisor: N ingestion workers behind one front door.

``wolf serve --workers N`` runs this instead of a single daemon.  The
supervisor forks N worker *processes*, each an ordinary single-process
:class:`~repro.serve.server.WolfServer` with its own run directory.  A
worker learns its place from the hidden ``--fleet-index``/``--fleet-size``
flags alone; they make it a fleet worker (``ServeConfig.fleet_worker``),
which writes ``endpoint.json`` once its listener is bound::

    out/
      fleet.json                 fleet topology + live status (supervisor-owned)
      run_manifest.json          ONE merged manifest, sealed at drain
      workers/
        w0/ … wN-1/
          worker.sock            the worker's only listener
          endpoint.json          its pid + socket (rewritten on restart)
          journal.jsonl spool/ reports/ quarantine/ run_manifest.json

**Routing.**  Stream ownership is ``shard_of(stream_id, N)`` — the
sha256 contract every component shares.  The supervisor is the one
front door, for the public unix socket and the public TCP port alike:
it peeks exactly one frame to learn the stream id, dials the owning
worker's unix socket, and splices bytes both ways.  CONTROL probes go
to worker 0, which answers with its own counters.  Connect retries
cover a worker's restart window.  A worker still checks ownership: a
HELLO dialled straight to a non-owner is refused ``wrong-worker``.

**Lifecycle.**  The supervisor probes its children every
:data:`HEALTH_INTERVAL` seconds, restarts any that die (up to
:data:`MAX_RESTARTS` times per worker; the restarted worker's journal
resumes its streams from the last chunk boundary), and on SIGTERM
coordinates the drain: workers seal their per-worker manifests within
:data:`DRAIN_TIMEOUT` seconds, and the supervisor merges them into one
``run_manifest.json``.  Restart counts live in ``fleet.json``, *never*
in the merged manifest — a run that survived a worker crash must seal
byte-identical output to one that did not.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.serve.journal import JOURNAL_NAME, RunJournal, replace_durably
from repro.serve.protocol import (
    DEFAULT_WINDOW,
    FrameKind,
    ProtocolError,
    encode_frame,
    encode_json_frame,
    read_frame,
    shard_of,
)
from repro.serve.server import ENDPOINT_NAME, RUN_MANIFEST_NAME, query_server

FLEET_SCHEMA = "wolf-serve-fleet/1"
FLEET_NAME = "fleet.json"
#: Merged-manifest schema: wolf-serve-run/1 plus a ``fleet`` section.
MERGED_RUN_SCHEMA = "wolf-serve-run/2"
#: The ``router`` value ``fleet.json`` and the merged manifest record:
#: the supervisor's stream-id proxy is the fleet's only front door.
ROUTER = "proxy"

#: Seconds between child liveness probes.
HEALTH_INTERVAL = 0.25
#: Seconds draining workers get before SIGKILL escalation.
DRAIN_TIMEOUT = 30.0
#: Restarts allowed per worker before the supervisor gives up on it.
MAX_RESTARTS = 16


def worker_dir(out_dir: str, index: int) -> str:
    return os.path.join(out_dir, "workers", f"w{index}")


def worker_socket_path(out_dir: str, index: int) -> str:
    return os.path.join(worker_dir(out_dir, index), "worker.sock")


@dataclass
class FleetConfig:
    """Supervisor knobs; per-worker knobs pass straight through."""

    out_dir: str
    workers: int = 2
    #: Public unix socket, served by the supervisor's router.
    socket_path: Optional[str] = None
    #: Public TCP endpoint, served by the supervisor's router.
    tcp: Optional[Tuple[str, int]] = None
    idle_timeout: float = 30.0
    window: int = DEFAULT_WINDOW
    max_total_buffer: int = 8 * 1024 * 1024
    max_stream_bytes: Optional[int] = 64 * 1024 * 1024
    journal_max_bytes: Optional[int] = 32 * 1024 * 1024
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.socket_path is None and self.tcp is None:
            raise ValueError("FleetConfig needs a public socket path or TCP address")


class FleetSupervisor:
    """One fleet run: spawn, route, probe, restart, drain, merge."""

    def __init__(self, config: FleetConfig) -> None:
        self.config = config
        #: The bound public TCP address (the real port when asked for 0).
        self.tcp_address: Optional[Tuple[str, int]] = None
        self.restarts: List[int] = [0] * config.workers
        self._procs: List[Optional[subprocess.Popen]] = [None] * config.workers
        self._logs: List[Optional[object]] = [None] * config.workers
        self._servers: List[asyncio.AbstractServer] = []
        self._health_task: Optional[asyncio.Task] = None
        self._draining = False
        self._drain_requested: Optional[asyncio.Event] = None
        self._drain_done: Optional[asyncio.Event] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        cfg = self.config
        self._drain_requested = asyncio.Event()
        self._drain_done = asyncio.Event()
        for k in range(cfg.workers):
            os.makedirs(worker_dir(cfg.out_dir, k), exist_ok=True)
        self._write_fleet_doc()
        for k in range(cfg.workers):
            self._procs[k] = self._spawn(k)
        await self._wait_ready()
        await self._start_router()
        self._health_task = asyncio.ensure_future(self._health_loop())

    def request_drain(self) -> None:
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def run(self) -> None:
        await self.start()
        assert self._drain_requested is not None
        await self._drain_requested.wait()
        await self.drain()

    async def drain(self) -> None:
        """SIGTERM every worker, wait them out, merge ONE manifest."""
        if self._draining:
            assert self._drain_done is not None
            await self._drain_done.wait()
            return
        self._draining = True
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
        for srv in self._servers:
            srv.close()
        for srv in self._servers:
            await srv.wait_closed()
        self._servers = []
        for proc in self._procs:
            if proc is not None and proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while time.monotonic() < deadline:
            if all(p is None or p.poll() is not None for p in self._procs):
                break
            await asyncio.sleep(0.05)
        for proc in self._procs:  # stragglers past the deadline
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
        for fh in self._logs:
            if fh is not None:
                fh.close()
        self._logs = [None] * self.config.workers
        self._write_merged_manifest()
        self._write_fleet_doc(drained=True)
        if self.config.socket_path is not None and os.path.exists(
            self.config.socket_path
        ):
            os.unlink(self.config.socket_path)
        assert self._drain_done is not None
        self._drain_done.set()

    # -- children ------------------------------------------------------------

    def _spawn(self, index: int) -> subprocess.Popen:
        cfg = self.config
        wdir = worker_dir(cfg.out_dir, index)
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--out",
            wdir,
            "--socket",
            worker_socket_path(cfg.out_dir, index),
            "--idle-timeout",
            str(cfg.idle_timeout),
            "--window",
            str(cfg.window),
            "--max-total-buffer",
            str(cfg.max_total_buffer),
            "--max-stream-bytes",
            str(cfg.max_stream_bytes),
            "--backend",
            cfg.backend,
            "--journal-max-bytes",
            str(cfg.journal_max_bytes or 0),
            "--fleet-index",
            str(index),
            "--fleet-size",
            str(cfg.workers),
        ]
        if self._logs[index] is None:
            self._logs[index] = open(
                os.path.join(wdir, "worker.log"), "ab", buffering=0
            )
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            argv, stdout=self._logs[index], stderr=self._logs[index], env=env
        )

    async def _wait_ready(self, timeout: float = 20.0) -> None:
        """Block until every worker has advertised live endpoints."""
        deadline = time.monotonic() + timeout
        for k in range(self.config.workers):
            path = os.path.join(worker_dir(self.config.out_dir, k), ENDPOINT_NAME)
            while True:
                proc = self._procs[k]
                assert proc is not None
                if proc.poll() is not None:
                    raise RuntimeError(
                        f"fleet worker {k} exited during startup "
                        f"(rc={proc.returncode}); see its worker.log"
                    )
                if self._endpoint_pid(path) == proc.pid:
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError(f"fleet worker {k} never became ready")
                await asyncio.sleep(0.02)

    @staticmethod
    def _endpoint_pid(path: str) -> Optional[int]:
        try:
            with open(path) as fh:
                return int(json.load(fh).get("pid", -1))
        except (OSError, ValueError):
            return None

    async def _health_loop(self) -> None:
        """Restart dead workers; journaled streams resume on reconnect."""
        while True:
            await asyncio.sleep(HEALTH_INTERVAL)
            for k, proc in enumerate(self._procs):
                if proc is None or proc.poll() is None:
                    continue
                if self.restarts[k] >= MAX_RESTARTS:
                    self._procs[k] = None
                    continue
                self.restarts[k] += 1
                self._procs[k] = self._spawn(k)
                self._write_fleet_doc()

    # -- proxy router --------------------------------------------------------

    async def _start_router(self) -> None:
        cfg = self.config
        if cfg.socket_path is not None:
            if os.path.exists(cfg.socket_path):
                os.unlink(cfg.socket_path)
            self._servers.append(
                await asyncio.start_unix_server(
                    self._route_connection, cfg.socket_path
                )
            )
        if cfg.tcp is not None:
            host, port = cfg.tcp
            srv = await asyncio.start_server(self._route_connection, host, port)
            self._servers.append(srv)
            addr = srv.sockets[0].getsockname()
            self.tcp_address = (addr[0], addr[1])
            self._write_fleet_doc()

    async def _route_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Peek one frame, pick the shard, splice bytes both ways."""
        try:
            try:
                frame = await asyncio.wait_for(
                    read_frame(reader), timeout=self.config.idle_timeout
                )
            except (asyncio.TimeoutError, ProtocolError, ConnectionError):
                return
            if frame is None:
                return
            if frame.kind is FrameKind.HELLO:
                try:
                    stream = str(frame.json().get("stream", ""))
                except ProtocolError:
                    # Forwarded all the same: the owner of "" refuses it
                    # as a flow violation, as a lone daemon would.
                    stream = ""
                owner = shard_of(stream, self.config.workers)
            elif frame.kind is FrameKind.CONTROL:
                owner = 0  # any worker can answer; w0 by convention
            else:
                writer.write(
                    encode_json_frame(
                        FrameKind.ERR,
                        {"code": "flow-violation", "detail": "expected HELLO"},
                    )
                )
                await writer.drain()
                return
            upstream = await self._connect_worker(owner)
            if upstream is None:
                writer.write(
                    encode_json_frame(
                        FrameKind.ERR,
                        {
                            "code": "unavailable",
                            "detail": f"worker {owner} is not answering",
                        },
                    )
                )
                await writer.drain()
                return
            wreader, wwriter = upstream
            try:
                wwriter.write(encode_frame(frame.kind, frame.payload))
                await wwriter.drain()
                await asyncio.gather(
                    _pump(reader, wwriter), _pump(wreader, writer)
                )
            finally:
                wwriter.close()
        except asyncio.CancelledError:
            pass
        finally:
            # Close without awaiting the transports: a routing coroutine
            # still pending at loop shutdown is closed with GeneratorExit,
            # and may not await again while it unwinds.
            writer.close()

    async def _connect_worker(self, index: int):
        """Dial a worker's unix socket, retrying across a restart window."""
        path = worker_socket_path(self.config.out_dir, index)
        deadline = time.monotonic() + 5.0
        while True:
            try:
                return await asyncio.open_unix_connection(path)
            except (ConnectionError, FileNotFoundError, OSError):
                if self._draining or time.monotonic() > deadline:
                    return None
                await asyncio.sleep(0.05)

    # -- documents -----------------------------------------------------------

    def _write_fleet_doc(self, *, drained: bool = False) -> None:
        cfg = self.config
        doc = {
            "schema": FLEET_SCHEMA,
            "workers": cfg.workers,
            "router": ROUTER,
            "socket": os.path.abspath(cfg.socket_path)
            if cfg.socket_path
            else None,
            "tcp": list(self.tcp_address) if self.tcp_address else None,
            "pid": os.getpid(),
            "restarts": list(self.restarts),
            "drained": drained,
        }
        replace_durably(
            os.path.join(cfg.out_dir, FLEET_NAME),
            json.dumps(doc, indent=2, sort_keys=True) + "\n",
        )

    def _write_merged_manifest(self) -> None:
        doc = merge_manifests(self.config.out_dir, self.config.workers)
        replace_durably(
            os.path.join(self.config.out_dir, RUN_MANIFEST_NAME),
            json.dumps(doc, indent=2, sort_keys=True) + "\n",
        )


def merge_manifests(out_dir: str, workers: int) -> dict:
    """One fleet manifest from N per-worker manifests.

    A worker that never sealed (SIGKILLed straggler) contributes its
    journaled terminal rows instead — the journal is the durable truth
    the manifest is derived from.  Restart counts deliberately do not
    appear: a crash-surviving run must merge byte-identical to a clean
    one.
    """
    rows: Dict[str, dict] = {}
    rejected: List[dict] = []
    detector: Optional[dict] = None
    sealed = 0
    for k in range(workers):
        wdir = worker_dir(out_dir, k)
        mpath = os.path.join(wdir, RUN_MANIFEST_NAME)
        if os.path.exists(mpath):
            with open(mpath) as fh:
                wdoc = json.load(fh)
            sealed += 1
            if detector is None:
                detector = wdoc.get("detector")
            for row in wdoc.get("streams", []):
                rows[row["stream"]] = row
            rejected.extend(wdoc.get("rejected", []))
        else:
            state = RunJournal.load_state(os.path.join(wdir, JOURNAL_NAME))
            rows.update(state.completed)
            rows.update(state.quarantined)
            rejected.extend(state.rejected)
    stream_rows = [rows[sid] for sid in sorted(rows)]
    analyzed = [r for r in stream_rows if r.get("status") == "analyzed"]
    quarantined = [r for r in stream_rows if r.get("status") == "quarantined"]
    return {
        "schema": MERGED_RUN_SCHEMA,
        "drained": sealed == workers,
        "detector": detector,
        "fleet": {"workers": workers, "router": ROUTER},
        "streams": stream_rows,
        "rejected": sorted(rejected, key=lambda r: (r["stream"], r["code"])),
        "totals": {
            "streams": len(stream_rows),
            "analyzed": len(analyzed),
            "quarantined": len(quarantined),
            "rejected": len(rejected),
            "events": sum(r.get("events", 0) for r in analyzed),
            "defect_keys": sum(r.get("defect_keys", 0) for r in analyzed),
        },
    }


def fleet_status(out_dir: str, *, timeout: float = 5.0) -> dict:
    """Live fleet overview: fleet.json + a healthz probe per worker (its
    liveness and ``internal_errors``)."""
    with open(os.path.join(out_dir, FLEET_NAME)) as fh:
        fleet = json.load(fh)
    probes = {}
    for k in range(int(fleet.get("workers", 0))):
        sock = worker_socket_path(out_dir, k)
        try:
            probes[f"w{k}"] = query_server(
                socket_path=sock, query="healthz", timeout=timeout
            )
        except Exception as exc:
            probes[f"w{k}"] = {"status": "unreachable", "error": str(exc)}
    fleet["probes"] = probes
    return fleet


async def _pump(src: asyncio.StreamReader, dst: asyncio.StreamWriter) -> None:
    """Copy bytes until EOF, then half-close the destination."""
    try:
        while True:
            block = await src.read(64 * 1024)
            if not block:
                break
            dst.write(block)
            await dst.drain()
    except (ConnectionError, OSError, asyncio.CancelledError):
        pass
    finally:
        try:
            if dst.can_write_eof():
                dst.write_eof()
        except (ConnectionError, OSError, RuntimeError):
            pass
