"""Producer shims: the well-behaved client and its chaos twins.

:func:`send_trace` is the reference producer — what a recorder host runs
to ship a finished (or in-progress) ``.wtrc`` to the ingestion daemon.
It speaks the credit protocol honestly: HELLO, seek to the server's
``resume_offset``, slice DATA frames never exceeding granted credit,
FIN, wait for FIN_ACK.

:func:`chaos_client` is the same shim bent into the failure shapes the
robustness suite injects:

``kill``        drop the connection mid-DATA-frame (torn frame);
``stall``       go silent mid-stream until the idle deadline evicts us;
``garbage``     ship bytes that are not a ``.wtrc`` stream at all;
``corrupt``     flip a byte inside a chunk payload;
``oversized``   declare a ``.wtrc`` chunk bigger than the daemon's cap;
``overdraft``   send more DATA than the granted credit window;
``dup``         HELLO under a stream id that is already active/settled;
``reconnect``   kill mid-stream, then reconnect and finish honestly
                (exercises park → resume_offset → FIN).

Every chaos mode reports what the *server* said happened
(:class:`ChaosOutcome`), so tests assert the daemon's classification, not
the client's intent.
"""

from __future__ import annotations

import os
import socket as socketlib
import struct
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.serve.protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    WRONG_WORKER,
    Frame,
    FrameKind,
    ProtocolError,
    encode_frame,
    encode_json_frame,
    recv_frame_sync,
)

#: Default DATA slice (64 KiB): small enough that several slices fit in
#: one credit window, large enough to amortize syscalls.
DEFAULT_SLICE = 64 * 1024

#: ``wrong-worker`` redirects a single send will follow before giving up
#: (a sane fleet resolves in one hop; a loop means misconfiguration).
MAX_REDIRECTS = 4


@dataclass
class SendResult:
    """What one honest send accomplished."""

    stream_id: str
    ok: bool
    bytes_sent: int = 0
    resume_offset: int = 0
    credit_waits: int = 0
    #: ``wrong-worker`` redirects followed before landing on the owner.
    redirects: int = 0
    #: FIN_ACK payload when ``ok``; ERR payload otherwise.
    response: dict = field(default_factory=dict)
    error_code: Optional[str] = None


@dataclass
class ChaosOutcome:
    """What the server told a chaos client before/while it misbehaved."""

    mode: str
    stream_id: str
    #: ERR payload, if the server sent one before we vanished.
    err: Optional[dict] = None
    #: FIN_ACK payload for modes that eventually complete (reconnect).
    fin_ack: Optional[dict] = None
    bytes_sent: int = 0
    reconnected: bool = False


def _connect(
    socket_path: Optional[str],
    tcp: Optional[Tuple[str, int]],
    timeout: float,
) -> socketlib.socket:
    if socket_path is not None:
        sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(socket_path)
        return sock
    if tcp is not None:
        return socketlib.create_connection(tcp, timeout=timeout)
    raise ValueError("need a unix socket path or a TCP address")


def _hello(
    sock: socketlib.socket, stream_id: str, program: str
) -> Tuple[Optional[Frame], dict]:
    """HELLO → first server frame; returns (frame, ack_doc_or_err_doc)."""
    sock.sendall(
        encode_json_frame(
            FrameKind.HELLO,
            {"v": PROTOCOL_VERSION, "stream": stream_id, "program": program},
        )
    )
    frame = recv_frame_sync(sock)
    if frame is None:
        return None, {}
    return frame, frame.json()


def send_trace(
    trace_path: str,
    stream_id: str,
    *,
    socket_path: Optional[str] = None,
    tcp: Optional[Tuple[str, int]] = None,
    program: str = "",
    slice_bytes: int = DEFAULT_SLICE,
    batch: bool = False,
    timeout: float = 30.0,
) -> SendResult:
    """Ship one ``.wtrc`` file to the daemon, honoring credit flow.

    ``batch=True`` coalesces DATA frames up to the granted credit window
    (capped by the protocol's frame limit) instead of fixed
    ``slice_bytes`` slices — fewer frames and syscalls per stream, which
    is what lets a bench producer saturate a multi-worker fleet.  Credit
    accounting is unchanged: a batched producer still never overdrafts.

    In a fleet, the daemon answering HELLO may not own the stream's
    shard; it replies ``wrong-worker`` with the owner's direct addresses
    and this shim follows the redirect transparently (bounded by
    :data:`MAX_REDIRECTS`).
    """
    result = SendResult(stream_id=stream_id, ok=False)
    sock = _connect(socket_path, tcp, timeout)
    try:
        frame, doc = _hello(sock, stream_id, program or os.path.basename(trace_path))
        while (
            frame is not None
            and frame.kind is FrameKind.ERR
            and doc.get("code") == WRONG_WORKER
            and (doc.get("socket") or doc.get("tcp"))
            and result.redirects < MAX_REDIRECTS
        ):
            result.redirects += 1
            sock.close()
            owner_tcp = tuple(doc["tcp"]) if doc.get("tcp") else None
            sock = _connect(doc.get("socket"), owner_tcp, timeout)
            frame, doc = _hello(
                sock, stream_id, program or os.path.basename(trace_path)
            )
        if frame is None or frame.kind is FrameKind.ERR:
            result.error_code = doc.get("code", "connection-closed")
            result.response = doc
            return result
        if frame.kind is not FrameKind.ACK:
            result.error_code = "protocol"
            return result
        credit = int(doc.get("credit", 0))
        offset = int(doc.get("resume_offset", 0))
        result.resume_offset = offset
        with open(trace_path, "rb") as fh:
            fh.seek(offset)
            while True:
                # Never exceed granted credit: block on CREDIT frames
                # when the window is exhausted (the backpressure path).
                while credit <= 0:
                    reply = recv_frame_sync(sock)
                    if reply is None:
                        result.error_code = "connection-closed"
                        return result
                    if reply.kind is FrameKind.ERR:
                        result.response = reply.json()
                        result.error_code = result.response.get("code")
                        return result
                    if reply.kind is FrameKind.CREDIT:
                        credit += int(reply.json().get("credit", 0))
                        result.credit_waits += 1
                want = min(credit, MAX_FRAME) if batch else min(slice_bytes, credit)
                block = fh.read(want)
                if not block:
                    break
                sock.sendall(encode_frame(FrameKind.DATA, block))
                credit -= len(block)
                result.bytes_sent += len(block)
        sock.sendall(encode_frame(FrameKind.FIN))
        # Drain CREDIT replenishments until the FIN verdict arrives.
        while True:
            reply = recv_frame_sync(sock)
            if reply is None:
                result.error_code = "connection-closed"
                return result
            if reply.kind is FrameKind.CREDIT:
                continue
            result.response = reply.json()
            if reply.kind is FrameKind.FIN_ACK:
                result.ok = True
            else:
                result.error_code = result.response.get("code", "protocol")
            return result
    except (ProtocolError, ConnectionError, socketlib.timeout) as exc:
        result.error_code = f"client-error: {exc}"
        return result
    finally:
        sock.close()


CHAOS_MODES = (
    "kill",
    "stall",
    "garbage",
    "corrupt",
    "oversized",
    "overdraft",
    "dup",
    "reconnect",
)


def chaos_client(
    mode: str,
    trace_path: str,
    stream_id: str,
    *,
    socket_path: Optional[str] = None,
    tcp: Optional[Tuple[str, int]] = None,
    timeout: float = 30.0,
    stall_seconds: Optional[float] = None,
) -> ChaosOutcome:
    """Misbehave in one deterministic way; report the server's verdict."""
    if mode not in CHAOS_MODES:
        raise ValueError(f"unknown chaos mode {mode!r} (want one of {CHAOS_MODES})")
    outcome = ChaosOutcome(mode=mode, stream_id=stream_id)
    data = b""
    if mode != "dup":
        with open(trace_path, "rb") as fh:
            data = fh.read()
    sock = _connect(socket_path, tcp, timeout)
    try:
        frame, doc = _hello(sock, stream_id, f"chaos-{mode}")
        if frame is None:
            return outcome
        if frame.kind is FrameKind.ERR:
            outcome.err = doc
            return outcome
        credit = int(doc.get("credit", 0))

        if mode == "dup":
            # The HELLO itself was the attack; an ACK here means the
            # duplicate was *not* caught (tests assert err instead).
            return outcome

        if mode == "kill" or mode == "reconnect":
            # Send one honest slice, then vanish mid-frame: a DATA header
            # declaring more payload than ever arrives.
            cut = min(len(data) // 2, max(credit - 1, 1))
            sock.sendall(encode_frame(FrameKind.DATA, data[:cut]))
            outcome.bytes_sent = cut
            header = struct.pack("!BI", int(FrameKind.DATA), 4096)
            sock.sendall(header + b"\x00" * 10)  # 10 of 4096 bytes, then gone
            sock.close()
            if mode == "kill":
                return outcome
            outcome.reconnected = True
            result = send_trace(
                trace_path,
                stream_id,
                socket_path=socket_path,
                tcp=tcp,
                timeout=timeout,
            )
            if result.ok:
                outcome.fin_ack = result.response
            else:
                outcome.err = result.response or {"code": result.error_code}
            outcome.bytes_sent += result.bytes_sent
            return outcome

        if mode == "stall":
            cut = min(len(data) // 2, max(credit - 1, 1))
            sock.sendall(encode_frame(FrameKind.DATA, data[:cut]))
            outcome.bytes_sent = cut
            # Go silent until the daemon evicts us (or the cap elapses);
            # skip CREDIT replenishments for the bytes already ingested.
            deadline = time.monotonic() + (
                stall_seconds if stall_seconds is not None else timeout
            )
            try:
                while True:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    sock.settimeout(remaining)
                    reply = recv_frame_sync(sock)
                    if reply is None:
                        break
                    if reply.kind is FrameKind.ERR:
                        outcome.err = reply.json()
                        break
            except (socketlib.timeout, ProtocolError, ConnectionError):
                pass
            return outcome

        if mode == "garbage":
            payload = b"this is not a wtrc stream " * 8
            sock.sendall(encode_frame(FrameKind.DATA, payload[:credit]))
            outcome.bytes_sent = min(len(payload), credit)
        elif mode == "corrupt":
            # Valid header, then a flipped byte inside the first chunk's
            # payload region.
            broken = bytearray(data)
            target = min(len(broken) - 1, 24)
            broken[target] ^= 0xFF
            sock.sendall(encode_frame(FrameKind.DATA, bytes(broken[:credit])))
            outcome.bytes_sent = min(len(broken), credit)
            try:
                sock.sendall(encode_frame(FrameKind.FIN))
            except ConnectionError:
                # The daemon classified the DATA frame and hung up first;
                # its ERR frame still waits in our receive buffer.
                pass
        elif mode == "oversized":
            # Real stream header, then an EVENTS chunk declaring 256 MiB.
            from repro.runtime.tracefile import _EVENTS, FORMAT_VERSION, MAGIC

            evil = (
                MAGIC
                + bytes([FORMAT_VERSION, _EVENTS])
                + _uvarint(256 * 1024 * 1024)
            )
            sock.sendall(encode_frame(FrameKind.DATA, evil))
            outcome.bytes_sent = len(evil)
        elif mode == "overdraft":
            # One DATA frame a single byte past the granted window: the
            # server's credit check fires before any payload is decoded.
            blob = data.ljust(credit + 1, b"\x00")[: credit + 1]
            sock.sendall(encode_frame(FrameKind.DATA, blob))
            outcome.bytes_sent = len(blob)
        # All three wait for the server's classification.
        try:
            while True:
                reply = recv_frame_sync(sock)
                if reply is None:
                    return outcome
                if reply.kind is FrameKind.ERR:
                    outcome.err = reply.json()
                    return outcome
        except (ProtocolError, socketlib.timeout, ConnectionError):
            return outcome
    except (ConnectionError, socketlib.timeout, ProtocolError):
        # The server classified and hung up while we were still
        # misbehaving — exactly the point; report what we have.
        return outcome
    finally:
        try:
            sock.close()
        except OSError:
            pass


def _uvarint(value: int) -> bytes:
    out: List[int] = []
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)
