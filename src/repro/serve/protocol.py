"""The ingestion wire protocol: length-prefixed frames + credit flow.

A producer connection is a strict little state machine::

    client                                server
    ------                                ------
    HELLO {stream_id, program}    ->
                                  <-      ACK {resume_offset, credit}
    DATA <raw .wtrc bytes>        ->          (repeated; bounded by credit)
                                  <-      CREDIT {credit}   (replenishment)
    FIN {}                        ->
                                  <-      FIN_ACK {status, ...}

or, for introspection, a single ``CONTROL {query}`` answered by one
``STATS {…}`` frame.  Any server-side rejection is an ``ERR {code,
detail}`` frame followed by connection close.

**Framing.**  ``kind:u8 + length:u32be + payload``.  Frames are capped at
:data:`MAX_FRAME`; JSON payloads are UTF-8.  The cap is enforced *from
the header* — a frame declaring more is a protocol error before any
payload is read, the same allocate-nothing posture the chunk decoder
takes (:class:`repro.runtime.tracefile.OversizedChunkError`).

**Backpressure.**  The server grants an initial byte ``credit`` in ACK
and replenishes with CREDIT frames only as it *finishes processing*
ingested bytes (decode + detect + spool + journal).  A well-behaved
producer never has more unacknowledged DATA bytes in flight than its
granted credit; the server tolerates zero overdraft — exceeding credit
is a deterministic ``flow-violation`` quarantine, and a producer that
simply stops consuming CREDIT stalls itself without occupying more than
its window of daemon memory.
"""

from __future__ import annotations

import enum
import hashlib
import json
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

#: Protocol version, exchanged in HELLO and checked by the server.
PROTOCOL_VERSION = 1

#: ERR code a fleet worker answers HELLO with when the stream id hashes
#: to a different worker's shard; the doc names the owner's index.  The
#: supervisor's router always dials the owner, so only a producer that
#: bypasses the public endpoint sees it.
WRONG_WORKER = "wrong-worker"

#: Hard per-frame payload cap (1 MiB): DATA slices are far smaller (the
#: client shim defaults to 64 KiB), so anything near the cap is hostile.
MAX_FRAME = 1 << 20

#: Default per-stream credit window (256 KiB).
DEFAULT_WINDOW = 256 * 1024

_HEADER = struct.Struct("!BI")


class ProtocolError(ValueError):
    """A frame violated the wire protocol (bad kind, oversized, torn)."""


class TornFrame(ProtocolError):
    """The connection dropped mid-frame (producer killed between header
    and payload).  Distinguished from other protocol errors because a
    torn producer is *resumable* — the server parks the stream — while a
    malformed frame is a flow violation."""


class FrameKind(enum.IntEnum):
    # client -> server
    HELLO = 1
    DATA = 2
    FIN = 3
    CONTROL = 4
    # server -> client
    ACK = 5
    CREDIT = 6
    ERR = 7
    FIN_ACK = 8
    STATS = 9


@dataclass(frozen=True)
class Frame:
    kind: FrameKind
    payload: bytes

    def json(self) -> dict:
        try:
            doc = json.loads(self.payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed {self.kind.name} payload: {exc}")
        if not isinstance(doc, dict):
            raise ProtocolError(f"{self.kind.name} payload must be a JSON object")
        return doc


def encode_frame(kind: FrameKind, payload: bytes = b"") -> bytes:
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame payload {len(payload)} exceeds MAX_FRAME {MAX_FRAME}"
        )
    return _HEADER.pack(int(kind), len(payload)) + payload


def encode_json_frame(kind: FrameKind, doc: dict) -> bytes:
    return encode_frame(kind, json.dumps(doc, sort_keys=True).encode("utf-8"))


def parse_header(header: bytes) -> Tuple[FrameKind, int]:
    """Decode one frame header; raises :class:`ProtocolError` on garbage."""
    if len(header) != _HEADER.size:
        raise ProtocolError("torn frame header")
    kind_raw, length = _HEADER.unpack(header)
    try:
        kind = FrameKind(kind_raw)
    except ValueError:
        raise ProtocolError(f"unknown frame kind {kind_raw}")
    if length > MAX_FRAME:
        raise ProtocolError(
            f"frame declares {length} payload bytes (cap {MAX_FRAME})"
        )
    return kind, length


HEADER_SIZE = _HEADER.size


async def read_frame(reader) -> Optional[Frame]:
    """Read one frame off an asyncio stream; ``None`` at clean EOF.

    EOF mid-frame (a producer killed between header and payload) raises
    :class:`ProtocolError` — the caller distinguishes a clean goodbye
    from a torn one.
    """
    import asyncio

    try:
        header = await reader.readexactly(HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise TornFrame("connection dropped mid-frame (torn header)")
    kind, length = parse_header(header)
    try:
        payload = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise TornFrame("connection dropped mid-frame (torn payload)")
    return Frame(kind, payload)


def recv_frame_sync(sock) -> Optional[Frame]:
    """Blocking-socket twin of :func:`read_frame` (the client shim's side)."""
    header = _recv_exactly(sock, HEADER_SIZE)
    if header is None:
        return None
    if len(header) < HEADER_SIZE:
        raise TornFrame("connection dropped mid-frame (torn header)")
    kind, length = parse_header(header)
    payload = b""
    if length:
        payload = _recv_exactly(sock, length)
        if payload is None or len(payload) < length:
            raise TornFrame("connection dropped mid-frame (torn payload)")
    return Frame(kind, payload)


def shard_of(stream_id: str, num_workers: int) -> int:
    """The worker index that owns ``stream_id`` in an ``num_workers`` fleet.

    The routing contract every component shares — workers (ownership
    check), the supervisor's hash router, and tools that dial a worker
    directly all compute the same owner, which is what makes per-worker
    journal segments safe: a stream's durable state only ever lives in
    one worker's run directory, across restarts and reconnects.  sha256
    rather than ``hash()``: stable across processes and Python runs
    (PYTHONHASHSEED never enters the picture).
    """
    if num_workers <= 1:
        return 0
    digest = hashlib.sha256(stream_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_workers


def _recv_exactly(sock, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; ``None`` at immediate EOF, short at torn."""
    chunks = []
    got = 0
    while got < n:
        block = sock.recv(n - got)
        if not block:
            return None if got == 0 else b"".join(chunks)
        chunks.append(block)
        got += len(block)
    return b"".join(chunks)
