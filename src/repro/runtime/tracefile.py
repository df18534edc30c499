"""Compact binary trace files with streaming read/write (``.wtrc``).

:mod:`repro.runtime.serialize` is the human-oriented JSON interchange
format; this module is the machine format for traces that should never be
materialized whole: a production recorder appends events to disk with
memory bounded by the identity tables, and the streaming engine
(:mod:`repro.core.streaming`) consumes the file one event at a time.

Layout::

    magic "WTRC" + version byte
    chunk*          chunk := kind:u8, payload_len:uvarint, payload
    kinds: 0 META    program string, seed (zigzag varint)
           1 STRINGS n, then n x (len + utf8)   -- sites/names/conditions
           2 THREADS n, then n x (parent+1, spawn_site*, seq, name*)
           3 LOCKS   n, then n x (owner, create_site*, seq, name*)
           4 EVENTS  n, then n x event
           5 END     total event count

(``*`` = index into the string table; all integers are unsigned LEB128
varints of at most ten bytes, signed values zigzag-encoded.)  Identity
rows are interned on first use and emitted in table chunks *before* the
event chunk that references them, so a reader's tables are always
resolvable after a strictly sequential scan; recursive
:class:`~repro.util.ids.ThreadId` parent chains work because a parent is
interned (and its row queued) before any child that references it.
Event steps are delta-encoded against the previous event.

An event::

    kind:u8, step_delta:zigzag, thread, fields...

with per-kind fields mirroring :mod:`repro.runtime.serialize` exactly —
the round trip is lossless, including ``held_indices``, ``stack_depth``
and ``BlockEvent.holder = None``.

Every consumer runs one chunk grammar, ``_DecodeCore._next_chunk``: a
stream that ends inside the header or a chunk is truncated, META comes
first (judged by its kind byte before its payload is decoded) and only
once, tables and EVENTS follow, END seals, and nothing may follow END.
The pull reader (:class:`TraceFileReader`), the push decoder behind
``wolf serve`` (:class:`ChunkDecoder`) and their native subclasses only
cut bytes into chunks for it, so every reader reaches the same outcome
on the same bytes; EVENTS payloads go through one event decoder,
``_DecodeCore._decode_events``, which the native kernel's error-parity
re-decode runs too.

One varint rule holds for every reader: a varint is at most ten bytes,
and inside an EVENTS payload, the only bytes the native kernel reads,
its integers have the kernel's widths: every varint below 2^64, the
running step within int64, and each acquisition's execution-index
occurrence (its own and its held indices') at most 2^63 - 1.  So the
pure decoder refuses exactly what the kernel refuses.  A chunk-length
varint longer than ten bytes is unreadable framing (``ValueError``);
a payload varint that breaks the rule raises ``OverflowError``, a
corrupt payload.
"""

from __future__ import annotations

import io
import mmap
import os
from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional, Tuple, Union

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
    TraceEvent,
    WaitEvent,
)
from repro.util.ids import ExecIndex, LockId, ThreadId

MAGIC = b"WTRC"
FORMAT_VERSION = 1
#: Magic plus the version byte.
_HEADER_LEN = len(MAGIC) + 1

# Chunk kinds.
_META, _STRINGS, _THREADS, _LOCKS, _EVENTS, _END = range(6)

# Event kinds (wire tags).
_EV_CLASSES: Tuple[type, ...] = (
    BeginEvent,
    EndEvent,
    SpawnEvent,
    JoinEvent,
    AcquireEvent,
    ReleaseEvent,
    WaitEvent,
    NotifyEvent,
    BlockEvent,
)
_EV_TAG: Dict[type, int] = {cls: i for i, cls in enumerate(_EV_CLASSES)}

PathOrIO = Union[str, "os.PathLike[str]", BinaryIO]


# ---------------------------------------------------------------------------
# varint primitives
# ---------------------------------------------------------------------------


def _put_uvarint(buf: bytearray, n: int) -> None:
    while n > 0x7F:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


def _put_svarint(buf: bytearray, n: int) -> None:
    _put_uvarint(buf, n * 2 if n >= 0 else -n * 2 - 1)


#: Every ``.wtrc`` varint is at most ten bytes: ten 7-bit groups hold any
#: 64-bit value, and the zigzag of any 64-bit seed.
_MAX_VARINT_BYTES = 10
_VARINT_MAX = (1 << (7 * _MAX_VARINT_BYTES)) - 1
#: The native kernel's widths for an EVENTS payload, which is all it
#: reads (``get_uvarint``/``validate_events`` in ``_kernel/wolfkernel.c``):
#: every varint below 2^64, the running step and each execution-index
#: occurrence within int64.
_U64_MAX = (1 << 64) - 1
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def _get_uvarint(data: bytes, pos: int, top: int = _VARINT_MAX) -> Tuple[int, int]:
    """Decode one uvarint at ``data[pos:]``.

    ``IndexError`` when ``data`` ends inside it; ``OverflowError`` once
    ten bytes all carry the continuation bit, or for a value above
    ``top``.
    """
    result = 0
    shift = 0
    while True:
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            if result > top:
                raise OverflowError(f"varint wider than {top.bit_length()} bits")
            return result, pos
        shift += 7
        if shift == 7 * _MAX_VARINT_BYTES:
            raise OverflowError(f"varint longer than {_MAX_VARINT_BYTES} bytes")


def _get_svarint(data: bytes, pos: int) -> Tuple[int, int]:
    zz, pos = _get_uvarint(data, pos)
    return (zz >> 1) ^ -(zz & 1), pos


def _try_uvarint(buf, pos: int) -> Optional[Tuple[int, int]]:
    """Decode one chunk-length uvarint from ``buf[pos:]``; ``None`` while
    it is incomplete.

    Raises ``ValueError`` (the framing is unreadable) once ten bytes all
    carry the continuation bit, so a hostile header is rejected after ten
    bytes instead of being rescanned on every push.
    """
    try:
        return _get_uvarint(buf, pos)
    except IndexError:
        return None
    except OverflowError as exc:
        raise ValueError(f"chunk length {exc}") from None


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


class TraceFileWriter:
    """Append events to a binary trace file with bounded memory.

    Memory grows with the *identity tables* (distinct threads, locks and
    strings), never with the event count: encoded events are buffered only
    up to ``events_per_chunk`` and then flushed.  Accepts a path (opened
    and owned) or a writable binary file object (caller keeps ownership).
    Usable as a context manager; :meth:`close` seals the file with an END
    chunk carrying the total event count, while :meth:`abort` flushes the
    buffered chunks as crash evidence and deliberately leaves the file
    *unsealed* (no END chunk) so downstream torn-trace detection stays
    trustworthy.  The context manager routes exceptional exits through
    ``abort()``: a producer that dies mid-trace must never look complete.
    Owned files are fsynced on both paths before the descriptor is
    released.
    """

    def __init__(
        self,
        dest: PathOrIO,
        *,
        program: str = "",
        seed: int = 0,
        events_per_chunk: int = 1024,
    ) -> None:
        if events_per_chunk < 1:
            raise ValueError(f"events_per_chunk must be >= 1, got {events_per_chunk}")
        if isinstance(dest, (str, os.PathLike)):
            self._fh: BinaryIO = open(dest, "wb")
            self._owns = True
        else:
            self._fh = dest
            self._owns = False
        self.program = program
        self.seed = seed
        self.events_written = 0
        self._chunk_limit = events_per_chunk
        self._closed = False
        #: True once :meth:`abort` ran — the file is torn by design.
        self.aborted = False
        # Interners (identity -> table index) and their pending wire rows.
        self._strings: Dict[str, int] = {}
        self._threads: Dict[ThreadId, int] = {}
        self._locks: Dict[LockId, int] = {}
        self._pending_strings: List[str] = []
        self._pending_threads = bytearray()
        self._pending_thread_rows = 0
        self._pending_locks = bytearray()
        self._pending_lock_rows = 0
        self._ev_buf = bytearray()
        self._ev_count = 0
        self._last_step = 0

        self._fh.write(MAGIC + bytes([FORMAT_VERSION]))
        meta = bytearray()
        raw = program.encode("utf-8")
        _put_uvarint(meta, len(raw))
        meta += raw
        _put_svarint(meta, seed)
        self._write_chunk(_META, meta)

    # -- interning ----------------------------------------------------------

    def _string(self, s: str) -> int:
        idx = self._strings.get(s)
        if idx is None:
            idx = len(self._strings)
            self._strings[s] = idx
            self._pending_strings.append(s)
        return idx

    def _thread(self, tid: ThreadId) -> int:
        idx = self._threads.get(tid)
        if idx is not None:
            return idx
        parent = self._thread(tid.parent) + 1 if tid.parent is not None else 0
        spawn_site = self._string(tid.spawn_site)
        name = self._string(tid.name)
        # Index assigned *after* the parent's so rows land in resolvable
        # order; the row is encoded now, against already-assigned refs.
        idx = len(self._threads)
        self._threads[tid] = idx
        row = self._pending_threads
        _put_uvarint(row, parent)
        _put_uvarint(row, spawn_site)
        _put_uvarint(row, tid.seq)
        _put_uvarint(row, name)
        self._pending_thread_rows += 1
        return idx

    def _lock(self, lid: LockId) -> int:
        idx = self._locks.get(lid)
        if idx is not None:
            return idx
        owner = self._thread(lid.owner)
        create_site = self._string(lid.create_site)
        name = self._string(lid.name)
        idx = len(self._locks)
        self._locks[lid] = idx
        row = self._pending_locks
        _put_uvarint(row, owner)
        _put_uvarint(row, create_site)
        _put_uvarint(row, lid.seq)
        _put_uvarint(row, name)
        self._pending_lock_rows += 1
        return idx

    def _index(self, buf: bytearray, ix: ExecIndex) -> None:
        _put_uvarint(buf, self._thread(ix.thread))
        _put_uvarint(buf, self._string(ix.site))
        _put_uvarint(buf, ix.occ)

    # -- events -------------------------------------------------------------

    def write_event(self, ev: TraceEvent) -> None:
        if self._closed:
            raise ValueError("trace file writer is closed")
        buf = self._ev_buf
        buf.append(_EV_TAG[type(ev)])
        _put_svarint(buf, ev.step - self._last_step)
        self._last_step = ev.step
        _put_uvarint(buf, self._thread(ev.thread))
        if isinstance(ev, AcquireEvent):
            _put_uvarint(buf, self._lock(ev.lock))
            self._index(buf, ev.index)
            _put_uvarint(buf, len(ev.held))
            for l in ev.held:
                _put_uvarint(buf, self._lock(l))
            for ix in ev.held_indices:
                self._index(buf, ix)
            buf.append(1 if ev.reentrant else 0)
            _put_uvarint(buf, ev.stack_depth)
        elif isinstance(ev, ReleaseEvent):
            _put_uvarint(buf, self._lock(ev.lock))
            _put_uvarint(buf, self._string(ev.site))
            buf.append(1 if ev.reentrant else 0)
        elif isinstance(ev, SpawnEvent):
            _put_uvarint(buf, self._thread(ev.child))
        elif isinstance(ev, JoinEvent):
            _put_uvarint(buf, self._thread(ev.target))
        elif isinstance(ev, WaitEvent):
            _put_uvarint(buf, self._string(ev.condition))
            _put_uvarint(buf, self._lock(ev.lock))
            _put_uvarint(buf, self._string(ev.site))
        elif isinstance(ev, NotifyEvent):
            _put_uvarint(buf, self._string(ev.condition))
            _put_uvarint(buf, self._lock(ev.lock))
            _put_uvarint(buf, self._string(ev.site))
            _put_uvarint(buf, ev.woken)
            buf.append(1 if ev.notify_all else 0)
        elif isinstance(ev, BlockEvent):
            _put_uvarint(buf, self._lock(ev.lock))
            self._index(buf, ev.index)
            _put_uvarint(
                buf, self._thread(ev.holder) + 1 if ev.holder is not None else 0
            )
        self._ev_count += 1
        self.events_written += 1
        if self._ev_count >= self._chunk_limit:
            self._flush()

    #: Sink-protocol alias (see :class:`repro.runtime.events.SinkTrace`).
    __call__ = write_event

    # -- chunk output -------------------------------------------------------

    def _write_chunk(self, kind: int, payload: Union[bytes, bytearray]) -> None:
        head = bytearray([kind])
        _put_uvarint(head, len(payload))
        self._fh.write(bytes(head) + bytes(payload))

    def _flush(self) -> None:
        if self._pending_strings:
            payload = bytearray()
            _put_uvarint(payload, len(self._pending_strings))
            for s in self._pending_strings:
                raw = s.encode("utf-8")
                _put_uvarint(payload, len(raw))
                payload += raw
            self._write_chunk(_STRINGS, payload)
            self._pending_strings = []
        if self._pending_thread_rows:
            payload = bytearray()
            _put_uvarint(payload, self._pending_thread_rows)
            payload += self._pending_threads
            self._write_chunk(_THREADS, payload)
            self._pending_threads = bytearray()
            self._pending_thread_rows = 0
        if self._pending_lock_rows:
            payload = bytearray()
            _put_uvarint(payload, self._pending_lock_rows)
            payload += self._pending_locks
            self._write_chunk(_LOCKS, payload)
            self._pending_locks = bytearray()
            self._pending_lock_rows = 0
        if self._ev_count:
            payload = bytearray()
            _put_uvarint(payload, self._ev_count)
            payload += self._ev_buf
            self._write_chunk(_EVENTS, payload)
            self._ev_buf = bytearray()
            self._ev_count = 0

    def close(self) -> None:
        if self._closed:
            return
        self._flush()
        end = bytearray()
        _put_uvarint(end, self.events_written)
        self._write_chunk(_END, end)
        self._closed = True
        self._sync_and_release()

    def abort(self) -> None:
        """Stop writing WITHOUT sealing the file.

        Buffered chunks are flushed (the partial trace is evidence worth
        keeping) but no END chunk is written, so every reader — the
        corpus validator, the ingestion daemon, ``trace info`` — sees the
        file for what it is: torn.  Idempotent; a no-op after ``close``.
        """
        if self._closed:
            return
        self._flush()
        self._closed = True
        self.aborted = True
        self._sync_and_release()

    def _sync_and_release(self) -> None:
        self._fh.flush()
        try:
            os.fsync(self._fh.fileno())
        except (OSError, ValueError, io.UnsupportedOperation, AttributeError):
            pass  # non-file destinations (BytesIO, sockets) have no fsync
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "TraceFileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # An exception unwinding through the block means the producer died
        # mid-trace: leave the file torn instead of forging completeness.
        if exc_type is not None:
            self.abort()
        else:
            self.close()


# ---------------------------------------------------------------------------
# shared decode core (the chunk grammar, tables and event decoding)
# ---------------------------------------------------------------------------


class OversizedChunkError(ValueError):
    """A chunk declares a payload beyond the configured ceiling.

    Raised *from the header alone*, before any payload bytes are
    buffered — the defense that keeps a hostile producer from making the
    decoder allocate its declared (arbitrarily large) chunk.
    """


class TruncatedTraceError(ValueError):
    """The byte stream ends inside the header or inside a chunk: the file
    twin of a stream that sends FIN with a partial chunk buffered."""


class _DecodeCore:
    """The chunk grammar, identity tables and chunk-payload decoding,
    shared by the file reader (pull) and the incremental
    :class:`ChunkDecoder` (push).

    Both keep their bytes in one buffer and call :meth:`_next_chunk` on
    it; only what they do at its end differs (the reader is at EOF, the
    decoder waits for the next push).  The native reader and push
    decoder override :meth:`_decode_events` (and sync the tables) to
    feed the compiled kernel instead.
    """

    #: Hand EVENTS payloads over as memoryviews into the buffer instead
    #: of bytes (the native reader: zero-copy from page cache to the
    #: kernel).  Table chunks stay bytes; they are decoded in Python.
    _events_view = False
    #: Ceiling on any chunk's declared payload (``None``: none).
    max_chunk_bytes: Optional[int] = None

    def _init_decode_state(self) -> None:
        self._strings: List[str] = []
        self._threads: List[ThreadId] = []
        self._locks: List[LockId] = []
        self._last_step = 0
        self.events_read = 0
        #: END-chunk event count (``None`` until the END chunk is reached —
        #: a missing END chunk means the writer died mid-trace).
        self.declared_events: Optional[int] = None
        self.program = ""
        self.seed = 0
        #: Buffer offset of the next header or chunk.
        self._pos = 0
        self._header_done = False
        self._meta_done = False

    def _next_chunk(self, buf) -> Optional[Iterable[TraceEvent]]:
        """Frame the chunk at ``buf[self._pos:]`` and apply it.

        The one place the grammar lives.  Returns the chunk's events
        (empty for any chunk but EVENTS) and moves ``_pos`` past it, or
        returns ``None`` while ``buf`` ends inside the header or the
        chunk.  A hostile length varint or an oversized chunk is refused
        from its header, before the payload is awaited; the chunk kind is
        judged before its payload is decoded.
        """
        pos = self._pos
        if not self._header_done:
            if len(buf) - pos < _HEADER_LEN:
                return None
            if buf[pos : pos + len(MAGIC)] != MAGIC:
                raise ValueError("not a WOLF binary trace file (bad magic)")
            version = buf[pos + len(MAGIC)]
            if version != FORMAT_VERSION:
                raise ValueError(f"unsupported trace file version {version}")
            pos = self._pos = pos + _HEADER_LEN
            self._header_done = True
        if self.declared_events is not None and pos < len(buf):
            raise ValueError("data after END chunk")
        got = _try_uvarint(buf, pos + 1)
        if got is None:
            return None
        length, start = got
        if self.max_chunk_bytes is not None and length > self.max_chunk_bytes:
            raise OversizedChunkError(
                f"chunk declares {length} payload bytes "
                f"(limit {self.max_chunk_bytes})"
            )
        end = start + length
        if end > len(buf):
            return None
        kind = buf[pos]
        if kind != _META and not self._meta_done:
            raise ValueError("trace file must start with a META chunk")
        self._pos = end
        if kind == _EVENTS:
            if self._events_view:
                return self._decode_events(memoryview(buf)[start:end])
            return self._decode_events(bytes(buf[start:end]))
        payload = bytes(buf[start:end])
        if kind == _STRINGS:
            self._load_strings(payload)
        elif kind == _THREADS:
            self._load_threads(payload)
        elif kind == _LOCKS:
            self._load_locks(payload)
        elif kind == _END:
            self._load_end(payload)
        elif kind == _META:
            if self._meta_done:
                raise ValueError("duplicate META chunk")
            self._load_meta(payload)
            self._meta_done = True
        else:
            raise ValueError(f"unknown chunk kind {kind}")
        return ()

    def _load_meta(self, payload: bytes) -> None:
        n, pos = _get_uvarint(payload, 0)
        self.program = payload[pos : pos + n].decode("utf-8")
        self.seed, _ = _get_svarint(payload, pos + n)

    def _load_end(self, payload: bytes) -> None:
        declared, _ = _get_uvarint(payload, 0)
        if declared != self.events_read:
            raise ValueError(
                f"trace file declares {declared} events "
                f"but {self.events_read} were decoded"
            )
        self.declared_events = declared

    def _load_strings(self, payload: bytes) -> None:
        n, pos = _get_uvarint(payload, 0)
        for _ in range(n):
            ln, pos = _get_uvarint(payload, pos)
            self._strings.append(payload[pos : pos + ln].decode("utf-8"))
            pos += ln

    def _load_threads(self, payload: bytes) -> None:
        n, pos = _get_uvarint(payload, 0)
        for _ in range(n):
            parent, pos = _get_uvarint(payload, pos)
            spawn_site, pos = _get_uvarint(payload, pos)
            seq, pos = _get_uvarint(payload, pos)
            name, pos = _get_uvarint(payload, pos)
            self._threads.append(
                ThreadId(
                    self._threads[parent - 1] if parent else None,
                    self._strings[spawn_site],
                    seq,
                    name=self._strings[name],
                )
            )

    def _load_locks(self, payload: bytes) -> None:
        n, pos = _get_uvarint(payload, 0)
        for _ in range(n):
            owner, pos = _get_uvarint(payload, pos)
            create_site, pos = _get_uvarint(payload, pos)
            seq, pos = _get_uvarint(payload, pos)
            name, pos = _get_uvarint(payload, pos)
            self._locks.append(
                LockId(
                    self._threads[owner],
                    self._strings[create_site],
                    seq,
                    name=self._strings[name],
                )
            )

    # -- event decoding ------------------------------------------------------

    def _decode_events(self, payload: bytes) -> Iterator[TraceEvent]:
        """Decode one EVENTS payload, advancing ``events_read`` and the
        step accumulator.

        An integer wider than the native kernel holds (the varint rule
        in the module docstring) raises ``OverflowError``, so both
        backends accept the same payloads.

        One-byte varints are decoded inline; multi-byte values go through
        :func:`_get_uvarint`.  Most fields are single-byte table indices
        and small step deltas, so inlining them skips a call and a tuple
        allocation per field.
        """
        uvarint = _get_uvarint
        u64, occ_max = _U64_MAX, _I64_MAX
        step_min, step_max = _I64_MIN, _I64_MAX
        strings, threads, locks = self._strings, self._threads, self._locks
        new = object.__new__
        n, pos = uvarint(payload, 0, u64)
        step = self._last_step
        for _ in range(n):
            tag = payload[pos]
            pos += 1
            b = payload[pos]
            if b < 0x80:
                pos += 1
                step += (b >> 1) ^ -(b & 1)
            else:
                zz, pos = uvarint(payload, pos, u64)
                step += (zz >> 1) ^ -(zz & 1)
            if not step_min <= step <= step_max:
                raise OverflowError("event step outside int64")
            b = payload[pos]
            if b < 0x80:
                t = b
                pos += 1
            else:
                t, pos = uvarint(payload, pos, u64)
            thread = threads[t]
            if tag == 4:  # AcquireEvent (hottest first)
                b = payload[pos]
                if b < 0x80:
                    lk = b
                    pos += 1
                else:
                    lk, pos = uvarint(payload, pos, u64)
                b = payload[pos]
                if b < 0x80:
                    it = b
                    pos += 1
                else:
                    it, pos = uvarint(payload, pos, u64)
                b = payload[pos]
                if b < 0x80:
                    isite = b
                    pos += 1
                else:
                    isite, pos = uvarint(payload, pos, u64)
                b = payload[pos]
                if b < 0x80:
                    occ = b
                    pos += 1
                else:
                    occ, pos = uvarint(payload, pos, occ_max)
                b = payload[pos]
                if b < 0x80:
                    nheld = b
                    pos += 1
                else:
                    nheld, pos = uvarint(payload, pos, u64)
                if nheld:
                    held = []
                    for _h in range(nheld):
                        b = payload[pos]
                        if b < 0x80:
                            h = b
                            pos += 1
                        else:
                            h, pos = uvarint(payload, pos, u64)
                        held.append(locks[h])
                    held_indices = []
                    for _h in range(nheld):
                        b = payload[pos]
                        if b < 0x80:
                            ht = b
                            pos += 1
                        else:
                            ht, pos = uvarint(payload, pos, u64)
                        b = payload[pos]
                        if b < 0x80:
                            hs = b
                            pos += 1
                        else:
                            hs, pos = uvarint(payload, pos, u64)
                        b = payload[pos]
                        if b < 0x80:
                            ho = b
                            pos += 1
                        else:
                            ho, pos = uvarint(payload, pos, occ_max)
                        held_indices.append(
                            ExecIndex(threads[ht], strings[hs], ho)
                        )
                else:
                    held = held_indices = ()
                reentrant = payload[pos] == 1
                b = payload[pos + 1]
                if b < 0x80:
                    depth = b
                    pos += 2
                else:
                    depth, pos = uvarint(payload, pos + 1, u64)
                # Frozen-dataclass construction funnels every field
                # through object.__setattr__; building the instance dict
                # directly produces an equal object (same fields, eq,
                # hash, repr) without that per-field ceremony.
                index = new(ExecIndex)
                index.__dict__.update(
                    thread=threads[it], site=strings[isite], occ=occ
                )
                ev: TraceEvent = new(AcquireEvent)
                ev.__dict__.update(
                    step=step,
                    thread=thread,
                    lock=locks[lk],
                    index=index,
                    held=tuple(held),
                    held_indices=tuple(held_indices),
                    reentrant=reentrant,
                    stack_depth=depth,
                )
                self.events_read += 1
                yield ev
                continue
            if tag == 5:  # ReleaseEvent
                b = payload[pos]
                if b < 0x80:
                    lk = b
                    pos += 1
                else:
                    lk, pos = uvarint(payload, pos, u64)
                b = payload[pos]
                if b < 0x80:
                    site = b
                    pos += 1
                else:
                    site, pos = uvarint(payload, pos, u64)
                reentrant = payload[pos] == 1
                pos += 1
                ev = new(ReleaseEvent)
                ev.__dict__.update(
                    step=step,
                    thread=thread,
                    lock=locks[lk],
                    site=strings[site],
                    reentrant=reentrant,
                )
            elif tag == 0:
                ev = BeginEvent(step, thread)
            elif tag == 1:
                ev = EndEvent(step, thread)
            elif tag == 2:
                c, pos = uvarint(payload, pos, u64)
                ev = SpawnEvent(step, thread, child=threads[c])
            elif tag == 3:
                tgt, pos = uvarint(payload, pos, u64)
                ev = JoinEvent(step, thread, target=threads[tgt])
            elif tag == 6:
                cond, pos = uvarint(payload, pos, u64)
                lk, pos = uvarint(payload, pos, u64)
                site, pos = uvarint(payload, pos, u64)
                ev = WaitEvent(
                    step,
                    thread,
                    condition=strings[cond],
                    lock=locks[lk],
                    site=strings[site],
                )
            elif tag == 7:
                cond, pos = uvarint(payload, pos, u64)
                lk, pos = uvarint(payload, pos, u64)
                site, pos = uvarint(payload, pos, u64)
                woken, pos = uvarint(payload, pos, u64)
                notify_all = payload[pos] == 1
                pos += 1
                ev = NotifyEvent(
                    step,
                    thread,
                    condition=strings[cond],
                    lock=locks[lk],
                    site=strings[site],
                    woken=woken,
                    notify_all=notify_all,
                )
            elif tag == 8:
                lk, pos = uvarint(payload, pos, u64)
                it, pos = uvarint(payload, pos, u64)
                isite, pos = uvarint(payload, pos, u64)
                occ, pos = uvarint(payload, pos, u64)
                holder, pos = uvarint(payload, pos, u64)
                ev = BlockEvent(
                    step,
                    thread,
                    lock=locks[lk],
                    index=ExecIndex(threads[it], strings[isite], occ),
                    holder=threads[holder - 1] if holder else None,
                )
            else:
                raise ValueError(f"unknown event tag {tag}")
            self.events_read += 1
            yield ev
        self._last_step = step


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------


class TraceFileReader(_DecodeCore):
    """Sequential event iterator over a binary trace file.

    The reader walks one buffer: a path is opened and mapped, so chunk
    payloads are slices of the page cache with no ``read()`` or
    ``seek()``; a file that cannot be mapped (an empty file, a pipe) and
    a file object (which stays the caller's) are read whole from the
    current position.  Events are decoded one chunk at a time, so peak
    memory beyond the buffer is the identity tables plus one chunk.  The
    header and META chunk are read on open; a stream that ends inside
    the header, before META or inside a chunk raises
    :class:`TruncatedTraceError` ("truncated trace file"), while a clean
    end without END leaves ``declared_events`` ``None`` (a torn trace).
    """

    def __init__(self, src: PathOrIO) -> None:
        self._mm: Optional[mmap.mmap] = None
        if isinstance(src, (str, os.PathLike)):
            with open(src, "rb") as fh:
                try:
                    self._mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                    self._buf = self._mm
                except (OSError, ValueError):
                    self._buf = fh.read()  # unmappable file
        else:
            self._buf = src.read()
        self._init_decode_state()
        try:
            if self._next_chunk(self._buf) is None:  # header + META
                raise TruncatedTraceError("truncated trace file")
        except BaseException:
            self.close()  # a failed open must not leak the map
            raise

    def __iter__(self) -> Iterator[TraceEvent]:
        buf = self._buf
        while True:
            events = self._next_chunk(buf)
            if events is None:
                if self._pos < len(buf):
                    raise TruncatedTraceError("truncated trace file")
                return
            yield from events

    def read_trace(self) -> Trace:
        """Materialize the remaining stream as an in-memory :class:`Trace`."""
        trace = Trace(program=self.program, seed=self.seed)
        for ev in self:
            trace.append(ev)
        return trace

    def close(self) -> None:
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:
                # A chunk view is still exported — typically pinned by the
                # traceback of a decode error propagating through
                # ``__exit__``.  Leave the map to the GC instead of
                # masking the original exception with a BufferError.
                pass
            self._mm = None

    def __enter__(self) -> "TraceFileReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# incremental push decoder (network ingestion)
# ---------------------------------------------------------------------------


class ChunkDecoder(_DecodeCore):
    """Incremental ``.wtrc`` decoder for bytes arriving in arbitrary slices.

    The ingestion daemon's workhorse: a producer streams a trace file over
    a socket in whatever frame sizes it likes, and each :meth:`push`
    returns the events of every chunk that is now complete.  The chunks
    go through the reader's grammar, so the same bytes reach the same
    events or the same error however they are sliced, and a stream the
    reader calls truncated leaves this decoder waiting for bytes.  State
    the daemon's journal and flow control need is exposed as it
    advances:

    ``bytes_consumed``
        absolute stream offset of the last fully-decoded chunk boundary —
        the resume point a crash-recovery journal records (re-feeding the
        first ``bytes_consumed`` bytes reproduces this decoder's state
        exactly);
    ``buffered``
        bytes received but not yet attributable to a complete chunk (the
        partial-chunk residue counted against backpressure budgets);
    ``complete``
        whether the END seal arrived and matched.

    ``max_chunk_bytes`` bounds any single chunk's declared payload;
    violation raises :class:`OversizedChunkError` before the payload is
    buffered.  All other corruption surfaces exactly as
    :class:`TraceFileReader` raises it (``ValueError`` for framing,
    ``IndexError``/``KeyError``/``UnicodeDecodeError``/``OverflowError``
    for bit rot inside payloads), so one taxonomy classifies both batch
    and streaming ingestion.
    """

    def __init__(self, *, max_chunk_bytes: Optional[int] = None) -> None:
        if max_chunk_bytes is not None and max_chunk_bytes < 1:
            raise ValueError(f"max_chunk_bytes must be >= 1, got {max_chunk_bytes}")
        self._init_decode_state()
        self.max_chunk_bytes = max_chunk_bytes
        self._buf = bytearray()
        #: absolute offset of ``_buf[0]`` in the whole stream
        self._base = 0

    @property
    def bytes_consumed(self) -> int:
        """Stream offset of the last fully-decoded chunk boundary."""
        return self._base + self._pos

    @property
    def buffered(self) -> int:
        """Bytes held waiting for their chunk to complete."""
        return len(self._buf) - self._pos

    @property
    def complete(self) -> bool:
        return self.declared_events is not None

    def push(self, data: bytes) -> List[TraceEvent]:
        """Consume a slice of the stream; return newly-decoded events."""
        buf = self._buf
        buf += data
        out: List[TraceEvent] = []
        while True:
            events = self._next_chunk(buf)
            if events is None:
                break
            out.extend(events)
        del buf[: self._pos]
        self._base += self._pos
        self._pos = 0
        return out


# ---------------------------------------------------------------------------
# conveniences
# ---------------------------------------------------------------------------


def write_trace(trace: Trace, dest: PathOrIO, *, events_per_chunk: int = 1024) -> int:
    """Pack an in-memory trace to a binary file; returns bytes written
    (when ``dest`` is a path or a tellable stream, else -1)."""
    with TraceFileWriter(
        dest,
        program=trace.program,
        seed=trace.seed,
        events_per_chunk=events_per_chunk,
    ) as w:
        for ev in trace:
            w.write_event(ev)
    if isinstance(dest, (str, os.PathLike)):
        return os.path.getsize(dest)
    try:
        return dest.tell()
    except (OSError, io.UnsupportedOperation):
        return -1


def read_trace(src: PathOrIO) -> Trace:
    """Load a binary trace file fully into memory."""
    with TraceFileReader(src) as r:
        return r.read_trace()


def is_tracefile(path: Union[str, "os.PathLike[str]"]) -> bool:
    """Sniff whether ``path`` starts with the binary trace magic."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def trace_info(src: PathOrIO) -> Dict[str, object]:
    """Streaming summary of a binary trace file (never materializes it)."""
    per_kind: Dict[str, int] = {}
    with TraceFileReader(src) as r:
        for ev in r:
            name = type(ev).__name__
            per_kind[name] = per_kind.get(name, 0) + 1
        return {
            "program": r.program,
            "seed": r.seed,
            "events": r.events_read,
            "complete": r.declared_events is not None,
            "threads": len(r._threads),
            "locks": len(r._locks),
            "strings": len(r._strings),
            "by_kind": dict(sorted(per_kind.items())),
        }
