"""Per-stream ingestion state: decode → detect → spool → journal.

One :class:`StreamSession` exists per stream id for the lifetime of a
run.  Bytes arriving from the producer are (in order) appended to the
stream's spool file, pushed through the incremental
:class:`~repro.runtime.tracefile.ChunkDecoder`, and the decoded events
fed to the stream's own :class:`~repro.core.streaming.StreamingDetector`.
Every time the decoder crosses a ``.wtrc`` chunk boundary the spool is
fsynced and the boundary journaled — the invariant crash recovery leans
on: *journaled bytes are durable, chunk-aligned, and re-feeding them
reproduces the detector state exactly*.

Sessions move through ``ACTIVE`` (connection attached), ``PARKED``
(producer went away before FIN; resumable), and the terminal states
``COMPLETE`` and ``QUARANTINED``.  A terminal session drops its decoder
and detector (and with them any native kernel context): the daemon keeps
every session for duplicate arbitration and the manifest, which need
only its state, row and byte/event counts.  Quarantine moves the spool into
``quarantine/`` alongside a ``<id>.reason.json`` record carrying the
taxonomy code — the same codes the corpus validator uses for on-disk
corpora (:mod:`repro.corpus.validate`), extended with the daemon's
transport-level codes below.
"""

from __future__ import annotations

import enum
import json
import os
from typing import BinaryIO, Optional

from repro.core.streaming import StreamingDetector
from repro.corpus.manifest import DETECTOR_PARAMS
from repro.corpus.validate import classify_decode_error
from repro.runtime.tracefile import ChunkDecoder
from repro.serve.journal import RunJournal
from repro.serve.report import defect_report_doc

# Transport-level quarantine codes (the decode-level ones — "torn",
# "unreadable", "corrupt-payload", "oversized-chunk" — come from
# repro.corpus.validate's shared taxonomy).
IDLE_TIMEOUT = "idle-timeout"
ABORTED = "aborted"
DUPLICATE_STREAM = "duplicate-stream"
FLOW_VIOLATION = "flow-violation"
OVERSIZED_STREAM = "oversized-stream"


class SessionState(enum.Enum):
    ACTIVE = "active"
    PARKED = "parked"
    COMPLETE = "complete"
    QUARANTINED = "quarantined"


class StreamSession:
    """Ingestion state for one stream id."""

    def __init__(
        self,
        stream_id: str,
        run_dir: str,
        journal: RunJournal,
        *,
        max_length: int = DETECTOR_PARAMS["max_length"],
        max_cycles: int = DETECTOR_PARAMS["max_cycles"],
        max_chunk_bytes: Optional[int] = None,
        max_stream_bytes: Optional[int] = None,
        backend: str = "python",
    ) -> None:
        self.stream_id = stream_id
        self.run_dir = run_dir
        self.journal = journal
        self.max_length = max_length
        self.max_cycles = max_cycles
        self.max_stream_bytes = max_stream_bytes
        self.backend = backend
        self.state = SessionState.ACTIVE
        # Cycle enumeration runs at finalize().
        if backend == "native":
            # Resolved by the server at startup: one decoder/detector pair
            # sharing a per-stream kernel context; reports stay
            # byte-identical to the pure path (differential suite).
            from repro.core.nativekernel import (
                NativeChunkDecoder,
                NativeStreamingDetector,
                _Kernel,
            )

            kernel = _Kernel()
            self.decoder = NativeChunkDecoder(
                kernel, max_chunk_bytes=max_chunk_bytes
            )
            self.detector = NativeStreamingDetector(
                kernel, self.decoder, max_length=max_length, max_cycles=max_cycles
            )
        else:
            self.decoder = ChunkDecoder(max_chunk_bytes=max_chunk_bytes)
            self.detector = StreamingDetector(
                max_length=max_length, max_cycles=max_cycles
            )
        self.spool_path = os.path.join(run_dir, "spool", f"{stream_id}.wtrc")
        self._spool: Optional[BinaryIO] = None
        #: Whether the spool changed since its last fsync.
        self._unsynced = False
        #: Last chunk boundary made durable (spool fsync + journal line).
        self.journaled_bytes = 0
        #: Events decoded and fed so far.
        self.events_fed = 0
        #: Sealed manifest row once terminal.
        self.row: Optional[dict] = None

    # -- lifecycle -----------------------------------------------------------

    def open_fresh(self) -> None:
        os.makedirs(os.path.dirname(self.spool_path), exist_ok=True)
        self._spool = open(self.spool_path, "wb")

    def open_resumed(self, durable_bytes: int) -> None:
        """Reattach after a daemon restart (or producer reconnect).

        The spool is cut back to the journaled chunk boundary — bytes
        past it were never journaled, so the producer re-sends them —
        and the durable prefix is re-fed through fresh decoder/detector
        state, which reproduces the pre-crash analysis exactly.  The
        prefix is never rewritten: it stays on disk as the journal
        vouched for it, and only the unjournaled tail is truncated.
        """
        os.makedirs(os.path.dirname(self.spool_path), exist_ok=True)
        spool: Optional[BinaryIO] = None
        prefix = b""
        if os.path.exists(self.spool_path):
            spool = open(self.spool_path, "r+b")
            prefix = spool.read(durable_bytes)
        if len(prefix) < durable_bytes:
            if spool is not None:
                spool.close()
            raise ValueError(
                f"spool for {self.stream_id!r} shorter than journal "
                f"({len(prefix)} < {durable_bytes})"
            )
        if spool is None:
            spool = open(self.spool_path, "wb")  # nothing journaled or spooled
        elif os.fstat(spool.fileno()).st_size > durable_bytes:
            spool.truncate(durable_bytes)
            self._unsynced = True  # the cut reaches disk at the next fsync
        spool.seek(durable_bytes)
        self._spool = spool
        if prefix:
            before_events = self.decoder.events_read
            events = self.decoder.push(prefix)
            if events:
                self.detector.feed_many(events)
            # Counted from the decoder (not len(events)): the native
            # decoder consumes events inside the kernel and returns none.
            self.events_fed += self.decoder.events_read - before_events
        if self.decoder.bytes_consumed != durable_bytes:
            raise ValueError(
                f"journal for {self.stream_id!r} is not chunk-aligned "
                f"({self.decoder.bytes_consumed} != {durable_bytes})"
            )
        self.journaled_bytes = durable_bytes

    # -- ingestion -----------------------------------------------------------

    @property
    def buffered(self) -> int:
        """Partial-chunk residue counted against backpressure budgets."""
        return self.decoder.buffered

    @property
    def total_bytes(self) -> int:
        return self.decoder.bytes_consumed + self.decoder.buffered

    def ingest(self, data: bytes) -> int:
        """Consume one DATA payload; returns events fed.

        Raises whatever the decoder raises on hostile bytes — the server
        classifies via the shared taxonomy — and ``ValueError`` tagged
        :data:`OVERSIZED_STREAM` when the stream exceeds its byte budget.
        """
        assert self._spool is not None, "session not opened"
        if (
            self.max_stream_bytes is not None
            and self.total_bytes + len(data) > self.max_stream_bytes
        ):
            raise StreamTooLarge(
                f"stream exceeds {self.max_stream_bytes} bytes"
            )
        self._spool.write(data)
        self._spool.flush()
        self._unsynced = True
        before = self.decoder.bytes_consumed
        before_events = self.decoder.events_read
        events = self.decoder.push(data)
        if events:
            self.detector.feed_many(events)
        fed = self.decoder.events_read - before_events
        self.events_fed += fed
        if self.decoder.bytes_consumed > before:
            # Durable checkpoint: spool first, then the journal line that
            # vouches for it.
            os.fsync(self._spool.fileno())
            self._unsynced = False
            self.journaled_bytes = self.decoder.bytes_consumed
            self.journal.chunk(self.stream_id, self.journaled_bytes)
        return fed

    # -- termination ---------------------------------------------------------

    def finalize(self) -> dict:
        """Seal a completed stream: report doc + journaled manifest row."""
        assert self.decoder.complete, "finalize() before END chunk"
        # A complete decoder consumed every spooled byte, and the chunk
        # crossing that consumed the last one fsynced them all.
        self._close_spool(sync=self._unsynced)
        detection = self.detector.finish()
        doc = defect_report_doc(
            detection,
            program=self.decoder.program,
            seed=self.decoder.seed,
            events=self.detector.events_seen,
            max_length=self.max_length,
            max_cycles=self.max_cycles,
            trace_path=self.spool_path,
        )
        self.state = SessionState.COMPLETE
        self._release_analysis()
        return doc

    def seal_complete(self, report_name: str, report_sha: str, doc: dict) -> dict:
        self.row = {
            "stream": self.stream_id,
            "status": "analyzed",
            "program": doc["program"],
            "seed": doc["seed"],
            "events": doc["events"],
            "defect_keys": len(doc["defect_keys"]),
            "replay_candidates": doc["replay_candidates"],
            "report": report_name,
            "sha256": report_sha,
        }
        self.journal.complete(self.stream_id, self.row)
        return self.row

    def quarantine(self, code: str, detail: str) -> dict:
        """Move the spool (if any) into quarantine/ with a reason record."""
        self._close_spool()
        qdir = os.path.join(self.run_dir, "quarantine")
        os.makedirs(qdir, exist_ok=True)
        evidence = None
        if os.path.exists(self.spool_path) and os.path.getsize(self.spool_path):
            evidence = os.path.join("quarantine", f"{self.stream_id}.wtrc")
            os.replace(self.spool_path, os.path.join(self.run_dir, evidence))
        reason = {
            "stream": self.stream_id,
            "code": code,
            "detail": detail,
            "bytes_ingested": self.journaled_bytes,
            "events_fed": self.events_fed,
            "evidence": evidence,
        }
        with open(
            os.path.join(qdir, f"{self.stream_id}.reason.json"), "w"
        ) as fh:
            json.dump(reason, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.row = {
            "stream": self.stream_id,
            "status": "quarantined",
            "code": code,
            "detail": detail,
            "events": self.events_fed,
            "evidence": evidence,
        }
        self.state = SessionState.QUARANTINED
        self._release_analysis()
        self.journal.quarantine(self.stream_id, self.row)
        return self.row

    def park(self) -> None:
        """Producer went away before FIN: resumable, not yet condemned."""
        self._close_spool()
        self.state = SessionState.PARKED

    def _release_analysis(self) -> None:
        """Drop the decoder and detector of a terminal session."""
        self.decoder = None
        self.detector = None

    def _close_spool(self, sync: bool = True) -> None:
        if self._spool is not None:
            self._spool.flush()
            if sync:
                try:
                    os.fsync(self._spool.fileno())
                except OSError:  # pragma: no cover - spool is a real file
                    pass
            self._spool.close()
            self._spool = None


class StreamTooLarge(ValueError):
    """A stream exceeded its configured byte budget."""


def classify_ingest_error(exc: BaseException):
    """Taxonomy code + detail for an :meth:`StreamSession.ingest` failure."""
    if isinstance(exc, StreamTooLarge):
        return OVERSIZED_STREAM, str(exc)
    corruption = classify_decode_error(exc)
    return corruption.code, corruption.detail
