"""Chunk-granularity crash-recovery journal for one ingestion run.

The daemon's durability story: every state transition that must survive a
``kill -9`` is one fsynced JSONL line in ``journal.jsonl`` inside the run
directory.  Three facts are journaled:

* ``chunk`` — a stream's spool has been durably ingested up to byte
  ``bytes`` (always a ``.wtrc`` chunk boundary, so re-feeding the spool
  prefix reproduces the detector's state exactly);
* ``complete`` — a stream finished: its report row (events, defect keys,
  report filename, sha256) is recorded so a restarted daemon can rebuild
  the run manifest *without re-analyzing the trace*;
* ``quarantine`` / ``reject`` — a stream (or a connection attempt) was
  classified hostile, with its taxonomy code.

Recovery (:meth:`RunJournal.load_state`) replays the journal into a
:class:`JournalState`: completed and quarantined streams are terminal,
anything else with journaled bytes is resumable from that offset.  A torn
final line (the crash landed mid-write) is ignored — everything before it
was fsynced.

**Compaction.**  Chunk rows dominate the journal (one per durable chunk
boundary, hundreds per stream) but only the *last* one per stream
matters, and across daemon restarts the append-only file would grow
without bound.  With ``max_bytes`` set, the journal rotates whenever an
append pushes it past the limit: the writer's live :class:`JournalState`
mirror is serialized as a single ``snapshot`` row into a fresh file,
atomically swapped into place, and appending continues after it.  A
``snapshot`` row *replaces* all prior state during recovery, so a journal
is always equivalent to (snapshot ∘ suffix) — rotation is invisible to
crash recovery, which the rotation-boundary resume test proves.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TextIO

JOURNAL_NAME = "journal.jsonl"


def replace_durably(path: str, text: str) -> None:
    """Atomically replace ``path`` with ``text``, durable on return.

    The text is fsynced under a temporary name, renamed over ``path``,
    and then the directory entry is fsynced, so a crash at any instant
    leaves either the old file or the complete new one, never neither.
    Every document serve seals (manifests, ``fleet.json``, endpoint
    advertisements, journal compactions) goes through here.
    """
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


@dataclass
class JournalState:
    """What a journal says survived the previous daemon incarnation."""

    #: stream id -> durably-ingested byte count (chunk boundary)
    bytes_ingested: Dict[str, int] = field(default_factory=dict)
    #: stream id -> sealed manifest row (status "analyzed")
    completed: Dict[str, dict] = field(default_factory=dict)
    #: stream id -> sealed manifest row (status "quarantined")
    quarantined: Dict[str, dict] = field(default_factory=dict)
    #: connection attempts rejected before a session existed
    rejected: List[dict] = field(default_factory=list)

    def terminal(self, stream_id: str) -> bool:
        return stream_id in self.completed or stream_id in self.quarantined

    def resumable(self) -> Dict[str, int]:
        """Streams with durable bytes but no terminal verdict."""
        return {
            s: n
            for s, n in self.bytes_ingested.items()
            if not self.terminal(s)
        }

    def to_doc(self) -> dict:
        """Wire form of a compaction snapshot.

        Terminal streams drop their ``bytes_ingested`` entries — only the
        terminal row matters for them, and shedding dead chunk offsets is
        half the point of compacting.
        """
        return {
            "bytes_ingested": {
                s: n for s, n in sorted(self.resumable().items())
            },
            "completed": {s: r for s, r in sorted(self.completed.items())},
            "quarantined": {s: r for s, r in sorted(self.quarantined.items())},
            "rejected": list(self.rejected),
        }

    @staticmethod
    def from_doc(doc: dict) -> "JournalState":
        return JournalState(
            bytes_ingested={
                str(s): int(n)
                for s, n in doc.get("bytes_ingested", {}).items()
            },
            completed=dict(doc.get("completed", {})),
            quarantined=dict(doc.get("quarantined", {})),
            rejected=list(doc.get("rejected", [])),
        )


class RunJournal:
    """Append-only fsynced JSONL journal (one per run directory).

    ``max_bytes`` enables size-triggered compaction (see module docs);
    ``None`` keeps the historical grow-forever behavior.
    """

    def __init__(self, path: str, *, max_bytes: Optional[int] = None) -> None:
        self.path = path
        self._max_bytes = max_bytes
        #: Rotations performed by this journal instance (observability).
        self.rotations = 0
        # The live mirror compaction snapshots; seeded from whatever the
        # file already holds so a post-restart rotation loses nothing.
        self._state = RunJournal.load_state(path)
        self._fh: Optional[TextIO] = open(path, "a", encoding="utf-8")

    # -- writing -------------------------------------------------------------

    def _append(self, doc: dict) -> None:
        assert self._fh is not None, "journal is closed"
        self._fh.write(json.dumps(doc, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        if self._max_bytes is not None and self._fh.tell() > self._max_bytes:
            self._rotate()

    def _rotate(self) -> None:
        """Compact: snapshot the mirror into a fresh file, swap, continue.

        The snapshot is fully durable (:func:`replace_durably`) *before*
        the old file goes away, so a crash at any instant leaves either
        the old journal or the complete snapshot — never neither.
        """
        assert self._fh is not None
        replace_durably(
            self.path,
            json.dumps(
                {"op": "snapshot", "state": self._state.to_doc()},
                sort_keys=True,
            )
            + "\n",
        )
        self._fh.close()
        self._fh = open(self.path, "a", encoding="utf-8")
        self.rotations += 1

    def chunk(self, stream_id: str, bytes_ingested: int) -> None:
        self._state.bytes_ingested[stream_id] = bytes_ingested
        self._append(
            {"op": "chunk", "stream": stream_id, "bytes": bytes_ingested}
        )

    def complete(self, stream_id: str, row: dict) -> None:
        self._state.completed[stream_id] = row
        self._append({"op": "complete", "stream": stream_id, "row": row})

    def quarantine(self, stream_id: str, row: dict) -> None:
        self._state.quarantined[stream_id] = row
        self._append({"op": "quarantine", "stream": stream_id, "row": row})

    def reject(self, stream_id: str, code: str, detail: str) -> None:
        self._state.rejected.append(
            {"stream": stream_id, "code": code, "detail": detail}
        )
        self._append(
            {"op": "reject", "stream": stream_id, "code": code, "detail": detail}
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- recovery ------------------------------------------------------------

    @staticmethod
    def load_state(path: str) -> JournalState:
        """Replay a journal file (missing file = empty state)."""
        state = JournalState()
        if not os.path.exists(path):
            return state
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    # Torn final line from a crash mid-write: everything
                    # before it was fsynced, so stop here.
                    break
                op = doc.get("op")
                stream = doc.get("stream", "")
                if op == "snapshot":
                    # A compaction point: the snapshot *is* the state at
                    # that instant; later lines replay on top of it.
                    state = JournalState.from_doc(doc.get("state", {}))
                elif op == "chunk":
                    state.bytes_ingested[stream] = int(doc["bytes"])
                elif op == "complete":
                    state.completed[stream] = doc["row"]
                elif op == "quarantine":
                    state.quarantined[stream] = doc["row"]
                elif op == "reject":
                    state.rejected.append(
                        {
                            "stream": stream,
                            "code": doc.get("code", ""),
                            "detail": doc.get("detail", ""),
                        }
                    )
        return state
