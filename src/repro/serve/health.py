"""``/healthz`` and ``/stats`` documents for the ingestion daemon.

Counters are plain ints mutated from the (single-threaded) event loop, so
no locking; snapshots are cheap dicts the CONTROL channel serializes on
demand.  ``healthz`` is the liveness probe (is the daemon accepting,
and has it swallowed a handler error?), which ``wolf fleet status`` asks
every worker; ``stats`` is the observability document: stream counts,
buffered bytes, credit withholding, evictions, quarantines by taxonomy
code, and aggregate detector progress (events fed vs bytes buffered =
detector lag at chunk granularity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class ServeStats:
    """Mutable counters for one daemon incarnation."""

    connections: int = 0
    streams_accepted: int = 0
    streams_resumed: int = 0
    streams_active: int = 0
    streams_parked: int = 0
    analyzed: int = 0
    rejected: int = 0
    evictions: int = 0
    quarantined: Dict[str, int] = field(default_factory=dict)
    events_fed: int = 0
    bytes_ingested: int = 0
    buffered_bytes: int = 0
    credits_withheld: int = 0
    journal_chunks: int = 0
    control_queries: int = 0
    #: HELLOs for streams another fleet worker owns, refused with
    #: ``wrong-worker`` (always 0 in single-worker mode).
    redirects: int = 0
    #: Handler bugs swallowed by the zero-unhandled-exceptions backstop.
    internal_errors: int = 0
    draining: bool = False
    #: This daemon's shard identity in a fleet (0/1 when standalone).
    worker_index: int = 0
    num_workers: int = 1

    def note_quarantine(self, code: str) -> None:
        self.quarantined[code] = self.quarantined.get(code, 0) + 1

    def healthz(self, *, accepting: bool, backend: str = "python") -> dict:
        status = "draining" if self.draining else ("ok" if accepting else "down")
        return {
            "status": status,
            "accepting": accepting,
            "streams_active": self.streams_active,
            "backend": backend,
            "worker": self.worker_index,
            "workers": self.num_workers,
            "internal_errors": self.internal_errors,
        }

    def stats(
        self,
        *,
        accepting: bool,
        detectors: Dict[str, dict],
        backend: str = "python",
        kernel: "str | None" = None,
    ) -> dict:
        """Full observability snapshot.

        ``detectors`` maps active stream ids to their
        :meth:`~repro.core.streaming.StreamingDetector.stats` snapshots;
        totals are aggregated here so the document stays useful when
        hundreds of streams are active.
        """
        detector_events = sum(d.get("events_seen", 0) for d in detectors.values())
        return {
            "accepting": accepting,
            "draining": self.draining,
            "backend": backend,
            "kernel": kernel,
            "worker": self.worker_index,
            "workers": self.num_workers,
            "connections": self.connections,
            "redirects": self.redirects,
            "streams": {
                "accepted": self.streams_accepted,
                "resumed": self.streams_resumed,
                "active": self.streams_active,
                "parked": self.streams_parked,
                "analyzed": self.analyzed,
                "quarantined": sum(self.quarantined.values()),
                "rejected": self.rejected,
            },
            "quarantine_reasons": dict(sorted(self.quarantined.items())),
            "evictions": self.evictions,
            "buffered_bytes": self.buffered_bytes,
            "bytes_ingested": self.bytes_ingested,
            "credits_withheld": self.credits_withheld,
            "journal_chunks": self.journal_chunks,
            "control_queries": self.control_queries,
            "internal_errors": self.internal_errors,
            "detector": {
                "events_fed": self.events_fed,
                "active_events_seen": detector_events,
                "lag_bytes": self.buffered_bytes,
                "per_stream": dict(sorted(detectors.items())),
            },
        }
