"""``repro.serve`` — the fleet-mode trace-ingestion daemon (``wolf serve``).

The ROADMAP's "always-on trace-ingestion service": a long-running asyncio
daemon that accepts concurrent ``.wtrc`` streams from many producer
processes over a unix socket (or TCP), feeds each stream into its own
incremental :class:`~repro.core.streaming.StreamingDetector`, and emits
per-stream defect reports plus a sealed ``run_manifest.json`` per run.
Robustness is the point of the package:

* :mod:`repro.serve.protocol` — the framed wire protocol with
  credit-based backpressure (a misbehaving producer stalls, never OOMs
  the daemon);
* :mod:`repro.serve.journal` — the chunk-granularity crash-recovery
  journal (kill -9 the daemon; restart resumes partially-ingested
  streams and never re-analyzes completed ones);
* :mod:`repro.serve.session` — per-stream ingestion state machine
  (decode, detect, spool, quarantine);
* :mod:`repro.serve.server` — the asyncio daemon: accept → ingest →
  detect → drain, idle-timeout eviction, graceful SIGTERM drain;
* :mod:`repro.serve.client` — the producer shim and the chaos client
  (kill mid-chunk, stall, garbage, oversized, duplicate, reconnect);
* :mod:`repro.serve.report` — the canonical per-stream defect report,
  byte-identical to ``wolf analyze-trace --json`` on the same trace;
* :mod:`repro.serve.health` — ``/healthz`` + ``/stats`` documents;
* :mod:`repro.serve.supervisor` — the multi-process fleet: N workers
  behind one stream-id hash router that serves the public unix socket
  and TCP port alike, health-probed, restart-on-crash, one merged
  manifest at drain;
* :mod:`repro.serve.rollup` — deterministic fleet-wide defect rollups
  (``wolf fleet report``), byte-identical at any worker count.
"""

from repro.serve.client import ChaosOutcome, SendResult, chaos_client, send_trace
from repro.serve.health import ServeStats
from repro.serve.journal import JournalState, RunJournal
from repro.serve.protocol import (
    DEFAULT_WINDOW,
    MAX_FRAME,
    PROTOCOL_VERSION,
    WRONG_WORKER,
    Frame,
    FrameKind,
    ProtocolError,
    shard_of,
)
from repro.serve.rollup import (
    ROLLUP_SCHEMA,
    render_rollup,
    rollup_reports,
    rollup_run_dirs,
)
from repro.serve.report import (
    REPORT_SCHEMA,
    defect_report_doc,
    render_report,
    report_doc_for_file,
)
from repro.serve.server import (
    RUN_MANIFEST_NAME,
    RUN_SCHEMA,
    ServeConfig,
    WolfServer,
    query_server,
)
from repro.serve.supervisor import (
    FLEET_NAME,
    MERGED_RUN_SCHEMA,
    FleetConfig,
    FleetSupervisor,
    fleet_status,
    merge_manifests,
)

__all__ = [
    "ChaosOutcome",
    "DEFAULT_WINDOW",
    "FLEET_NAME",
    "FleetConfig",
    "FleetSupervisor",
    "Frame",
    "FrameKind",
    "JournalState",
    "MAX_FRAME",
    "MERGED_RUN_SCHEMA",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "REPORT_SCHEMA",
    "ROLLUP_SCHEMA",
    "RUN_MANIFEST_NAME",
    "RUN_SCHEMA",
    "RunJournal",
    "SendResult",
    "ServeConfig",
    "ServeStats",
    "WRONG_WORKER",
    "WolfServer",
    "chaos_client",
    "defect_report_doc",
    "fleet_status",
    "merge_manifests",
    "query_server",
    "render_report",
    "render_rollup",
    "report_doc_for_file",
    "rollup_reports",
    "rollup_run_dirs",
    "send_trace",
    "shard_of",
]
