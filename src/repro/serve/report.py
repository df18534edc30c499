"""Canonical per-stream defect reports.

One function produces the report document and one function renders it to
bytes, and *both* the ingestion daemon and ``wolf analyze-trace --json``
go through them — which is what makes the acceptance property checkable
at the byte level: a healthy stream ingested over a socket yields a
report file byte-identical to the batch CLI run on the same ``.wtrc``.

The document is deliberately timestamp- and hostname-free: a defect
report is a pure function of the trace bytes and the detector knobs, so
identical inputs must produce identical bytes on any machine at any time.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.core.detector import DetectionResult
from repro.core.generator import Generator, GeneratorVerdict
from repro.core.parallel import closure_index_for, predict_decisions
from repro.core.pruner import Pruner
from repro.corpus.manifest import DETECTOR_PARAMS, canonical_keys

REPORT_SCHEMA = "wolf-defect-report/2"


def defect_report_doc(
    detection: DetectionResult,
    *,
    program: str,
    seed: int,
    events: int,
    max_length: int = DETECTOR_PARAMS["max_length"],
    max_cycles: int = DETECTOR_PARAMS["max_cycles"],
    trace_path: Optional[str] = None,
) -> dict:
    """Build the canonical report document from a finished detection.

    Runs the trace-side pipeline tail (Pruner → Generator → prediction)
    exactly as ``wolf analyze-trace`` does.  Replay needs the live
    producer and stays out of scope for the ingestion tier; the
    sync-preserving prediction pass is what decides feasibility here —
    it certifies or refutes replay candidates from the trace alone, so
    fleet streams whose producers cannot be re-run still get verdicts.
    ``trace_path`` supplies the event stream for the closure index when
    the detection never materialized one (the streaming engine).
    """
    prune = Pruner(detection.vclocks).prune(detection.cycles)
    gen = Generator(detection.relation).run(prune.survivors)
    index = closure_index_for(detection, gen.decisions, trace_path)
    # The document reads verdicts only, so each defect key is settled once.
    predictions = predict_decisions(index, gen.decisions, promote_early=True)
    decisions = []
    counts = {"certified": 0, "refuted": 0, "undecided": 0}
    for dec, pred in zip(gen.decisions, predictions):
        if dec.verdict is GeneratorVerdict.FALSE:
            verdict = "false"
        else:
            verdict = "replayable"
        row = {
            "sites": sorted(dec.cycle.sites),
            "threads": len(dec.cycle.entries),
            "verdict": verdict,
        }
        if pred is not None:
            row["prediction"] = pred.verdict.value
            counts[pred.verdict.value] += 1
        decisions.append(row)
    examined = sum(counts.values())
    decided = counts["certified"] + counts["refuted"]
    return {
        "schema": REPORT_SCHEMA,
        "program": program,
        "seed": seed,
        "events": events,
        "engine": "streaming",
        "detector": {"max_length": max_length, "max_cycles": max_cycles},
        "cycles": len(detection.cycles),
        "truncated": detection.truncated,
        "defect_keys": [list(k) for k in canonical_keys(detection.defect_keys())],
        "pruned_false": len(prune.false_positives),
        "generator_false": len(gen.false_positives),
        "replay_candidates": len(gen.survivors),
        "prediction": {
            "certified": counts["certified"],
            "refuted": counts["refuted"],
            "undecided": counts["undecided"],
            "decided_ratio": (decided / examined) if examined else None,
        },
        "decisions": decisions,
    }


def report_doc_for_file(
    path: str,
    *,
    max_length: int = DETECTOR_PARAMS["max_length"],
    max_cycles: int = DETECTOR_PARAMS["max_cycles"],
    backend: str = "auto",
) -> dict:
    """The batch path: stream a ``.wtrc`` file through a fresh detector.

    This is the reference the daemon's incremental path must match
    byte-for-byte — same detector construction, same finish, same
    document builder.  ``backend`` only changes *how fast* the document
    is produced, never its bytes (the report deliberately carries no
    backend attribution — it stays a pure function of the trace bytes
    and detector knobs; attribution lives in the run manifest and the
    daemon's status documents).
    """
    from repro.core.nativekernel import analyze_trace_file

    analysis = analyze_trace_file(
        path, max_length=max_length, max_cycles=max_cycles, backend=backend
    )
    return defect_report_doc(
        analysis.detection,
        program=analysis.program,
        seed=analysis.seed,
        events=analysis.events,
        max_length=max_length,
        max_cycles=max_cycles,
        trace_path=path,
    )


def render_report(doc: dict) -> bytes:
    """Canonical byte rendering: sorted keys, two-space indent, ``\\n``."""
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
