"""The lost-defect health gate over a governed corpus.

``compute_health`` re-runs the full offline analysis chain — streaming
detection, Pruner, Generator, sync-preserving prediction — over every
committed trace and distills a small machine-diffable document: the
corpus-wide coverage-key set plus per-trace defect keys, cycle counts,
*replay candidates* (Generator survivors) and the prediction verdicts
over them (certified / refuted / undecided counts plus the certified key
sets).  The corpus has no live programs, so a CERTIFIED verdict — a
witness reordering proven sync-preserving-feasible from the trace alone —
is the strongest replayability statement the offline tier can make.

``compare_health`` diffs a fresh document against the committed
``CORPUS_health.json`` baseline and reports **regressions only**:

* a baseline coverage key absent from the fresh run — a *lost defect* —
  the exact failure mode perf-ratio CI cannot see;
* a baseline trace that lost one of its own keys (localizes the loss);
* a trace whose replay-candidate count dropped (a soundness change that
  stopped certifying a cycle replayable);
* a trace key the baseline **certified** that the fresh run no longer
  does — a demoted certificate is a lost proof, gated exactly like a
  lost defect;
* a baseline trace missing from the fresh run entirely.

New keys, new traces, *higher* candidate counts and newly certified keys
never fail — growth is what the campaign is for; only losses gate.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.corpus.manifest import HEALTH_SCHEMA, CorpusManifest, coverage_key


class HealthError(ValueError):
    """A health document violates the expected schema."""


def compute_health(corpus_dir: str, manifest: CorpusManifest) -> Dict[str, object]:
    """Full re-analysis of every committed trace -> health document.

    Each trace's row is read off its defect report
    (:func:`~repro.serve.report.report_doc_for_file`), which runs the
    same chain ``wolf analyze-trace --json`` and ``wolf serve`` run.
    """
    # Imported here: repro.serve imports this module.
    from repro.serve.report import report_doc_for_file

    traces: Dict[str, Dict[str, object]] = {}
    coverage: set = set()
    total_cycles = 0
    total_candidates = 0
    total_verdicts = {"certified": 0, "refuted": 0, "undecided": 0}
    for rec in manifest.traces:
        doc = report_doc_for_file(
            os.path.join(corpus_dir, rec.file),
            max_length=manifest.detector["max_length"],
            max_cycles=manifest.detector["max_cycles"],
        )
        verdicts = {v: doc["prediction"][v] for v in total_verdicts}
        certified_keys = {
            tuple(row["sites"])
            for row in doc["decisions"]
            if row.get("prediction") == "certified"
        }
        coverage |= {coverage_key(rec.program, k) for k in doc["defect_keys"]}
        total_cycles += doc["cycles"]
        total_candidates += doc["replay_candidates"]
        for v, n in verdicts.items():
            total_verdicts[v] += n
        traces[rec.file] = {
            "program": rec.program,
            "defect_keys": doc["defect_keys"],
            "cycles": doc["cycles"],
            "replay_candidates": doc["replay_candidates"],
            "predicted": verdicts,
            "certified_keys": [list(k) for k in sorted(certified_keys)],
        }
    examined = sum(total_verdicts.values())
    decided = total_verdicts["certified"] + total_verdicts["refuted"]
    return {
        "schema": HEALTH_SCHEMA,
        "detector": dict(manifest.detector),
        "coverage": sorted(coverage),
        "traces": traces,
        "totals": {
            "traces": len(manifest.traces),
            "defect_keys": len(coverage),
            "cycles": total_cycles,
            "replay_candidates": total_candidates,
            "predicted": total_verdicts,
            "decided_ratio": (decided / examined) if examined else None,
        },
    }


def _require(doc: object, name: str) -> Dict[str, object]:
    if not isinstance(doc, dict):
        raise HealthError(f"{name} health document must be a JSON object")
    if doc.get("schema") != HEALTH_SCHEMA:
        raise HealthError(
            f"{name} health schema {doc.get('schema')!r} != {HEALTH_SCHEMA!r}"
        )
    for key in ("coverage", "traces", "totals"):
        if key not in doc:
            raise HealthError(f"{name} health document missing {key!r}")
    return doc


def compare_health(
    fresh: Dict[str, object], baseline: Dict[str, object]
) -> List[str]:
    """Regressions of ``fresh`` vs ``baseline`` (empty = gate passes)."""
    fresh = _require(fresh, "fresh")
    baseline = _require(baseline, "baseline")
    failures: List[str] = []

    lost = sorted(set(baseline["coverage"]) - set(fresh["coverage"]))
    failures.extend(f"lost defect key: {key}" for key in lost)

    fresh_traces: Dict[str, dict] = fresh["traces"]  # type: ignore[assignment]
    for file, base_entry in sorted(baseline["traces"].items()):  # type: ignore[union-attr]
        entry = fresh_traces.get(file)
        if entry is None:
            failures.append(f"{file}: trace missing from fresh run")
            continue
        base_keys = {tuple(k) for k in base_entry["defect_keys"]}
        new_keys = {tuple(k) for k in entry["defect_keys"]}
        for k in sorted(base_keys - new_keys):
            failures.append(f"{file}: lost per-trace defect key {list(k)}")
        if entry["replay_candidates"] < base_entry["replay_candidates"]:
            failures.append(
                f"{file}: replay candidates regressed "
                f"{base_entry['replay_candidates']} -> {entry['replay_candidates']}"
            )
        base_certified = {
            tuple(k) for k in base_entry.get("certified_keys", [])
        }
        new_certified = {tuple(k) for k in entry.get("certified_keys", [])}
        for k in sorted(base_certified - new_certified):
            failures.append(
                f"{file}: certified key demoted {list(k)} — the prediction "
                "pass no longer proves this cycle feasible"
            )
    return failures


def load_health(path: str) -> Dict[str, object]:
    with open(path) as fh:
        return _require(json.load(fh), path)


def save_health(doc: Dict[str, object], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def run_gate(
    corpus_dir: str,
    baseline_path: str,
    *,
    manifest: Optional[CorpusManifest] = None,
    fresh_out: Optional[str] = None,
) -> tuple[List[str], Dict[str, object]]:
    """Validate + re-analyze + diff; returns (failures, fresh health).

    Validation problems and health regressions land in the same failure
    list: a torn or manifest-divergent corpus must fail the gate exactly
    like a lost defect would.
    """
    from repro.corpus.validate import validate_corpus

    if manifest is None:
        from repro.corpus.manifest import MANIFEST_NAME

        manifest = CorpusManifest.load(os.path.join(corpus_dir, MANIFEST_NAME))
    failures = validate_corpus(corpus_dir, manifest, deep=True)
    fresh = compute_health(corpus_dir, manifest)
    if fresh_out:
        save_health(fresh, fresh_out)
    if not os.path.exists(baseline_path):
        failures.append(
            f"missing baseline {baseline_path} (run with --write-baseline "
            "to create it)"
        )
        return failures, fresh
    baseline = load_health(baseline_path)
    failures.extend(compare_health(fresh, baseline))
    return failures, fresh
