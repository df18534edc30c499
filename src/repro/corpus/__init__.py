"""``repro.corpus`` — the governed trace corpus and its health gates.

The ROADMAP's standing-fuzzing-campaign item: recorded ``.wtrc`` traces
are the durable artifact (detection is a replayable function of them), so
correctness regressions should gate on *traces we have*, not only on the
fixed benchmark registry.  This package builds, minimizes, governs and
gates such a corpus:

* :mod:`repro.corpus.build` — campaign driver (registry × seeds, random
  programs, chaos harness) streaming runs to ``.wtrc`` and admitting
  traces by new defect-key coverage;
* :mod:`repro.corpus.minimize` — relation-guided + chunk-delta-debugged
  trace reduction, defect-key-preserving by construction;
* :mod:`repro.corpus.manifest` — the strict-schema
  ``corpus_manifest.json`` contract;
* :mod:`repro.corpus.validate` — torn/duplicate/divergent rejection;
* :mod:`repro.corpus.gate` — the lost-defect / replay-candidate
  regression gate CI runs via ``benchmarks/check_corpus_health.py``.
"""

from repro.corpus.build import (
    BuildReport,
    CampaignConfig,
    CampaignSource,
    build_corpus,
    build_from_quarantine,
    iter_campaign_sources,
)
from repro.corpus.gate import (
    compare_health,
    compute_health,
    load_health,
    run_gate,
    save_health,
)
from repro.corpus.manifest import (
    CORPUS_SCHEMA,
    DETECTOR_PARAMS,
    HEALTH_BASELINE_NAME,
    HEALTH_SCHEMA,
    MANIFEST_NAME,
    CorpusManifest,
    ManifestError,
    TraceRecord,
    canonical_keys,
    coverage_key,
    sha256_file,
)
from repro.corpus.minimize import (
    MinimizeResult,
    detect_defect_keys,
    minimize_trace,
    minimize_trace_file,
)
from repro.corpus.validate import (
    Corruption,
    classify_decode_error,
    classify_trace_file,
    validate_corpus,
)

__all__ = [
    "Corruption",
    "classify_decode_error",
    "classify_trace_file",
    "BuildReport",
    "CampaignConfig",
    "CampaignSource",
    "CORPUS_SCHEMA",
    "CorpusManifest",
    "DETECTOR_PARAMS",
    "HEALTH_BASELINE_NAME",
    "HEALTH_SCHEMA",
    "MANIFEST_NAME",
    "ManifestError",
    "MinimizeResult",
    "TraceRecord",
    "build_corpus",
    "build_from_quarantine",
    "canonical_keys",
    "compare_health",
    "compute_health",
    "coverage_key",
    "detect_defect_keys",
    "iter_campaign_sources",
    "load_health",
    "minimize_trace",
    "minimize_trace_file",
    "run_gate",
    "save_health",
    "sha256_file",
    "validate_corpus",
]
