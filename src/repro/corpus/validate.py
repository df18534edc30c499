"""Corpus validation: the manifest and the directory must agree exactly.

``validate_corpus`` is the cheap structural pass (hashes, sizes, torn-file
detection, duplicates, strays, incremental-coverage governance);
``deep=True`` adds the expensive semantic pass that re-detects every
trace and rejects manifest-divergent defect keys.  Both return a flat
list of problem strings — an empty list is a healthy corpus — so callers
(CLI, CI gate, tests) decide how loudly to fail.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Set

from repro.corpus.manifest import (
    MANIFEST_NAME,
    CorpusManifest,
    ManifestError,
    canonical_keys,
    sha256_file,
)
from repro.runtime.tracefile import (
    OversizedChunkError,
    TraceFileReader,
    TruncatedTraceError,
    is_tracefile,
)

# ---------------------------------------------------------------------------
# corruption taxonomy (shared with the ingestion daemon)
# ---------------------------------------------------------------------------

#: Stable corruption codes.  The corpus validator renders them as problem
#: strings; the ingestion daemon (:mod:`repro.serve`) records them as
#: quarantine reasons — one taxonomy, so a trace that fails validation
#: here is quarantined with the *same* code when it arrives over a socket.
TORN = "torn"
UNREADABLE = "unreadable"
CORRUPT_PAYLOAD = "corrupt-payload"
OVERSIZED_CHUNK = "oversized-chunk"

#: Every code :func:`classify_decode_error` / :func:`classify_trace_file`
#: can produce (serve adds its transport-level codes on top).
CORRUPTION_CODES = (TORN, UNREADABLE, CORRUPT_PAYLOAD, OVERSIZED_CHUNK)

#: What decoding hostile ``.wtrc`` bytes can raise, on either backend:
#: ``ValueError`` for the grammar (``OversizedChunkError`` and
#: ``UnicodeDecodeError`` are ones too), ``IndexError``/``KeyError`` for
#: bit rot inside payloads, and ``OverflowError`` for a payload varint
#: longer than ten bytes or an EVENTS integer wider than the native
#: kernel holds.
DECODE_ERRORS = (ValueError, IndexError, KeyError, OverflowError)


@dataclass(frozen=True)
class Corruption:
    """One classified defect in a trace byte stream."""

    code: str
    detail: str

    def render(self) -> str:
        """The corpus validator's historical problem-string form."""
        if self.code == TORN:
            return self.detail
        if self.code == UNREADABLE:
            return f"unreadable trace: {self.detail}"
        if self.code == OVERSIZED_CHUNK:
            return f"oversized chunk: {self.detail}"
        return f"corrupt trace payload: {self.detail}"


def classify_decode_error(exc: BaseException) -> Corruption:
    """Map a decoder exception onto the corruption taxonomy.

    Deterministic: the same hostile bytes trip the same decoder check and
    classify identically whether they came from a file or a socket.
    """
    if isinstance(exc, OversizedChunkError):
        return Corruption(OVERSIZED_CHUNK, str(exc))
    # A stream cut inside a chunk is torn, as serve settles the same bytes
    # followed by FIN.
    if isinstance(exc, TruncatedTraceError):
        return Corruption(TORN, "torn trace (truncated chunk)")
    if isinstance(exc, ValueError) and not isinstance(exc, UnicodeDecodeError):
        return Corruption(UNREADABLE, str(exc))
    # Bit rot inside a chunk payload surfaces as whatever the decoder
    # trips over (bad table index, mangled utf-8, an overlong or too wide
    # varint) rather than a clean ValueError; the verdict is the same.
    return Corruption(CORRUPT_PAYLOAD, repr(exc))


def classify_trace_file(path: str) -> Optional[Corruption]:
    """Fully stream the file; its corruption classification, or ``None``.

    A writer that died mid-trace (or deliberately called
    :meth:`~repro.runtime.tracefile.TraceFileWriter.abort`) leaves no END
    chunk, or a truncated chunk; :class:`TraceFileReader` surfaces both,
    and a clean EOF without END is reported by ``declared_events is None``.
    """
    try:
        with TraceFileReader(path) as reader:
            for _ in reader:
                pass
            if reader.declared_events is None:
                return Corruption(TORN, "torn trace (no END chunk)")
            return None
    except DECODE_ERRORS as exc:
        return classify_decode_error(exc)


def _check_readable(path: str) -> Optional[str]:
    """Problem-string form of :func:`classify_trace_file` (None = clean)."""
    corruption = classify_trace_file(path)
    return None if corruption is None else corruption.render()


def validate_corpus(
    corpus_dir: str,
    manifest: Optional[CorpusManifest] = None,
    *,
    deep: bool = False,
) -> List[str]:
    """Return every problem found (empty = valid)."""
    problems: List[str] = []
    if manifest is None:
        manifest_path = os.path.join(corpus_dir, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            return [f"missing manifest {manifest_path}"]
        try:
            manifest = CorpusManifest.load(manifest_path)
        except ManifestError as exc:
            return [f"invalid manifest: {exc}"]

    seen_sha: dict = {}
    covered: Set[str] = set()
    for rec in manifest.traces:
        where = rec.file
        path = os.path.join(corpus_dir, rec.file)
        if not os.path.exists(path):
            problems.append(f"{where}: listed in manifest but missing on disk")
            continue
        actual_bytes = os.path.getsize(path)
        if actual_bytes != rec.bytes:
            problems.append(
                f"{where}: size mismatch (manifest {rec.bytes}, disk {actual_bytes})"
            )
        digest = None
        try:
            digest = sha256_file(path)
        except OSError as exc:  # pragma: no cover - unreadable file
            problems.append(f"{where}: unreadable ({exc})")
        if digest is not None and digest != rec.sha256:
            problems.append(f"{where}: sha256 divergence from manifest")
        if digest is not None:
            dup = seen_sha.get(digest)
            if dup is not None:
                problems.append(f"{where}: duplicate trace (same content as {dup})")
            else:
                seen_sha[digest] = rec.file
        if not is_tracefile(path):
            problems.append(f"{where}: not a .wtrc trace (bad magic)")
            continue
        reason = _check_readable(path)
        if reason is not None:
            problems.append(f"{where}: {reason}")
            continue
        with TraceFileReader(path) as reader:
            n = sum(1 for _ in reader)
        if n != rec.events:
            problems.append(
                f"{where}: event count mismatch (manifest {rec.events}, file {n})"
            )
        if not rec.defect_keys:
            problems.append(f"{where}: witnesses no defect (empty defect_keys)")
        # Governance: every admitted trace must have contributed new
        # coverage at its manifest position, or the corpus is accumulating
        # dead weight that admission should have rejected.
        contribution = rec.coverage_keys() - covered
        if rec.defect_keys and not contribution:
            problems.append(
                f"{where}: redundant trace (all keys covered earlier in manifest)"
            )
        covered |= rec.coverage_keys()

    listed = {rec.file for rec in manifest.traces}
    for entry in sorted(os.listdir(corpus_dir)):
        if entry.endswith(".wtrc") and entry not in listed:
            problems.append(f"{entry}: on disk but not in manifest")

    if deep and not problems:
        problems.extend(_deep_validate(corpus_dir, manifest))
    return problems


def _deep_validate(corpus_dir: str, manifest: CorpusManifest) -> List[str]:
    """Re-detect every trace; keys must match the manifest exactly."""
    from repro.core.nativekernel import analyze_trace_file

    problems: List[str] = []
    for rec in manifest.traces:
        path = os.path.join(corpus_dir, rec.file)
        detection = analyze_trace_file(
            path,
            max_length=manifest.detector["max_length"],
            max_cycles=manifest.detector["max_cycles"],
        ).detection
        fresh = canonical_keys(detection.defect_keys())
        if fresh != rec.defect_keys:
            problems.append(
                f"{rec.file}: defect keys diverge from manifest "
                f"(manifest {len(rec.defect_keys)}, detector {len(fresh)})"
            )
    return problems
