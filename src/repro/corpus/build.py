"""The corpus campaign driver: run sources, keep defect-witnessing traces.

A *campaign* sweeps three families of sources — the benchmark registry,
random nested-lock programs (:mod:`repro.workloads.randomgen`, the same
generator ``wolf fuzz`` and the hypothesis suites draw from), and the
chaos harness (:mod:`repro.testing.chaos`, whose injected faults exercise
partial/hostile traces) — each under several detection seeds.  Every run
streams its events straight to a ``.wtrc`` file through ``trace_sink``
(:class:`~repro.runtime.events.SinkTrace` → ``TraceFileWriter``): the run
never materializes an event list, and the file on disk *is* the record
that gets analyzed, exactly as a production recorder would hand traces
to the fleet.

Admission is coverage-greedy: the recorded file is re-detected offline
(:func:`repro.core.nativekernel.analyze_trace_file`), and the trace joins
the corpus only if it witnesses at least one coverage key — ``program ::
defect sites`` — no already-admitted trace witnesses.  Admitted traces
are minimized (:mod:`repro.corpus.minimize`) before they are sealed into
the manifest, so a governed corpus stays tens of KBs at hundreds of
covered defects.
"""

from __future__ import annotations

import os
import re
import shutil
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.core.nativekernel import analyze_trace_file
from repro.corpus.manifest import (
    DETECTOR_PARAMS,
    MANIFEST_NAME,
    CorpusManifest,
    TraceRecord,
    canonical_keys,
    coverage_key,
    sha256_file,
)
from repro.corpus.minimize import minimize_trace_file
from repro.runtime.sim.runtime import run_program
from repro.runtime.sim.strategy import RandomStrategy
from repro.runtime.tracefile import TraceFileReader, TraceFileWriter
from repro.testing.chaos import ChaosProgram
from repro.util.rng import DeterministicRNG
from repro.workloads.randomgen import build_program, random_spec
from repro.workloads.registry import all_benchmarks


@dataclass(frozen=True)
class CampaignSource:
    """One (program, detection seed) cell of the campaign grid."""

    kind: str  # one of manifest.SOURCES
    name: str
    program: Callable
    seed: int
    #: regenerates the program (randprog spec seed); None for named sources
    generator_seed: Optional[int] = None


@dataclass
class CampaignConfig:
    """Campaign shape; defaults produce the committed mini-corpus."""

    #: registry benchmark names (None = the whole registry incl. extras)
    benchmarks: Optional[Sequence[str]] = None
    #: detection seeds per registry benchmark (derived from its table seed)
    seeds_per_benchmark: int = 2
    #: number of random programs (spec seeds 0..n-1, one detection run each)
    randprog: int = 24
    #: chaos-harness detection seeds (even seeds run clean AB/BA, odd
    #: seeds raise mid-trace — hostile partial traces must not wedge or
    #: corrupt the campaign)
    chaos_seeds: int = 4
    #: scheduler step budget per run (campaign sources are small programs)
    max_steps: int = 50_000
    #: admission cap (None = admit every new-coverage trace)
    max_traces: Optional[int] = None
    detect_stickiness: float = 0.9


@dataclass
class BuildReport:
    """What one campaign did."""

    runs: int = 0
    admitted: int = 0
    rejected_covered: int = 0
    rejected_clean: int = 0
    run_errors: int = 0
    events_recorded: int = 0
    events_admitted: int = 0
    admitted_files: List[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"campaign: {self.runs} runs, {self.admitted} admitted "
            f"({self.events_admitted} events after minimization), "
            f"{self.rejected_clean} defect-free, "
            f"{self.rejected_covered} already covered, "
            f"{self.run_errors} run errors"
        )


def iter_campaign_sources(cfg: CampaignConfig) -> Iterator[CampaignSource]:
    for b in all_benchmarks():
        if cfg.benchmarks is not None and b.name not in cfg.benchmarks:
            continue
        for i in range(cfg.seeds_per_benchmark):
            seed = (
                b.detect_seed
                if i == 0
                else DeterministicRNG(b.detect_seed).fork(f"corpus:{i}").seed
            )
            # Detection runs with the corpus-wide DETECTOR_PARAMS (not the
            # benchmark's own max_cycle_length): the gate re-detects with
            # the manifest's recorded knobs, so admission must use them too.
            yield CampaignSource(
                kind="registry", name=b.name, program=b.program, seed=seed
            )
    for spec_seed in range(cfg.randprog):
        spec = random_spec(spec_seed)
        program = build_program(spec)
        yield CampaignSource(
            kind="randprog",
            name=program.__name__,
            program=program,
            seed=spec_seed,
            generator_seed=spec_seed,
        )
    if cfg.chaos_seeds:
        seeds = range(cfg.chaos_seeds)
        chaos = ChaosProgram(faults={s: "raise" for s in seeds if s % 2})
        for seed in seeds:
            yield CampaignSource(
                kind="chaos", name="chaos_program", program=chaos, seed=seed
            )


def record_source(source: CampaignSource, dest: str, cfg: CampaignConfig) -> bool:
    """Run one source, streaming events to ``dest``; True if the run
    raised a workload error (the partial trace is still on disk, sealed)."""
    with TraceFileWriter(dest, program=source.name, seed=source.seed) as writer:
        result = run_program(
            source.program,
            RandomStrategy(source.seed, stickiness=cfg.detect_stickiness),
            seed=source.seed,
            name=source.name,
            max_steps=cfg.max_steps,
            trace_sink=writer,
        )
    return bool(result.errors)


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def build_corpus(
    cfg: CampaignConfig,
    corpus_dir: str,
    *,
    manifest: Optional[CorpusManifest] = None,
    log: Optional[Callable[[str], None]] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> BuildReport:
    """Run the campaign into ``corpus_dir``; returns the build report.

    Resumes an existing corpus when ``corpus_dir`` already holds a
    manifest (or when ``manifest`` is passed): coverage accumulates, so
    re-running a campaign admits only traces with genuinely new keys.

    ``stop`` is polled between sources (the graceful-interrupt hook): a
    True return drains the campaign early, and the manifest is still
    sealed with everything admitted so far — a partial campaign is a
    valid, resumable corpus, never a torn one.
    """
    manifest_path, manifest = _open_manifest(corpus_dir, manifest)
    say = log or (lambda _msg: None)
    report = BuildReport()

    for source in iter_campaign_sources(cfg):
        if stop is not None and stop():
            say("campaign interrupted: sealing manifest with admissions so far")
            break
        if cfg.max_traces is not None and report.admitted >= cfg.max_traces:
            break
        report.runs += 1
        filename = f"{_safe_name(source.name)}-s{source.seed}.wtrc"
        scratch = os.path.join(corpus_dir, f".campaign-{filename}")
        try:
            errored = record_source(source, scratch, cfg)
            if errored:
                report.run_errors += 1
            _admit(
                scratch,
                filename,
                manifest,
                report,
                say,
                program=source.name,
                source=source.kind,
                generator_seed=source.generator_seed,
            )
        finally:
            if os.path.exists(scratch):
                os.unlink(scratch)

    manifest.save(manifest_path)
    return report


def _open_manifest(
    corpus_dir: str, manifest: Optional[CorpusManifest]
) -> Tuple[str, CorpusManifest]:
    """The manifest path in ``corpus_dir`` (created if missing) and the
    manifest to build on: ``manifest``, else the one on disk, else a new
    one."""
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, MANIFEST_NAME)
    if manifest is None:
        exists = os.path.exists(path)
        manifest = CorpusManifest.load(path) if exists else CorpusManifest()
    return path, manifest


def _admit(
    scratch: str,
    filename: str,
    manifest: CorpusManifest,
    report: BuildReport,
    say: Callable[[str], None],
    *,
    program: str,
    source: str,
    generator_seed: Optional[int] = None,
    note: str = "",
) -> None:
    """Coverage-key admission, the one path both builders take: a
    ``scratch`` trace that witnesses a key the manifest does not cover
    yet is minimized into ``filename`` beside the scratch file and
    appended to the manifest; ``report`` counts the outcome.
    ``program`` names a trace whose META carries none."""
    analysis = analyze_trace_file(scratch, **DETECTOR_PARAMS)
    report.events_recorded += analysis.events
    keys = canonical_keys(analysis.detection.defect_keys())
    if not keys:
        report.rejected_clean += 1
        return
    program = analysis.program or program
    if {coverage_key(program, k) for k in keys} <= manifest.coverage():
        report.rejected_covered += 1
        return

    final = os.path.join(os.path.dirname(scratch), filename)
    minimized = minimize_trace_file(scratch, final)
    # Keys are re-derived from the *minimized* file: the manifest must
    # describe the committed artifact, not its ancestor.
    final_detection = analyze_trace_file(final, **DETECTOR_PARAMS).detection
    final_keys = canonical_keys(final_detection.defect_keys())
    manifest.traces.append(
        TraceRecord(
            file=filename,
            sha256=sha256_file(final),
            bytes=os.path.getsize(final),
            events=minimized.events_after,
            program=program,
            seed=analysis.seed,
            source=source,
            generator_seed=generator_seed,
            defect_keys=final_keys,
        )
    )
    report.admitted += 1
    report.events_admitted += minimized.events_after
    report.admitted_files.append(filename)
    say(
        f"admitted {filename}: {len(final_keys)} key(s), "
        f"{minimized.events_before} -> {minimized.events_after} events "
        f"({minimized.bytes_after} bytes){note}"
    )


def _salvage_quarantined(path: str, dest: str) -> Optional[int]:
    """Rewrite the decodable prefix of a quarantined ``.wtrc`` as a clean
    trace at ``dest``; returns the salvaged event count, or ``None`` when
    not even the stream header survives.

    Quarantined evidence is *expected* to be damaged — torn mid-chunk,
    missing its END chunk, corrupt past some offset.  Chunk framing makes
    the prefix before the damage fully trustworthy, and that prefix is
    what the corpus can admit: it re-seals under a fresh writer (proper
    END chunk), so downstream validation treats it like any other trace.
    """
    events = []
    try:
        with TraceFileReader(path) as reader:
            program, seed = reader.program, reader.seed
            try:
                for ev in reader:
                    events.append(ev)
            except Exception:
                pass  # damage begins here; keep the prefix
    except Exception:
        return None  # header itself unreadable: nothing to salvage
    if not events:
        return None
    with TraceFileWriter(dest, program=program, seed=seed) as writer:
        for ev in events:
            writer.write_event(ev)
    return len(events)


def build_from_quarantine(
    quarantine_dir: str,
    corpus_dir: str,
    *,
    manifest: Optional[CorpusManifest] = None,
    log: Optional[Callable[[str], None]] = None,
    max_traces: Optional[int] = None,
) -> BuildReport:
    """Admit daemon-quarantined evidence files into the corpus.

    Every ``*.wtrc`` under ``quarantine_dir`` (an ingestion run's
    ``quarantine/`` directory, or a heap of them) goes through salvage →
    taxonomy-aware re-detection → the same coverage-key admission and
    minimization the campaign path uses.  Hostile bytes that witness a
    defect the corpus has never covered become governed regression
    artifacts instead of dead evidence; everything else is rejected with
    the usual counters.
    """
    from repro.corpus.validate import classify_trace_file

    manifest_path, manifest = _open_manifest(corpus_dir, manifest)
    say = log or (lambda _msg: None)
    report = BuildReport()

    for entry in sorted(os.listdir(quarantine_dir)):
        if not entry.endswith(".wtrc"):
            continue
        if max_traces is not None and report.admitted >= max_traces:
            break
        report.runs += 1
        src = os.path.join(quarantine_dir, entry)
        stem = _safe_name(os.path.splitext(entry)[0])
        scratch = os.path.join(corpus_dir, f".quarantine-{stem}.wtrc")
        try:
            corruption = classify_trace_file(src)
            if corruption is None:
                # Fully intact evidence (quarantined for a transport
                # offense, not corruption): admit the bytes as-is.
                shutil.copyfile(src, scratch)
                salvaged = None
            else:
                salvaged = _salvage_quarantined(src, scratch)
                if salvaged is None:
                    report.run_errors += 1
                    say(f"skipped {entry}: {corruption.render()}, no salvageable prefix")
                    continue
            _admit(
                scratch,
                f"quar-{stem}.wtrc",
                manifest,
                report,
                say,
                program=stem,
                source="quarantine",
                note=(
                    f", salvaged {salvaged} event(s) from damaged evidence"
                    if salvaged is not None
                    else ""
                ),
            )
        finally:
            if os.path.exists(scratch):
                os.unlink(scratch)

    manifest.save(manifest_path)
    return report
