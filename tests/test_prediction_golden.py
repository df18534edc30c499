"""Golden digest of every prediction the pass makes.

The digest covers ``(verdict, reason, promoted, witness)`` for every
Generator survivor of the 18 registry benchmarks (at their detection
seeds), of seeded random programs, of the known-answer REFUTED program
and of the committed ``corpus/`` traces.  Reasons name threads
and locks and witnesses list events in order, so the digest pins not
just the verdicts but the closures' exploration order.  A change to the
prediction pass that claims identical output must reproduce it; a change
that means to move a verdict must re-record it and say why.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.core.detector import ExtendedDetector
from repro.core.generator import Generator, GeneratorVerdict
from repro.core.nativekernel import analyze_trace_file
from repro.core.parallel import predict_decisions
from repro.core.pipeline import run_detection
from repro.core.prediction import ClosureIndex
from repro.core.pruner import Pruner
from repro.corpus.manifest import MANIFEST_NAME, CorpusManifest
from repro.runtime.tracefile import TraceFileReader
from repro.workloads.randomgen import build_program, random_spec
from repro.workloads.registry import all_benchmarks
from tests.test_prediction import gated_program

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")

#: sha256 over every survivor's prediction, in the order this module
#: visits them.
GOLDEN = "f435bb83775ce3dfc3fe9ccf1f4338b29263418745bdb748bd547d9986b9c594"
#: Survivor count behind the digest, so a mismatch says whether the
#: candidate set or only the predictions moved.
GOLDEN_SURVIVORS = 405
RANDOM_SEEDS = 40


def _rows(source, detection, index):
    prune = Pruner(detection.vclocks).prune(detection.cycles)
    gen = Generator(detection.relation).run(prune.survivors)
    preds = predict_decisions(index, gen.decisions)
    for dec, pred in zip(gen.decisions, preds):
        if dec.verdict is not GeneratorVerdict.UNKNOWN:
            continue
        yield [
            source,
            pred.verdict.value,
            pred.reason,
            pred.promoted,
            pred.witness.to_doc() if pred.witness is not None else None,
        ]


def _program_rows(source, program, seed, max_length):
    run = run_detection(program, seed, name=source)
    detection = ExtendedDetector(max_length=max_length).analyze(run.trace)
    yield from _rows(source, detection, ClosureIndex.from_events(run.trace))


def prediction_rows():
    """One row per Generator survivor: registry, generated programs, then
    the corpus."""
    for bench in all_benchmarks():
        yield from _program_rows(
            bench.name, bench.program, bench.detect_seed, bench.max_cycle_length
        )
    for seed in range(RANDOM_SEEDS):
        spec = random_spec(seed, max_threads=4, max_locks=4)
        yield from _program_rows(f"random-{seed}", build_program(spec), seed, 4)
    yield from _program_rows("gated", gated_program, 0, 4)
    manifest = CorpusManifest.load(os.path.join(CORPUS, MANIFEST_NAME))
    for rec in manifest.traces:
        path = os.path.join(CORPUS, rec.file)
        detection = analyze_trace_file(
            path,
            max_length=manifest.detector["max_length"],
            max_cycles=manifest.detector["max_cycles"],
        ).detection
        with TraceFileReader(path) as reader:
            index = ClosureIndex.from_events(reader)
        yield from _rows(rec.file, detection, index)


def prediction_digest():
    h = hashlib.sha256()
    n = 0
    for row in prediction_rows():
        h.update(json.dumps(row, sort_keys=True).encode())
        h.update(b"\n")
        n += 1
    return h.hexdigest(), n


def test_predictions_match_golden_digest():
    digest, survivors = prediction_digest()
    assert survivors == GOLDEN_SURVIVORS
    assert digest == GOLDEN
