"""Soundness suite for the sync-preserving prediction pass.

The tentpole's contract (:mod:`repro.core.prediction`):

* CERTIFIED is a *witness*: steering the Replayer with the recorded
  schedule must reproduce the deadlock — or visibly diverge, which
  demotes the certificate (untracked synchronization, the paper's §4.4
  limitation).  A certified cycle that replay misses without divergence
  is a soundness bug.
* REFUTED is a *proof*: no reordering of the recorded trace manifests
  the cycle, so replay must never reproduce it — at any worker count,
  on any seed.
* UNDECIDED falls through to the historical replay-everything path and
  carries no claim.

Known-answer programs pin both verdicts; hypothesis fuzz over the random
program generator and a deterministic seed sweep check the invariant in
bulk; the pipeline-level sweep checks it end to end at 1, 2 and 3
workers; and the decided-ratio floor (>= 60% of replay candidates
decided without replay, the headline claim) is asserted on both the full
registry and the committed mini-corpus baseline.
"""

from __future__ import annotations

import json
import os

from hypothesis import HealthCheck, given, settings

from repro.core.detector import ExtendedDetector
from repro.core.generator import Generator, GeneratorVerdict
from repro.core.parallel import predict_decisions
from repro.core.pipeline import Wolf, WolfConfig, run_detection
from repro.core.prediction import (
    ClosureIndex,
    PredictionVerdict,
    WitnessSchedule,
)
from repro.core.pruner import Pruner
from repro.core.replayer import Replayer
from repro.core.report import Classification
from repro.workloads.randomgen import build_program as randomgen_build
from repro.workloads.randomgen import random_spec
from repro.workloads.registry import all_benchmarks, get_benchmark
from tests.conftest import two_lock_program
from tests.randprog import build_program, program_specs

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def analyze_candidates(program, seed, *, name="t", max_length=4):
    """Detection -> Pruner -> Generator -> prediction, the pipeline's
    exact pre-replay stages, returned as (run, decisions, predictions)."""
    run = run_detection(program, seed, name=name)
    detection = ExtendedDetector(max_length=max_length).analyze(run.trace)
    prune = Pruner(detection.vclocks).prune(detection.cycles)
    gen = Generator(detection.relation).run(prune.survivors)
    index = ClosureIndex.from_events(run.trace)
    return run, gen.decisions, predict_decisions(index, gen.decisions)


def survivors(decisions, predictions):
    """(decision, prediction) pairs for Generator-UNKNOWN candidates."""
    return [
        (d, p)
        for d, p in zip(decisions, predictions)
        if d.verdict is GeneratorVerdict.UNKNOWN
    ]


def gated_program(rt):
    """A cycle that survives Pruner and Generator yet is infeasible.

    t1 nests A->B, t2 nests B->A — the textbook candidate — but t2 only
    exists while t3 holds A: t3 spawns it inside its critical section and
    keeps A until t1 (the other cycle thread) has terminated.  So
    whenever t2 is alive and t1 is not finished, *t3* holds A, and t1
    can never reach its window; the cycle windows cannot overlap in any
    reordering.  The Pruner keeps the cycle (no start/join order between
    the two acquisitions) and the Generator finds no common gate lock
    (the gate is held by a third thread), so only the closure refutes it.
    """
    a = rt.new_lock(name="A")
    b = rt.new_lock(name="B")

    def t1():
        with a.at("g:t1a"):
            with b.at("g:t1b"):
                pass

    def t2():
        with b.at("g:t2b"):
            with a.at("g:t2a"):
                pass

    h1 = rt.spawn(t1, name="t1", site="spawn:t1")

    def t3():
        with a.at("g:t3a"):
            h2 = rt.spawn(t2, name="t2", site="spawn:t2")
            h1.join()
        h2.join()

    h3 = rt.spawn(t3, name="t3", site="spawn:t3")
    h3.join()


def guarded_program(rt):
    """The classic *guarded* false positive: both threads wrap their
    A/B inversion in a common gate lock G, so the windows can never
    overlap.  The Generator kills it (cyclic ``Gs`` via the type-C gate
    edges) — it must never reach the predictor."""
    g = rt.new_lock(name="G")
    a = rt.new_lock(name="A")
    b = rt.new_lock(name="B")

    def t1():
        with g.at("u:t1g"):
            with a.at("u:t1a"):
                with b.at("u:t1b"):
                    pass

    def t2():
        with g.at("u:t2g"):
            with b.at("u:t2b"):
                with a.at("u:t2a"):
                    pass

    h1 = rt.spawn(t1, name="t1", site="spawn:t1")
    h2 = rt.spawn(t2, name="t2", site="spawn:t2")
    h1.join()
    h2.join()


def assert_sound(program, decisions, predictions, *, seed=0, attempts=4):
    """The soundness invariant, checked by actually replaying.

    REFUTED must never reproduce; CERTIFIED must reproduce on the
    witness-steered first attempt or visibly diverge from the witness.
    """
    for dec, pred in survivors(decisions, predictions):
        if pred is None or not pred.decided:
            continue
        if pred.verdict is PredictionVerdict.REFUTED:
            outcome = Replayer(program, attempts=attempts, seed=seed).replay(dec)
            assert not outcome.reproduced, (
                f"REFUTED cycle reproduced: {sorted(dec.cycle.sites)} "
                f"({pred.reason})"
            )
        else:
            assert pred.witness is not None
            outcome = Replayer(program, attempts=attempts, seed=seed).replay(
                dec, witness=pred.witness
            )
            assert outcome.reproduced or outcome.witness_diverged, (
                f"CERTIFIED cycle missed without divergence: "
                f"{sorted(dec.cycle.sites)} ({pred.reason})"
            )


class TestKnownAnswerCertified:
    """AB/BA is the canonical feasible cycle: always CERTIFIED."""

    def test_certified_with_witness(self):
        _, decisions, predictions = analyze_candidates(two_lock_program, 0)
        pairs = survivors(decisions, predictions)
        assert pairs, "AB/BA must yield a replay candidate"
        for _, pred in pairs:
            assert pred.verdict is PredictionVerdict.CERTIFIED
            assert pred.witness is not None
            assert pred.witness.order, "witness must carry a schedule"

    def test_witness_replay_hits_first_attempt(self):
        _, decisions, predictions = analyze_candidates(two_lock_program, 0)
        for dec, pred in survivors(decisions, predictions):
            outcome = Replayer(two_lock_program, attempts=5, seed=0).replay(
                dec, witness=pred.witness
            )
            assert outcome.reproduced
            assert outcome.attempts == 1, (
                "a valid witness makes the reproduction deterministic"
            )

    def test_certified_across_detection_seeds(self):
        for seed in range(5):
            _, decisions, predictions = analyze_candidates(two_lock_program, seed)
            pairs = survivors(decisions, predictions)
            assert pairs
            assert all(
                p.verdict is PredictionVerdict.CERTIFIED for _, p in pairs
            )


class TestKnownAnswerRefuted:
    """The gated program's cycle is infeasible: always REFUTED, and the
    ground truth is enforced by replaying it anyway."""

    def test_refuted_across_detection_seeds(self):
        for seed in range(5):
            run, decisions, predictions = analyze_candidates(gated_program, seed)
            pairs = survivors(decisions, predictions)
            assert pairs, "the infeasible candidate must survive the Generator"
            for _, pred in pairs:
                assert pred.verdict is PredictionVerdict.REFUTED, pred.reason
                assert pred.witness is None

    def test_refuted_cycle_never_reproduces(self):
        _, decisions, predictions = analyze_candidates(gated_program, 0)
        assert_sound(gated_program, decisions, predictions, attempts=8)

    def test_pipeline_filter_drops_refuted(self):
        cfg = WolfConfig(seed=0, predict="filter", replay_attempts=3)
        report = Wolf(config=cfg).analyze(gated_program, name="gated")
        false_pred = report.count_cycles(Classification.FALSE_PREDICTION)
        assert false_pred >= 1
        assert report.count_cycles(Classification.CONFIRMED) == 0
        for cr in report.cycle_reports:
            if cr.classification is Classification.FALSE_PREDICTION:
                assert cr.replay is None, "REFUTED cycles must skip replay"


class TestKnownAnswerGuarded:
    """Earlier stages own the guarded false positives: the detector's
    lockset guard never emits a common-gate cycle, the Generator's
    cyclic ``Gs`` kills Figure 2's, and ``predict_decisions`` maps those
    FALSE decisions to ``None`` — the predictor only ever sees genuinely
    undecided candidates."""

    def test_gate_held_cycle_never_a_candidate(self):
        _, decisions, _ = analyze_candidates(guarded_program, 0)
        assert not decisions, (
            "a cycle guarded by a held common lock must be excluded by "
            "the detector's lockset guard, not reach the Generator"
        )

    def test_generator_false_skips_prediction(self):
        bench = get_benchmark("fig2")
        _, decisions, predictions = analyze_candidates(
            bench.program, bench.detect_seed, max_length=bench.max_cycle_length
        )
        false = [
            (d, p)
            for d, p in zip(decisions, predictions)
            if d.verdict is GeneratorVerdict.FALSE
        ]
        assert false, "fig2's guarded inversion must be a Generator FALSE"
        assert all(p is None for _, p in false)

    def test_pipeline_keeps_generator_classification(self):
        bench = get_benchmark("fig2")
        cfg = WolfConfig(
            seed=bench.detect_seed, predict="filter", replay_attempts=3
        )
        report = Wolf(config=cfg).analyze(bench.program, name="fig2")
        assert report.count_cycles(Classification.FALSE_GENERATOR) >= 1
        for cr in report.cycle_reports:
            if cr.classification is Classification.FALSE_GENERATOR:
                assert cr.prediction is None


class TestWitnessSchedule:
    def _witness(self):
        _, decisions, predictions = analyze_candidates(two_lock_program, 0)
        return survivors(decisions, predictions)[0][1].witness

    def test_doc_round_trip(self):
        w = self._witness()
        assert WitnessSchedule.from_doc(w.to_doc()) == w

    def test_doc_is_json_stable(self):
        w = self._witness()
        doc = json.loads(json.dumps(w.to_doc()))
        assert WitnessSchedule.from_doc(doc) == w

    def test_from_doc_rejects_wrong_schema(self):
        doc = self._witness().to_doc()
        doc["schema"] = "wolf-witness/0"
        try:
            WitnessSchedule.from_doc(doc)
        except ValueError as exc:
            assert "witness" in str(exc)
        else:
            raise AssertionError("schema mismatch must raise ValueError")


class TestPipelineWorkers:
    """End-to-end soundness and serial/parallel equivalence of the
    prediction stage at 1, 2 and 3 workers."""

    NAMES = ["fig4", "fig9", "philosophers"]

    def _report(self, bench, workers, predict="filter"):
        cfg = WolfConfig(
            seed=bench.detect_seed,
            replay_attempts=bench.replay_attempts,
            max_cycle_length=bench.max_cycle_length,
            predict=predict,
            workers=workers,
        )
        return Wolf(config=cfg).analyze(bench.program, name=bench.name)

    def test_soundness_and_equivalence_at_1_2_3_workers(self):
        for name in self.NAMES:
            bench = get_benchmark(name)
            rows = {}
            for workers in (1, 2, 3):
                report = self._report(bench, workers)
                for cr in report.cycle_reports:
                    if cr.prediction is None:
                        continue
                    if cr.prediction.verdict is PredictionVerdict.REFUTED:
                        assert cr.classification is Classification.FALSE_PREDICTION
                        assert cr.replay is None
                    elif cr.prediction.verdict is PredictionVerdict.CERTIFIED:
                        assert cr.replay is not None
                        assert (
                            cr.replay.reproduced or cr.replay.witness_diverged
                        ), f"{name}: certified cycle missed without divergence"
                rows[workers] = json.loads(report.to_json())["cycles"]
            assert rows[1] == rows[2] == rows[3], (
                f"{name}: prediction outcomes must be worker-count invariant"
            )

    def test_certify_mode_confirms_without_replay(self):
        bench = get_benchmark("fig4")
        report = self._report(bench, 1, predict="certify")
        predicted = [
            cr
            for cr in report.cycle_reports
            if cr.classification is Classification.CONFIRMED_PREDICTED
        ]
        assert predicted, "fig4 certifies; certify mode must confirm replay-free"
        for cr in predicted:
            assert cr.replay is None
        doc = json.loads(report.to_json())
        assert doc["prediction"]["certified"] >= len(predicted)


class TestFuzzSoundness:
    """Bulk check of the invariant over generated programs."""

    @SLOW
    @given(program_specs())
    def test_hypothesis_programs_sound(self, spec):
        program = build_program(spec)
        _, decisions, predictions = analyze_candidates(program, 0, max_length=3)
        assert_sound(program, decisions, predictions)

    def test_randomgen_seed_sweep_sound(self):
        decided = 0
        for seed in range(15):
            spec = random_spec(seed, max_threads=3, max_locks=3)
            program = randomgen_build(spec)
            _, decisions, predictions = analyze_candidates(
                program, seed, max_length=3
            )
            assert_sound(program, decisions, predictions, seed=seed)
            decided += sum(
                1
                for _, p in survivors(decisions, predictions)
                if p is not None and p.decided
            )
        assert decided >= 1, "the sweep must exercise decided verdicts"


class TestDecidedRatio:
    """The headline claim: >= 60% of replay candidates decided without
    replay, on the full registry and on the committed mini-corpus."""

    def test_registry_decided_ratio(self):
        candidates = decided = 0
        for bench in all_benchmarks():
            _, decisions, predictions = analyze_candidates(
                bench.program,
                bench.detect_seed,
                name=bench.name,
                max_length=bench.max_cycle_length,
            )
            pairs = survivors(decisions, predictions)
            candidates += len(pairs)
            decided += sum(
                1 for _, p in pairs if p is not None and p.decided
            )
        assert candidates > 0
        ratio = decided / candidates
        assert ratio >= 0.6, (
            f"registry decided ratio {ratio:.1%} fell below the 60% floor "
            f"({decided}/{candidates})"
        )

    def test_corpus_baseline_decided_ratio(self):
        path = os.path.join(
            os.path.dirname(__file__), os.pardir, "CORPUS_health.json"
        )
        with open(path) as fh:
            doc = json.load(fh)
        totals = doc["totals"]
        assert totals["replay_candidates"] > 0
        assert totals["decided_ratio"] >= 0.6
        predicted = totals["predicted"]
        assert (
            predicted["certified"] + predicted["refuted"]
            == round(totals["decided_ratio"] * totals["replay_candidates"])
        )
