"""Early promotion: reports settle each defect key once.

``predict_decisions(..., promote_early=True)`` examines the instances of
a defect key in order until one certifies; every later instance of that
key is only checked for refutation (``Predictor.refutation``) and
otherwise inherits the first certified instance's witness.  The contract
this suite holds it to, on every Generator survivor of the registry
(detection seeds 0-1), of 240 generated programs, of the known-answer
REFUTED program and its twin, of seeded ring inversions whose threads
repeat their inverted section, and of the committed corpus traces
(re-read through the kernel where it loads):

* every prediction equals the default's, except that an instance that
  certifies on its own after its key's first certified instance comes
  back promoted, with that first instance's witness;
* so every verdict equals the default's: a REFUTED instance after a
  certified sibling stays REFUTED, with ``examine``'s reason;
* ``refutation`` returns exactly the REFUTED prediction ``examine``
  returns, and ``None`` for every other verdict.
"""

from __future__ import annotations

import os
import random
from typing import Dict

import pytest

from repro.core import prediction
from repro.core.detector import ExtendedDetector
from repro.core.generator import Generator, GeneratorVerdict
from repro.core.nativekernel import analyze_trace_file
from repro.core.parallel import closure_index_for, predict_decisions
from repro.core.pipeline import run_detection
from repro.core.prediction import (
    ClosureIndex,
    CyclePrediction,
    PredictionVerdict,
    Predictor,
)
from repro.core.pruner import Pruner
from repro.corpus.manifest import MANIFEST_NAME, CorpusManifest
from repro.runtime.tracefile import write_trace
from repro.serve.report import report_doc_for_file
from repro.workloads.randomgen import build_program, random_spec
from repro.workloads.registry import all_benchmarks
from tests.test_prediction import gated_program

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
MANIFEST = CorpusManifest.load(os.path.join(CORPUS, MANIFEST_NAME))
RANDOM_SEEDS = range(240)
TWIN_SEEDS = (0, 1, 3, 4, 5)
RING_SEEDS = range(6)
CERTIFIED = PredictionVerdict.CERTIFIED
REFUTED = PredictionVerdict.REFUTED


def gated_twin_program(rt):
    """:func:`gated_program` plus a fourth thread, t4, that runs t2's body
    outside t3's gate.  So the key {g:t1b, g:t2a} has two instances: t1
    against t4 is feasible (CERTIFIED), t1 against t2 is not (REFUTED, by
    the gate)."""
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

    h4 = rt.spawn(t2, name="t4", site="spawn:t4")
    h1 = rt.spawn(t1, name="t1", site="spawn:t1")

    def t3():
        with a.at("g:t3a"):
            h2 = rt.spawn(t2, name="t2", site="spawn:t2")
            h1.join()
        h2.join()

    h3 = rt.spawn(t3, name="t3", site="spawn:t3")
    h3.join()
    h4.join()


def ring_program(seed: int):
    """A seeded ring inversion of 2 or 3 threads among 4.  Each ring
    member holds ring lock i while taking lock i+1, twice, between
    ordered sections on 3 background locks, so the ring's one defect key
    has 4 or 8 instances, some certified only by the schedule search."""
    rng = random.Random(f"ring/{seed}")
    size = 2 + seed % 2
    n_threads, n_bg = 4, 3
    plan = [[] for _ in range(n_threads)]
    for t in range(n_threads):
        for _ in range(4):
            chosen = sorted(rng.sample(range(n_bg), 2))
            plan[t].append(
                tuple((lock, f"r:t{t}:bg{d}") for d, lock in enumerate(chosen))
            )
    for i, t in enumerate(rng.sample(range(n_threads), size)):
        section = ((n_bg + i, f"r:inv{i}.o"), (n_bg + (i + 1) % size, f"r:inv{i}.i"))
        for _ in range(2):
            plan[t].insert(rng.randrange(len(plan[t]) + 1), section)

    def program(rt):
        locks = [rt.new_lock(name=f"L{i}") for i in range(n_bg + size)]

        def body(sections):
            for section in sections:
                for lock, site in section:
                    locks[lock].acquire(site=site)
                for lock, site in reversed(section):
                    locks[lock].release(site=site)

        handles = [
            rt.spawn(lambda s=tuple(p): body(s), name=f"t{t}", site="r:spawn")
            for t, p in enumerate(plan)
        ]
        for h in handles:
            h.join()

    return program


def program_case(program, seed, max_length=4, name="t"):
    """``(index, decisions, run)`` for one recorded program."""
    run = run_detection(program, seed, name=name)
    detection = ExtendedDetector(max_length=max_length).analyze(run.trace)
    prune = Pruner(detection.vclocks).prune(detection.cycles)
    gen = Generator(detection.relation).run(prune.survivors)
    return ClosureIndex.from_events(run.trace), gen.decisions, run


def assert_early_matches(index, decisions) -> Dict[str, int]:
    """Hold ``promote_early=True`` to the default's predictions, and
    ``refutation`` to ``examine``; count what moved."""
    default = predict_decisions(index, decisions)
    early = predict_decisions(index, decisions, promote_early=True)
    assert len(early) == len(default) == len(decisions)
    predictor = Predictor(index)
    first: Dict[object, CyclePrediction] = {}
    counts = {"survivors": 0, "promoted": 0, "refuted_after": 0}
    for dec, want, got in zip(decisions, default, early):
        if dec.verdict is not GeneratorVerdict.UNKNOWN:
            assert want is None and got is None
            continue
        counts["survivors"] += 1
        own = predictor.examine(dec.cycle)
        assert predictor.refutation(dec.cycle) == (
            own if own.verdict is REFUTED else None
        )
        key = dec.cycle.defect_key
        sibling = first.get(key)
        if want.verdict is CERTIFIED and not want.promoted:
            if sibling is None:
                first[key] = want
            else:
                assert got == CyclePrediction(
                    CERTIFIED,
                    "promoted: sibling cycle at the same sites certified",
                    sibling.witness,
                    promoted=True,
                )
                counts["promoted"] += 1
                continue
        elif want.verdict is REFUTED and sibling is not None:
            counts["refuted_after"] += 1
        assert got == want
    return counts


REGISTRY = [(b, seed) for b in all_benchmarks() for seed in (0, 1)]


@pytest.mark.parametrize(
    "bench,seed", REGISTRY, ids=[f"{b.name}-s{s}" for b, s in REGISTRY]
)
def test_registry(bench, seed):
    index, decisions, _ = program_case(
        bench.program, seed, bench.max_cycle_length, bench.name
    )
    assert_early_matches(index, decisions)


def test_registry_promotes_early():
    """The registry at seeds 0-1 has keys with later instances that
    certify on their own, so the early path is exercised."""
    promoted = 0
    for bench, seed in REGISTRY:
        index, decisions, _ = program_case(
            bench.program, seed, bench.max_cycle_length, bench.name
        )
        promoted += sum(
            p is not None and p.promoted
            for p in predict_decisions(index, decisions, promote_early=True)
        )
    assert promoted > 0


def test_random_programs():
    survivors = 0
    for seed in RANDOM_SEEDS:
        spec = random_spec(seed, max_threads=4, max_locks=4)
        index, decisions, _ = program_case(build_program(spec), seed)
        survivors += assert_early_matches(index, decisions)["survivors"]
    assert survivors > 0


def test_gated_program():
    index, decisions, _ = program_case(gated_program, 0)
    counts = assert_early_matches(index, decisions)
    assert counts["survivors"] > 0


@pytest.mark.parametrize("seed", TWIN_SEEDS)
def test_refuted_instance_after_certified_sibling(seed):
    """t1 against t4 certifies before t1 against t2: the early path must
    still refute the later instance, with ``examine``'s reason."""
    index, decisions, _ = program_case(gated_twin_program, seed)
    early = predict_decisions(index, decisions, promote_early=True)
    rows = [
        (d.cycle, p)
        for d, p in zip(decisions, early)
        if d.cycle.defect_key == frozenset({"g:t1b", "g:t2a"}) and p is not None
    ]
    assert [p.verdict for _, p in rows] == [CERTIFIED, REFUTED]
    assert not rows[0][1].promoted
    cycle, refuted = rows[1]
    assert {t.pretty() for t in cycle.threads} == {"t1", "t2"}
    assert refuted == Predictor(index).examine(cycle)
    assert assert_early_matches(index, decisions)["refuted_after"] == 1


@pytest.mark.parametrize("seed", RING_SEEDS)
def test_ring_inversion(seed):
    """One key with 4 or 8 instances, as in a dense trace: every later
    instance that certifies on its own comes back promoted."""
    index, decisions, _ = program_case(ring_program(seed), seed)
    keys = {d.cycle.defect_key for d in decisions}
    assert len(keys) == 1
    counts = assert_early_matches(index, decisions)
    assert counts["survivors"] in (4, 8)
    assert counts["promoted"] == counts["survivors"] - 1


def test_later_instances_skip_examine_and_search(monkeypatch):
    """Once a key certified, its later instances run neither ``examine``
    nor the schedule search."""
    index, decisions, _ = program_case(ring_program(1), 1)
    calls = {"examine": 0, "search": 0}
    examine, search = Predictor.examine, prediction._ScheduleSearch.run

    def counting_examine(self, cycle):
        calls["examine"] += 1
        return examine(self, cycle)

    def counting_search(self):
        calls["search"] += 1
        return search(self)

    monkeypatch.setattr(Predictor, "examine", counting_examine)
    monkeypatch.setattr(prediction._ScheduleSearch, "run", counting_search)
    early = predict_decisions(index, decisions, promote_early=True)
    first = next(i for i, p in enumerate(early) if p is not None and not p.promoted)
    assert early[first].verdict is CERTIFIED
    assert calls["examine"] == first + 1
    assert calls["search"] <= 1


def test_report_settles_each_key_once(tmp_path, monkeypatch):
    """The canonical report (``analyze-trace --json``, serve finalize,
    corpus health) takes the early path."""
    _, decisions, run = program_case(ring_program(3), 3)
    path = str(tmp_path / "ring.wtrc")
    write_trace(run.trace, path)
    calls = []
    examine = Predictor.examine
    monkeypatch.setattr(
        Predictor, "examine", lambda self, c: calls.append(c) or examine(self, c)
    )
    doc = report_doc_for_file(path)
    assert doc["prediction"]["certified"] == 8
    assert len(calls) == 1


CORPUS_TRACES = [rec.file for rec in MANIFEST.traces]


@pytest.mark.parametrize("name", CORPUS_TRACES)
def test_corpus_trace(name):
    path = os.path.join(CORPUS, name)
    detection = analyze_trace_file(
        path,
        max_length=MANIFEST.detector["max_length"],
        max_cycles=MANIFEST.detector["max_cycles"],
    ).detection
    prune = Pruner(detection.vclocks).prune(detection.cycles)
    gen = Generator(detection.relation).run(prune.survivors)
    index = closure_index_for(detection, gen.decisions, path)
    assert_early_matches(index, gen.decisions)
