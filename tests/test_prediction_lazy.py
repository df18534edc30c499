"""Prediction resolves each cycle member once and builds a witness only
when it is read.

* A report reads verdicts only, so it builds no witness: neither
  :func:`~repro.serve.report.report_doc_for_file` over the committed
  corpus (both backends) nor over seeded ring inversions builds one, while
  ``Wolf.analyze(predict="filter")`` builds one per certified replay
  candidate with a witness of its own.
* The laziness cannot be seen: an unread CERTIFIED prediction that is
  pickled, copied, compared, hashed or printed carries the witness an
  eager build gives, and a promoted instance returns its sibling's
  witness object.
* :class:`~repro.core.prediction.Predictor` resolves each cycle member
  once per trace.  ``head_base`` keeps the per-survivor resolution as it
  was, and ``_base`` gives the same caps and designated owners (insertion
  order included) and the same ``_Incomplete`` message on every cycle of
  the registry at detection seeds 0-1, 40 generated programs, the corpus
  and the crafted alias traces.
"""

from __future__ import annotations

import copy
import pickle
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from repro.core import prediction
from repro.core.detector import ExtendedDetector
from repro.core.generator import Generator
from repro.core.nativekernel import analyze_trace_file, kernel_available
from repro.core.parallel import closure_index_for, predict_decisions
from repro.core.pipeline import Wolf, WolfConfig, run_detection
from repro.core.prediction import (
    ClosureIndex,
    PredictionVerdict,
    Predictor,
    _Incomplete,
)
from repro.core.pruner import Pruner
from repro.runtime.tracefile import TraceFileReader, write_trace
from repro.serve.report import report_doc_for_file
from repro.workloads.randomgen import build_program, random_spec
from repro.workloads.registry import all_benchmarks
from tests.crafted import (
    lock_alias_trace,
    nested_lock_trace,
    repeated_lock_trace,
    site_alias_trace,
    thread_alias_trace,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_TRACES = sorted(str(p) for p in (REPO_ROOT / "corpus").glob("*.wtrc"))
BACKENDS = ["python"] + (["native"] if kernel_available() else [])
RING_SEEDS = (1, 2, 3, 4)
CERTIFIED = PredictionVerdict.CERTIFIED


@pytest.fixture()
def builds(monkeypatch):
    """Every witness built while the test runs, of either kind."""
    made = []
    for name in ("_witness", "_search_witness"):

        def spy(*args, _real=getattr(prediction, name)):
            made.append(_real(*args))
            return made[-1]

        monkeypatch.setattr(prediction, name, spy)
    return made


@pytest.fixture(scope="module")
def ring_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("rings")
    out = []
    for seed in RING_SEEDS:
        path = str(tmp / f"dense-{seed}.wtrc")
        write_trace(nested_lock_trace("dense", seed), path)
        out.append(path)
    return out


def survivors_of(path, backend):
    """``(index, decisions)`` of one ``.wtrc``, as a report builds them."""
    detection = analyze_trace_file(path, backend=backend).detection
    prune = Pruner(detection.vclocks).prune(detection.cycles)
    decisions = Generator(detection.relation).run(prune.survivors).decisions
    return closure_index_for(detection, decisions, path), decisions


def certified(predictions):
    return [p for p in predictions if p is not None and p.verdict is CERTIFIED]


# ---------------------------------------------------------------------------
# a report builds no witness
# ---------------------------------------------------------------------------


class TestWitnessOnRead:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reports_build_no_witness(self, builds, ring_paths, backend):
        verdicts = 0
        for path in CORPUS_TRACES + ring_paths:
            doc = report_doc_for_file(path, backend=backend)
            verdicts += doc["prediction"]["certified"]
        assert verdicts, "no certified verdict: the check would be vacuous"
        assert builds == []

    def test_listing_builds_no_witness(self, builds, ring_paths, capsys):
        from repro.cli import main

        for path in ring_paths:
            assert main(["analyze-trace", path, "--predict", "filter"]) == 0
        assert "CERTIFIED" in capsys.readouterr().out
        assert builds == []

    def test_replay_reads_one_witness_per_certified_candidate(self, builds):
        owned = 0
        for b in all_benchmarks():
            config = WolfConfig(
                seed=b.detect_seed,
                predict="filter",
                max_cycle_length=b.max_cycle_length,
                replay_attempts=b.replay_attempts,
            )
            start = len(builds)
            report = Wolf(config=config).analyze(b.program, name=b.name)
            made = builds[start:]
            preds = certified(cr.prediction for cr in report.cycle_reports)
            own = [p for p in preds if not p.promoted]
            owned += len(own)
            # Each certified candidate was replayed with its witness, so
            # reading them now builds nothing more.
            replayed = {id(cr.prediction) for cr in report.cycle_reports if cr.replay}
            assert all(id(p) in replayed for p in preds), b.name
            witnesses = {id(p.witness) for p in preds}
            assert len(builds) == start + len(made)
            assert len(made) == len(own) == len(witnesses), b.name
            assert {id(w) for w in made} == witnesses, b.name
        assert owned


# ---------------------------------------------------------------------------
# laziness cannot be seen
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestLazinessIsInvisible:
    def cases(self, ring_paths, backend):
        for path in ring_paths:
            index, decisions = survivors_of(path, backend)
            eager = predict_decisions(index, decisions)
            for p in certified(eager):
                assert p.witness is not None
            yield index, decisions, eager

    def test_pickled_copied_and_compared(self, builds, ring_paths, backend):
        checked = 0
        for index, decisions, eager in self.cases(ring_paths, backend):
            for how in ("pickle", "deepcopy", "copy", "compare"):
                lazy = predict_decisions(index, decisions)
                for want, got in zip(eager, lazy, strict=True):
                    if got is None or got.verdict is not CERTIFIED:
                        assert got == want
                        continue
                    if how == "compare":
                        assert got == want
                        assert hash(got) == hash(want)
                        assert repr(got) == repr(want)
                        continue
                    if how == "pickle":
                        twin = pickle.loads(pickle.dumps(got))
                    else:
                        twin = getattr(copy, how)(got)
                    before = len(builds)
                    assert twin.witness == want.witness
                    assert twin == want
                    assert len(builds) == before, "the copy carried no witness"
                    checked += 1
        assert checked

    def test_promoted_shares_the_siblings_witness(self, builds, ring_paths, backend):
        promoted = 0
        for index, decisions, _ in self.cases(ring_paths, backend):
            early = predict_decisions(index, decisions, promote_early=True)
            first = {}
            start = len(builds)
            for d, p in zip(decisions, early, strict=True):
                if p is None or p.verdict is not CERTIFIED:
                    continue
                if not p.promoted:
                    first.setdefault(d.cycle.defect_key, p)
                    continue
                sibling = first[d.cycle.defect_key]
                before = len(builds)
                assert p.witness is sibling.witness
                assert len(builds) - before <= 1
                promoted += 1
            assert len(builds) - start <= len(first)
        assert promoted


# ---------------------------------------------------------------------------
# members once
# ---------------------------------------------------------------------------


def head_base(index, cycle):
    """Caps and designated owners resolved per cycle, member by member."""
    caps, designated = {}, {}
    for entry in cycle.entries:
        found = index.acq_by_step.get(entry.step)
        if found is None or found[0] != index.thread_ids.get(entry.thread):
            raise _Incomplete(
                f"cycle acquisition at step {entry.step} is not in the trace"
            )
        caps[found[0]] = found[1]
        for lock in entry.lockset:
            des = index.acquisition(entry.mu(lock))
            if des is None:
                raise _Incomplete(
                    f"held acquisition of {lock.pretty()} is not in the trace"
                )
            designated[index.lock_id(lock)] = des
    return caps, designated


def base_outcome(base, cycle):
    try:
        caps, designated = base(cycle)
    except _Incomplete as exc:
        return ("incomplete", str(exc))
    return ("ok", list(caps.items()), list(designated.items()))


def check_members(make_index, cycles, monkeypatch, label=""):
    """``_base`` against ``head_base`` on ``cycles``, each on an index of
    its own; every member is resolved at most once.  Returns how many
    cycles raised ``_Incomplete``."""
    resolved = []
    real = Predictor._resolve

    def spy(self, entry):
        resolved.append(id(entry))
        return real(self, entry)

    got_index, want_index = make_index(), make_index()
    incomplete = 0
    with monkeypatch.context() as mp:
        mp.setattr(Predictor, "_resolve", spy)
        predictor = Predictor(got_index)
        for cycle in cycles:
            got = base_outcome(predictor._base, cycle)
            want = base_outcome(lambda c: head_base(want_index, c), cycle)
            assert got == want, (label, cycle.pretty())
            incomplete += got[0] == "incomplete"
    assert got_index.locks == want_index.locks, label
    counts = Counter(resolved)
    assert set(counts.values()) <= {1}, label
    members = {id(e) for c in cycles for e in c.entries}
    assert set(counts) <= members, label
    if not incomplete:
        assert set(counts) == members, label
    return incomplete


def detected_cycles(trace, max_length=4):
    return ExtendedDetector(max_length=max_length).analyze(trace).cycles


class TestMembersOnce:
    def test_registry(self, monkeypatch):
        for b in all_benchmarks():
            for seed in (0, 1):
                trace = run_detection(b.program, seed, name=b.name).trace
                cycles = detected_cycles(trace, b.max_cycle_length)
                index = partial(ClosureIndex.from_events, trace)
                check_members(index, cycles, monkeypatch, b.name)

    def test_random_programs(self, monkeypatch):
        shared = 0
        for seed in range(40):
            spec = random_spec(seed, max_threads=4, max_locks=4)
            program = build_program(spec)
            trace = run_detection(program, seed, name=f"random-{seed}").trace
            cycles = detected_cycles(trace)
            index = partial(ClosureIndex.from_events, trace)
            check_members(index, cycles, monkeypatch, seed)
            slots = sum(len(c.entries) for c in cycles)
            shared += slots - len({id(e) for c in cycles for e in c.entries})
        assert shared, "no cycles share a member: the memo is never hit"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corpus(self, monkeypatch, backend):
        incomplete = 0
        for path in CORPUS_TRACES:
            cycles = analyze_trace_file(path, backend=backend).detection.cycles

            def make_index(path=path):
                with TraceFileReader(path) as reader:
                    return ClosureIndex.from_events(reader)

            incomplete += check_members(make_index, cycles, monkeypatch, path)
        # The corpus's minimized traces lack acquisitions some members need.
        assert incomplete

    @pytest.mark.parametrize(
        "craft",
        [thread_alias_trace, lock_alias_trace, site_alias_trace, repeated_lock_trace],
    )
    def test_crafted_alias_traces(self, tmp_path, monkeypatch, craft):
        path = craft(str(tmp_path / "t.wtrc"))
        for backend in BACKENDS:
            cycles = analyze_trace_file(path, backend=backend).detection.cycles
            assert cycles, craft.__name__

            def make_index():
                with TraceFileReader(path) as reader:
                    return ClosureIndex.from_events(reader)

            check_members(make_index, cycles, monkeypatch, craft.__name__)
