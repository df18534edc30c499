"""Streaming detector equivalence: the single-pass detector must
reproduce the batch ``ExtendedDetector`` oracle exactly — cycles (in
order, under a binding ``max_cycles`` cap too), clocks, relation, prune
decisions and defect keys — on every registry benchmark and on random
programs."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.detector import ExtendedDetector
from repro.core.pipeline import run_detection
from repro.core.pruner import Pruner
from repro.core.streaming import StreamingDetector
from repro.workloads.registry import all_benchmarks, get_benchmark
from tests.conftest import two_lock_program
from tests.randprog import build_program, program_specs

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def cycle_key(det):
    return [tuple(e.step for e in c.entries) for c in det.cycles]


def entry_key(rel):
    return [
        (e.thread, e.lockset, e.lock, e.context, e.index, e.tau, e.step, e.pos)
        for e in rel.entries
    ]


def assert_equivalent(batch, stream):
    """Full structural equality of two DetectionResults."""
    assert cycle_key(batch) == cycle_key(stream)
    assert batch.truncated == stream.truncated
    assert entry_key(batch.relation) == entry_key(stream.relation)
    assert batch.vclocks.tau == stream.vclocks.tau
    assert batch.vclocks.clocks == stream.vclocks.clocks
    assert batch.vclocks.acquire_tau == stream.vclocks.acquire_tau
    # Downstream stages see identical inputs => identical decisions.
    pb = Pruner(batch.vclocks).prune(batch.cycles)
    ps = Pruner(stream.vclocks).prune(stream.cycles)
    assert [(d.pruned, d.reason) for d in pb.decisions] == [
        (d.pruned, d.reason) for d in ps.decisions
    ]
    assert batch.defect_keys() == stream.defect_keys()


@pytest.mark.parametrize("b", all_benchmarks(), ids=lambda b: b.name)
def test_registry_equivalence(b):
    """Acceptance gate: same cycles, prune decisions and defect keys as
    batch on every benchmark in the registry."""
    run = run_detection(b.program, b.detect_seed, name=b.name)
    batch = ExtendedDetector(max_length=b.max_cycle_length).analyze(run.trace)
    stream = StreamingDetector(max_length=b.max_cycle_length).analyze(run.trace)
    assert_equivalent(batch, stream)


class TestFeedProtocol:
    def test_feed_matches_analyze(self):
        run = run_detection(two_lock_program, 0)
        d1 = StreamingDetector()
        for ev in run.trace:
            d1.feed(ev)
        r1 = d1.finish(run.trace)
        r2 = StreamingDetector().analyze(run.trace)
        assert cycle_key(r1) == cycle_key(r2)
        assert d1.events_seen == len(run.trace)
        assert r1.trace is run.trace

    def test_finish_without_trace_is_placeholder(self):
        run = run_detection(two_lock_program, 0)
        det = StreamingDetector()
        det.feed_many(run.trace)
        res = det.finish()
        assert len(res.trace) == 0
        assert len(res.cycles) == 1

    def test_feed_many_consumes_one_pass_iterator(self):
        run = run_detection(two_lock_program, 0)
        det = StreamingDetector()
        det.feed_many(iter(run.trace))
        batch = ExtendedDetector().analyze(run.trace)
        assert cycle_key(det.finish()) == cycle_key(batch)

    def test_as_trace_sink(self):
        """feed works as a SinkTrace sink: analysis without storage."""
        from repro.runtime.sim.runtime import run_program
        from repro.runtime.sim.strategy import RandomStrategy

        det = StreamingDetector()
        result = run_program(
            two_lock_program,
            RandomStrategy(0),
            name="p",
            trace_sink=det.feed,
        )
        assert len(result.trace) == 0  # nothing materialized
        ref = run_program(two_lock_program, RandomStrategy(0), name="p")
        batch = ExtendedDetector().analyze(ref.trace)
        assert cycle_key(det.finish()) == cycle_key(batch)

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingDetector(max_length=1)
        with pytest.raises(ValueError):
            StreamingDetector(max_cycles=0)


class TestTruncation:
    def test_truncated_flag_matches(self):
        """Both detectors stop at the same cap and keep the same cycles."""
        b = get_benchmark("HashMap")
        run = run_detection(b.program, b.detect_seed, name=b.name)
        full = ExtendedDetector(max_length=b.max_cycle_length).analyze(run.trace)
        assert len(full.cycles) > 2  # the cap below really bites
        batch = ExtendedDetector(
            max_length=b.max_cycle_length, max_cycles=2
        ).analyze(run.trace)
        stream = StreamingDetector(
            max_length=b.max_cycle_length, max_cycles=2
        ).analyze(run.trace)
        assert batch.truncated and stream.truncated
        assert len(batch.cycles) == len(stream.cycles) == 2
        assert cycle_key(batch) == cycle_key(stream)

    @pytest.mark.parametrize("b", all_benchmarks(), ids=lambda b: b.name)
    def test_registry_capped_equivalence(self, b):
        """Under a binding cap the detector returns exactly the oracle's
        capped cycle list, on every benchmark."""
        run = run_detection(b.program, b.detect_seed, name=b.name)
        for cap in (1, 2, 3):
            batch = ExtendedDetector(
                max_length=b.max_cycle_length, max_cycles=cap
            ).analyze(run.trace)
            stream = StreamingDetector(
                max_length=b.max_cycle_length, max_cycles=cap
            ).analyze(run.trace)
            assert cycle_key(batch) == cycle_key(stream), cap
            assert batch.truncated == stream.truncated, cap


@given(program_specs())
@SLOW
def test_random_program_equivalence(spec):
    program = build_program(spec)
    run = run_detection(program, 0, tries=5)
    batch = ExtendedDetector(max_length=3).analyze(run.trace)
    stream = StreamingDetector(max_length=3).analyze(run.trace)
    assert_equivalent(batch, stream)
