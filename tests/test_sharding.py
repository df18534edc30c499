"""Sharded, deduplicated cycle enumeration (`repro.core.sharding`).

The load-bearing guarantee: `find_cycles_sharded` is output-identical to
the monolithic `find_cycles` — same cycles, same entry objects, same
order, same defect keys — on every registry benchmark and on random
programs, deterministically under any worker count, with only chunk
offsets (never pickled traces) crossing the process boundary.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.detector import ExtendedDetector, find_cycles
from repro.core.lockdep import LockDependencyRelation
from repro.core.parallel import (
    ProcessEngine,
    ShardEnumTask,
    SupervisionPolicy,
    run_shard_enum_task,
)
from repro.core.pipeline import Wolf, WolfConfig, run_detection
from repro.core.sharding import (
    _select_spans,
    dedupe_relation,
    find_cycles_sharded,
    lock_sccs,
    partition_shards,
)
from repro.core.streaming import StreamingDetector
from repro.runtime.sim.runtime import SimRuntime
from repro.runtime.tracefile import TraceFileReader, write_trace
from repro.workloads.registry import all_benchmarks, get_benchmark
from tests.conftest import two_lock_program
from tests.randprog import build_program, program_specs

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def cycle_steps(cycles) -> list:
    return [tuple(e.step for e in c.entries) for c in cycles]


def defect_keys(cycles) -> list:
    return [c.defect_key for c in cycles]


def relation_for(b):
    run = run_detection(b.program, b.detect_seed, name=b.name)
    return ExtendedDetector(max_length=b.max_cycle_length).analyze(run.trace)


def two_cluster_program(rt: SimRuntime) -> None:
    """Two independent AB/BA deadlock families on disjoint lock pairs:
    the lock graph has two multi-lock SCCs, so sharding produces (at
    least) two independently enumerable shards, and the loops produce
    duplicate tuples for the deduplication layer to collapse."""
    a = rt.new_lock(name="A")
    b = rt.new_lock(name="B")
    c = rt.new_lock(name="C")
    d = rt.new_lock(name="D")

    def make(first, second, tag):
        def worker() -> None:
            for i in range(3):
                with first.at(f"{tag}:outer"):
                    with second.at(f"{tag}:inner"):
                        pass

        return worker

    handles = [
        rt.spawn(make(a, b, "ab"), name="t-ab", site="spawn:ab"),
        rt.spawn(make(b, a, "ba"), name="t-ba", site="spawn:ba"),
        rt.spawn(make(c, d, "cd"), name="t-cd", site="spawn:cd"),
        rt.spawn(make(d, c, "dc"), name="t-dc", site="spawn:dc"),
    ]
    for h in handles:
        h.join()


# ---------------------------------------------------------------------------
# Output identity with the monolithic DFS
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("b", all_benchmarks(), ids=lambda b: b.name)
def test_registry_identical(b):
    """Acceptance gate: identical cycles — the same *entry objects* in
    the same order — and identical defect keys on every benchmark."""
    det = relation_for(b)
    mono, mono_trunc = find_cycles(det.relation, max_length=b.max_cycle_length)
    shard, shard_trunc, stats = find_cycles_sharded(
        det.relation, max_length=b.max_cycle_length
    )
    assert cycle_steps(mono) == cycle_steps(shard)
    assert defect_keys(mono) == defect_keys(shard)
    assert mono_trunc == shard_trunc
    for m, s in zip(mono, shard):
        for me, se in zip(m.entries, s.entries):
            assert me is se  # identity, not just equality
    assert stats.expanded_cycles == len(shard)
    assert stats.n_entries == len(det.relation.entries)
    assert stats.n_keys + stats.duplicates_collapsed == stats.n_entries
    assert set(stats.timings_s) == {"dedup", "scc", "enumerate", "expand"}


@given(program_specs())
@SLOW
def test_random_program_identical(spec):
    program = build_program(spec)
    run = run_detection(program, 0, tries=5)
    det = ExtendedDetector(max_length=3).analyze(run.trace)
    mono, mono_trunc = find_cycles(det.relation, max_length=3)
    shard, shard_trunc, _ = find_cycles_sharded(det.relation, max_length=3)
    assert cycle_steps(mono) == cycle_steps(shard)
    assert defect_keys(mono) == defect_keys(shard)
    assert mono_trunc == shard_trunc


def test_truncation_caps_identically():
    """Both paths stop at the cap and flag it (the surviving *sets* may
    differ — the documented carve-out — but never the count/flag)."""
    b = get_benchmark("HashMap")
    det = relation_for(b)
    full, _ = find_cycles(det.relation, max_length=b.max_cycle_length)
    assert len(full) > 2  # the cap below really bites
    mono, mono_trunc = find_cycles(
        det.relation, max_length=b.max_cycle_length, max_cycles=2
    )
    shard, shard_trunc, _ = find_cycles_sharded(
        det.relation, max_length=b.max_cycle_length, max_cycles=2
    )
    assert mono_trunc and shard_trunc
    assert len(mono) == len(shard) == 2


# ---------------------------------------------------------------------------
# Layer invariants: dedup and SCC sharding
# ---------------------------------------------------------------------------


class TestDedup:
    def test_groups_partition_relation(self):
        det = relation_for(get_benchmark("Stack"))
        dedup = dedupe_relation(det.relation)
        assert dedup.n_entries == len(det.relation.entries)
        regrouped = sorted(
            (e for g in dedup.groups.values() for e in g), key=lambda e: e.step
        )
        assert regrouped == sorted(det.relation.entries, key=lambda e: e.step)
        assert len(regrouped) == len(det.relation.entries)
        for key, group in dedup.groups.items():
            assert all(e.dedup_key == key for e in group)
            steps = [e.step for e in group]
            assert steps == sorted(steps)
            assert dedup.multiplicity(key) == len(group)

    def test_witness_is_earliest_member(self):
        det = relation_for(get_benchmark("Stack"))
        dedup = dedupe_relation(det.relation)
        assert len(dedup.witnesses) == len(dedup.groups)
        for w in dedup.witnesses:
            assert w is dedup.groups[w.dedup_key][0]
        steps = [w.step for w in dedup.witnesses]
        assert steps == sorted(steps)


class TestSharding:
    def test_two_clusters_make_two_shards(self):
        run = run_detection(two_cluster_program, 0, tries=5)
        det = ExtendedDetector().analyze(run.trace)
        dedup = dedupe_relation(det.relation)
        shards, n_multi, _ = partition_shards(dedup)
        assert n_multi == 2
        assert len(shards) == 2
        # Shards are lock-disjoint and step-ordered.
        assert not (shards[0].locks & shards[1].locks)
        assert shards[0].entries[0].step < shards[1].entries[0].step
        # Every cycle's wanted locks live inside a single shard.
        cycles, _ = find_cycles(det.relation)
        for cyc in cycles:
            wanted = {e.lock for e in cyc.entries}
            assert any(wanted <= s.locks for s in shards)

    def test_singleton_sccs_are_skipped(self):
        """A lock only ever acquired without nesting forms a singleton
        SCC and must not survive into any shard."""
        det = relation_for(get_benchmark("Stack"))
        dedup = dedupe_relation(det.relation)
        comp = lock_sccs(dedup.witnesses)
        shards, n_multi, n_single = partition_shards(dedup)
        members: dict = {}
        for lock, cid in comp.items():
            members.setdefault(cid, set()).add(lock)
        assert n_multi + n_single == len(members)
        sharded_locks = set().union(*(s.locks for s in shards)) if shards else set()
        for cid, locks in members.items():
            if len(locks) == 1:
                assert not (locks & sharded_locks)


# ---------------------------------------------------------------------------
# Streaming engine integration
# ---------------------------------------------------------------------------


class TestStreamingIntegration:
    def test_shard_cycles_equivalent_and_instrumented(self):
        run = run_detection(two_lock_program, 0)
        plain = StreamingDetector().analyze(run.trace)
        sharded = StreamingDetector(shard_cycles=True).analyze(run.trace)
        assert cycle_steps(plain.cycles) == cycle_steps(sharded.cycles)
        assert plain.sharding is None
        assert sharded.sharding is not None
        assert sharded.sharding.expanded_cycles == len(sharded.cycles)

    def test_reduce_reports_removed_count(self):
        run = run_detection(two_cluster_program, 0, tries=5)
        plain = StreamingDetector().analyze(run.trace)
        reduced = StreamingDetector(reduce=True).analyze(run.trace)
        assert cycle_steps(plain.cycles) == cycle_steps(reduced.cycles)
        assert reduced.reduced_away >= 0
        assert plain.reduced_away == 0


# ---------------------------------------------------------------------------
# Parallel shard enumeration + zero-copy hand-off
# ---------------------------------------------------------------------------


def _write_wtrc(trace, path, events_per_chunk=8):
    write_trace(trace, str(path), events_per_chunk=events_per_chunk)
    with TraceFileReader(str(path)) as reader:
        for _ in reader:
            pass
        return tuple(reader.event_spans)


class TestParallelShards:
    def test_worker_counts_merge_identically(self, tmp_path):
        """Determinism gate: 2-worker and 3-worker parallel runs merge to
        exactly the serial (= monolithic) output."""
        run = run_detection(two_cluster_program, 0, tries=5)
        path = tmp_path / "t.wtrc"
        spans = _write_wtrc(run.trace, path)
        reference = ExtendedDetector().analyze(run.trace)
        for workers in (2, 3):
            det = StreamingDetector(shard_cycles=True)
            det.feed_many(run.trace)
            with ProcessEngine(workers) as engine:
                res = det.finish(
                    shard_engine=engine,
                    policy=SupervisionPolicy(),
                    trace_path=str(path),
                    chunk_spans=spans,
                )
            assert cycle_steps(res.cycles) == cycle_steps(reference.cycles)
            assert defect_keys(res.cycles) == defect_keys(reference.cycles)
            assert res.sharding is not None
            assert res.sharding.parallel_shards == res.sharding.n_shards == 2

    def test_worker_rebuild_matches_serial_shard(self, tmp_path):
        """`run_shard_enum_task` decodes only its own chunks, re-mints the
        witness entries, and enumerates bit-identically to the serial
        per-shard DFS."""
        run = run_detection(two_cluster_program, 0, tries=5)
        path = tmp_path / "t.wtrc"
        spans = _write_wtrc(run.trace, path)
        det = ExtendedDetector().analyze(run.trace)
        dedup = dedupe_relation(det.relation)
        shards, _, _ = partition_shards(dedup)
        assert len(shards) >= 2
        for shard in shards:
            steps = tuple(e.step for e in shard.entries)
            selected = _select_spans(spans, steps)
            assert selected  # the witnesses are on disk somewhere
            task = ShardEnumTask(
                trace_path=str(path),
                spans=selected,
                entry_steps=steps,
                max_length=4,
                max_cycles=10_000,
            )
            result = run_shard_enum_task(task)
            serial, serial_trunc = find_cycles(
                LockDependencyRelation(list(shard.entries))
            )
            assert result.cycles == cycle_steps(serial)
            assert result.truncated == serial_trunc
            # Zero-copy really skips chunks: the worker decodes no more
            # events than the selected spans hold, never the whole trace.
            assert result.decoded_events == sum(s.events for s in selected)
            assert result.decoded_events < len(run.trace)

    def test_span_selection_covers_exactly(self, tmp_path):
        run = run_detection(two_cluster_program, 0, tries=5)
        path = tmp_path / "t.wtrc"
        spans = _write_wtrc(run.trace, path)
        assert len(spans) > 2  # events_per_chunk=8 forces several chunks
        # A step inside chunk k selects exactly chunk k.
        for span in spans:
            assert _select_spans(spans, (span.last_step,)) == (span,)
        # No steps, no spans.
        assert _select_spans(spans, ()) == ()

    def test_task_payload_is_offsets_not_events(self, tmp_path):
        """The wire format of the hand-off: a pickled ShardEnumTask is a
        few hundred bytes of path + offsets regardless of trace size."""
        run = run_detection(two_cluster_program, 0, tries=5)
        path = tmp_path / "t.wtrc"
        spans = _write_wtrc(run.trace, path, events_per_chunk=1024)
        task = ShardEnumTask(
            trace_path=str(path),
            spans=spans,
            entry_steps=tuple(range(16)),
            max_length=4,
            max_cycles=10_000,
        )
        assert len(pickle.dumps(task)) < 1024


# ---------------------------------------------------------------------------
# Pipeline + CLI wiring
# ---------------------------------------------------------------------------


class TestPipelineWiring:
    def test_reduce_flag_is_output_neutral(self):
        """`WolfConfig.reduce` removes tuples but never changes verdicts;
        the removed count surfaces in the report."""
        import json

        b = get_benchmark("Stack")

        def canonical(rep) -> str:
            doc = json.loads(rep.to_json())
            doc.pop("timings")
            doc.pop("reduced_tuples")
            return json.dumps(doc, sort_keys=True)

        reports = {}
        for reduce in (False, True):
            cfg = WolfConfig(
                seed=b.detect_seed,
                replay_attempts=b.replay_attempts,
                max_cycle_length=b.max_cycle_length,
                reduce=reduce,
            )
            reports[reduce] = Wolf(config=cfg).analyze(b.program, name=b.name)
        assert canonical(reports[False]) == canonical(reports[True])
        assert reports[False].reduced_tuples == 0
        assert reports[True].reduced_tuples > 0
        assert "reduction :" in reports[True].summary()
        assert (
            json.loads(reports[True].to_json())["reduced_tuples"]
            == reports[True].reduced_tuples
        )

    def test_explicit_shard_cycles_identical_via_batch(self):
        """`shard_cycles=True` is invisible in the report JSON (modulo
        timings), also under the legacy `engine="batch"` value, which is
        still accepted but selects nothing."""
        import json

        b = get_benchmark("HashMap")

        def canonical(rep) -> str:
            doc = json.loads(rep.to_json())
            doc.pop("timings")
            return json.dumps(doc, sort_keys=True)

        reports = {}
        for shard in (False, True):
            cfg = WolfConfig(
                seed=b.detect_seed,
                replay_attempts=b.replay_attempts,
                max_cycle_length=b.max_cycle_length,
                engine="batch",
                shard_cycles=shard,
            )
            reports[shard] = Wolf(config=cfg).analyze(b.program, name=b.name)
        assert canonical(reports[False]) == canonical(reports[True])
        assert all(d.sharding is None for d in reports[False].detections)
        assert all(d.sharding is not None for d in reports[True].detections)

    def test_cli_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["detect", "Stack"])
        assert not hasattr(args, "engine")
        assert args.shard_cycles is False
        assert args.reduce is False
        args = build_parser().parse_args(["analyze-trace", "t.wtrc"])
        assert args.shard_cycles is True
        args = build_parser().parse_args(
            ["analyze-trace", "t.wtrc", "--no-shard-cycles", "--workers", "2"]
        )
        assert args.shard_cycles is False
        assert args.workers == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect", "Stack", "--engine", "batch"])

    def test_wolfconfig_accepts_auto(self):
        WolfConfig(engine="auto")
        with pytest.raises(ValueError):
            WolfConfig(engine="turbo")
