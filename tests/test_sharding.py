"""Duplicate-row collapse in the one cycle search (`repro.core.detector`).

The load-bearing guarantee: `find_cycles`, which collapses rows with equal
(thread, lockset, lock) before its search, is output-identical to the
object DFS of ``tests/cyclereference.py``, which collapses nothing — same
cycles, same entry objects, same order, same defect keys, same
``truncated`` flag — on every registry benchmark, on random programs and
under a binding ``max_cycles`` cap.  The retired ``shard_cycles`` and
``reduce`` knobs are gone from `WolfConfig` and the CLI.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.detector import ExtendedDetector, _group_rows, find_cycles
from repro.core.pipeline import WolfConfig, run_detection
from repro.workloads.registry import all_benchmarks, get_benchmark
from tests.cyclereference import reference_find_cycles
from tests.randprog import build_program, program_specs

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def relation_for(b):
    run = run_detection(b.program, b.detect_seed, name=b.name)
    return ExtendedDetector(max_length=b.max_cycle_length).analyze(run.trace)


def assert_identical(rel, **kw):
    """`find_cycles` returns the reference's entry objects, in its order,
    with its flag."""
    want, want_trunc = reference_find_cycles(rel, **kw)
    got, got_trunc = find_cycles(rel, **kw)
    assert [c.defect_key for c in got] == [c.defect_key for c in want]
    assert got_trunc == want_trunc
    for g, w in zip(got, want, strict=True):
        for ge, we in zip(g.entries, w.entries, strict=True):
            assert ge is we  # identity, not just equality
    return got


# ---------------------------------------------------------------------------
# Output identity with the uncollapsed DFS
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("b", all_benchmarks(), ids=lambda b: b.name)
def test_registry_identical(b):
    """Acceptance gate: identical cycles — the same *entry objects* in
    the same order — and identical defect keys on every benchmark."""
    assert_identical(relation_for(b).relation, max_length=b.max_cycle_length)


@given(program_specs())
@SLOW
def test_random_program_identical(spec):
    program = build_program(spec)
    run = run_detection(program, 0, tries=5)
    det = ExtendedDetector(max_length=3).analyze(run.trace)
    assert_identical(det.relation, max_length=3)


def test_truncation_caps_identically():
    """Under a binding cap the collapsed search keeps exactly the
    reference's first cycles and flags the cap."""
    b = get_benchmark("HashMap")
    rel = relation_for(b).relation
    full, _ = find_cycles(rel, max_length=b.max_cycle_length)
    assert len(full) > 2  # the cap below really bites
    for cap in (1, 2, len(full) - 1, len(full)):
        capped = assert_identical(rel, max_length=b.max_cycle_length, max_cycles=cap)
        assert [c.entries for c in capped] == [c.entries for c in full[:cap]]


# ---------------------------------------------------------------------------
# The collapse: groups of interchangeable rows
# ---------------------------------------------------------------------------


class TestDedup:
    def test_groups_partition_relation(self):
        cols = relation_for(get_benchmark("Stack")).relation.cycle_columns()
        groups = _group_rows(cols)
        assert sorted(r for g in groups for r in g) == list(range(len(cols.steps)))
        assert len(groups) < len(cols.steps)  # Stack's loops repeat rows

        def key(r):
            return cols.threads[r], frozenset(cols.held[r]), cols.locks[r]

        assert len({key(g[0]) for g in groups}) == len(groups)
        for group in groups:
            assert {key(r) for r in group} == {key(group[0])}
            assert group == sorted(group)

    def test_witness_is_earliest_member(self):
        cols = relation_for(get_benchmark("Stack")).relation.cycle_columns()
        groups = _group_rows(cols)
        witnesses = [g[0] for g in groups]
        for group in groups:
            assert min(cols.steps[r] for r in group) == cols.steps[group[0]]
        assert witnesses == sorted(witnesses)


# ---------------------------------------------------------------------------
# Pipeline + CLI: the retired knobs
# ---------------------------------------------------------------------------


class TestPipelineWiring:
    def test_cli_defaults(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["detect", "Stack"])
        assert not hasattr(args, "engine")
        assert not hasattr(args, "shard_cycles")
        assert not hasattr(args, "reduce")
        args = parser.parse_args(["analyze-trace", "t.wtrc"])
        assert not hasattr(args, "workers")
        for argv in (
            ["detect", "Stack", "--engine", "batch"],
            ["detect", "Stack", "--reduce"],
            ["analyze-trace", "t.wtrc", "--no-shard-cycles"],
            ["analyze-trace", "t.wtrc", "--workers", "2"],
            ["serve", "--shard-workers", "2"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)

    def test_wolfconfig_accepts_auto(self):
        WolfConfig(engine="auto")
        WolfConfig(engine="batch")
        with pytest.raises(ValueError):
            WolfConfig(engine="turbo")
        for retired in ("shard_cycles", "reduce"):
            with pytest.raises(TypeError):
                WolfConfig(**{retired: True})
