"""Property-based tests of the analysis pipeline over random programs.

These are the deep invariants:

* the runtime is deterministic given a seed;
* cycle detection matches a brute-force enumeration of the cycle
  definition (paper §3.1);
* the Pruner is *empirically sound*: a pruned cycle's deadlock never
  manifests under many random schedules;
* a Generator-eliminated (cyclic-``Gs``) cycle likewise never manifests;
* for straight-line programs, Generator survivors are reproducible by the
  Replayer.
"""

from __future__ import annotations

import os
import tempfile
from itertools import combinations, permutations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.detector import ExtendedDetector, find_cycles
from repro.core.generator import Generator, GeneratorVerdict
from repro.core.nativekernel import analyze_trace_file, kernel_available
from repro.core.pipeline import run_detection
from repro.core.pruner import Pruner
from repro.core.replayer import Replayer
from repro.core.streaming import StreamingDetector
from repro.runtime.sim.result import RunStatus
from repro.runtime.sim.runtime import run_program
from repro.runtime.sim.strategy import RandomStrategy
from repro.runtime.tracefile import write_trace
from repro.util.digraph import DiGraph
from tests.randprog import ProgramSpec, Region, build_program, program_specs

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def brute_force_cycles(rel, max_length=3):
    """Enumerate cycles straight from the definition (paper §3.1)."""
    found = set()
    entries = rel.entries
    for size in (2, max_length):
        for combo in combinations(entries, size):
            for perm in permutations(combo):
                # Canonical rotation: smallest step first.
                if perm[0].step != min(e.step for e in perm):
                    continue
                threads = [e.thread for e in perm]
                if len(set(threads)) != len(threads):
                    continue
                ok = all(
                    perm[i].lock in perm[(i + 1) % len(perm)].lockset
                    for i in range(len(perm))
                )
                if not ok:
                    continue
                disjoint = all(
                    not (set(a.lockset) & set(b.lockset))
                    for a, b in combinations(perm, 2)
                )
                if disjoint:
                    found.add(steps_of(perm))
    return found


def steps_of(entries):
    """A cycle's identity across engines: its tuples' trace steps."""
    return tuple(e.step for e in entries)


def oracle(rel, max_length, max_cycles):
    """The brute-force cycles plus the budget rule every engine shares:
    ``truncated`` once the ``max_cycles``-th cycle is found, and at
    ``max_cycles=0`` as soon as some anchor could start a search (an
    entry holding a lock) — whether or not a cycle goes through it."""
    cycles = brute_force_cycles(rel, max_length)
    if max_cycles == 0:
        return cycles, any(e.lockset for e in rel.entries)
    return cycles, len(cycles) >= max_cycles


def _ordered(region):
    """Drop nested scopes that would not take a higher-numbered lock, so
    every thread acquires in ascending lock order."""
    return Region(
        region.lock,
        tuple(_ordered(c) for c in region.children if c.lock > region.lock),
    )


def ordered_specs():
    """Programs whose lock graph is acyclic: no cycle exists, so the
    anchor cut skips every anchor."""
    return program_specs().map(
        lambda spec: ProgramSpec(
            n_locks=spec.n_locks,
            threads=tuple(tuple(_ordered(r) for r in t) for t in spec.threads),
            chain=spec.chain,
        )
    )


def assert_engines_match_oracle(spec, *, acyclic=False):
    """Batch, streaming and native enumeration against :func:`oracle` at
    ``max_cycles`` 0, 1 and unbounded.  Streaming and native must return
    exactly batch's list at every cap."""
    run = run_detection(build_program(spec), 0, tries=5)
    rel = ExtendedDetector(max_length=3).analyze(run.trace).relation
    if acyclic:
        locks = DiGraph()
        for e in rel.entries:
            for held in e.lockset:
                locks.add_edge(held, e.lock)
        assert not locks.has_cycle()

    def streaming(mc):
        det = StreamingDetector(max_length=3, max_cycles=mc).analyze(run.trace)
        return det.cycles, det.truncated

    engines = {
        "batch": lambda mc: find_cycles(rel, max_length=3, max_cycles=mc),
        "streaming": streaming,
    }
    with tempfile.TemporaryDirectory() as tmp:
        if kernel_available():
            path = os.path.join(tmp, "t.wtrc")
            write_trace(run.trace, path)

            def native(mc):
                det = analyze_trace_file(
                    path, max_length=3, max_cycles=mc, backend="native"
                ).detection
                return det.cycles, det.truncated

            engines["native"] = native
        for mc in (0, 1, 10_000):
            expected, truncated = oracle(rel, 3, mc)
            if acyclic:
                assert not expected
            batch = None
            for name, engine in engines.items():
                if mc == 0 and name != "batch":
                    continue  # the others reject a zero budget
                cycles, got_truncated = engine(mc)
                got = [steps_of(c.entries) for c in cycles]
                if name == "batch":
                    batch = got
                else:
                    assert got == batch, (name, mc)
                assert set(got) <= expected, (name, mc)
                assert len(got) == len(set(got)) == min(len(expected), mc)
                assert got_truncated == truncated, (name, mc)


@given(program_specs())
@SLOW
def test_vector_clock_S_schedule_independent(spec):
    """The S components encode start structure, which is control-flow
    determined — every completed schedule must agree on them.

    (The J components are intentionally excluded: main joins its handles
    in completion-dependent order, so its join *timestamps* legitimately
    vary between schedules — only the S side carries the Pruner's
    "thread started after" reasoning for these programs.)"""
    from repro.core.vclock import compute_vector_clocks

    program = build_program(spec)
    snapshots = []
    for seed in (0, 7, 23, 41, 99):
        result = run_program(program, RandomStrategy(seed))
        if result.status is not RunStatus.COMPLETED:
            continue  # truncated traces see fewer start/join events
        st = compute_vector_clocks(result.trace)
        threads = sorted(result.trace.threads(), key=lambda t: t.pretty())
        snapshots.append(
            {
                (a.pretty(), b.pretty()): st.V(a, b).S
                for a in threads
                for b in threads
                if a != b
            }
        )
    for snap in snapshots[1:]:
        assert snap == snapshots[0]


@given(program_specs())
@SLOW
def test_runtime_deterministic(spec):
    program = build_program(spec)
    a = run_program(program, RandomStrategy(11))
    b = run_program(program, RandomStrategy(11))
    a.raise_errors()
    assert [repr(e) for e in a.trace] == [repr(e) for e in b.trace]
    assert a.status == b.status


@given(program_specs())
@SLOW
def test_detector_matches_brute_force(spec):
    program = build_program(spec)
    run = run_detection(program, 0, tries=5)
    detection = ExtendedDetector(max_length=3).analyze(run.trace)
    got = {steps_of(c.entries) for c in detection.cycles}
    expected = brute_force_cycles(detection.relation, max_length=3)
    assert got == expected


#: Three threads taking three locks in a ring: one cycle of the maximum
#: length, whose anchor reaches its lockset in exactly ``max_length - 1``
#: lock-graph edges.
RING3 = ProgramSpec(
    n_locks=3,
    threads=tuple((Region(i, (Region((i + 1) % 3),)),) for i in range(3)),
    chain=(False, False, False),
)


@given(program_specs())
@example(RING3)
@SLOW
def test_every_engine_matches_brute_force_and_budget(spec):
    assert_engines_match_oracle(spec)


@given(ordered_specs())
@SLOW
def test_every_engine_matches_brute_force_on_acyclic_lock_graphs(spec):
    assert_engines_match_oracle(spec, acyclic=True)


@given(program_specs())
@SLOW
def test_mutual_exclusion_invariant(spec):
    """No trace ever shows a lock granted to two threads at once."""
    program = build_program(spec)
    result = run_program(program, RandomStrategy(5))
    from repro.runtime.events import AcquireEvent, ReleaseEvent

    held = {}
    for ev in result.trace:
        if isinstance(ev, AcquireEvent) and not ev.reentrant:
            assert ev.lock not in held
            held[ev.lock] = ev.thread
        elif isinstance(ev, ReleaseEvent) and not ev.reentrant:
            assert held.pop(ev.lock) == ev.thread


@given(program_specs(), st.integers(0, 10_000))
@SLOW
def test_pruner_empirically_sound(spec, probe_seed):
    """If the Pruner kills a cycle, no random schedule may deadlock at
    exactly that cycle's sites."""
    program = build_program(spec)
    run = run_detection(program, 0, tries=5)
    detection = ExtendedDetector(max_length=3).analyze(run.trace)
    pruned = Pruner(detection.vclocks).prune(detection.cycles).false_positives
    if not pruned:
        return
    forbidden = {c.sites for c in pruned}
    for k in range(15):
        result = run_program(program, RandomStrategy(probe_seed + k))
        if result.status is RunStatus.DEADLOCK:
            assert result.deadlock.sites not in forbidden


@given(program_specs(), st.integers(0, 10_000))
@SLOW
def test_generator_empirically_sound(spec, probe_seed):
    """A cyclic-Gs cycle's site set never manifests as a deadlock."""
    program = build_program(spec)
    run = run_detection(program, 0, tries=5)
    detection = ExtendedDetector(max_length=3).analyze(run.trace)
    survivors = Pruner(detection.vclocks).prune(detection.cycles).survivors
    gen = Generator(detection.relation).run(survivors)
    infeasible = {
        d.cycle.sites
        for d in gen.decisions
        if d.verdict is GeneratorVerdict.FALSE
    }
    feasible = {
        d.cycle.sites
        for d in gen.decisions
        if d.verdict is GeneratorVerdict.UNKNOWN
    }
    # A site set backed by any feasible cycle can legitimately deadlock.
    forbidden = infeasible - feasible
    if not forbidden:
        return
    for k in range(15):
        result = run_program(program, RandomStrategy(probe_seed + k))
        if result.status is RunStatus.DEADLOCK:
            assert result.deadlock.sites not in forbidden


@given(program_specs())
@SLOW
def test_replayer_never_wedges_and_reproduces_sole_cycles(spec):
    """Two replay invariants on straight-line programs:

    1. a replay attempt never wedges (no STUCK / STEP_LIMIT): the
       Replayer's skipped-vertex and forced-release rules guarantee
       progress;
    2. when the trace contains exactly one cycle (no interference from
       other potential deadlocks), the survivor reproduces reliably.

    With several overlapping cycles a replay can legitimately deadlock at
    a *different* cycle's sites (the paper's hit rate < 1, §4.2), so full
    reproduction is only asserted for sole-cycle programs.
    """
    program = build_program(spec)
    run = run_detection(program, 0, tries=5)
    if run.status is not RunStatus.COMPLETED:
        return  # truncated trace: feasibility of survivors not guaranteed
    detection = ExtendedDetector(max_length=3).analyze(run.trace)
    survivors = Pruner(detection.vclocks).prune(detection.cycles).survivors
    gen = Generator(detection.relation).run(survivors)
    replayer = Replayer(program, seed=0)
    for dec in gen.decisions:
        if dec.verdict is not GeneratorVerdict.UNKNOWN:
            continue
        outcome = replayer.replay(dec, attempts=5, stop_on_hit=True)
        for status in outcome.statuses:
            assert status in (RunStatus.DEADLOCK, RunStatus.COMPLETED), (
                f"replay wedged with {status} for {dec.cycle.pretty()}"
            )
        if len(detection.cycles) == 1:
            assert outcome.reproduced, dec.cycle.pretty()
