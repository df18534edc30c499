"""The compact ``Gs`` against the object-level reference construction.

``SyncGraph`` stores interned vertex ids and an int edge table; its
``graph``, ``edge_kinds`` and ``by_index`` views must reproduce what the
object-level builder (``tests/gsreference.py``) produced, down to node,
edge and predecessor order, on every cycle of the registry benchmarks and
of generated programs, Generator-FALSE cases included.  The second half
checks that a decision's graph crosses process boundaries intact: pickle,
deep copy, and a child interpreter with another hash seed.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys

from hypothesis import HealthCheck, given, settings

import repro
from repro.core.detector import ExtendedDetector
from repro.core.generator import Generator, GeneratorVerdict
from repro.core.pipeline import run_detection
from repro.core.replayer import Replayer
from repro.core.syncgraph import build_sync_graph
from repro.workloads.registry import all_benchmarks, get_benchmark
from tests.gsreference import reference_sync_graph
from tests.randprog import build_program, program_specs


def graph_shape(g):
    """Everything order-sensitive about a DiGraph: nodes, then each node's
    successors and predecessors in insertion order."""
    return [(u, g.successors(u), g.predecessors(u)) for u in g.nodes()]


def assert_matches_reference(gs, ref):
    assert gs.cycle == ref.cycle
    assert graph_shape(gs.graph) == graph_shape(ref.graph)
    assert list(gs.graph.edges()) == list(ref.graph.edges())
    assert list(gs.edge_kinds.items()) == list(ref.edge_kinds.items())
    assert list(gs.by_index.items()) == list(ref.by_index.items())
    assert gs.num_vertices() == len(ref.graph)
    assert gs.num_edges() == ref.graph.num_edges()
    assert gs.is_cyclic() == ref.graph.has_cycle()
    assert gs.find_cycle() == ref.graph.find_cycle()


def detect(program, seed, max_length, name="t"):
    run = run_detection(program, seed, name=name)
    return ExtendedDetector(max_length=max_length).analyze(run.trace)


def check_every_cycle(detection):
    """Compare every detected cycle; returns how many had a cyclic Gs."""
    cyclic = 0
    for cycle in detection.cycles:
        gs = build_sync_graph(cycle, detection.relation)
        assert_matches_reference(gs, reference_sync_graph(cycle, detection.relation))
        cyclic += gs.is_cyclic()
    gen = Generator(detection.relation).run(list(detection.cycles))
    for dec in gen.decisions:
        ref = reference_sync_graph(dec.cycle, detection.relation)
        assert dec.gs_cycle == ref.graph.find_cycle()
        assert (dec.verdict is GeneratorVerdict.FALSE) == ref.graph.has_cycle()
    return cyclic


class TestRegistry:
    def test_every_registry_cycle_matches_reference(self):
        cycles = cyclic = 0
        for bench in all_benchmarks():
            detection = detect(
                bench.program, bench.detect_seed, bench.max_cycle_length, bench.name
            )
            cycles += len(detection.cycles)
            cyclic += check_every_cycle(detection)
        assert cycles > 0 and cyclic > 0

    def test_generator_false_cases_covered(self):
        """These benchmarks carry Generator-FALSE cycles, so the cyclic
        branch (object view built, ordering cycle named) is exercised."""
        for name in ("fig2", "fig9", "buffers", "HashMap", "ArrayList"):
            bench = get_benchmark(name)
            detection = detect(
                bench.program, bench.detect_seed, bench.max_cycle_length, name
            )
            assert check_every_cycle(detection) > 0, name


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(program_specs())
def test_generated_programs_match_reference(spec):
    check_every_cycle(detect(build_program(spec), 0, 3))


def views(gs):
    return (
        gs.cycle,
        gs.vertices,
        list(gs.edges.items()),
        graph_shape(gs.graph),
        list(gs.edge_kinds.items()),
        list(gs.by_index.items()),
        gs.find_cycle(),
    )


def fig2_decisions():
    """fig2's decisions: one Generator-FALSE cycle and three survivors."""
    bench = get_benchmark("fig2")
    detection = detect(bench.program, bench.detect_seed, bench.max_cycle_length)
    return bench, Generator(detection.relation).run(list(detection.cycles)).decisions


def replay_outcome(program, decision):
    outcome = Replayer(program, seed=0).replay(
        decision, attempts=3, stop_on_hit=False
    )
    return (outcome.hits, [s.value for s in outcome.statuses], outcome.forced_releases)


class TestProcessBoundary:
    def test_pickle_and_deepcopy_keep_views(self):
        _, decisions = fig2_decisions()
        for dec in decisions:
            before = views(dec.gs)
            for dup in (pickle.loads(pickle.dumps(dec)), copy.deepcopy(dec)):
                assert set(vars(dup.gs)) == {"cycle", "vertices", "edges", "_ids"}
                assert views(dup.gs) == before
                assert dup.gs_cycle == dec.gs_cycle
                # The interning dict works after the trip: every vertex
                # resolves to its own id, nothing is appended.
                for i, v in enumerate(dup.gs.vertices):
                    assert dup.gs._intern(v.index, v.lock) == i
                assert dup.gs.num_vertices() == dec.gs.num_vertices()

    def test_unpickled_in_another_hash_seed(self):
        """A child interpreter with another ``PYTHONHASHSEED`` unpickles
        the decisions, finds the same views as its own fresh build, and
        replays the survivor to the same outcome."""
        bench, decisions = fig2_decisions()
        assert any(d.gs_cycle for d in decisions)
        survivor = next(
            d for d in decisions if d.verdict is GeneratorVerdict.UNKNOWN
        )
        for dec in decisions:
            views(dec.gs)  # build the views before pickling: they stay behind
        payload = pickle.dumps(decisions)
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join([src, root])
        child = (
            "import pickle, sys\n"
            "from repro.core.generator import GeneratorVerdict\n"
            "from tests.test_syncgraph_differential import (\n"
            "    fig2_decisions, replay_outcome, views)\n"
            "got = pickle.loads(sys.stdin.buffer.read())\n"
            "bench, fresh = fig2_decisions()\n"
            "for a, b in zip(got, fresh, strict=True):\n"
            "    assert views(a.gs) == views(b.gs)\n"
            "    assert a.gs_cycle == b.gs_cycle and a.verdict is b.verdict\n"
            "    for i, v in enumerate(a.gs.vertices):\n"
            "        assert a.gs._intern(v.index, v.lock) == i\n"
            "dec = next(d for d in got if d.verdict is GeneratorVerdict.UNKNOWN)\n"
            "print(repr(replay_outcome(bench.program, dec)))\n"
            "print(hash('probe'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", child],
            input=payload,
            env=env,
            capture_output=True,
            check=True,
            timeout=300,
        )
        outcome, probe = out.stdout.decode().strip().splitlines()
        assert int(probe) != hash("probe"), "child shared the hash seed"
        assert outcome == repr(replay_outcome(bench.program, survivor))
