"""Tests for the extension features: MagicFuzzer-style reduction, defect
ranking (§4.4), and lossless trace serialization."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.detector import BaseDetector, ExtendedDetector, find_cycles
from repro.core.lockdep import build_lockdep
from repro.core.pipeline import Wolf, WolfConfig, run_detection
from repro.core.ranking import rank_defects, render_ranking
from repro.core.reduction import reduce_relation
from repro.core.report import Classification as C
from repro.runtime.serialize import dump_trace, load_trace
from repro.runtime.sim.runtime import run_program
from repro.runtime.sim.strategy import RandomStrategy
from repro.workloads.figures import fig2_program, fig4_program
from repro.workloads.jigsaw import jigsaw_program
from tests.conftest import ordered_program, two_lock_program
from tests.randprog import build_program, program_specs

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestReduction:
    def test_removes_noise_entries(self):
        """Ordered nesting contributes entries that can never cycle."""
        run = run_detection(ordered_program, 0)
        rel = build_lockdep(run.trace)
        reduced, removed = reduce_relation(rel)
        assert removed == len(rel)
        assert len(reduced) == 0

    def test_keeps_cycle_entries(self):
        run = run_detection(two_lock_program, 0)
        rel = build_lockdep(run.trace)
        reduced, removed = reduce_relation(rel)
        # The AB/BA entries with non-empty locksets survive; the two
        # outer acquisitions (empty locksets) are pruned.
        assert len(reduced) == 2
        assert removed == 2

    def test_magic_detector_same_cycles_fig4(self):
        """The MagicFuzzer reduction of fig4's relation keeps every cycle
        the extended detector reports, in its order."""
        run = run_detection(fig4_program, 0)
        plain = ExtendedDetector().analyze(run.trace)
        reduced, removed = reduce_relation(plain.relation)
        magic, _ = find_cycles(reduced)
        assert removed > 0
        assert [c.entries for c in magic] == [c.entries for c in plain.cycles]

    def test_magic_base_detector(self):
        """The same on Jigsaw against the base detector, at length 3."""
        run = run_detection(jigsaw_program, 0)
        plain = BaseDetector(max_length=3).analyze(run.trace)
        reduced, _ = reduce_relation(plain.relation)
        magic, _ = find_cycles(reduced, max_length=3)
        assert {c.sites for c in plain.cycles} == {c.sites for c in magic}
        assert len(plain.cycles) == len(magic)

    @given(program_specs())
    @SLOW
    def test_reduction_preserves_cycles_property(self, spec):
        program = build_program(spec)
        run = run_detection(program, 0, tries=5)
        rel = build_lockdep(run.trace)
        reduced, _ = reduce_relation(rel)
        plain, _ = find_cycles(rel, max_length=3)
        magic, _ = find_cycles(reduced, max_length=3)
        assert {tuple(id(e) for e in c.entries) for c in plain} == {
            tuple(id(e) for e in c.entries) for c in magic
        }


class TestRanking:
    def _report(self):
        cfg = WolfConfig(seed=0, replay_attempts=5)
        return Wolf(config=cfg).analyze(fig2_program, name="fig2")

    def test_confirmed_before_false(self):
        ranked = rank_defects(self._report())
        classes = [r.defect.classification for r in ranked]
        first_false = next(i for i, c in enumerate(classes) if c.is_false)
        assert all(not c.is_false for c in classes[:first_false])

    def test_ranks_are_sequential(self):
        ranked = rank_defects(self._report())
        assert [r.rank for r in ranked] == list(range(1, len(ranked) + 1))

    def test_jigsaw_order(self):
        cfg = WolfConfig(seed=0, replay_attempts=5)
        report = Wolf(config=cfg).analyze(jigsaw_program, name="Jigsaw")
        ranked = rank_defects(report)
        tiers = {
            C.CONFIRMED: 0,
            C.UNKNOWN: 1,
            C.FALSE_GENERATOR: 2,
            C.FALSE_PRUNER: 3,
        }
        seq = [tiers[r.defect.classification] for r in ranked]
        assert seq == sorted(seq)
        # Pruner kills come dead last.
        assert ranked[-1].defect.classification is C.FALSE_PRUNER

    def test_render_mentions_all(self):
        ranked = rank_defects(self._report())
        text = render_ranking(ranked)
        assert text.count("#") >= len(ranked)
        assert "reproduced (hit rate" in text


class TestSerialization:
    def _roundtrip(self, program, seed=0):
        result = run_program(program, RandomStrategy(seed), name="p")
        text = dump_trace(result.trace)
        loaded = load_trace(text)
        return result.trace, loaded

    def test_roundtrip_equality(self):
        original, loaded = self._roundtrip(fig4_program)
        assert len(original) == len(loaded)
        assert [repr(e) for e in original] == [repr(e) for e in loaded]
        # Identities must compare equal, not just print equal.
        assert original.threads() == loaded.threads()
        assert original.locks() == loaded.locks()

    def test_roundtrip_preserves_analysis(self):
        original, loaded = self._roundtrip(fig4_program)
        a = ExtendedDetector().analyze(original)
        b = ExtendedDetector().analyze(loaded)
        assert {c.sites for c in a.cycles} == {c.sites for c in b.cycles}
        assert len(a.relation) == len(b.relation)

    def test_roundtrip_metadata(self):
        result = run_program(two_lock_program, RandomStrategy(3), name="meta")
        loaded = load_trace(dump_trace(result.trace))
        assert loaded.program == result.trace.program
        assert loaded.seed == result.trace.seed

    def test_stack_depth_preserved(self):
        original, loaded = self._roundtrip(two_lock_program, seed=1)
        from repro.runtime.events import AcquireEvent

        a = [e.stack_depth for e in original if isinstance(e, AcquireEvent)]
        b = [e.stack_depth for e in loaded if isinstance(e, AcquireEvent)]
        assert a == b and all(d > 0 for d in b)

    def test_version_check(self):
        with pytest.raises(ValueError):
            load_trace('{"version": 99}')

    def test_unknown_event_kind(self):
        import json

        doc = {
            "version": 1,
            "program": "x",
            "seed": 0,
            "threads": [{"parent": None, "spawn_site": "<root>", "seq": 0, "name": ""}],
            "locks": [],
            "events": [{"kind": "Bogus", "step": 0, "thread": 0}],
        }
        with pytest.raises(ValueError):
            load_trace(json.dumps(doc))

    @given(program_specs())
    @SLOW
    def test_roundtrip_property(self, spec):
        program = build_program(spec)
        result = run_program(program, RandomStrategy(7))
        loaded = load_trace(dump_trace(result.trace))
        assert [repr(e) for e in result.trace] == [repr(e) for e in loaded]


class TestCliExtensions:
    def test_trace_and_analyze_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.wtrc"
        assert main(["trace", "record", "HashMap", "--out", str(out)]) == 0
        assert main(["analyze-trace", str(out)]) == 0
        text = capsys.readouterr().out
        assert "cycles detected      : 4" in text
        assert "REPLAYABLE" in text and "FALSE" in text

    def test_analyze_trace_refuses_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.json"
        assert main(["trace", "record", "HashMap", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze-trace", str(out)]) == 1
        assert main(["analyze-trace", str(out), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "wolf trace pack" in captured.err

    @pytest.mark.parametrize(
        "damage,problem",
        [
            (lambda data: data[:-1], "torn trace (truncated chunk)"),
            (lambda data: data + b"\x00", "unreadable trace: data after END chunk"),
        ],
        ids=["truncated", "byte-after-end"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze-trace", "FILE"],
            ["analyze-trace", "FILE", "--json"],
            ["trace", "info", "FILE"],
            ["trace", "unpack", "FILE", "--out", "OUT"],
            ["corpus", "minimize", "FILE", "--out", "OUT"],
        ],
        ids=[
            "analyze-trace",
            "analyze-trace-json",
            "trace-info",
            "trace-unpack",
            "corpus-minimize",
        ],
    )
    def test_malformed_trace_is_one_classified_line(
        self, tmp_path, capsys, argv, damage, problem
    ):
        """A corpus trace cut inside its END chunk is `torn`, one followed
        by a byte `unreadable`: one classified line on stderr and exit 1,
        not a traceback, from every command that reads a .wtrc."""
        from pathlib import Path

        from repro.cli import main

        corpus = Path(__file__).resolve().parent.parent / "corpus"
        bad = tmp_path / "bad.wtrc"
        bad.write_bytes(damage((corpus / "HashMap-s0.wtrc").read_bytes()))
        slots = {"FILE": str(bad), "OUT": str(tmp_path / "out")}
        assert main([slots.get(a, a) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{bad}: {problem}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("backend", ["python", "native"])
    def test_wide_step_delta_is_one_classified_line(self, tmp_path, capsys, backend):
        """An event whose step delta needs eleven varint bytes is a
        corrupt payload to either backend: one classified line, exit 1."""
        from pathlib import Path

        from repro.cli import main
        from repro.core.nativekernel import kernel_available
        from repro.runtime.tracefile import _get_uvarint, _put_svarint, _put_uvarint

        if backend == "native" and not kernel_available():
            pytest.skip("native kernel unavailable on this host")
        data = (
            Path(__file__).resolve().parent.parent / "corpus" / "HashMap-s0.wtrc"
        ).read_bytes()
        pos = 5  # magic + version byte
        while data[pos] != 4:  # up to the first EVENTS chunk
            length, body = _get_uvarint(data, pos + 1)
            pos = body + length
        payload = bytearray([1, 0])  # one BeginEvent
        _put_svarint(payload, 1 << 70)
        payload.append(0)  # thread index
        chunk = bytearray([4])
        _put_uvarint(chunk, len(payload))
        bad = tmp_path / "wide.wtrc"
        bad.write_bytes(data[:pos] + bytes(chunk + payload) + data[pos:])
        assert main(["analyze-trace", str(bad), "--backend", backend]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{bad}: corrupt trace payload: "
            "OverflowError('varint longer than 10 bytes')\n"
        )

    def test_detect_rank_flag(self, capsys):
        from repro.cli import main

        assert main(["detect", "HashMap", "--attempts", "3", "--rank"]) == 0
        assert "ranked defects" in capsys.readouterr().out
