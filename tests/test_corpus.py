"""The governed trace corpus: manifest schema, minimizer, campaign, gates.

Covers the four corpus stages end to end on a tiny throwaway campaign
(built once per module into a tmp directory) plus the *committed*
mini-corpus under ``corpus/`` — the same artifact the ``corpus-gate`` CI
job re-analyzes — so a PR that corrupts the committed corpus or its
baseline fails the plain test suite too, not only the dedicated gate.
"""

from __future__ import annotations

import copy
import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.corpus import (
    CORPUS_SCHEMA,
    DETECTOR_PARAMS,
    MANIFEST_NAME,
    CampaignConfig,
    CorpusManifest,
    ManifestError,
    build_corpus,
    compare_health,
    compute_health,
    detect_defect_keys,
    minimize_trace,
    minimize_trace_file,
    run_gate,
    save_health,
    validate_corpus,
)
from repro.runtime.sim.runtime import run_program
from repro.runtime.sim.strategy import RandomStrategy
from repro.runtime.tracefile import MAGIC, read_trace
from tests.conftest import two_lock_program

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED_CORPUS = REPO_ROOT / "corpus"
COMMITTED_BASELINE = REPO_ROOT / "CORPUS_health.json"

#: Registry-free campaign shape: a handful of random programs plus the
#: chaos harness — small enough for the test suite, varied enough to
#: admit several traces.
TINY_CAMPAIGN = CampaignConfig(
    benchmarks=[], randprog=10, chaos_seeds=2, max_steps=20_000
)


# ---------------------------------------------------------------------------
# manifest schema
# ---------------------------------------------------------------------------


def record_doc() -> dict:
    return {
        "file": "ab-s1.wtrc",
        "sha256": "0" * 64,
        "bytes": 100,
        "events": 10,
        "program": "ab",
        "seed": 1,
        "source": "registry",
        "generator_seed": None,
        "defect_keys": [["p:a1", "p:b2"]],
    }


def manifest_doc() -> dict:
    return {
        "schema": CORPUS_SCHEMA,
        "detector": dict(DETECTOR_PARAMS),
        "traces": [record_doc()],
    }


class TestManifestSchema:
    def test_round_trip(self):
        m = CorpusManifest.from_doc(manifest_doc())
        again = CorpusManifest.loads(m.dumps())
        assert again.to_doc() == m.to_doc()
        assert again.coverage() == {"ab::p:a1|p:b2"}

    def test_save_load(self, tmp_path):
        m = CorpusManifest.from_doc(manifest_doc())
        path = tmp_path / MANIFEST_NAME
        m.save(str(path))
        assert CorpusManifest.load(str(path)).to_doc() == m.to_doc()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(extra=1),
            lambda d: d.pop("detector"),
            lambda d: d.update(schema="wolf-corpus/999"),
            lambda d: d["detector"].pop("max_length"),
            lambda d: d["detector"].update(max_length=True),
            lambda d: d["traces"][0].update(surprise=1),
            lambda d: d["traces"][0].pop("sha256"),
            lambda d: d["traces"][0].update(seed=True),
            lambda d: d["traces"][0].update(events="10"),
            lambda d: d["traces"][0].update(source="cosmic-rays"),
            # sites within a key must be sorted
            lambda d: d["traces"][0].update(defect_keys=[["p:b2", "p:a1"]]),
            # keys themselves must be sorted
            lambda d: d["traces"][0].update(
                defect_keys=[["x:1", "x:2"], ["a:1", "a:2"]]
            ),
            lambda d: d["traces"][0].update(defect_keys=[[]]),
            lambda d: d["traces"][0].update(defect_keys=[["ok"], [3]]),
            lambda d: d["traces"][0].update(file="sub/ab.wtrc"),
            lambda d: d["traces"][0].update(file="ab.json"),
            lambda d: d["traces"].append(copy.deepcopy(d["traces"][0])),
        ],
        ids=[
            "unknown-top-key",
            "missing-top-key",
            "wrong-schema-tag",
            "detector-missing-knob",
            "detector-bool-knob",
            "record-unknown-key",
            "record-missing-key",
            "bool-as-int",
            "str-as-int",
            "bad-source",
            "unsorted-sites",
            "unsorted-keys",
            "empty-key",
            "non-str-site",
            "non-bare-filename",
            "non-wtrc-filename",
            "duplicate-filenames",
        ],
    )
    def test_strict_rejection(self, mutate):
        doc = manifest_doc()
        mutate(doc)
        with pytest.raises(ManifestError):
            CorpusManifest.from_doc(doc)

    def test_not_json(self):
        with pytest.raises(ManifestError):
            CorpusManifest.loads("{not json")


# ---------------------------------------------------------------------------
# minimizer
# ---------------------------------------------------------------------------


def deadlock_trace():
    """An AB/BA trace that witnesses at least one defect key."""
    for seed in range(10):
        trace = run_program(two_lock_program, RandomStrategy(seed)).trace
        if detect_defect_keys(trace):
            return trace
    raise AssertionError("no seed in 0..9 witnessed the AB/BA defect")


class TestMinimizer:
    def test_preserves_defect_keys(self, tmp_path):
        trace = deadlock_trace()
        target = detect_defect_keys(trace)
        dest = tmp_path / "min.wtrc"
        res = minimize_trace(trace, str(dest))
        assert res.events_after <= res.events_before
        assert res.events_after >= 1
        # The committed artifact, re-read from disk, witnesses the same keys.
        assert detect_defect_keys(read_trace(str(dest))) == target

    def test_idempotent_on_minimized(self, tmp_path):
        trace = deadlock_trace()
        first = tmp_path / "a.wtrc"
        second = tmp_path / "b.wtrc"
        minimize_trace(trace, str(first))
        res = minimize_trace_file(str(first), str(second))
        target = detect_defect_keys(trace)
        assert detect_defect_keys(read_trace(str(second))) == target
        assert res.events_after <= res.events_before


# ---------------------------------------------------------------------------
# campaign + validation + gate over a tiny throwaway corpus
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("campaign") / "corpus"
    report = build_corpus(TINY_CAMPAIGN, str(corpus))
    return corpus, report


def corrupted_copy(tiny_corpus, tmp_path) -> Path:
    """A scratch copy of the tiny corpus a test may damage freely."""
    src, _report = tiny_corpus
    dest = tmp_path / "corpus"
    shutil.copytree(src, dest)
    return dest


def edit_manifest(corpus_dir: Path, mutate) -> None:
    path = corpus_dir / MANIFEST_NAME
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def end_chunk_offset(path: Path) -> int:
    """File offset of the END chunk (kind 5), found by walking chunks."""
    data = path.read_bytes()
    pos = len(MAGIC) + 1
    while pos < len(data):
        start = pos
        kind = data[pos]
        pos += 1
        length = 0
        shift = 0
        while True:
            b = data[pos]
            pos += 1
            length |= (b & 0x7F) << shift
            if not b & 0x80:
                break
            shift += 7
        if kind == 5:
            return start
        pos += length
    raise AssertionError(f"{path} has no END chunk")


class TestCampaign:
    def test_admits_and_validates(self, tiny_corpus):
        corpus, report = tiny_corpus
        assert report.admitted >= 2
        assert report.admitted == len(report.admitted_files)
        assert (corpus / MANIFEST_NAME).exists()
        assert validate_corpus(str(corpus), deep=True) == []

    def test_minimized_artifacts_are_small(self, tiny_corpus):
        corpus, report = tiny_corpus
        assert 0 < report.events_admitted <= report.events_recorded

    def test_rerun_admits_nothing_new(self, tiny_corpus, tmp_path):
        scratch = corrupted_copy(tiny_corpus, tmp_path)
        report = build_corpus(TINY_CAMPAIGN, str(scratch))
        assert report.admitted == 0
        assert report.rejected_covered > 0
        assert validate_corpus(str(scratch), deep=True) == []

    def test_manifest_records_detector_params(self, tiny_corpus):
        corpus, _ = tiny_corpus
        manifest = CorpusManifest.load(str(corpus / MANIFEST_NAME))
        assert manifest.detector == DETECTOR_PARAMS


class TestValidationRejections:
    def test_bit_flip_breaks_sha(self, tiny_corpus, tmp_path):
        corpus = corrupted_copy(tiny_corpus, tmp_path)
        manifest = CorpusManifest.load(str(corpus / MANIFEST_NAME))
        victim = corpus / manifest.traces[0].file
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))
        problems = validate_corpus(str(corpus))
        assert any("sha256 divergence" in p for p in problems)

    def test_torn_trace_detected(self, tiny_corpus, tmp_path):
        corpus = corrupted_copy(tiny_corpus, tmp_path)
        manifest = CorpusManifest.load(str(corpus / MANIFEST_NAME))
        victim = corpus / manifest.traces[0].file
        # Chop the END chunk off exactly: a writer that died mid-trace.
        victim.write_bytes(victim.read_bytes()[: end_chunk_offset(victim)])
        problems = validate_corpus(str(corpus))
        assert any("torn trace (no END chunk)" in p for p in problems)

    def test_truncated_chunk_detected(self, tiny_corpus, tmp_path):
        corpus = corrupted_copy(tiny_corpus, tmp_path)
        manifest = CorpusManifest.load(str(corpus / MANIFEST_NAME))
        victim = corpus / manifest.traces[0].file
        victim.write_bytes(victim.read_bytes()[:-3])
        problems = validate_corpus(str(corpus))
        assert any("torn trace" in p for p in problems)
        assert not any("unreadable trace" in p for p in problems)

    def test_missing_file_detected(self, tiny_corpus, tmp_path):
        corpus = corrupted_copy(tiny_corpus, tmp_path)
        manifest = CorpusManifest.load(str(corpus / MANIFEST_NAME))
        (corpus / manifest.traces[0].file).unlink()
        problems = validate_corpus(str(corpus))
        assert any("missing on disk" in p for p in problems)

    def test_stray_trace_detected(self, tiny_corpus, tmp_path):
        corpus = corrupted_copy(tiny_corpus, tmp_path)
        (corpus / "stray.wtrc").write_bytes(b"WTRC\x01junk")
        problems = validate_corpus(str(corpus))
        assert any("not in manifest" in p for p in problems)

    def test_duplicate_content_detected(self, tiny_corpus, tmp_path):
        corpus = corrupted_copy(tiny_corpus, tmp_path)
        manifest = CorpusManifest.load(str(corpus / MANIFEST_NAME))
        assert len(manifest.traces) >= 2
        a, b = manifest.traces[0].file, manifest.traces[1].file
        shutil.copyfile(corpus / a, corpus / b)
        problems = validate_corpus(str(corpus))
        assert any("duplicate trace" in p for p in problems)

    def test_redundant_admission_detected(self, tiny_corpus, tmp_path):
        corpus = corrupted_copy(tiny_corpus, tmp_path)
        manifest = CorpusManifest.load(str(corpus / MANIFEST_NAME))
        first = manifest.traces[0]
        shutil.copyfile(corpus / first.file, corpus / "again.wtrc")

        def add_duplicate_row(doc):
            row = copy.deepcopy(doc["traces"][0])
            row["file"] = "again.wtrc"
            doc["traces"].append(row)

        edit_manifest(corpus, add_duplicate_row)
        problems = validate_corpus(str(corpus))
        assert any("redundant trace" in p for p in problems)

    def test_event_count_mismatch_detected(self, tiny_corpus, tmp_path):
        corpus = corrupted_copy(tiny_corpus, tmp_path)
        edit_manifest(
            corpus, lambda doc: doc["traces"][0].update(
                events=doc["traces"][0]["events"] + 1
            )
        )
        problems = validate_corpus(str(corpus))
        assert any("event count mismatch" in p for p in problems)

    def test_deep_detects_key_divergence(self, tiny_corpus, tmp_path):
        corpus = corrupted_copy(tiny_corpus, tmp_path)
        # Structurally valid, semantically wrong: the detector will not
        # reproduce this invented key, and only deep validation can tell.
        edit_manifest(
            corpus, lambda doc: doc["traces"][0].update(
                defect_keys=[["zz:fake1", "zz:fake2"]]
            )
        )
        assert validate_corpus(str(corpus)) == []
        problems = validate_corpus(str(corpus), deep=True)
        assert any("defect keys diverge" in p for p in problems)

    def test_missing_manifest(self, tmp_path):
        assert validate_corpus(str(tmp_path)) == [
            f"missing manifest {tmp_path / MANIFEST_NAME}"
        ]


class TestHealthGate:
    def test_self_compare_is_clean(self, tiny_corpus):
        corpus, _ = tiny_corpus
        manifest = CorpusManifest.load(str(corpus / MANIFEST_NAME))
        fresh = compute_health(str(corpus), manifest)
        assert fresh["totals"]["traces"] == len(manifest.traces)
        assert compare_health(fresh, fresh) == []

    def test_gate_passes_against_own_baseline(self, tiny_corpus, tmp_path):
        corpus, _ = tiny_corpus
        manifest = CorpusManifest.load(str(corpus / MANIFEST_NAME))
        baseline = tmp_path / "health.json"
        save_health(compute_health(str(corpus), manifest), str(baseline))
        failures, fresh = run_gate(str(corpus), str(baseline))
        assert failures == []
        assert fresh["schema"] == "wolf-corpus-health/2"

    def test_every_lost_key_fails(self, tiny_corpus):
        corpus, _ = tiny_corpus
        manifest = CorpusManifest.load(str(corpus / MANIFEST_NAME))
        baseline = compute_health(str(corpus), manifest)
        for key in baseline["coverage"]:
            mutated = copy.deepcopy(baseline)
            mutated["coverage"] = [k for k in baseline["coverage"] if k != key]
            failures = compare_health(mutated, baseline)
            assert any(f"lost defect key: {key}" == f for f in failures)

    def test_missing_trace_fails(self, tiny_corpus):
        corpus, _ = tiny_corpus
        manifest = CorpusManifest.load(str(corpus / MANIFEST_NAME))
        baseline = compute_health(str(corpus), manifest)
        victim = next(iter(baseline["traces"]))
        mutated = copy.deepcopy(baseline)
        del mutated["traces"][victim]
        failures = compare_health(mutated, baseline)
        assert any("missing from fresh run" in f for f in failures)

    def test_replay_candidate_regression_fails(self, tiny_corpus):
        corpus, _ = tiny_corpus
        manifest = CorpusManifest.load(str(corpus / MANIFEST_NAME))
        baseline = compute_health(str(corpus), manifest)
        victim = max(
            baseline["traces"],
            key=lambda f: baseline["traces"][f]["replay_candidates"],
        )
        assert baseline["traces"][victim]["replay_candidates"] >= 1
        mutated = copy.deepcopy(baseline)
        mutated["traces"][victim]["replay_candidates"] -= 1
        failures = compare_health(mutated, baseline)
        assert any("replay candidates regressed" in f for f in failures)

    def test_certified_demotion_fails(self, tiny_corpus):
        """A trace key the baseline certified must stay certified — a
        demoted proof gates exactly like a lost defect."""
        corpus, _ = tiny_corpus
        manifest = CorpusManifest.load(str(corpus / MANIFEST_NAME))
        baseline = compute_health(str(corpus), manifest)
        victim = next(
            (
                f
                for f, entry in baseline["traces"].items()
                if entry["certified_keys"]
            ),
            None,
        )
        assert victim is not None, "tiny corpus certified no key at all"
        mutated = copy.deepcopy(baseline)
        mutated["traces"][victim]["certified_keys"] = []
        failures = compare_health(mutated, baseline)
        assert any("certified key demoted" in f for f in failures)

    def test_growth_never_fails(self, tiny_corpus):
        corpus, _ = tiny_corpus
        manifest = CorpusManifest.load(str(corpus / MANIFEST_NAME))
        baseline = compute_health(str(corpus), manifest)
        grown = copy.deepcopy(baseline)
        grown["coverage"] = sorted([*grown["coverage"], "new_prog::x:1|x:2"])
        grown["traces"]["brand-new.wtrc"] = {
            "program": "new_prog",
            "defect_keys": [["x:1", "x:2"]],
            "cycles": 1,
            "replay_candidates": 1,
        }
        assert compare_health(grown, baseline) == []

    def test_gate_flags_missing_baseline(self, tiny_corpus, tmp_path):
        corpus, _ = tiny_corpus
        failures, _fresh = run_gate(str(corpus), str(tmp_path / "nope.json"))
        assert any("missing baseline" in f for f in failures)


# ---------------------------------------------------------------------------
# the committed mini-corpus (the artifact the corpus-gate CI job runs on)
# ---------------------------------------------------------------------------


class TestCommittedCorpus:
    def test_meets_size_floor(self):
        manifest = CorpusManifest.load(str(COMMITTED_CORPUS / MANIFEST_NAME))
        assert len(manifest.traces) >= 20
        assert len(manifest.coverage()) >= len(manifest.traces)

    def test_validates_deep(self):
        assert validate_corpus(str(COMMITTED_CORPUS), deep=True) == []

    def test_gate_passes_against_committed_baseline(self, tmp_path):
        failures, fresh = run_gate(
            str(COMMITTED_CORPUS),
            str(COMMITTED_BASELINE),
            fresh_out=str(tmp_path / "fresh.json"),
        )
        assert failures == []
        committed = json.loads(COMMITTED_BASELINE.read_text())
        # The committed baseline is exactly reproducible from the corpus.
        assert fresh == committed


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCorpusCli:
    def test_validate_ok(self, tiny_corpus, capsys):
        corpus, _ = tiny_corpus
        assert cli_main(["corpus", "validate", "--corpus", str(corpus)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_refuses_byte_after_end(self, tmp_path, capsys):
        """A committed trace with one byte after its END chunk is
        unreadable to the validator, as it is to `wolf serve`."""
        corpus = tmp_path / "corpus"
        shutil.copytree(COMMITTED_CORPUS, corpus)
        victim = corpus / "HashMap-s0.wtrc"
        victim.write_bytes(victim.read_bytes() + b"\x00")
        assert cli_main(["corpus", "validate", "--corpus", str(corpus)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert (
            "FAIL  HashMap-s0.wtrc: unreadable trace: data after END chunk" in lines
        )

    def test_validate_fails_on_stray(self, tiny_corpus, tmp_path):
        corpus = corrupted_copy(tiny_corpus, tmp_path)
        (corpus / "stray.wtrc").write_bytes(b"WTRC\x01junk")
        assert cli_main(["corpus", "validate", "--corpus", str(corpus)]) == 1

    def test_gate_write_baseline_then_pass(self, tiny_corpus, tmp_path):
        corpus, _ = tiny_corpus
        baseline = tmp_path / "health.json"
        out = tmp_path / "fresh.json"
        assert (
            cli_main(
                [
                    "corpus",
                    "gate",
                    "--corpus",
                    str(corpus),
                    "--baseline",
                    str(baseline),
                    "--out",
                    str(out),
                    "--write-baseline",
                ]
            )
            == 0
        )
        assert baseline.exists()
        assert (
            cli_main(
                [
                    "corpus",
                    "gate",
                    "--corpus",
                    str(corpus),
                    "--baseline",
                    str(baseline),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )

    def test_minimize_cli(self, tiny_corpus, tmp_path):
        corpus, _ = tiny_corpus
        manifest = CorpusManifest.load(str(corpus / MANIFEST_NAME))
        src = corpus / manifest.traces[0].file
        out = tmp_path / "min.wtrc"
        assert cli_main(["corpus", "minimize", str(src), "--out", str(out)]) == 0
        assert out.exists()
