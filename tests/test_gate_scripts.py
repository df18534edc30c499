"""The CI gate scripts under benchmarks/: perf-ratio and corpus-health.

These scripts are plain files (not part of the ``repro`` package), so
they are loaded by path with importlib and exercised through their
``check``/``compare``/``main`` entry points — the exact code CI runs.

The headline property proved here: suppressing **any single** defect key
covered by the committed corpus makes ``check_corpus_health.py`` fail
(the mutation sweep in :class:`TestCorpusHealthMutation`).
"""

from __future__ import annotations

import copy
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_script(name: str):
    path = REPO_ROOT / "benchmarks" / name
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perf():
    return load_script("check_perf_regression.py")


@pytest.fixture(scope="module")
def health():
    return load_script("check_corpus_health.py")


def bench_doc(
    end_to_end=4.0,
    dedup=3.5,
    file_ratio=2.0,
    decode=1.7,
    early=1.4,
    index=3.0,
    generator=8.0,
) -> dict:
    return {
        "macro": {
            "end_to_end_s": {"speedup": end_to_end},
            "file_bytes": {"ratio": file_ratio},
            "decode_ratio": {"ratio": decode},
        },
        "dedup": {"speedup": dedup},
        "prediction": {"early_speedup": early, "index_speedup": index},
        "generator": {"native_speedup": generator},
    }


class TestPerfCheck:
    def test_identical_passes(self, perf):
        assert perf.check(bench_doc(), bench_doc(), tolerance=0.25) == 0

    def test_exactly_at_floor_passes(self, perf):
        # floor = 4.0 * (1 - 0.25) = 3.0; a fresh ratio exactly on the
        # floor is within tolerance, not a regression.
        fresh = bench_doc(end_to_end=3.0)
        assert perf.check(fresh, bench_doc(end_to_end=4.0), tolerance=0.25) == 0

    def test_just_below_floor_fails(self, perf):
        fresh = bench_doc(end_to_end=2.999)
        assert perf.check(fresh, bench_doc(end_to_end=4.0), tolerance=0.25) == 1

    def test_each_gated_ratio_is_enforced(self, perf):
        baseline = bench_doc()
        for kwargs in (
            {"end_to_end": 0.1},
            {"dedup": 0.1},
            {"file_ratio": 0.1},
            {"decode": 0.1},
            {"early": 0.1},
            {"index": 0.1},
            {"generator": 0.1},
        ):
            assert perf.check(bench_doc(**kwargs), baseline, tolerance=0.25) == 1

    def test_missing_stage_in_fresh_fails(self, perf):
        fresh = bench_doc()
        del fresh["dedup"]
        assert perf.check(fresh, bench_doc(), tolerance=0.25) == 1

    def test_missing_stage_in_baseline_skips(self, perf, capsys):
        # An older-schema baseline predates the metric: nothing to regress
        # against, so the gate reports SKIP rather than failing.
        baseline = bench_doc()
        del baseline["dedup"]
        assert perf.check(bench_doc(), baseline, tolerance=0.25) == 0
        assert "SKIP" in capsys.readouterr().out

    def test_index_speedup_without_a_kernel_skips(self, perf, capsys):
        # A bench run on a host without the kernel records the closure
        # index ratio as null: the gate skips it rather than failing.
        baseline = bench_doc()
        baseline["prediction"]["index_speedup"] = None
        assert perf.check(bench_doc(index=0.1), baseline, tolerance=0.25) == 0
        assert "SKIP  closure index speedup" in capsys.readouterr().out

    def test_generator_speedup_without_a_kernel_skips(self, perf, capsys):
        # Without the kernel the Generator ratio is null in the baseline
        # (bench-core/12): skipped, not failed.
        baseline = bench_doc()
        baseline["generator"]["native_speedup"] = None
        assert perf.check(bench_doc(generator=0.1), baseline, tolerance=0.25) == 0
        assert "SKIP  Generator native decision speedup" in capsys.readouterr().out

    def test_baseline_schema_mismatch_skips_not_crashes(self, perf):
        # A baseline whose node shape diverged entirely (dict where a
        # number should be, wrong nesting) must degrade to SKIP.
        baseline = {"macro": "not-a-dict", "dedup": {"wrong_key": 1}}
        assert perf.check(bench_doc(), baseline, tolerance=0.25) == 0

    def test_main_end_to_end(self, perf, tmp_path):
        fresh, base = tmp_path / "fresh.json", tmp_path / "base.json"
        base.write_text(json.dumps(bench_doc()))
        fresh.write_text(json.dumps(bench_doc()))
        assert perf.main([str(fresh), "--baseline", str(base)]) == 0
        fresh.write_text(json.dumps(bench_doc(end_to_end=0.5)))
        assert perf.main([str(fresh), "--baseline", str(base)]) == 1
        # A wider tolerance can absorb the same drop.
        assert (
            perf.main([str(fresh), "--baseline", str(base), "--tolerance", "0.9"])
            == 0
        )


class TestCorpusHealthScript:
    """End-to-end runs of check_corpus_health.main over real corpora."""

    def test_committed_corpus_passes(self, health, tmp_path):
        rc = health.main(
            [
                "--corpus",
                str(REPO_ROOT / "corpus"),
                "--baseline",
                str(REPO_ROOT / "CORPUS_health.json"),
                "--out",
                str(tmp_path / "fresh.json"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "fresh.json").exists()

    def test_doctored_baseline_fails(self, health, tmp_path):
        # A baseline claiming a key the corpus does not witness = a lost
        # defect; the gate must go red.
        baseline = json.loads((REPO_ROOT / "CORPUS_health.json").read_text())
        baseline["coverage"] = sorted(
            [*baseline["coverage"], "ghost_prog::g:1|g:2"]
        )
        doctored = tmp_path / "baseline.json"
        doctored.write_text(json.dumps(baseline))
        rc = health.main(
            [
                "--corpus",
                str(REPO_ROOT / "corpus"),
                "--baseline",
                str(doctored),
                "--out",
                str(tmp_path / "fresh.json"),
            ]
        )
        assert rc == 1

    def test_deleted_trace_fails_validation(self, health, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(REPO_ROOT / "corpus", corpus)
        victim = next(corpus.glob("*.wtrc"))
        victim.unlink()
        rc = health.main(
            [
                "--corpus",
                str(corpus),
                "--baseline",
                str(REPO_ROOT / "CORPUS_health.json"),
                "--out",
                str(tmp_path / "fresh.json"),
            ]
        )
        assert rc == 1

    def test_validate_only_skips_baseline_diff(self, health, tmp_path):
        # The corpus-baseline-reset CI path: even against a hopelessly
        # doctored baseline, --validate-only passes a healthy corpus.
        doctored = tmp_path / "baseline.json"
        doctored.write_text(json.dumps({"schema": "nonsense"}))
        rc = health.main(
            [
                "--corpus",
                str(REPO_ROOT / "corpus"),
                "--baseline",
                str(doctored),
                "--validate-only",
            ]
        )
        assert rc == 0

    def test_missing_baseline_fails(self, health, tmp_path):
        rc = health.main(
            [
                "--corpus",
                str(REPO_ROOT / "corpus"),
                "--baseline",
                str(tmp_path / "does-not-exist.json"),
                "--out",
                str(tmp_path / "fresh.json"),
            ]
        )
        assert rc == 1

    def test_write_baseline_round_trip(self, health, tmp_path):
        baseline = tmp_path / "baseline.json"
        out = tmp_path / "fresh.json"
        argv = [
            "--corpus",
            str(REPO_ROOT / "corpus"),
            "--baseline",
            str(baseline),
            "--out",
            str(out),
        ]
        assert health.main([*argv, "--write-baseline"]) == 0
        assert baseline.exists()
        assert health.main(argv) == 0


class TestCorpusHealthMutation:
    """Acceptance property: losing ANY single committed defect key gates.

    ``compare_health`` is exactly what ``check_corpus_health.main`` calls
    to decide its exit code (a non-empty failure list returns 1), so a
    failure here for every key proves the script exits non-zero whenever
    any single corpus defect key is suppressed.
    """

    def test_every_committed_key_is_load_bearing(self):
        from repro.corpus import compare_health, load_health

        baseline = load_health(str(REPO_ROOT / "CORPUS_health.json"))
        keys = baseline["coverage"]
        assert len(keys) >= 20
        for key in keys:
            mutated = copy.deepcopy(baseline)
            mutated["coverage"] = [k for k in keys if k != key]
            failures = compare_health(mutated, baseline)
            assert failures, f"suppressing {key} did not fail the gate"
            assert any(key in f for f in failures)

    def test_every_per_trace_key_is_load_bearing(self):
        from repro.corpus import compare_health, load_health

        baseline = load_health(str(REPO_ROOT / "CORPUS_health.json"))
        for file, entry in baseline["traces"].items():
            for key in entry["defect_keys"]:
                mutated = copy.deepcopy(baseline)
                mutated["traces"][file]["defect_keys"] = [
                    k for k in entry["defect_keys"] if k != key
                ]
                failures = compare_health(mutated, baseline)
                assert failures, f"{file}: dropping {key} did not fail"
