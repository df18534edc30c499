"""Graceful SIGINT/SIGTERM semantics for long-running CLI paths.

The satellite property: interrupting a corpus campaign (or a bench
driver) flushes partial results and exits with the distinct
:data:`~repro.util.interrupt.INTERRUPT_EXIT_CODE` instead of dying with
a traceback and a torn manifest.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.corpus import MANIFEST_NAME, CampaignConfig, build_corpus
from repro.util.interrupt import INTERRUPT_EXIT_CODE, GracefulInterrupt

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestGracefulInterrupt:
    def test_first_signal_sets_flag(self):
        with GracefulInterrupt() as stop:
            assert not stop.triggered
            os.kill(os.getpid(), signal.SIGINT)
            # Delivery is synchronous for a signal sent to ourselves.
            assert stop.triggered

    def test_second_signal_raises(self):
        with GracefulInterrupt() as stop:
            os.kill(os.getpid(), signal.SIGINT)
            assert stop.triggered
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGINT)

    def test_handlers_restored_on_exit(self):
        before = signal.getsignal(signal.SIGINT)
        with GracefulInterrupt():
            assert signal.getsignal(signal.SIGINT) is not before
        assert signal.getsignal(signal.SIGINT) is before

    def test_inert_off_main_thread(self):
        """Library code can use the context manager unconditionally: off
        the main thread it degrades to a flag no signal will ever set."""
        seen = {}

        def worker():
            with GracefulInterrupt() as stop:
                seen["triggered"] = stop.triggered

        before = signal.getsignal(signal.SIGINT)
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
        assert seen == {"triggered": False}
        assert signal.getsignal(signal.SIGINT) is before


class TestCampaignDrain:
    def test_stop_hook_seals_partial_manifest(self, tmp_path):
        """A drained campaign is a valid, resumable corpus — the manifest
        is sealed with whatever was admitted before the stop."""
        cfg = CampaignConfig(
            benchmarks=[], randprog=6, chaos_seeds=1, max_steps=20_000
        )
        corpus = tmp_path / "corpus"
        calls = {"n": 0}

        def stop() -> bool:
            calls["n"] += 1
            return calls["n"] > 2  # drain after two sources

        report = build_corpus(cfg, str(corpus), stop=stop)
        assert report.runs <= 2
        manifest_path = corpus / MANIFEST_NAME
        assert manifest_path.exists(), "drain must still seal the manifest"
        doc = json.loads(manifest_path.read_text())
        assert len(doc["traces"]) == report.admitted
        # No half-written campaign scratch files survive the drain.
        leftovers = [p for p in os.listdir(corpus) if p.startswith(".campaign-")]
        assert leftovers == []

    @pytest.mark.slow
    def test_cli_sigint_exits_tempfail(self, tmp_path):
        """`wolf corpus build` under SIGINT: partial manifest, exit 75."""
        corpus = str(tmp_path / "corpus")
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "corpus",
                "build",
                "--corpus",
                corpus,
                "--benchmarks",
                "--randprog",
                # Enough work to outlast the wait below: on a fast host a
                # 200-program campaign can finish before SIGINT arrives.
                "5000",
                "--chaos",
                "0",
            ],
            env=env,
            cwd=REPO,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        # Let the campaign actually start before interrupting it.
        deadline = time.monotonic() + 60
        while not os.path.isdir(corpus):
            assert proc.poll() is None, proc.stdout.read().decode()
            assert time.monotonic() < deadline, "campaign never started"
            time.sleep(0.05)
        time.sleep(1.0)
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == INTERRUPT_EXIT_CODE, out.decode()
        assert os.path.exists(os.path.join(corpus, MANIFEST_NAME)), (
            "interrupted campaign must seal its manifest"
        )
