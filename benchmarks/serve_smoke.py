"""CI smoke for the fleet-mode ingestion daemon (`wolf serve`).

One real daemon process, eight concurrent producers over the unix
socket — six honest, two chaos (one shipping garbage bytes, one killing
its connection mid-chunk and never returning).  The gate:

* every healthy stream is analyzed, its report byte-identical to the
  batch analyzer (``wolf analyze-trace --json``) on the same ``.wtrc``;
* both chaos streams are quarantined under their expected taxonomy
  codes (``unreadable``; ``aborted`` at drain);
* ``wolf serve --healthz`` and ``wolf serve --status`` answer while the
  daemon is live, and the stats document accounts for every stream;
* SIGTERM drains cleanly: exit status 0 and a sealed ``run_manifest.json``
  whose totals match.

Then a two-worker fleet (``wolf serve --workers 2 --tcp 127.0.0.1:0``)
takes the six healthy streams on its public TCP port, where the
supervisor routes each to the worker that owns its stream id.  The gate:
each worker's report is byte-identical to ``wolf analyze-trace --json``,
``--status`` answers over TCP, one ``wolf fleet status`` finds every
worker up with no internal error, SIGTERM exits 0, and the merged
``run_manifest.json`` totals are right.

Exit status: 0 on success, 1 with a diagnostic on any violation.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.core.pipeline import run_detection  # noqa: E402
from repro.runtime.tracefile import write_trace  # noqa: E402
from repro.serve import (  # noqa: E402
    FLEET_NAME,
    RUN_MANIFEST_NAME,
    chaos_client,
    send_trace,
    shard_of,
)
from repro.workloads.registry import all_benchmarks  # noqa: E402

HEALTHY = 6


def wolf(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env,
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise RuntimeError(f"wolf {' '.join(args)} failed:\n{proc.stderr}\n{proc.stdout}")
    return proc


def fail(msg: str) -> int:
    print(f"FAIL: {msg}", file=sys.stderr)
    return 1


def ship_healthy(traces, **where) -> dict:
    """The six honest producers, concurrently: stream id -> SendResult."""
    results: dict = {}

    def honest(i: int) -> None:
        results[f"s{i}"] = send_trace(traces[i % len(traces)], f"s{i}", **where)

    threads = [threading.Thread(target=honest, args=(i,)) for i in range(HEALTHY)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    return results


def fleet_smoke(tmp: str, traces, batch: dict):
    """The two-worker fleet over TCP; a failure message, or None."""
    out = os.path.join(tmp, "fleet")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    fleet = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "2",
         "--tcp", "127.0.0.1:0", "--out", out],
        env=env,
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        # fleet.json names the bound port once the router listens; a
        # healthz answer through it means the drain handler is installed.
        deadline = time.monotonic() + 60
        while True:
            try:
                with open(os.path.join(out, FLEET_NAME)) as fh:
                    tcp = json.load(fh)["tcp"]
            except (OSError, ValueError):
                tcp = None
            if tcp is not None:
                addr = f"{tcp[0]}:{tcp[1]}"
                probe = wolf("serve", "--tcp", addr, "--healthz", check=False)
                if probe.returncode == 0 and '"status": "ok"' in probe.stdout:
                    break
            if fleet.poll() is not None:
                return f"fleet died at startup:\n{fleet.stdout.read()}"
            if time.monotonic() > deadline:
                return "fleet did not come up"
            time.sleep(0.1)

        results = ship_healthy(traces, tcp=(tcp[0], tcp[1]))
        for sid, r in sorted(results.items()):
            if not r.ok:
                return f"fleet stream {sid} failed: {r.error_code} {r.response}"

        status = json.loads(wolf("serve", "--tcp", addr, "--status").stdout)
        if status["worker"] != 0 or status["workers"] != 2:
            return f"--status over TCP did not reach worker 0: {status}"
        # One `wolf fleet status` probes every worker.
        probes = json.loads(wolf("fleet", "status", out).stdout)["probes"]
        if sorted(probes) != ["w0", "w1"]:
            return f"fleet status probed {sorted(probes)}"
        for k, probe in sorted(probes.items()):
            if probe.get("status") != "ok" or probe.get("internal_errors") != 0:
                return f"worker {k} unhealthy: {probe}"

        fleet.send_signal(signal.SIGTERM)
        code = fleet.wait(timeout=60)
        if code != 0:
            return f"fleet drain exited {code}:\n{fleet.stdout.read()}"
    finally:
        if fleet.poll() is None:
            fleet.kill()
            fleet.wait(timeout=10)

    with open(os.path.join(out, RUN_MANIFEST_NAME)) as fh:
        totals = json.load(fh)["totals"]
    want = {
        "streams": HEALTHY,
        "analyzed": HEALTHY,
        "quarantined": 0,
        "rejected": 0,
        "events": sum(r.response["events"] for r in results.values()),
        "defect_keys": sum(r.response["defect_keys"] for r in results.values()),
    }
    if totals != want:
        return f"merged manifest totals {totals} != {want}"
    for i in range(HEALTHY):
        report = os.path.join(
            out, "workers", f"w{shard_of(f's{i}', 2)}", "reports", f"s{i}.json"
        )
        with open(report) as fh:
            if fh.read() != batch[traces[i % len(traces)]]:
                return f"fleet report for s{i} diverges from batch analyze-trace"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--keep", action="store_true", help="keep the run dir")
    args = parser.parse_args(argv)

    tmp = tempfile.mkdtemp(prefix="serve-smoke-")
    sock = os.path.join(tmp, "wolf.sock")
    out = os.path.join(tmp, "run")

    # Fabricate real traces from the benchmark registry.
    benches = all_benchmarks()[:3]
    traces = []
    for b in benches:
        run = run_detection(b.program, b.detect_seed, name=b.name)
        path = os.path.join(tmp, f"{b.name}.wtrc")
        write_trace(run.trace, path, events_per_chunk=32)
        traces.append(path)

    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock, "--out", out],
        env=env,
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while True:
            probe = wolf("serve", "--socket", sock, "--healthz", check=False)
            if probe.returncode == 0 and '"status": "ok"' in probe.stdout:
                break
            if daemon.poll() is not None:
                return fail(f"daemon died at startup:\n{daemon.stdout.read()}")
            if time.monotonic() > deadline:
                return fail("daemon did not come up")
            time.sleep(0.1)

        # Eight concurrent producers: six honest, two chaos.
        results: dict = {}

        def chaos(mode: str, sid: str) -> None:
            results[sid] = chaos_client(mode, traces[0], sid, socket_path=sock)

        threads = [
            threading.Thread(target=chaos, args=("garbage", "chaos-garbage")),
            threading.Thread(target=chaos, args=("kill", "chaos-kill")),
        ]
        for t in threads:
            t.start()
        results.update(ship_healthy(traces, socket_path=sock))
        for t in threads:
            t.join(timeout=120)

        for i in range(HEALTHY):
            r = results[f"s{i}"]
            if not r.ok:
                return fail(f"healthy stream s{i} failed: {r.error_code} {r.response}")
        garbage = results["chaos-garbage"]
        if not garbage.err or garbage.err["code"] != "unreadable":
            return fail(f"garbage stream misclassified: {garbage.err}")

        # Introspection through the CLI while streams are settled/parked.
        status = json.loads(wolf("serve", "--socket", sock, "--status").stdout)
        if status["streams"]["analyzed"] != HEALTHY:
            return fail(f"status undercounts analyzed: {status['streams']}")
        if status["internal_errors"] != 0:
            return fail(f"internal errors under chaos: {status['internal_errors']}")

        # Graceful drain: SIGTERM -> exit 0 + sealed manifest.
        daemon.send_signal(signal.SIGTERM)
        code = daemon.wait(timeout=60)
        if code != 0:
            return fail(f"drain exited {code}:\n{daemon.stdout.read()}")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)

    manifest_path = os.path.join(out, RUN_MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        return fail("no sealed run_manifest.json after drain")
    with open(manifest_path) as fh:
        doc = json.load(fh)
    rows = {r["stream"]: r for r in doc["streams"]}
    if doc["totals"]["analyzed"] != HEALTHY:
        return fail(f"manifest totals wrong: {doc['totals']}")
    if rows.get("chaos-garbage", {}).get("code") != "unreadable":
        return fail(f"chaos-garbage row wrong: {rows.get('chaos-garbage')}")
    if rows.get("chaos-kill", {}).get("code") != "aborted":
        return fail(f"chaos-kill row wrong: {rows.get('chaos-kill')}")

    # Byte-identity gate: daemon report == `wolf analyze-trace --json`.
    batch = {t: wolf("analyze-trace", t, "--json").stdout for t in traces}
    for i in range(HEALTHY):
        with open(os.path.join(out, "reports", f"s{i}.json"), "rb") as fh:
            daemon_bytes = fh.read()
        if daemon_bytes.decode() != batch[traces[i % len(traces)]]:
            return fail(f"report for s{i} diverges from batch analyze-trace")

    problem = fleet_smoke(tmp, traces, batch)
    if problem is not None:
        return fail(problem)

    print(
        f"serve-smoke OK: {HEALTHY} healthy analyzed byte-identical, "
        f"2 chaos quarantined ({rows['chaos-garbage']['code']}, "
        f"{rows['chaos-kill']['code']}), drained with exit 0; "
        f"2-worker fleet over TCP analyzed {HEALTHY} byte-identical, "
        f"drained with exit 0"
    )
    if args.keep:
        print(f"run dir kept at {out}")
    else:
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
