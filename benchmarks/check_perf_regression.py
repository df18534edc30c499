"""CI perf-regression gate: fresh BENCH_core.json vs the committed baseline.

CI runners and developer machines differ in absolute speed, so absolute
wall times are useless to diff.  What *is* machine-independent is each
comparison's internal ratio — the same binary runs both sides, on the
same box, in the same process.  This gate therefore compares ratios:

* ``macro.end_to_end_s.speedup`` — streaming+binary vs batch+JSON,
  end to end (record then analyze), in alternating pairs on one CPU
  (bench-core/7);
* ``dedup.speedup`` — the cycle search with duplicate rows collapsed
  (``find_cycles``) vs the same integer search without the collapse, on
  the loop-heavy macro, in alternating pairs on one CPU (bench-core/9;
  it replaced ``sharding.speedup``, the sharded search vs
  ``find_cycles``);
* ``macro.file_bytes.ratio`` — JSON vs binary trace size (fully
  deterministic, so any drop is a real format regression);
* ``prediction.decided_ratio`` — the fraction of registry replay
  candidates the sync-preserving prediction pass certifies or refutes
  without replay (pure trace analysis, fully deterministic — a drop
  means the predictor lost precision);
* ``prediction.early_speedup`` — ``predict_decisions`` over the registry
  survivors without ``promote_early`` vs with it (reports settle each
  defect key once), in alternating pairs on one CPU (bench-core/10);
* ``prediction.index_speedup`` — ``closure_index_for`` on dense ``.wtrc``
  files, the pure re-read vs the kernel's column re-read, in alternating
  pairs on one CPU (bench-core/11; null, so skipped, without a kernel);
* ``generator.native_speedup`` — ``Generator.run`` over every cycle of
  the same dense files, the pure relation (``SyncGraphBuilder.decide``
  on its tables) vs the native one (the kernel decides each ``Gs``),
  in alternating pairs on one CPU (bench-core/12; null, so skipped,
  without a kernel);
* ``macro.analyze_speedup.native`` — compiled analysis kernel vs the
  pure-Python streaming analyze on the same ``.wtrc`` macro (bench-core/4),
  in alternating pairs on one CPU (bench-core/6);
* ``macro.decode_ratio.ratio`` — in-memory streaming analyze of the
  macro trace over a decode-only pass of its ``.wtrc``, in alternating
  pairs on one CPU; it drops when the event decoder slows
  (bench-core/5).

Each timed ratio above is the median of its per-pair ratios over an even
number of alternating pairs, half in each order, so neither order
outnumbers the other (bench-core/8).

A fresh ratio more than ``--tolerance`` (default 25%) below the committed
baseline fails the gate.  When a regression is intentional (an accepted
trade-off), refresh the baseline in the same PR —

    python benchmarks/bench_core_micro.py --events 120000 --out BENCH_core.json

— or apply the ``perf-baseline-reset`` label to the PR, which skips this
gate (see .github/workflows/ci.yml).

Usage::

    python benchmarks/check_perf_regression.py FRESH.json \
        [--baseline BENCH_core.json] [--tolerance 0.25]
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

#: (label, path into the document) for every gated ratio.
GATED_RATIOS = [
    ("end-to-end streaming speedup", ("macro", "end_to_end_s", "speedup")),
    ("collapsed cycle search speedup", ("dedup", "speedup")),
    ("trace file size ratio", ("macro", "file_bytes", "ratio")),
    ("prediction decided ratio", ("prediction", "decided_ratio")),
    ("early promotion speedup", ("prediction", "early_speedup")),
    ("closure index speedup", ("prediction", "index_speedup")),
    ("Generator native decision speedup", ("generator", "native_speedup")),
    ("native analyze speedup", ("macro", "analyze_speedup", "native")),
    ("decode ratio", ("macro", "decode_ratio", "ratio")),
    # bench-serve/1 (BENCH_serve.json baselines, `--baseline BENCH_serve.json`).
    # Ratios absent from a bench-core baseline simply SKIP, so the two
    # documents share one gate script.
    ("fleet 2-worker ingestion speedup", ("scaling", "speedup_2v1")),
    ("fleet 4-worker ingestion speedup", ("scaling", "speedup_4v1")),
    ("fleet rollup identity", ("identity", "rollup_identical")),
]


def _lookup(doc: dict, path: tuple) -> Optional[float]:
    node = doc
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    # bench-core/4 records null for stages that could not run (e.g. the
    # native kernel without a C compiler): treat like a missing key.
    return None if node is None else float(node)


def check(fresh: dict, baseline: dict, tolerance: float) -> int:
    failures = 0
    for label, path in GATED_RATIOS:
        base = _lookup(baseline, path)
        new = _lookup(fresh, path)
        if base is None:
            # Baseline predates this metric (older schema): nothing to
            # regress against; the refreshed baseline will carry it.
            print(f"SKIP  {label}: not in baseline ({'.'.join(path)})")
            continue
        if new is None:
            print(f"FAIL  {label}: missing from fresh results")
            failures += 1
            continue
        floor = base * (1.0 - tolerance)
        verdict = "ok  " if new >= floor else "FAIL"
        print(
            f"{verdict}  {label}: fresh {new:.2f}x vs baseline {base:.2f}x "
            f"(floor {floor:.2f}x at {tolerance:.0%} tolerance)"
        )
        if new < floor:
            failures += 1
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly generated bench JSON")
    parser.add_argument(
        "--baseline",
        default="BENCH_core.json",
        help="committed baseline to diff against (default: BENCH_core.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional drop below the baseline ratio (default 0.25)",
    )
    args = parser.parse_args(argv)

    with open(args.fresh) as fh:
        fresh = json.load(fh)
    with open(args.baseline) as fh:
        baseline = json.load(fh)

    failures = check(fresh, baseline, args.tolerance)
    if failures:
        print(
            f"\n{failures} perf ratio(s) regressed >25% vs {args.baseline}. "
            "If intentional, refresh the baseline in this PR or apply the "
            "'perf-baseline-reset' label.",
            file=sys.stderr,
        )
        return 1
    print("\nno perf regressions vs baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
