"""Generate EXPERIMENTS.md: paper values vs this reproduction's measured
values for every table and figure.

``wolf reproduce --out EXPERIMENTS.md`` runs all four drivers and writes
the comparison document.  The paper's numbers are hard-coded from the
published tables; ours come from the drivers.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import List, Optional, Sequence

from repro.core.prediction import PredictionVerdict
from repro.core.report import WolfReport
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig10 import run_fig10
from repro.experiments.runner import (
    ExperimentSettings,
    run_wolf,
    select_benchmarks,
)
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2

#: Paper Table 1 (per defect): detected, FP, TP WOLF, TP DF, Unk WOLF, Unk DF.
PAPER_TABLE1 = {
    "cache4j": (0, 0, 0, 0, 0, 0),
    "Jigsaw": (30, 7, 6, 3, 17, 27),
    "JavaLogging": (2, 0, 2, 1, 0, 1),
    "ArrayList": (6, 0, 6, 3, 0, 3),
    "Stack": (6, 0, 6, 3, 0, 3),
    "LinkedList": (6, 0, 6, 3, 0, 3),
    "HashMap": (3, 1, 2, 2, 0, 1),
    "TreeMap": (3, 1, 2, 2, 0, 1),
    "WeakHashMap": (3, 1, 2, 2, 0, 1),
    "LinkedHashMap": (3, 1, 2, 2, 0, 1),
    "IdentityHashMap": (3, 1, 2, 2, 0, 1),
}

#: Paper Table 2 (per cycle): cycles, FP WOLF, TP WOLF, TP DF.
PAPER_TABLE2 = {
    "Jigsaw": (265, 83, 97, 35),
    "JavaLogging": (2, 0, 2, 1),
    "ArrayList": (9, 0, 9, 3),
    "Stack": (9, 0, 9, 3),
    "LinkedList": (9, 0, 9, 3),
    "HashMap": (4, 1, 3, 3),
    "TreeMap": (4, 1, 3, 3),
    "WeakHashMap": (4, 1, 3, 3),
    "LinkedHashMap": (4, 1, 3, 3),
    "IdentityHashMap": (4, 1, 3, 3),
}

#: Approximate WOLF/DF hit rates read off the paper's Figure 8 bars.
PAPER_FIG8 = {
    "Jigsaw": (0.45, 0.15),
    "JavaLogging": (1.0, 0.5),
    "ArrayList": (0.95, 0.35),
    "Stack": (0.95, 0.35),
    "LinkedList": (0.95, 0.35),
    "HashMap": (0.9, 0.6),
    "TreeMap": (0.9, 0.65),
    "WeakHashMap": (0.9, 0.65),
    "LinkedHashMap": (0.9, 0.6),
    "IdentityHashMap": (0.9, 0.6),
}


def _fmt(x: float) -> str:
    if x != x:  # NaN
        return "n/a"
    return f"{x:.2f}"


def total_forced_releases(report: WolfReport) -> int:
    """Times the replay scheduler hit Algorithm 4's force-release safety
    valve, summed over every replayed cycle (0 = fully faithful replays)."""
    return sum(
        cr.replay.forced_releases for cr in report.cycle_reports if cr.replay
    )


def _fmt_predictions(rep: WolfReport) -> str:
    """``cert/ref/und`` verdict counts, or ``off`` when the prediction
    pass did not run for this report."""
    if rep.predict == "off":
        return "off"
    return (
        f"{rep.count_predictions(PredictionVerdict.CERTIFIED)}"
        f"/{rep.count_predictions(PredictionVerdict.REFUTED)}"
        f"/{rep.count_predictions(PredictionVerdict.UNDECIDED)}"
    )


def render_health_section(reports: Sequence[WolfReport]) -> List[str]:
    """Markdown lines for the run-health table: supervision faults,
    engine degradation, replay force-releases and prediction verdicts
    per benchmark — so a degraded or faulty run is visible in the
    report, not just in the Python objects."""
    out = [
        "## Run health — supervision, degradation, replay fidelity",
        "",
        "| Benchmark | Workers | Faults (error/timeout/crashed) | "
        "Forced releases | Predicted (cert/ref/und) | Degradation |",
        "|---|---|---|---|---|---|",
    ]
    for rep in reports:
        faults = (
            f"{rep.count_faults('error')}/{rep.count_faults('timeout')}"
            f"/{rep.count_faults('crashed')}"
        )
        out.append(
            f"| {rep.program} | {rep.workers} | {faults} "
            f"| {total_forced_releases(rep)} "
            f"| {_fmt_predictions(rep)} "
            f"| {rep.fallback_reason or 'none'} |"
        )
    total_faults = sum(rep.n_faults for rep in reports)
    out.append("")
    out.append(
        f"{total_faults} task(s) lost to faults across all benchmarks; "
        "a faulted seed or cycle is recorded above and excluded from the "
        "counts, never silently dropped."
        if total_faults
        else "No supervised task faulted; every seed and cycle above is "
        "backed by a completed execution."
    )
    demoted = sum(rep.n_demoted_certificates for rep in reports)
    disagreements = sum(rep.prediction_disagreements for rep in reports)
    if any(rep.predict != "off" for rep in reports):
        out.append("")
        out.append(
            f"Prediction soundness: {disagreements} disagreement(s) "
            f"(certified-but-missed or refuted-but-reproduced), "
            f"{demoted} certificate(s) demoted by witness divergence."
        )
    out.append("")
    return out


def render_crossval_section(
    names: Optional[Sequence[str]] = None,
) -> List[str]:
    """Markdown lines for the static-vs-dynamic cross-validation matrix
    (the ``wolf analyze`` verdicts, embedded in EXPERIMENTS.md)."""
    from repro.analysis import run_crossval

    rep = run_crossval(names, sanitize=True)
    g = rep.graph
    out = [
        "## Cross-validation — static lock-order analysis vs dynamic detection",
        "",
        f"Static pass: {rep.corpus_files} workload files analyzed AST-only "
        f"({len(g.tokens)} lock tokens, {len(g.edges)} order edges, "
        f"{len(rep.all_cycles)} candidate cycles).",
        "",
        "| Benchmark | Dynamic defects | Static candidates | Confirmed "
        "by both | Dynamic-only | Static-only | Sanitizer |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in rep.benchmarks:
        out.append(
            f"| {row.name} | {len(row.dynamic_keys)} "
            f"| {len(row.static_cycles)} | {len(row.confirmed)} "
            f"| {len(row.dynamic_only)} | {len(row.static_only)} "
            f"| {len(row.diagnostics)} |"
        )
    out.append("")
    out.append(
        f"{rep.n_confirmed} dynamic defect(s) are confirmed by an "
        "independent static witness; static-only rows quantify the recall "
        "bound of single-schedule dynamic detection, dynamic-only rows the "
        "aliasing conservatism of the static abstraction. "
        f"{rep.n_diagnostics} sanitizer diagnostic(s)."
    )
    out.append("")
    return out


def generate_markdown(
    names: Optional[Sequence[str]] = None,
    settings: Optional[ExperimentSettings] = None,
    *,
    fig8_runs: int = 30,
) -> str:
    settings = settings or ExperimentSettings(replay_attempts=8)
    t0 = time.time()
    out: List[str] = []
    out.append("# EXPERIMENTS — paper vs. this reproduction")
    out.append("")
    out.append(
        "Generated by `wolf reproduce`. Absolute counts differ where our "
        "workload models are smaller than the Java originals (see "
        "DESIGN.md §2); the claims being reproduced are the *shapes*: "
        "which cycles each stage eliminates, who reproduces more, and "
        "where the overheads sit."
    )
    out.append("")

    # ---- Table 1 -------------------------------------------------------
    rows1 = run_table1(names, settings, measure_slowdown=True)
    out.append("## Table 1 — defects by unique source locations")
    out.append("")
    out.append(
        "| Benchmark | Detected (paper/ours) | FP (paper/ours) | TP WOLF "
        "(paper/ours) | TP DF (paper/ours) | Unk WOLF (paper/ours) | "
        "Slowdown (ours) | SL (ours) | avg Vs (ours) |"
    )
    out.append("|---|---|---|---|---|---|---|---|---|")
    for r in rows1:
        p = PAPER_TABLE1.get(r.benchmark, ("?",) * 6)
        out.append(
            f"| {r.benchmark} | {p[0]} / {r.detected} | {p[1]} / {r.fp_total} "
            f"| {p[2]} / {r.tp_wolf} | {p[3]} / {r.tp_df} "
            f"| {p[4]} / {r.unknown_wolf} | {_fmt(r.slowdown)}x "
            f"| {_fmt(r.sl) if r.sl else 'n/a'} "
            f"| {_fmt(r.vs) if r.vs else 'n/a'} |"
        )
    det = sum(r.detected for r in rows1)
    if det:
        out.append("")
        out.append(
            f"Cumulative (ours): {det} defects; "
            f"{100*sum(r.fp_total for r in rows1)/det:.1f}% false positives "
            f"(paper: 18.5%), "
            f"{100*sum(r.tp_wolf for r in rows1)/det:.1f}% confirmed by WOLF "
            f"(paper: 55.4%) vs "
            f"{100*sum(r.tp_df for r in rows1)/det:.1f}% by DeadlockFuzzer "
            f"(paper: 35.4%)."
        )
    out.append("")

    # ---- Table 2 --------------------------------------------------------
    rows2 = run_table2(names, settings)
    out.append("## Table 2 — comparison by detected cycles")
    out.append("")
    out.append(
        "| Benchmark | Cycles (paper/ours) | FP WOLF (paper/ours) | "
        "TP WOLF (paper/ours) | TP DF (paper/ours) |"
    )
    out.append("|---|---|---|---|---|")
    for r in rows2:
        p = PAPER_TABLE2.get(r.benchmark, ("?",) * 4)
        out.append(
            f"| {r.benchmark} | {p[0]} / {r.cycles} | {p[1]} / {r.fp_wolf} "
            f"| {p[2]} / {r.tp_wolf} | {p[3]} / {r.tp_df} |"
        )
    cyc = sum(r.cycles for r in rows2)
    if cyc:
        out.append("")
        out.append(
            f"Cumulative (ours): {cyc} cycles; WOLF confirms "
            f"{100*sum(r.tp_wolf for r in rows2)/cyc:.1f}% (paper: 44.9%) vs "
            f"DF {100*sum(r.tp_df for r in rows2)/cyc:.1f}% (paper: 19.1%)."
        )
    out.append("")

    # ---- Figure 8 -----------------------------------------------------------
    fig8_names = [n for n in (names or PAPER_FIG8) if n != "cache4j"]
    rows8 = run_fig8(fig8_names, settings, n_runs=fig8_runs)
    out.append(f"## Figure 8 — hit rates ({fig8_runs} replays per deadlock)")
    out.append("")
    out.append("| Benchmark | WOLF (paper≈/ours) | DF (paper≈/ours) |")
    out.append("|---|---|---|")
    for r in rows8:
        p = PAPER_FIG8.get(r.benchmark, (float("nan"), float("nan")))
        out.append(
            f"| {r.benchmark} | {_fmt(p[0])} / {_fmt(r.wolf)} "
            f"| {_fmt(p[1])} / {_fmt(r.df)} |"
        )
    out.append("")
    dominated = all(r.wolf >= r.df for r in rows8)
    out.append(
        f"WOLF's hit rate dominates DF's on every benchmark: "
        f"{'reproduced' if dominated else 'NOT reproduced'} (paper: yes)."
    )
    out.append("")

    # ---- Figure 10 ------------------------------------------------------------
    rows10 = run_fig10(names, settings, replays_per_cycle=3)
    out.append("## Figure 10 — overheads normalized to DeadlockFuzzer")
    out.append("")
    out.append("| Benchmark | Detection WOLF/DF | Reproduction WOLF/DF |")
    out.append("|---|---|---|")
    for r in rows10:
        out.append(
            f"| {r.benchmark} | {_fmt(r.detection_ratio)} "
            f"| {_fmt(r.reproduction_ratio)} |"
        )
    out.append("")
    out.append(
        "Paper shape: detection ≈1.1x (the Pruner/Generator add ~10%), "
        "reproduction between 0.8x and 2.1x depending on how much new "
        "ground WOLF's replay covers."
    )
    out.append("")
    out.append(
        "Substrate caveat: our simulated executions finish in "
        "milliseconds, so WOLF's per-cycle `Gs` construction (~0.5 ms per "
        "cycle, absent in DF) is visible in the detection ratio for the "
        "cycle-heavy list benchmarks; against the paper's seconds-long "
        "Java executions the same absolute cost is the ~10% they report."
    )
    out.append("")

    # ---- Cross-validation ----------------------------------------------
    out.extend(render_crossval_section(names))

    # ---- Run health -----------------------------------------------------
    # Predict in filter mode here (only here) so the health table shows
    # the verdict split and witness-replay fidelity without perturbing
    # the paper-comparison tables above.
    health_settings = replace(settings, predict="filter")
    health_reports = [
        run_wolf(b, health_settings) for b in select_benchmarks(names)
    ]
    out.extend(render_health_section(health_reports))

    out.append(f"_Total generation time: {time.time()-t0:.1f}s._")
    out.append("")
    return "\n".join(out)
