"""Cross-validation: static candidate deadlocks vs dynamic cycles (pass 3).

For every registry workload this harness

* runs one detection pass (``run_detection`` + ``ExtendedDetector``) and
  collects the dynamic defect keys — the per-cycle sets of deadlocking
  acquisition sites;
* analyzes the workload corpus statically (once, AST-only) and restricts
  the static cycles to the modules the benchmark's program can reach (its
  defining module plus the transitive corpus-import closure);
* intersects the two: a dynamic defect is **confirmed-by-both** when some
  static cycle's site patterns cover every site in its key; uncovered
  dynamic defects are **dynamic-only** (the static abstraction missed an
  order, e.g. through an unanalyzable alias); static cycles covering no
  dynamic defect are **static-only** (the schedule never exercised them —
  exactly the recall gap the static pass exists to expose);
* runs the trace tail (Pruner → Generator) plus the sync-preserving
  **prediction** pass over every surviving cycle, and (``replay=True``)
  one **replay** per dynamic defect key — witness-steered when the key
  certified — so every key carries a :class:`DefectTriple` verdict from
  all three oracles: static / predicted / replayed;
* optionally (``sanitize=True``) runs the trace sanitizer (including the
  ``cycle-closure`` invariant) over the detection trace and attaches its
  diagnostics.

The triples aggregate into the three-way agreement matrix ``wolf
analyze`` renders, whose soundness corner must stay empty: a CERTIFIED
key that replay misses without witness divergence, or a REFUTED key that
replay reproduces, is a prediction soundness violation.

The result renders to deterministic markdown (:func:`render_crossval`):
no timings, no timestamps — two runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.lockgraph import (
    StaticCycle,
    StaticLockOrderGraph,
    build_lock_order_graph,
)
from repro.analysis.locksets import CorpusSummary, analyze_corpus, site_matches
from repro.analysis.sanitizer import SanitizerDiagnostic, sanitize_trace

#: A dynamic defect key, sorted for deterministic rendering.
DefectKey = Tuple[str, ...]

#: Column order of the replay axis in the agreement matrix.
REPLAY_AXIS: Tuple[str, ...] = ("reproduced", "missed", "skipped")
#: Row order of the prediction axis in the agreement matrix.
PREDICT_AXIS: Tuple[str, ...] = ("certified", "refuted", "undecided", "false")


@dataclass(frozen=True)
class DefectTriple:
    """One dynamic defect key seen through all three oracles."""

    key: DefectKey
    #: "covered" (a static cycle covers every site) or "uncovered".
    static: str
    #: "certified" / "refuted" / "undecided" (prediction verdicts) or
    #: "false" (every cycle of the key died in the Pruner/Generator).
    predicted: str
    #: "reproduced" / "missed" (replay ran) or "skipped" (it did not).
    replayed: str
    #: A certified key's witness diverged at replay (untracked
    #: synchronization demoted the certificate — not a soundness bug).
    diverged: bool = False

    @property
    def soundness_violation(self) -> bool:
        """True when prediction and replay genuinely disagree."""
        if self.predicted == "certified":
            return self.replayed == "missed" and not self.diverged
        if self.predicted == "refuted":
            return self.replayed == "reproduced"
        return False


@dataclass
class BenchmarkCrossVal:
    """Cross-validation verdicts for one workload."""

    name: str
    seed: int
    dynamic_keys: List[DefectKey] = field(default_factory=list)
    static_cycles: List[StaticCycle] = field(default_factory=list)
    #: (dynamic key, static cycle that covers it) — confirmed-by-both.
    confirmed: List[Tuple[DefectKey, StaticCycle]] = field(default_factory=list)
    dynamic_only: List[DefectKey] = field(default_factory=list)
    static_only: List[StaticCycle] = field(default_factory=list)
    #: One triple per dynamic defect key (prediction pass enabled).
    triples: List[DefectTriple] = field(default_factory=list)
    diagnostics: List[SanitizerDiagnostic] = field(default_factory=list)


@dataclass
class CrossValReport:
    """The full matrix plus the shared static artifacts."""

    benchmarks: List[BenchmarkCrossVal] = field(default_factory=list)
    corpus_files: int = 0
    graph: StaticLockOrderGraph = field(default_factory=StaticLockOrderGraph)
    all_cycles: List[StaticCycle] = field(default_factory=list)
    sanitized: bool = False
    predicted: bool = False
    replayed: bool = False

    @property
    def n_diagnostics(self) -> int:
        return sum(len(b.diagnostics) for b in self.benchmarks)

    @property
    def n_confirmed(self) -> int:
        return sum(len(b.confirmed) for b in self.benchmarks)

    @property
    def triples(self) -> List[DefectTriple]:
        return [t for b in self.benchmarks for t in b.triples]

    def matrix(self) -> Dict[Tuple[str, str], int]:
        """(predicted, replayed) → count over every defect triple."""
        out: Dict[Tuple[str, str], int] = {}
        for t in self.triples:
            out[(t.predicted, t.replayed)] = (
                out.get((t.predicted, t.replayed), 0) + 1
            )
        return out

    @property
    def soundness_violations(self) -> List[DefectTriple]:
        return [t for t in self.triples if t.soundness_violation]


def covers(cycle: StaticCycle, key: FrozenSet[str]) -> bool:
    """True when every dynamic site in ``key`` matches one of the static
    cycle's site patterns."""
    return all(
        any(site_matches(pattern, site) for pattern in cycle.sites)
        for site in key
    )


def _module_stem(program: object) -> str:
    module = getattr(program, "__module__", None)
    if not isinstance(module, str):
        module = type(program).__module__
    return module.rsplit(".", 1)[-1]


def _import_closure(corpus: CorpusSummary, stem: str) -> Set[str]:
    closure: Set[str] = set()
    work = [stem]
    while work:
        mod = work.pop()
        if mod in closure:
            continue
        closure.add(mod)
        work.extend(corpus.imports.get(mod, []))
    return closure


def _cycle_modules(cycle: StaticCycle) -> Set[str]:
    return {e.function.split(".", 1)[0] for e in cycle.edges}


def static_candidates_for(
    corpus: CorpusSummary, cycles: Sequence[StaticCycle], program: object
) -> List[StaticCycle]:
    """Static cycles whose witness edges all live in modules reachable
    from the program's defining module (AST import closure — the program
    itself is never imported by the analysis; its module name is just the
    filter key)."""
    closure = _import_closure(corpus, _module_stem(program))
    return [c for c in cycles if _cycle_modules(c) <= closure]


def _predict_benchmark(bench, run, run_seed: int, detection, replay: bool):
    """Prediction + (optional) replay for one benchmark's cycles.

    Returns ``(triples_by_key, index)`` where ``triples_by_key`` maps
    each dynamic defect key to its ``(predicted, replayed, diverged)``
    partial triple — the static axis is filled in by the caller.  One
    replay runs per key (witness-steered when the key certified), not
    per cycle: feasibility is a property of the site set, which is what
    ``is_hit`` checks.
    """
    from repro.core.generator import Generator, GeneratorVerdict
    from repro.core.parallel import predict_decisions
    from repro.core.prediction import ClosureIndex
    from repro.core.pruner import Pruner
    from repro.core.replayer import Replayer

    prune = Pruner(detection.vclocks).prune(detection.cycles)
    gen = Generator(detection.relation).run(prune.survivors)
    # Always the full index, never closure_index_for's empty one: the
    # caller reuses it for check_cycle_closure over every cycle.
    index = ClosureIndex.from_events(run.trace)
    preds = predict_decisions(index, gen.decisions)

    by_key: Dict[DefectKey, List] = {}
    for dec, pred in zip(gen.decisions, preds):
        key = tuple(sorted(dec.cycle.sites))
        by_key.setdefault(key, []).append((dec, pred))
    # Cycles the Pruner killed never reach the Generator; their keys may
    # still be dynamic defect keys — classified "false" below.
    triples: Dict[DefectKey, Tuple[str, str, bool]] = {}
    for key, rows in sorted(by_key.items()):
        unknown = [
            (d, p)
            for d, p in rows
            if d.verdict is GeneratorVerdict.UNKNOWN and p is not None
        ]
        if not unknown:
            triples[key] = ("false", "skipped", False)
            continue
        verdicts = {p.verdict.value for _, p in unknown}
        if "certified" in verdicts:
            predicted = "certified"
        elif "undecided" in verdicts:
            predicted = "undecided"
        else:
            predicted = "refuted"
        replayed, diverged = "skipped", False
        if replay:
            # Representative decision: the certified one carries the
            # witness; otherwise the first survivor in generator order.
            dec, pred = next(
                (
                    (d, p)
                    for d, p in unknown
                    if p.verdict.value == predicted
                ),
                unknown[0],
            )
            rep = Replayer(
                bench.program,
                name=bench.name,
                attempts=bench.replay_attempts,
                seed=run_seed,
            )
            out = rep.replay(dec, witness=pred.witness)
            replayed = "reproduced" if out.reproduced else "missed"
            diverged = bool(out.witness_diverged)
        triples[key] = (predicted, replayed, diverged)
    return triples, index


def run_crossval(
    names: Optional[Sequence[str]] = None,
    *,
    seed: Optional[int] = None,
    sanitize: bool = False,
    predict: bool = True,
    replay: bool = True,
    max_cycles_per_benchmark: int = 64,
) -> CrossValReport:
    """Cross-validate ``names`` (default: the full registry)."""
    # Imported lazily: the analysis package itself must not drag in the
    # workload modules (the static side never imports workload code).
    from repro.core.detector import ExtendedDetector
    from repro.core.pipeline import run_detection
    from repro.workloads.registry import all_benchmarks, get_benchmark

    benchmarks = (
        [get_benchmark(n) for n in names] if names else all_benchmarks()
    )

    corpus_dir = _workloads_dir()
    files = sorted(corpus_dir.glob("*.py"))
    corpus = analyze_corpus(files)
    graph = build_lock_order_graph(corpus)
    max_len = max((b.max_cycle_length for b in benchmarks), default=3)
    all_cycles = graph.enumerate_cycles(max_length=max(max_len, 3))

    report = CrossValReport(
        corpus_files=len(files),
        graph=graph,
        all_cycles=all_cycles,
        sanitized=sanitize,
        predicted=predict,
        replayed=predict and replay,
    )
    for b in benchmarks:
        run_seed = b.detect_seed if seed is None else seed
        run = run_detection(b.program, run_seed, name=b.name)
        detection = ExtendedDetector(max_length=b.max_cycle_length).analyze(
            run.trace
        )
        row = BenchmarkCrossVal(name=b.name, seed=run_seed)
        row.dynamic_keys = sorted(
            tuple(sorted(k)) for k in detection.defect_keys()
        )
        key_triples, index = (
            _predict_benchmark(b, run, run_seed, detection, replay)
            if predict
            else ({}, None)
        )
        row.static_cycles = static_candidates_for(
            corpus, all_cycles, b.program
        )[:max_cycles_per_benchmark]
        used: Set[int] = set()
        for key in row.dynamic_keys:
            match = next(
                (
                    (i, c)
                    for i, c in enumerate(row.static_cycles)
                    if covers(c, frozenset(key))
                ),
                None,
            )
            if match is None:
                row.dynamic_only.append(key)
            else:
                used.add(match[0])
                row.confirmed.append((key, match[1]))
        row.static_only = [
            c for i, c in enumerate(row.static_cycles) if i not in used
        ]
        if predict:
            covered = {key for key, _ in row.confirmed}
            for key in row.dynamic_keys:
                predicted, replayed, diverged = key_triples.get(
                    key, ("false", "skipped", False)
                )
                row.triples.append(
                    DefectTriple(
                        key=key,
                        static="covered" if key in covered else "uncovered",
                        predicted=predicted,
                        replayed=replayed,
                        diverged=diverged,
                    )
                )
        if sanitize:
            row.diagnostics = sanitize_trace(run.trace)
            if index is not None:
                from repro.analysis.sanitizer import check_cycle_closure

                row.diagnostics.extend(
                    check_cycle_closure(index, detection.cycles)
                )
        report.benchmarks.append(row)
    return report


def _workloads_dir() -> Path:
    import repro.workloads as workloads

    return Path(workloads.__file__).resolve().parent


def _fmt_key(key: DefectKey) -> str:
    return "{" + ", ".join(key) + "}"


def _render_matrix(report: CrossValReport) -> List[str]:
    """The three-way agreement matrix over every defect triple."""
    out: List[str] = []
    matrix = report.matrix()
    triples = report.triples
    out.append("## Three-way agreement (static / predicted / replayed)")
    out.append("")
    out.append("| Predicted | Keys | Static-covered | " + " | ".join(REPLAY_AXIS) + " |")
    out.append("|---|---|---|" + "---|" * len(REPLAY_AXIS))
    for verdict in PREDICT_AXIS:
        keys = [t for t in triples if t.predicted == verdict]
        covered = sum(1 for t in keys if t.static == "covered")
        cells = " | ".join(
            str(matrix.get((verdict, r), 0)) for r in REPLAY_AXIS
        )
        out.append(f"| {verdict} | {len(keys)} | {covered} | {cells} |")
    out.append("")
    decided = sum(
        1 for t in triples if t.predicted in ("certified", "refuted")
    )
    if triples:
        out.append(
            f"{decided}/{len(triples)} dynamic defect keys decided without "
            "replay "
            f"({100.0 * decided / len(triples):.1f}% — certified or refuted)."
        )
    demoted = [
        t
        for t in triples
        if t.predicted == "certified" and t.replayed == "missed" and t.diverged
    ]
    if demoted:
        out.append(
            f"{len(demoted)} certified key(s) demoted: the witness diverged "
            "at replay (untracked synchronization), and the Gs-steered "
            "fallback did not reproduce within the attempt budget."
        )
    violations = report.soundness_violations
    if violations:
        out.append(
            f"{len(violations)} SOUNDNESS DISAGREEMENT(S) — certified keys "
            "missed without divergence, or refuted keys reproduced:"
        )
        for t in violations:
            out.append(
                f"- {_fmt_key(t.key)}: predicted {t.predicted}, "
                f"replay {t.replayed}"
            )
    elif report.replayed:
        out.append(
            "0 soundness disagreements: no certified key was missed "
            "without witness divergence, no refuted key was reproduced."
        )
    out.append("")
    return out


def render_crossval(report: CrossValReport) -> str:
    """Deterministic markdown for the cross-validation matrix."""
    out: List[str] = []
    out.append("# Cross-validation — static lock-order analysis vs dynamic detection")
    out.append("")
    g = report.graph
    out.append(
        f"Static corpus: {report.corpus_files} files, {len(g.tokens)} lock "
        f"tokens, {len(g.edges)} order edges, {len(report.all_cycles)} "
        "candidate cycles (AST-only; workload code is never imported)."
    )
    out.append("")
    header = (
        "| Benchmark | Dynamic defects | Static candidates | Confirmed | "
        "Dynamic-only | Static-only |"
    )
    rule = "|---|---|---|---|---|---|"
    if report.predicted:
        header += " Certified | Refuted | Undecided |"
        rule += "---|---|---|"
    if report.replayed:
        header += " Reproduced |"
        rule += "---|"
    if report.sanitized:
        header += " Sanitizer diagnostics |"
        rule += "---|"
    out.append(header)
    out.append(rule)
    for row in report.benchmarks:
        line = (
            f"| {row.name} | {len(row.dynamic_keys)} "
            f"| {len(row.static_cycles)} | {len(row.confirmed)} "
            f"| {len(row.dynamic_only)} | {len(row.static_only)} |"
        )
        if report.predicted:
            n = {v: 0 for v in PREDICT_AXIS}
            for t in row.triples:
                n[t.predicted] += 1
            line += (
                f" {n['certified']} | {n['refuted']} | {n['undecided']} |"
            )
        if report.replayed:
            repro = sum(1 for t in row.triples if t.replayed == "reproduced")
            line += f" {repro} |"
        if report.sanitized:
            line += f" {len(row.diagnostics)} |"
        out.append(line)
    out.append("")
    if report.predicted:
        out.extend(_render_matrix(report))
    for row in report.benchmarks:
        details: List[str] = []
        for key, cycle in row.confirmed:
            details.append(
                f"- **confirmed** {_fmt_key(key)} ⇐ static {cycle.describe()}"
            )
        for key in row.dynamic_only:
            details.append(
                f"- **dynamic-only** {_fmt_key(key)} — no static cycle "
                "covers these sites"
            )
        for cycle in row.static_only:
            details.append(
                f"- **static-only** {cycle.describe()} — not exercised by "
                f"the recorded schedule (seed {row.seed})"
            )
        for t in row.triples:
            parts = [f"static {t.static}", f"predicted {t.predicted}"]
            if t.replayed != "skipped":
                tail = t.replayed
                if t.diverged:
                    tail += " (witness diverged)"
                parts.append(f"replay {tail}")
            marker = " ⚠ SOUNDNESS" if t.soundness_violation else ""
            details.append(
                f"- **three-way** {_fmt_key(t.key)} — "
                + ", ".join(parts)
                + marker
            )
        for diag in row.diagnostics:
            details.append(f"- **sanitizer** {diag.pretty()}")
        if details:
            out.append(f"## {row.name}")
            out.append("")
            out.extend(details)
            out.append("")
    if report.sanitized:
        out.append(
            f"{report.n_diagnostics} sanitizer diagnostic(s) across all "
            "detection traces."
        )
        out.append("")
    return "\n".join(out)
