"""Command-line interface: ``wolf <command>`` (or ``python -m repro``).

Commands:

* ``wolf detect <benchmark>`` — run the full WOLF pipeline on a benchmark
  and print the classification report;
* ``wolf analyze`` — static lock-order analysis of the workload corpus,
  cross-validated against the dynamic detector (``--sanitize`` adds the
  trace sanitizer and fails on any diagnostic);
* ``wolf trace record|pack|unpack|info`` — record detection traces to JSON
  or compact binary (``.wtrc``), convert between the two, and summarize a
  binary trace by streaming it;
* ``wolf analyze-trace <file.wtrc>`` — offline analysis of a saved
  binary trace, one event at a time without materializing the event
  list; ``--backend`` picks the compiled kernel or pure Python (JSON
  traces go through ``trace pack`` first);
* ``wolf corpus build|minimize|validate|gate`` — run the fuzzing campaign
  into the governed trace corpus, minimize traces, check the strict
  manifest, and gate on lost defect keys vs ``CORPUS_health.json``
  (``build`` drains gracefully on SIGINT/SIGTERM: the manifest is sealed
  with the admissions so far and the exit status is 75/EX_TEMPFAIL);
* ``wolf serve`` — the fleet-mode trace-ingestion daemon: accept
  concurrent ``.wtrc`` streams over a unix socket (or TCP), analyze each
  incrementally, quarantine hostile producers, journal for crash
  recovery, drain gracefully on SIGTERM.  ``--status``/``--healthz``
  query a running daemon; ``--send`` is the producer shim and
  ``--chaos`` its misbehaving twin;
* ``wolf df <benchmark>`` — run the DeadlockFuzzer baseline;
* ``wolf table1`` / ``wolf table2`` — regenerate the paper's tables;
* ``wolf fig8`` / ``wolf fig10`` — regenerate the paper's figures;
* ``wolf list`` — list available benchmarks.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.baselines.deadlockfuzzer import DeadlockFuzzer, DfConfig
from repro.core.pipeline import Wolf, WolfConfig
from repro.experiments.fig8 import render_fig8, run_fig8
from repro.experiments.fig10 import render_fig10, run_fig10
from repro.experiments.runner import ExperimentSettings
from repro.experiments.table1 import render_table1, run_table1
from repro.experiments.table2 import render_table2, run_table2
from repro.workloads.registry import BENCHMARKS, get_benchmark


class _VersionAction(argparse.Action):
    """``wolf --version``: package version plus backend attribution, so a
    benchmark artifact or bug report always says which analysis path ran."""

    def __call__(self, parser, namespace, values, option_string=None):
        from repro._version import __version__
        from repro.core.nativekernel import backend_info, kernel_load_error

        info = backend_info()
        line = f"wolf {__version__} (backend: {info['backend']}"
        if info["kernel"]:
            line += f", kernel {info['kernel']}"
        elif kernel_load_error():
            line += f", kernel unavailable: {kernel_load_error()}"
        print(line + ")")
        parser.exit(0)


def _add_workers(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for detection/replay fan-out (default: 1, serial)",
    )
    p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock deadline; a blown deadline is recorded as "
        "a timeout fault instead of stalling the run (default: unbounded)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retries (deterministic exponential backoff) before a failing "
        "detection/replay task is quarantined as a fault (default: 2)",
    )


def _add_predict(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--predict",
        choices=("off", "filter", "certify"),
        default="off",
        help="sync-preserving prediction pass between Generator and "
        "Replayer: 'filter' drops REFUTED cycles and replays CERTIFIED "
        "ones with their witness schedule (deterministic first-attempt "
        "hit); 'certify' confirms CERTIFIED cycles without replaying at "
        "all (default: off)",
    )
    p.add_argument(
        "--witness-dir",
        default=None,
        metavar="DIR",
        help="write one witness-<sha>.json per CERTIFIED cycle into DIR "
        "(for later --replay-witness use)",
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="detection seed")
    p.add_argument(
        "--attempts", type=int, default=None, help="replay attempts per cycle"
    )
    p.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        metavar="NAME",
        help="subset of benchmarks (default: all)",
    )
    _add_workers(p)


def _settings(args: argparse.Namespace) -> ExperimentSettings:
    retries = getattr(args, "retries", None)
    return ExperimentSettings(
        seed=getattr(args, "seed", None),
        replay_attempts=getattr(args, "attempts", None),
        workers=getattr(args, "workers", 1) or 1,
        task_timeout=getattr(args, "task_timeout", None),
        task_retries=retries if retries is not None else 2,
    )


def cmd_list(_args: argparse.Namespace) -> int:
    for b in BENCHMARKS:
        note = f"  ({b.loc_note})" if b.loc_note else ""
        print(f"{b.name}{note}")
    return 0


def _supervision_kw(args: argparse.Namespace) -> dict:
    kw = {"task_timeout": getattr(args, "task_timeout", None)}
    retries = getattr(args, "retries", None)
    if retries is not None:
        kw["task_retries"] = retries
    return kw


def cmd_detect(args: argparse.Namespace) -> int:
    b = get_benchmark(args.benchmark)
    replay_witness = None
    if getattr(args, "replay_witness", None):
        import json

        from repro.core.prediction import WitnessSchedule

        with open(args.replay_witness) as fh:
            replay_witness = WitnessSchedule.from_doc(json.load(fh))
    cfg = WolfConfig(
        seed=args.seed if args.seed is not None else b.detect_seed,
        replay_attempts=args.attempts or b.replay_attempts,
        max_cycle_length=b.max_cycle_length,
        workers=getattr(args, "workers", 1) or 1,
        sanitize=getattr(args, "sanitize", False),
        predict=getattr(args, "predict", "off"),
        witness_dir=getattr(args, "witness_dir", None),
        replay_witness=replay_witness,
        **_supervision_kw(args),
    )
    report = Wolf(config=cfg).analyze(b.program, name=b.name)
    print(report.summary())
    if args.verbose:
        print()
        for cr in report.cycle_reports:
            print(cr.pretty())
    if args.rank:
        from repro.core.ranking import rank_defects, render_ranking

        print()
        print(render_ranking(rank_defects(report)))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Static lock-order analysis + three-way cross-validation."""
    from repro.analysis import render_crossval, run_crossval

    rep = run_crossval(
        args.benchmarks or None,
        seed=args.seed,
        sanitize=args.sanitize,
        predict=not args.no_predict,
        replay=not args.no_replay,
    )
    text = render_crossval(rep)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    if args.dot:
        from repro.util.dot import lock_order_dot

        with open(args.dot, "w") as fh:
            fh.write(lock_order_dot(rep.graph, rep.all_cycles))
        print(f"wrote {args.dot}")
    if rep.sanitized and rep.n_diagnostics:
        print(
            f"FAIL: {rep.n_diagnostics} sanitizer diagnostic(s)",
            file=sys.stderr,
        )
        return 1
    if rep.soundness_violations:
        print(
            f"FAIL: {len(rep.soundness_violations)} prediction soundness "
            "disagreement(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _trace_format(args: argparse.Namespace) -> str:
    fmt = getattr(args, "format", "auto")
    if fmt != "auto":
        return fmt
    return "binary" if args.out.endswith(".wtrc") else "json"


def cmd_trace_record(args: argparse.Namespace) -> int:
    from repro.core.pipeline import run_detection
    from repro.runtime.serialize import dump_trace
    from repro.runtime.tracefile import write_trace

    b = get_benchmark(args.benchmark)
    seed = args.seed if args.seed is not None else b.detect_seed
    run = run_detection(b.program, seed, name=b.name)
    if _trace_format(args) == "binary":
        n_bytes = write_trace(run.trace, args.out)
        detail = f"{n_bytes} bytes, binary"
    else:
        text = dump_trace(run.trace)
        with open(args.out, "w") as fh:
            fh.write(text)
        detail = f"{len(text)} bytes, json"
    print(
        f"wrote {len(run.trace)} events ({run.status.value}) to {args.out} "
        f"({detail})"
    )
    return 0


def cmd_trace_pack(args: argparse.Namespace) -> int:
    """JSON trace -> compact binary trace."""
    from repro.runtime.serialize import load_trace
    from repro.runtime.tracefile import write_trace

    with open(args.trace_file) as fh:
        trace = load_trace(fh.read())
    n_bytes = write_trace(trace, args.out)
    print(f"packed {len(trace)} events to {args.out} ({n_bytes} bytes)")
    return 0


def cmd_trace_unpack(args: argparse.Namespace) -> int:
    """Binary trace -> JSON trace (the lossless machine format)."""
    from repro.corpus.validate import DECODE_ERRORS
    from repro.runtime.serialize import dump_trace
    from repro.runtime.tracefile import read_trace

    try:
        trace = read_trace(args.trace_file)
    except DECODE_ERRORS as exc:
        return _malformed_trace(args.trace_file, exc)
    text = dump_trace(trace)
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"unpacked {len(trace)} events to {args.out} ({len(text)} bytes)")
    return 0


def _malformed_trace(path: str, exc: BaseException) -> int:
    """Report a ``.wtrc`` that failed to decode as one classified line
    (the corpus validator's and serve's taxonomy); exit status 1."""
    from repro.corpus.validate import classify_decode_error

    print(f"{path}: {classify_decode_error(exc).render()}", file=sys.stderr)
    return 1


def cmd_trace_info(args: argparse.Namespace) -> int:
    """Summarize a binary trace by streaming it (never materialized)."""
    from repro.corpus.validate import DECODE_ERRORS
    from repro.runtime.tracefile import is_tracefile, trace_info

    if not is_tracefile(args.trace_file):
        print(f"{args.trace_file}: not a binary trace file", file=sys.stderr)
        return 1
    try:
        info = trace_info(args.trace_file)
    except DECODE_ERRORS as exc:
        return _malformed_trace(args.trace_file, exc)
    print(f"program   : {info['program']!r}")
    print(f"seed      : {info['seed']}")
    print(f"events    : {info['events']}")
    print(f"complete  : {info['complete']}")
    print(f"threads   : {info['threads']}")
    print(f"locks     : {info['locks']}")
    print(f"strings   : {info['strings']}")
    for kind, n in sorted(info["by_kind"].items()):
        print(f"  {kind:<14}: {n}")
    return 0


def cmd_analyze_trace(args: argparse.Namespace) -> int:
    """Offline analysis of a saved binary trace: detection + Pruner +
    Generator (replay needs the live program and is not available
    offline).

    The ``.wtrc`` file is decoded and analyzed one event at a time, never
    materializing the event list.  A JSON trace is refused: ``wolf trace
    pack`` converts it first.  A file that fails to decode gets one
    classified line on stderr; errors after decoding propagate.
    """
    from repro.core.generator import Generator, GeneratorVerdict
    from repro.core.nativekernel import analyze_trace_file, kernel_version
    from repro.core.pruner import Pruner
    from repro.corpus.manifest import DETECTOR_PARAMS
    from repro.corpus.validate import DECODE_ERRORS
    from repro.runtime.tracefile import is_tracefile

    if not is_tracefile(args.trace_file):
        print(
            f"{args.trace_file}: not a binary .wtrc trace "
            "(convert a JSON trace with `wolf trace pack`)",
            file=sys.stderr,
        )
        return 1
    try:
        analysis = analyze_trace_file(
            args.trace_file,
            backend=getattr(args, "backend", "auto"),
            **DETECTOR_PARAMS,
        )
    except DECODE_ERRORS as exc:
        return _malformed_trace(args.trace_file, exc)
    detection = analysis.detection
    if getattr(args, "json", False):
        # Canonical report bytes: the document report_doc_for_file
        # builds, identical to the file the ingestion daemon writes for
        # the same trace (tests assert equality).
        from repro.serve.report import defect_report_doc, render_report

        doc = defect_report_doc(
            detection,
            program=analysis.program,
            seed=analysis.seed,
            events=analysis.events,
            trace_path=args.trace_file,
        )
        sys.stdout.buffer.write(render_report(doc))
        return 0

    prune = Pruner(detection.vclocks).prune(detection.cycles)
    gen = Generator(detection.relation).run(prune.survivors)
    predictions = None
    if getattr(args, "predict", "off") != "off":
        from repro.core.parallel import closure_index_for, predict_decisions

        index = closure_index_for(detection, gen.decisions, args.trace_file)
        # The listing prints verdicts only: settle each defect key once.
        predictions = predict_decisions(
            index, gen.decisions, promote_early=True
        )
    print(
        f"trace: {analysis.program!r}, {analysis.events} events, "
        f"seed {analysis.seed}"
    )
    kv = f" (kernel {kernel_version()})" if analysis.backend == "native" else ""
    print(f"backend              : {analysis.backend}{kv}")
    print(f"cycles detected      : {len(detection.cycles)}")
    print(f"false (pruner)       : {len(prune.false_positives)}")
    print(f"false (generator)    : {len(gen.false_positives)}")
    print(f"replay candidates    : {len(gen.survivors)}")
    if predictions is not None:
        from repro.core.prediction import PredictionVerdict

        real = [p for p in predictions if p is not None]
        decided = sum(1 for p in real if p.decided)
        print(
            f"prediction           : "
            f"{sum(1 for p in real if p.verdict is PredictionVerdict.CERTIFIED)}"
            f" certified, "
            f"{sum(1 for p in real if p.verdict is PredictionVerdict.REFUTED)}"
            f" refuted, "
            f"{sum(1 for p in real if p.verdict is PredictionVerdict.UNDECIDED)}"
            f" undecided"
            + (f" ({decided / len(real):.0%} decided)" if real else "")
        )
    for i, dec in enumerate(gen.decisions):
        if dec.verdict is GeneratorVerdict.FALSE:
            tag = "FALSE"
        elif predictions is not None and predictions[i] is not None:
            tag = predictions[i].verdict.value.upper()
            if tag == "UNDECIDED":
                tag = "REPLAYABLE"
        else:
            tag = "REPLAYABLE"
        print(f"  [{tag}] {dec.cycle.pretty()}")
    return 0


def cmd_corpus_build(args: argparse.Namespace) -> int:
    """Run a fuzzing campaign and admit new-coverage traces.

    SIGINT/SIGTERM drain gracefully: the campaign stops at the next
    workload boundary, the manifest is sealed with the admissions so far,
    and the exit status is 75 (EX_TEMPFAIL) so callers can tell a drained
    partial campaign from a completed one.  A second signal aborts.
    """
    from repro.corpus import CampaignConfig, build_corpus
    from repro.util.interrupt import INTERRUPT_EXIT_CODE, GracefulInterrupt

    if args.from_quarantine is not None:
        from repro.corpus import build_from_quarantine

        report = build_from_quarantine(
            args.from_quarantine,
            args.corpus,
            log=print,
            max_traces=args.max_traces,
        )
        print(report.summary())
        return 0

    cfg = CampaignConfig(
        benchmarks=args.benchmarks or None,
        seeds_per_benchmark=args.seeds_per_benchmark,
        randprog=args.randprog,
        chaos_seeds=args.chaos,
        max_traces=args.max_traces,
    )
    with GracefulInterrupt() as interrupt:
        report = build_corpus(
            cfg, args.corpus, log=print, stop=lambda: interrupt.triggered
        )
        print(report.summary())
        if interrupt.triggered:
            return INTERRUPT_EXIT_CODE
    return 0


def cmd_corpus_minimize(args: argparse.Namespace) -> int:
    """Minimize one trace, preserving its defect-key set."""
    from repro.corpus import minimize_trace_file
    from repro.corpus.validate import DECODE_ERRORS

    try:
        res = minimize_trace_file(args.trace_file, args.out)
    except DECODE_ERRORS as exc:
        return _malformed_trace(args.trace_file, exc)
    print(
        f"minimized {args.trace_file}: {res.events_before} -> "
        f"{res.events_after} events ({res.bytes_before} -> {res.bytes_after} "
        f"bytes; thread cut removed {res.thread_cut}, "
        f"{res.probes} delta-debug probe(s))"
    )
    return 0


def cmd_corpus_validate(args: argparse.Namespace) -> int:
    """Check the corpus directory against its manifest."""
    from repro.corpus import validate_corpus

    problems = validate_corpus(args.corpus, deep=args.deep)
    for p in problems:
        print(f"FAIL  {p}")
    if problems:
        print(f"\n{len(problems)} problem(s) in {args.corpus}", file=sys.stderr)
        return 1
    print(f"corpus {args.corpus} valid" + (" (deep)" if args.deep else ""))
    return 0


def cmd_corpus_gate(args: argparse.Namespace) -> int:
    """Re-detect the corpus and fail on any lost defect."""
    from repro.corpus import run_gate, save_health

    if args.write_baseline:
        from repro.corpus import CorpusManifest, compute_health, validate_corpus
        from repro.corpus.manifest import MANIFEST_NAME
        import os

        problems = validate_corpus(args.corpus, deep=True)
        for p in problems:
            print(f"FAIL  {p}")
        if problems:
            return 1
        manifest = CorpusManifest.load(os.path.join(args.corpus, MANIFEST_NAME))
        save_health(compute_health(args.corpus, manifest), args.baseline)
        print(f"wrote baseline {args.baseline}")
        return 0
    failures, fresh = run_gate(
        args.corpus, args.baseline, fresh_out=args.out
    )
    for f in failures:
        print(f"FAIL  {f}")
    totals = fresh["totals"]
    print(
        f"corpus health: {totals['traces']} trace(s), "
        f"{totals['defect_keys']} defect key(s), "
        f"{totals['replay_candidates']} replay candidate(s)"
    )
    if failures:
        print(f"\n{len(failures)} gate failure(s)", file=sys.stderr)
        return 1
    print("corpus gate passed")
    return 0


def _parse_tcp(spec: Optional[str]):
    if spec is None:
        return None
    host, _, port = spec.rpartition(":")
    return (host or "127.0.0.1", int(port))


def cmd_serve(args: argparse.Namespace) -> int:
    """The fleet-mode ingestion daemon, plus its query and producer modes.

    Daemon mode runs until SIGTERM/SIGINT, then drains: stops accepting,
    settles every stream (quarantining the unfinished as ``aborted``),
    seals ``run_manifest.json``, and exits 0.  ``--status``/``--healthz``
    query a running daemon over the same socket; ``--send`` ships one
    ``.wtrc`` as an honest producer; ``--chaos`` misbehaves in one named
    way and reports the daemon's verdict (the chaos suite's tool).
    """
    import json as jsonlib

    from repro.serve import query_server

    tcp = _parse_tcp(args.tcp)
    socket_path = args.socket or (None if tcp else "wolf.sock")

    if args.status or args.healthz:
        doc = query_server(
            socket_path=socket_path,
            tcp=tcp,
            query="healthz" if args.healthz else "stats",
        )
        print(jsonlib.dumps(doc, indent=2, sort_keys=True))
        return 0

    if args.send is not None:
        from repro.serve import chaos_client, send_trace

        stream_id = args.stream_id or "stream-0"
        if args.chaos is not None:
            outcome = chaos_client(
                args.chaos,
                args.send,
                stream_id,
                socket_path=socket_path,
                tcp=tcp,
            )
            print(
                jsonlib.dumps(
                    {
                        "mode": outcome.mode,
                        "stream": outcome.stream_id,
                        "err": outcome.err,
                        "fin_ack": outcome.fin_ack,
                        "bytes_sent": outcome.bytes_sent,
                        "reconnected": outcome.reconnected,
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        result = send_trace(
            args.send, stream_id, socket_path=socket_path, tcp=tcp
        )
        if result.ok:
            print(
                f"analyzed {stream_id}: {result.response.get('events')} "
                f"event(s), {result.response.get('defect_keys')} defect "
                f"key(s) -> {result.response.get('report')}"
            )
            return 0
        print(
            f"stream {stream_id} not analyzed: {result.error_code} "
            f"{result.response}",
            file=sys.stderr,
        )
        return 1

    # Daemon mode.
    import asyncio
    import signal

    from repro.serve import ServeConfig, WolfServer

    journal_max = args.journal_max_bytes or None  # 0 disables rotation
    if args.fleet_index is None and (args.workers or 1) > 1:
        return _serve_supervisor(args, socket_path, tcp, journal_max)
    in_fleet = args.fleet_index is not None
    cfg = ServeConfig(
        out_dir=args.out,
        socket_path=socket_path,
        tcp=tcp,
        idle_timeout=args.idle_timeout,
        window=args.window,
        max_total_buffer=args.max_total_buffer,
        max_stream_bytes=args.max_stream_bytes,
        journal_max_bytes=journal_max,
        worker_index=args.fleet_index if in_fleet else 0,
        num_workers=args.fleet_size if in_fleet else 1,
        fleet_worker=in_fleet,
        backend=getattr(args, "backend", "auto"),
    )
    server = WolfServer(cfg)

    async def main() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, server.request_drain)
        where = cfg.socket_path or f"{cfg.tcp[0]}:{server.tcp_address[1]}"
        print(
            f"wolf serve: listening on {where}, run dir {cfg.out_dir} "
            f"(backend: {server.backend})"
        )
        sys.stdout.flush()
        assert server._drain_requested is not None
        await server._drain_requested.wait()
        print("wolf serve: draining")
        sys.stdout.flush()
        await server.drain()

    asyncio.run(main())
    st = server.stats
    print(
        f"wolf serve: drained — {st.analyzed} analyzed, "
        f"{sum(st.quarantined.values())} quarantined, "
        f"{st.rejected} rejected -> {cfg.out_dir}/run_manifest.json"
    )
    return 0


def _serve_supervisor(args, socket_path, tcp, journal_max) -> int:
    """``wolf serve --workers N``: the multi-process fleet supervisor."""
    import asyncio
    import json as jsonlib
    import os
    import signal

    from repro.serve.supervisor import FleetConfig, FleetSupervisor

    cfg = FleetConfig(
        out_dir=args.out,
        workers=args.workers,
        socket_path=socket_path,
        tcp=tcp,
        idle_timeout=args.idle_timeout,
        window=args.window,
        max_total_buffer=args.max_total_buffer,
        max_stream_bytes=args.max_stream_bytes,
        journal_max_bytes=journal_max,
        backend=getattr(args, "backend", "auto"),
    )
    sup = FleetSupervisor(cfg)

    async def main() -> None:
        await sup.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, sup.request_drain)
        where = cfg.socket_path or (
            f"{sup.tcp_address[0]}:{sup.tcp_address[1]}" if sup.tcp_address else "?"
        )
        print(
            f"wolf serve: supervising {cfg.workers} worker(s) on {where}, "
            f"fleet dir {cfg.out_dir}"
        )
        sys.stdout.flush()
        assert sup._drain_requested is not None
        await sup._drain_requested.wait()
        print("wolf serve: draining fleet")
        sys.stdout.flush()
        await sup.drain()

    asyncio.run(main())
    with open(os.path.join(cfg.out_dir, "run_manifest.json")) as fh:
        totals = jsonlib.load(fh)["totals"]
    print(
        f"wolf serve: fleet drained — {totals['analyzed']} analyzed, "
        f"{totals['quarantined']} quarantined, {totals['rejected']} "
        f"rejected across {cfg.workers} worker(s) "
        f"({sum(sup.restarts)} restart(s)) -> {cfg.out_dir}/run_manifest.json"
    )
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Fleet-wide operations: deterministic rollups and live status."""
    import json as jsonlib

    if args.action == "report":
        from repro.serve.rollup import render_rollup, rollup_run_dirs

        sys.stdout.buffer.write(render_rollup(rollup_run_dirs(args.dirs)))
        return 0
    from repro.serve.supervisor import fleet_status

    for d in args.dirs:
        print(jsonlib.dumps(fleet_status(d), indent=2, sort_keys=True))
    return 0


def cmd_df(args: argparse.Namespace) -> int:
    b = get_benchmark(args.benchmark)
    cfg = DfConfig(
        seed=args.seed if args.seed is not None else b.detect_seed,
        replay_attempts=args.attempts or b.replay_attempts,
        max_cycle_length=b.max_cycle_length,
    )
    report = DeadlockFuzzer(config=cfg).analyze(b.program, name=b.name)
    print(report.summary())
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    rows = run_table1(args.benchmarks, _settings(args), measure_slowdown=not args.fast)
    print(render_table1(rows))
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    rows = run_table2(args.benchmarks, _settings(args))
    print(render_table2(rows))
    return 0


def cmd_fig8(args: argparse.Namespace) -> int:
    rows = run_fig8(args.benchmarks, _settings(args), n_runs=args.runs)
    print(render_fig8(rows))
    return 0


def cmd_immunize(args: argparse.Namespace) -> int:
    """Confirm deadlocks with WOLF, then re-run under deadlock immunity."""
    from repro.core.avoidance import AvoidanceStrategy, patterns_from_report
    from repro.runtime.sim.result import RunStatus
    from repro.runtime.sim.runtime import run_program

    b = get_benchmark(args.benchmark)
    seed = args.seed if args.seed is not None else b.detect_seed
    cfg = WolfConfig(
        seed=seed,
        replay_attempts=args.attempts or b.replay_attempts,
        max_cycle_length=b.max_cycle_length,
        workers=getattr(args, "workers", 1) or 1,
        **_supervision_kw(args),
    )
    report = Wolf(config=cfg).analyze(b.program, name=b.name)
    patterns = patterns_from_report(report)
    print(f"confirmed {len(patterns)} deadlock pattern(s); immunizing...")
    confirmed_sites = {frozenset(p.wanted_sites) for p in patterns}
    outcomes = {"completed": 0, "avoided_hits": 0, "residual": 0}
    interventions = 0
    for k in range(args.runs):
        strategy = AvoidanceStrategy(patterns, seed=seed + k)
        result = run_program(b.program, strategy, name=b.name)
        interventions += strategy.avoided
        if result.status is RunStatus.DEADLOCK:
            if result.deadlock.sites in confirmed_sites:
                outcomes["avoided_hits"] += 1  # immunity failed
            else:
                outcomes["residual"] += 1  # unconfirmed pattern
        else:
            outcomes["completed"] += 1
    print(
        f"{args.runs} immunized runs: {outcomes['completed']} completed, "
        f"{outcomes['avoided_hits']} confirmed-pattern deadlocks (want 0), "
        f"{outcomes['residual']} at unconfirmed patterns; "
        f"{interventions} acquisitions deferred"
    )
    return 1 if outcomes["avoided_hits"] else 0


def cmd_scaling(args: argparse.Namespace) -> int:
    from repro.experiments.scaling import render_scaling, run_scaling

    points = None
    if args.points:
        points = [tuple(int(x) for x in p.split("x")) for p in args.points]
    print(render_scaling(run_scaling(points, seed=args.seed or 0)))
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    from repro.core.pipeline import run_detection
    from repro.util.timeline import render_timeline

    b = get_benchmark(args.benchmark)
    seed = args.seed if args.seed is not None else b.detect_seed
    run = run_detection(b.program, seed, name=b.name)
    print(render_timeline(run.trace, max_steps=args.max_steps))
    print(f"\nstatus: {run.status.value}")
    if run.deadlock:
        print(run.deadlock.pretty())
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.experiments.fuzz import run_fuzz

    stats = run_fuzz(
        n_programs=args.programs,
        base_seed=args.seed or 0,
        replay_attempts=args.attempts or 3,
    )
    print(stats.summary())
    for v in stats.violations:
        print(f"VIOLATION: {v}")
    return 1 if stats.violations else 0


def _normalize_pb(args: argparse.Namespace) -> argparse.Namespace:
    if args.preemption_bound is not None and args.preemption_bound < 0:
        args.preemption_bound = None
    return args


def cmd_explore(args: argparse.Namespace) -> int:
    from repro.runtime.sim.explore import explore_deadlocks

    b = get_benchmark(args.benchmark)
    witnesses, stats = explore_deadlocks(
        b.program,
        max_runs=args.max_runs,
        preemption_bound=args.preemption_bound,
        name=b.name,
    )
    bound = (
        "unbounded"
        if args.preemption_bound is None
        else f"preemption bound {args.preemption_bound}"
    )
    print(
        f"explored {stats.runs} schedules ({bound}); "
        f"{stats.deadlocks} deadlocking runs"
        f"{' [budget exhausted]' if stats.truncated else ' [exhaustive]'}"
    )
    for sites, result in witnesses.items():
        print(f"\ndistinct deadlock at {sorted(sites)}:")
        print("  " + result.deadlock.pretty().replace("\n", "\n  "))
    return 0


def cmd_coverage(args: argparse.Namespace) -> int:
    from repro.experiments.multirun import render_coverage, run_coverage

    rows = run_coverage(args.benchmarks, _settings(args), runs=args.runs)
    print(render_coverage(rows))
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    from repro.core.detector import ExtendedDetector
    from repro.core.generator import Generator
    from repro.core.pipeline import run_detection
    from repro.core.pruner import Pruner
    from repro.util.dot import lock_graph_dot, sync_graph_dot

    b = get_benchmark(args.benchmark)
    seed = args.seed if args.seed is not None else b.detect_seed
    run = run_detection(b.program, seed, name=b.name)
    detection = ExtendedDetector(max_length=b.max_cycle_length).analyze(run.trace)
    if args.cycle is None:
        text = lock_graph_dot(detection.relation, detection.cycles)
    else:
        survivors = Pruner(detection.vclocks).prune(detection.cycles).survivors
        gen = Generator(detection.relation).run(survivors)
        try:
            dec = gen.decisions[args.cycle]
        except IndexError:
            print(
                f"cycle index {args.cycle} out of range "
                f"(0..{len(gen.decisions) - 1})"
            )
            return 1
        text = sync_graph_dot(dec.gs)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.report_md import generate_markdown

    text = generate_markdown(
        args.benchmarks, _settings(args), fig8_runs=args.runs
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_fig10(args: argparse.Namespace) -> int:
    rows = run_fig10(args.benchmarks, _settings(args), replays_per_cycle=args.runs)
    print(render_fig10(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wolf",
        description="Trace driven dynamic deadlock detection and reproduction",
    )
    parser.add_argument(
        "--version",
        action=_VersionAction,
        nargs=0,
        help="print version, active analysis backend and kernel version",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks").set_defaults(func=cmd_list)

    p = sub.add_parser("detect", help="run the WOLF pipeline on a benchmark")
    p.add_argument("benchmark")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--attempts", type=int, default=None)
    _add_workers(p)
    _add_predict(p)
    p.add_argument(
        "--replay-witness",
        default=None,
        metavar="FILE",
        help="witness schedule JSON (from --witness-dir): replay "
        "candidates with matching sites follow it on the first attempt",
    )
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument(
        "--rank",
        action="store_true",
        help="rank defects most-actionable-first instead of hard filtering (§4.4)",
    )
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="run the trace sanitizer and Gs typing checks during the pipeline",
    )
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser(
        "analyze",
        help="static lock-order analysis cross-validated against the "
        "dynamic detector",
    )
    p.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        metavar="NAME",
        help="subset of benchmarks (default: the whole registry incl. extras)",
    )
    p.add_argument("--seed", type=int, default=None, help="detection seed")
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="also sanitize every detection trace; exit 1 on any diagnostic",
    )
    p.add_argument(
        "--no-predict",
        action="store_true",
        help="skip the sync-preserving prediction pass (two-way matrix only)",
    )
    p.add_argument(
        "--no-replay",
        action="store_true",
        help="skip the per-key replay axis (static/predicted matrix only)",
    )
    p.add_argument("--out", default=None, help="output markdown file")
    p.add_argument(
        "--dot",
        default=None,
        metavar="FILE",
        help="also export the static lock-order graph as DOT",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "trace", help="record / pack / unpack / inspect trace files"
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)

    tp = tsub.add_parser(
        "record", help="record a detection trace to a JSON or binary file"
    )
    tp.add_argument("benchmark")
    tp.add_argument("--seed", type=int, default=None)
    tp.add_argument("--out", required=True)
    tp.add_argument(
        "--format",
        choices=("auto", "json", "binary"),
        default="auto",
        help="output format (auto: binary iff --out ends in .wtrc)",
    )
    tp.set_defaults(func=cmd_trace_record)

    tp = tsub.add_parser("pack", help="convert a JSON trace to compact binary")
    tp.add_argument("trace_file")
    tp.add_argument("--out", required=True)
    tp.set_defaults(func=cmd_trace_pack)

    tp = tsub.add_parser("unpack", help="convert a binary trace back to JSON")
    tp.add_argument("trace_file")
    tp.add_argument("--out", required=True)
    tp.set_defaults(func=cmd_trace_unpack)

    tp = tsub.add_parser(
        "info", help="summarize a binary trace without materializing it"
    )
    tp.add_argument("trace_file")
    tp.set_defaults(func=cmd_trace_info)

    p = sub.add_parser(
        "analyze-trace",
        help="offline analysis of a saved binary .wtrc trace",
    )
    p.add_argument("trace_file")
    p.add_argument(
        "--backend",
        choices=("auto", "python", "native"),
        default="auto",
        help="analysis backend: 'native' uses the compiled kernel (errors "
        "if it cannot build/load), 'python' forces the pure-Python path, "
        "'auto' uses native when available (identical results; default: "
        "auto)",
    )
    p.add_argument(
        "--predict",
        choices=("off", "filter", "certify"),
        default="off",
        help="run the sync-preserving prediction pass and tag each "
        "replay candidate CERTIFIED / REFUTED / REPLAYABLE",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the canonical defect-report JSON (byte-identical to the "
        "report `wolf serve` writes for the same .wtrc)",
    )
    p.set_defaults(func=cmd_analyze_trace)

    p = sub.add_parser(
        "corpus",
        help="build / minimize / validate / gate the governed trace corpus",
    )
    csub = p.add_subparsers(dest="corpus_command", required=True)

    cp = csub.add_parser(
        "build",
        help="run a fuzzing campaign; admit minimized traces with new "
        "defect-key coverage",
    )
    cp.add_argument("--corpus", default="corpus", help="corpus directory")
    cp.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        metavar="NAME",
        help="registry subset (default: the whole registry incl. extras)",
    )
    cp.add_argument(
        "--seeds-per-benchmark",
        type=int,
        default=2,
        metavar="N",
        help="detection seeds per registry benchmark (default: 2)",
    )
    cp.add_argument(
        "--randprog",
        type=int,
        default=24,
        metavar="N",
        help="random generated programs to fuzz (default: 24)",
    )
    cp.add_argument(
        "--chaos",
        type=int,
        default=4,
        metavar="N",
        help="chaos-harness seeds, odd ones hostile (default: 4)",
    )
    cp.add_argument(
        "--max-traces",
        type=int,
        default=None,
        metavar="N",
        help="stop after admitting N traces (default: unbounded)",
    )
    cp.add_argument(
        "--from-quarantine",
        default=None,
        metavar="DIR",
        help="instead of a campaign: salvage + admit daemon-quarantined "
        ".wtrc evidence from DIR (an ingestion run's quarantine/ "
        "directory) through the same coverage-key admission",
    )
    cp.set_defaults(func=cmd_corpus_build)

    cp = csub.add_parser(
        "minimize", help="minimize one .wtrc trace, preserving its defect keys"
    )
    cp.add_argument("trace_file")
    cp.add_argument("--out", required=True)
    cp.set_defaults(func=cmd_corpus_minimize)

    cp = csub.add_parser(
        "validate", help="check corpus files against the strict manifest"
    )
    cp.add_argument("--corpus", default="corpus", help="corpus directory")
    cp.add_argument(
        "--deep",
        action="store_true",
        help="also re-detect every trace and require manifest-identical keys",
    )
    cp.set_defaults(func=cmd_corpus_validate)

    cp = csub.add_parser(
        "gate",
        help="re-detect the corpus; fail on lost defect keys or "
        "replay-candidate regressions vs the committed baseline",
    )
    cp.add_argument("--corpus", default="corpus", help="corpus directory")
    cp.add_argument(
        "--baseline",
        default="CORPUS_health.json",
        help="committed health baseline (default: CORPUS_health.json)",
    )
    cp.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the fresh health document",
    )
    cp.add_argument(
        "--write-baseline",
        action="store_true",
        help="validate, recompute health and overwrite the baseline",
    )
    cp.set_defaults(func=cmd_corpus_gate)

    p = sub.add_parser(
        "serve",
        help="fleet-mode trace-ingestion daemon (accept concurrent .wtrc "
        "streams, analyze incrementally, drain on SIGTERM)",
    )
    p.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="unix socket to listen on / query (default: wolf.sock, "
        "unless --tcp is given)",
    )
    p.add_argument(
        "--tcp",
        default=None,
        metavar="[HOST:]PORT",
        help="listen on TCP, instead of the default unix socket or beside "
        "an explicit --socket; with --status/--send and no --socket, "
        "query/ship over TCP",
    )
    p.add_argument(
        "--out",
        default="serve-out",
        metavar="DIR",
        help="run directory: reports/, quarantine/, spool/, journal, "
        "run_manifest.json (default: serve-out)",
    )
    p.add_argument(
        "--idle-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="evict producers silent this long (default: 30)",
    )
    p.add_argument(
        "--window",
        type=int,
        default=256 * 1024,
        metavar="BYTES",
        help="per-stream credit window (default: 256 KiB)",
    )
    p.add_argument(
        "--max-total-buffer",
        type=int,
        default=8 * 1024 * 1024,
        metavar="BYTES",
        help="global partial-chunk budget before credit is withheld "
        "(default: 8 MiB)",
    )
    p.add_argument(
        "--max-stream-bytes",
        type=int,
        default=64 * 1024 * 1024,
        metavar="BYTES",
        help="largest stream accepted (default: 64 MiB)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="ingestion worker processes; >1 runs the fleet supervisor, "
        "which routes each stream from the public socket or TCP port to "
        "the worker that owns its stream id and merges one manifest at "
        "drain (default: 1, the single-process daemon)",
    )
    p.add_argument(
        "--journal-max-bytes",
        type=int,
        default=32 * 1024 * 1024,
        metavar="BYTES",
        help="rotate (compact) journal.jsonl once it grows past this "
        "(0 disables; default: 32 MiB)",
    )
    # Internal flags the supervisor passes to the workers it spawns.
    p.add_argument("--fleet-index", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--fleet-size", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument(
        "--backend",
        choices=("auto", "python", "native"),
        default="auto",
        help="per-stream analysis backend: 'native' requires the compiled "
        "kernel at startup, 'auto' uses it when available (identical "
        "reports; default: auto)",
    )
    p.add_argument(
        "--status",
        action="store_true",
        help="query a running daemon's /stats document and exit",
    )
    p.add_argument(
        "--healthz",
        action="store_true",
        help="query a running daemon's /healthz document and exit",
    )
    p.add_argument(
        "--send",
        default=None,
        metavar="TRACE",
        help="producer mode: ship one .wtrc to the daemon and exit",
    )
    p.add_argument(
        "--stream-id",
        default=None,
        metavar="ID",
        help="stream id for --send (default: stream-0)",
    )
    p.add_argument(
        "--chaos",
        default=None,
        choices=(
            "kill",
            "stall",
            "garbage",
            "corrupt",
            "oversized",
            "overdraft",
            "dup",
            "reconnect",
        ),
        help="with --send: misbehave in one named way and report the "
        "daemon's verdict",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "fleet",
        help="fleet-wide operations: deterministic defect rollups "
        "(report) and live worker probes (status)",
    )
    p.add_argument(
        "action",
        choices=("report", "status"),
        help="'report': merge per-stream defect reports from run/fleet "
        "directories into one wolf-fleet-rollup/1 document (byte-"
        "identical at any worker count); 'status': probe a fleet's "
        "workers via fleet.json",
    )
    p.add_argument(
        "dirs",
        nargs="+",
        metavar="DIR",
        help="serve run directories (single-daemon or fleet layout)",
    )
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("df", help="run the DeadlockFuzzer baseline")
    p.add_argument("benchmark")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--attempts", type=int, default=None)
    p.set_defaults(func=cmd_df)

    p = sub.add_parser("table1", help="regenerate paper Table 1")
    _add_common(p)
    p.add_argument("--fast", action="store_true", help="skip slowdown timing")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("table2", help="regenerate paper Table 2")
    _add_common(p)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("fig8", help="regenerate paper Figure 8 (hit rates)")
    _add_common(p)
    p.add_argument("--runs", type=int, default=100, help="replays per deadlock")
    p.set_defaults(func=cmd_fig8)

    p = sub.add_parser("fig10", help="regenerate paper Figure 10 (overheads)")
    _add_common(p)
    p.add_argument("--runs", type=int, default=3, help="replays per cycle")
    p.set_defaults(func=cmd_fig10)

    p = sub.add_parser(
        "immunize",
        help="confirm deadlocks, then re-run with deadlock immunity",
    )
    p.add_argument("benchmark")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--attempts", type=int, default=None)
    p.add_argument("--runs", type=int, default=20, help="immunized re-runs")
    _add_workers(p)
    p.set_defaults(func=cmd_immunize)

    p = sub.add_parser(
        "scaling", help="analysis cost vs workload size on graded programs"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--points",
        nargs="*",
        default=None,
        metavar="TxI",
        help="points as THREADSxITERS, e.g. 4x80 8x160",
    )
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser(
        "timeline", help="render a detection trace as per-thread lanes"
    )
    p.add_argument("benchmark")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=80)
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser(
        "fuzz",
        help="fuzz random programs; cross-check verdicts against search",
    )
    p.add_argument("--programs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attempts", type=int, default=3)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "explore",
        help="CHESS-style systematic schedule search for deadlocks",
    )
    p.add_argument("benchmark")
    p.add_argument("--max-runs", type=int, default=2000)
    p.add_argument(
        "--preemption-bound",
        type=int,
        default=2,
        help="max preemptive switches per schedule (-1 = unbounded)",
    )
    p.set_defaults(
        func=lambda a: cmd_explore(_normalize_pb(a))
    )

    p = sub.add_parser(
        "coverage",
        help="cumulative defect discovery over multiple detection runs",
    )
    _add_common(p)
    p.add_argument("--runs", type=int, default=8, help="detection runs per benchmark")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser(
        "dot", help="export the lock graph (or one cycle's Gs) as DOT"
    )
    p.add_argument("benchmark")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--cycle",
        type=int,
        default=None,
        help="index of the Generator decision to render as Gs (default: lock graph)",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser(
        "reproduce",
        help="run every table/figure and write the paper-vs-ours report",
    )
    _add_common(p)
    p.add_argument("--runs", type=int, default=30, help="Figure 8 replays per deadlock")
    p.add_argument("--out", default=None, help="output markdown file")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
