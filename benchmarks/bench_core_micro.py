"""Microbenchmarks of the analysis stages on a synthetic heavy trace.

These measure the costs behind Table 1's slowdown column: runtime event
throughput, ``D_sigma`` construction, vector clocks, cycle detection and
``Gs`` construction — plus batch-vs-streaming engine and JSON-vs-binary
trace-format comparisons.

Run under pytest-benchmark for statistical timings, or directly —

    python benchmarks/bench_core_micro.py --events 120000 --out BENCH_core.json

— to emit the machine-readable comparison (used by the CI perf-smoke job):
a >=100k-event synthetic stream is recorded and analyzed end-to-end both
ways (batch engine + JSON file vs streaming engine + binary file), with
wall times, peak memory (tracemalloc) and file sizes, asserting both
engines find identical cycles.

Schema ``bench-core/12`` (migration note): a ``generator`` section
times ``Generator.run`` over every cycle of the 8 dense ``.wtrc`` files
the closure index ratio reads, on the pure relation (the Python builder
builds and decides each ``Gs``) over the native one (the kernel decides
them all in one call, what a native report runs), timed like the other
gated ratios: ``native_speedup``, with both sides' medians (``pure_s``,
``native_s``), ``traces``, ``cycles`` and ``false``; all null where the
kernel is unavailable.  Every other field is unchanged.
Schema ``bench-core/11``: the ``prediction`` section
adds ``index_speedup``, ``closure_index_for`` over the Generator
survivors of seeded dense nested-lock ``.wtrc`` files re-read in pure
Python over the same call re-read through the kernel's thread columns
(what a native report runs), timed like the other gated ratios, with
both sides' medians (``index_pure_s``, ``index_native_s``) and
``index_traces``; all null where the kernel is unavailable.  Every other
field is unchanged.
Schema ``bench-core/10``: the ``prediction`` section
adds ``early_speedup``, ``predict_decisions`` over the registry survivors
without ``promote_early`` over the same call with it (the report path),
timed like the other gated ratios (6 alternating pairs on one CPU,
median of the per-pair ratios), with both sides' medians
(``predict_default_s``, ``predict_early_s``), ``pairs``, ``cpu`` and
``settled_early``, the survivors whose key certified at an earlier
instance.  Every other field is unchanged.
Schema ``bench-core/9``: the ``sharding`` section is
now ``dedup``.  ``dedup.speedup`` times ``find_cycles``, which collapses
duplicate rows on integers, against the same integer search without the
collapse, on the same loop-heavy relation, in the same alternating pairs;
``sharding.speedup`` timed the sharded search against ``find_cycles``.
The sharded path is gone, and with it ``handoff_bytes``, ``shards``,
``singleton_sccs`` and ``stage_s``.  Schema ``bench-core/8``: every timed
gated ratio (``macro.end_to_end_s.speedup``,
``macro.analyze_speedup.native``, ``macro.decode_ratio.ratio``,
``sharding.speedup``) runs 6 alternating pairs, 3 in each order, and is
the median of the per-pair ratios.
``bench-core/7`` divided the two sides' medians over 5 pairs: where the
side that ran first moved a pair's ratio, the order that had 3 of the 5
pairs set the result, and the decode ratio read 1.40–2.53 over ten runs
of one tree.  The sides' medians are still recorded, but no longer
divide into the ratio.  Schema ``bench-core/7``: ``macro.end_to_end_s``
is now, like every other gated ratio, a ratio of medians over alternating pairs
pinned to one CPU (record then analyze, each way), and records its
``pairs`` and ``cpu``; ``bench-core/6`` summed single-shot record and
analyze timings.  ``sharding.speedup`` keeps its method, but its
monolithic side (``find_cycles``) now runs the integer cycle search,
about twice as fast as the object DFS it replaced, so the ratio roughly
halved (the sharded side is unchanged).  Schema ``bench-core/6``:
``macro.analyze_speedup.native``
and ``sharding.speedup`` are now, like ``macro.decode_ratio``, ratios of
medians over alternating pairs pinned to one CPU; ``bench-core/5`` took
best-of-3 and single-shot timings for them.  Each records its ``pairs``
and ``cpu``.  Schema ``bench-core/5``: ``bench-core/4`` timed a
pure-Python mmap reader against a plain one
(``analyze_s.streaming_binary_mmap``, ``analyze_speedup.mmap``); there is
one reader now, so both are gone.  In their place ``macro.decode_ratio``
divides the in-memory ``StreamingDetector`` analyze of the macro trace by
a decode-only pass over its ``.wtrc``, timed in alternating pairs on one
CPU (median of each side): it falls when decoding slows relative to the
detector.  ``bench-core/4`` added the compiled-kernel stage
``analyze_s.streaming_binary_native`` (null when no C compiler is
available), the throughput dicts ``record_events_per_s`` /
``analyze_events_per_s``, ``analyze_speedup.native`` and
``native_kernel``.  The perf gate SKIPs ratios missing from the
baseline, so stale baselines degrade gracefully.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import statistics
import sys
import time
import tracemalloc
from typing import Iterator, List, Optional, Tuple

import pytest

from repro.core.detector import ExtendedDetector, find_cycles
from repro.core.lockdep import build_lockdep
from repro.core.streaming import StreamingDetector
from repro.core.syncgraph import build_sync_graph
from repro.core.vclock import compute_vector_clocks
from repro.runtime.events import (
    AcquireEvent,
    BeginEvent,
    EndEvent,
    JoinEvent,
    ReleaseEvent,
    SpawnEvent,
    Trace,
    TraceEvent,
)
from repro.runtime.serialize import dump_trace, load_trace
from repro.runtime.sim.runtime import run_program
from repro.runtime.sim.strategy import RandomStrategy
from repro.runtime.tracefile import (
    TraceFileReader,
    TraceFileWriter,
    read_trace,
    write_trace,
)
from repro.util.ids import ExecIndex, LockId, ThreadId


def heavy_program(n_threads: int = 4, n_locks: int = 6, iters: int = 25):
    """Threads repeatedly take ordered lock pairs (no deadlocks), plus one
    inverted pair to seed cycles."""

    def program(rt):
        locks = [rt.new_lock(name=f"L{i}", site="heavy:locks") for i in range(n_locks)]

        def worker(k: int) -> None:
            for i in range(iters):
                a = locks[(k + i) % n_locks]
                b = locks[(k + i + 1) % n_locks]
                first, second = (a, b) if id(a) < id(b) else (b, a)
                with first.at(f"w{k}:outer"):
                    with second.at(f"w{k}:inner"):
                        pass

        handles = [
            rt.spawn(lambda k=i: worker(k), name=f"w{i}", site="heavy:spawn")
            for i in range(n_threads)
        ]
        for h in handles:
            h.join()

    return program


@pytest.fixture(scope="module")
def heavy_trace():
    result = run_program(heavy_program(), RandomStrategy(0, stickiness=0.9))
    result.raise_errors()
    return result.trace


def test_runtime_event_throughput(benchmark):
    program = heavy_program()

    def run():
        return run_program(program, RandomStrategy(0, stickiness=0.9)).steps

    steps = benchmark(run)
    assert steps > 200
    benchmark.extra_info["events"] = steps


def test_build_lockdep(benchmark, heavy_trace):
    rel = benchmark(build_lockdep, heavy_trace)
    assert len(rel) > 100
    benchmark.extra_info["entries"] = len(rel)


def test_vector_clocks(benchmark, heavy_trace):
    st = benchmark(compute_vector_clocks, heavy_trace)
    assert st.acquire_tau


def test_cycle_detection(benchmark, heavy_trace):
    rel = build_lockdep(heavy_trace)

    def run():
        return find_cycles(rel, max_length=3)

    cycles, truncated = benchmark(run)
    benchmark.extra_info["cycles"] = len(cycles)


def test_full_detector(benchmark, heavy_trace):
    detector = ExtendedDetector(max_length=3)
    detection = benchmark(detector.analyze, heavy_trace)
    benchmark.extra_info["cycles"] = len(detection.cycles)


def test_sync_graph_construction(benchmark):
    from repro.workloads.figures import fig9_program
    from repro.core.pipeline import run_detection

    run = run_detection(fig9_program, 0)
    detection = ExtendedDetector().analyze(run.trace)
    cycle = detection.cycles[0]

    gs = benchmark(build_sync_graph, cycle, detection.relation)
    assert gs.num_vertices() > 0
    benchmark.extra_info["vertices"] = gs.num_vertices()


# ---------------------------------------------------------------------------
# Engine comparison: batch (three passes) vs streaming (one fused pass)
# ---------------------------------------------------------------------------


def test_batch_engine(benchmark, heavy_trace):
    detector = ExtendedDetector(max_length=3)
    detection = benchmark(detector.analyze, heavy_trace)
    benchmark.extra_info["cycles"] = len(detection.cycles)


def test_streaming_engine(benchmark, heavy_trace):
    def run():
        return StreamingDetector(max_length=3).analyze(heavy_trace)

    detection = benchmark(run)
    benchmark.extra_info["cycles"] = len(detection.cycles)
    ref = ExtendedDetector(max_length=3).analyze(heavy_trace)
    assert [tuple(e.step for e in c.entries) for c in detection.cycles] == [
        tuple(e.step for e in c.entries) for c in ref.cycles
    ]


# ---------------------------------------------------------------------------
# Trace format comparison: JSON machine format vs compact binary
# ---------------------------------------------------------------------------


def test_json_dump(benchmark, heavy_trace):
    text = benchmark(dump_trace, heavy_trace)
    benchmark.extra_info["bytes"] = len(text)


def test_json_load(benchmark, heavy_trace):
    text = dump_trace(heavy_trace)
    trace = benchmark(load_trace, text)
    assert len(trace) == len(heavy_trace)


def test_binary_write(benchmark, heavy_trace):
    def run():
        buf = io.BytesIO()
        return write_trace(heavy_trace, buf)

    n = benchmark(run)
    benchmark.extra_info["bytes"] = n


def test_binary_read(benchmark, heavy_trace):
    buf = io.BytesIO()
    write_trace(heavy_trace, buf)
    payload = buf.getvalue()

    def run():
        with TraceFileReader(io.BytesIO(payload)) as r:
            return sum(1 for _ in r)

    n = benchmark(run)
    assert n == len(heavy_trace)


# ---------------------------------------------------------------------------
# Macro comparison + BENCH_core.json emitter (CI perf smoke)
# ---------------------------------------------------------------------------


def synthetic_events(
    n_events: int,
    n_threads: int = 8,
    n_locks: int = 16,
    nested_every: int = 100,
    invert_pairs: int = 1,
) -> Iterator[TraceEvent]:
    """Yield a consistent synchronization stream of >= ``n_events`` events.

    Most iterations acquire a single lock (empty lockset => no ``D_sigma``
    holder-list growth); every ``nested_every``-th iteration takes a
    strictly ordered lock pair, and thread pairs (2p, 2p+1) for
    ``p < invert_pairs`` invert the lock pair at ``8p`` on their first
    nested iteration — so the detectors have exactly ``invert_pairs``
    2-cycle families to find (in disjoint lock SCCs) and the cycle search
    stays output-bounded as the stream grows.  With ``nested_every=1``
    every iteration is a nested pair: the relation is dominated by
    duplicate tuples, the loop-heavy shape the cycle search collapses.
    Iterations are emitted atomically round-robin, so no two threads ever
    hold a lock simultaneously: the stream is a valid execution.
    """
    root = ThreadId.root()
    threads = [
        ThreadId(root, "syn:spawn", i, name=f"w{i}") for i in range(n_threads)
    ]
    locks = [LockId(root, "syn:lock", i, name=f"L{i}") for i in range(n_locks)]
    step = 0

    def nxt() -> int:
        nonlocal step
        step += 1
        return step - 1

    yield BeginEvent(nxt(), root)
    for t in threads:
        yield SpawnEvent(nxt(), root, child=t)
    for t in threads:
        yield BeginEvent(nxt(), t)

    occ: dict = {}

    def index(t: ThreadId, site: str) -> ExecIndex:
        k = (t, site)
        occ[k] = occ.get(k, 0) + 1
        return ExecIndex(t, site, occ[k])

    # ~2 events per single iteration; stop once the target is reached.
    budget = n_events - (2 + 4 * n_threads)  # header + End/Join tail
    i = 0
    while budget > 0:
        for k, t in enumerate(threads):
            if i % nested_every == 0:
                a = locks[(k + i) % n_locks]
                b = locks[(k + i + 1) % n_locks]
                first, second = (a, b) if a.seq < b.seq else (b, a)
                if i == 0 and k < 2 * invert_pairs:
                    # Thread 2p takes L[8p] then L[8p+1]; thread 2p+1 the
                    # reverse — one inverted pair per disjoint lock SCC.
                    base = 8 * (k // 2) % n_locks
                    first, second = (
                        (locks[base], locks[base + 1])
                        if k % 2 == 0
                        else (locks[base + 1], locks[base])
                    )
                site_o, site_i = f"syn:{k}:outer", f"syn:{k}:inner"
                ix1 = index(t, site_o)
                yield AcquireEvent(
                    nxt(), t, lock=first, index=ix1, held=(), held_indices=(),
                    stack_depth=2,
                )
                yield AcquireEvent(
                    nxt(), t, lock=second, index=index(t, site_i),
                    held=(first,), held_indices=(ix1,), stack_depth=3,
                )
                yield ReleaseEvent(nxt(), t, lock=second, site=site_i)
                yield ReleaseEvent(nxt(), t, lock=first, site=site_o)
                budget -= 4
            else:
                lk = locks[(k + i) % n_locks]
                site = f"syn:{k}:solo"
                yield AcquireEvent(
                    nxt(), t, lock=lk, index=index(t, site), held=(),
                    held_indices=(), stack_depth=2,
                )
                yield ReleaseEvent(nxt(), t, lock=lk, site=site)
                budget -= 2
        i += 1

    for t in threads:
        yield EndEvent(nxt(), t)
    for t in threads:
        yield JoinEvent(nxt(), root, target=t)
    yield EndEvent(nxt(), root)


def _wall(fn) -> Tuple[float, object]:
    """(wall seconds, result) — no instrumentation overhead."""
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _interleaved_medians(
    first, second, pairs: int, setup=None
) -> Tuple[float, float, float, Optional[int]]:
    """Time ``first`` against ``second`` in ``pairs`` alternating pairs
    pinned to one CPU: each side's median wall seconds, the ratio
    ``first / second``, and that CPU (``None`` where affinity is
    unsupported).

    Both sides see the same load and the same core, so their ratio is
    steadier than a best-of over two separate blocks of runs.  Which side
    of a pair runs first can still move its ratio: the macro's decode
    ratio has alternated between two levels, pair by pair.  So ``pairs``
    is even, half the pairs run each order, and the ratio is the median
    of the per-pair ratios, which no single order outnumbers.  One
    untimed run of each absorbs warm-up first (kernel dlopen, page
    cache).  ``setup``, when given, runs untimed before every call, so
    no call inherits state an earlier one cached.  Results are
    discarded; a caller that needs one keeps it from inside its function.
    """
    if pairs < 2 or pairs % 2:
        raise ValueError(f"pairs must be even and >= 2, got {pairs}")

    def call(fn) -> float:
        if setup is not None:
            setup()
        return _wall(fn)[0]

    cpu = None
    if hasattr(os, "sched_setaffinity"):
        allowed = os.sched_getaffinity(0)
        cpu = min(allowed)
        os.sched_setaffinity(0, {cpu})
    try:
        call(first)
        call(second)
        a, b = [], []
        for i in range(pairs):
            order = ((first, a), (second, b))
            for fn, out in order if i % 2 == 0 else order[::-1]:
                out.append(call(fn))
    finally:
        if cpu is not None:
            os.sched_setaffinity(0, allowed)
    ratio = statistics.median(x / y for x, y in zip(a, b, strict=True))
    return statistics.median(a), statistics.median(b), ratio, cpu


def _peak_mib(fn) -> float:
    """tracemalloc peak in MiB over a *separate* run of ``fn`` (tracing
    slows execution several-fold, so never time and trace the same run)."""
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak / (1024 * 1024)


def _cycle_steps(detection) -> List[Tuple[int, ...]]:
    return [tuple(e.step for e in c.entries) for c in detection.cycles]


def run_macro(n_events: int, tmp_dir: str) -> dict:
    """End-to-end comparison on a synthetic stream: batch engine + JSON
    file vs streaming engine + binary file, record + analyze."""
    json_path = os.path.join(tmp_dir, "macro.json")
    bin_path = os.path.join(tmp_dir, "macro.wtrc")

    # -- record: materialize + dump (batch path) ----------------------------
    def record_json():
        trace = Trace(program="synthetic", seed=0)
        for ev in synthetic_events(n_events):
            trace.append(ev)
        with open(json_path, "w") as fh:
            fh.write(dump_trace(trace))
        return len(trace)

    rec_json_s, total = _wall(record_json)
    rec_json_mb = _peak_mib(record_json)

    # -- record: straight-to-disk sink (streaming path) ---------------------
    def record_binary():
        with TraceFileWriter(bin_path, program="synthetic", seed=0) as w:
            for ev in synthetic_events(n_events):
                w.write_event(ev)

    rec_bin_s, _ = _wall(record_binary)
    rec_bin_mb = _peak_mib(record_binary)

    # -- analyze: parse whole file, three batch passes ----------------------
    def analyze_batch():
        with open(json_path) as fh:
            trace = load_trace(fh.read())
        return ExtendedDetector(max_length=3).analyze(trace)

    ana_json_s, batch = _wall(analyze_batch)
    ana_json_mb = _peak_mib(analyze_batch)

    # -- analyze: decode + analyze one event at a time ----------------------
    pairs = 6
    last = {}

    def analyze_streaming():
        det = StreamingDetector(max_length=3)
        with TraceFileReader(bin_path) as reader:
            det.feed_many(reader)
        last["python"] = det.finish()

    ana_bin_mb = _peak_mib(analyze_streaming)

    # -- decode alone vs the same detector over the trace in memory --------
    def decode_only():
        with TraceFileReader(bin_path) as reader:
            for _ in reader:
                pass

    in_memory = read_trace(bin_path)
    ana_mem_s, decode_s, decode_ratio, cpu = _interleaved_medians(
        lambda: StreamingDetector(max_length=3).analyze(in_memory),
        decode_only,
        pairs,
    )
    del in_memory

    # -- analyze: compiled kernel over the mmap'd file (if a cc exists) -----
    from repro.core.nativekernel import analyze_trace_file, kernel_available
    from repro.core.nativekernel import kernel_version

    if kernel_available():
        def analyze_native():
            last["native"] = analyze_trace_file(
                bin_path, max_length=3, backend="native"
            ).detection

        # The native stage is tens of milliseconds: timed apart from the
        # pure-Python side, scheduler noise swung the ratio past its gate.
        ana_bin_s, ana_native_s, native_ratio, native_cpu = _interleaved_medians(
            analyze_streaming, analyze_native, pairs
        )
        native_kernel = kernel_version()
    else:
        ana_bin_s, _ = _wall(analyze_streaming)
        ana_native_s = native_ratio = native_kernel = native_cpu = None
    # -- end to end: record then analyze, each way -------------------------
    e2e_batch, e2e_stream, e2e_ratio, e2e_cpu = _interleaved_medians(
        lambda: (record_json(), analyze_batch()),
        lambda: (record_binary(), analyze_streaming()),
        pairs,
    )
    stream, stream_native = last["python"], last.get("native")

    assert _cycle_steps(batch) == _cycle_steps(stream), (
        "engines disagree on the synthetic trace"
    )
    if stream_native is not None:
        assert _cycle_steps(stream_native) == _cycle_steps(stream), (
            "native kernel diverges from the pure-Python engine"
        )
    json_bytes = os.path.getsize(json_path)
    bin_bytes = os.path.getsize(bin_path)

    def _eps(seconds):
        """Events/second, or None for a stage that did not run."""
        return None if seconds is None else round(total / seconds)

    return {
        "events": total,
        "cycles": len(batch.cycles),
        "engines_identical": True,
        "native_kernel": native_kernel,
        "file_bytes": {
            "json": json_bytes,
            "binary": bin_bytes,
            "ratio": round(json_bytes / bin_bytes, 2),
        },
        "record_s": {"batch_json": rec_json_s, "streaming_binary": rec_bin_s},
        "record_events_per_s": {
            "batch_json": _eps(rec_json_s),
            "streaming_binary": _eps(rec_bin_s),
        },
        "analyze_s": {
            "batch_json": ana_json_s,
            "streaming_binary": ana_bin_s,
            "streaming_binary_native": ana_native_s,
        },
        "analyze_events_per_s": {
            "batch_json": _eps(ana_json_s),
            "streaming_binary": _eps(ana_bin_s),
            "streaming_binary_native": _eps(ana_native_s),
        },
        "analyze_speedup": {
            # Relative to the pure-Python streaming analyze, over
            # alternating pairs (see _interleaved_medians).
            "native": None if native_ratio is None else round(native_ratio, 2),
            "pairs": None if ana_native_s is None else pairs,
            "cpu": native_cpu,
        },
        "decode_ratio": {
            "ratio": round(decode_ratio, 2),
            "analyze_in_memory_s": ana_mem_s,
            "decode_s": decode_s,
            "pairs": pairs,
            "cpu": cpu,
        },
        "peak_mib": {
            "record_batch_json": round(rec_json_mb, 2),
            "record_streaming_binary": round(rec_bin_mb, 2),
            "analyze_batch_json": round(ana_json_mb, 2),
            "analyze_streaming_binary": round(ana_bin_mb, 2),
        },
        "end_to_end_s": {
            # Medians over alternating pairs, each a record then an
            # analyze; single-shot stage timings sit above.
            "batch_json": e2e_batch,
            "streaming_binary": e2e_stream,
            "speedup": round(e2e_ratio, 2),
            "pairs": pairs,
            "cpu": e2e_cpu,
        },
    }


def run_dedup(n_events: int) -> dict:
    """Loop-heavy macro: every iteration is a nested pair, so duplicate
    tuples dominate ``D_sigma``.  Times ``find_cycles``, which collapses
    duplicate rows before its search, against the same integer search
    without the collapse (``_search_cycles``), both minting the cycles
    they find, on the identical relation, in alternating pairs on one CPU
    (asserting identical cycles)."""
    from repro.core.detector import _as_deadlocks, _group_rows, _search_cycles

    trace = Trace(program="synthetic-loopy", seed=0)
    for ev in synthetic_events(n_events, nested_every=1, invert_pairs=2):
        trace.append(ev)
    rel = build_lockdep(trace)
    pairs = 6
    last = {}

    def plain():
        cols = rel.cycle_columns()
        found, truncated = _search_cycles(cols, 3, 10_000)
        last["plain"] = _as_deadlocks(cols, found), truncated

    def dedup():
        last["dedup"] = find_cycles(rel, max_length=3)

    plain_s, dedup_s, speedup, cpu = _interleaved_medians(plain, dedup, pairs)
    plain_cycles, plain_trunc = last["plain"]
    cycles, trunc = last["dedup"]
    assert [c.entries for c in plain_cycles] == [c.entries for c in cycles], (
        "the collapsed search disagrees with the plain integer search"
    )
    assert plain_trunc == trunc
    cols = rel.cycle_columns()
    return {
        "events": len(trace),
        "entries": len(rel),
        "rows": len(cols.steps),
        "keys": len(_group_rows(cols)),
        "cycles": len(cycles),
        "identical": True,
        "plain_s": round(plain_s, 6),
        "dedup_s": round(dedup_s, 6),
        "speedup": round(speedup, 2),
        "pairs": pairs,
        "cpu": cpu,
    }


def dense_program(seed: int):
    """A nested-lock program shaped like the benchmark's dense
    analyze-trace inputs: six threads each take 2-3 of five background
    locks in one global order, 12 times, and rings of 2, 2, 3 and 3
    threads each take one ring lock while taking the next, twice."""
    rng = random.Random(f"bench-dense/{seed}")
    sections = [
        [tuple(sorted(rng.sample(range(5), rng.randint(2, 3)))) for _ in range(12)]
        for _ in range(6)
    ]
    n_locks = 5
    for size in (2, 2, 3, 3):
        ring = list(range(n_locks, n_locks + size))
        n_locks += size
        for i, t in enumerate(rng.sample(range(6), size)):
            for _ in range(2):
                section = (ring[i], ring[(i + 1) % size])
                sections[t].insert(rng.randrange(len(sections[t]) + 1), section)

    def program(rt):
        locks = [rt.new_lock(name=f"L{i}", site="dense:locks") for i in range(n_locks)]

        def body(k: int) -> None:
            for section in sections[k]:
                for lock in section:
                    locks[lock].acquire(site=f"t{k}:L{lock}")
                for lock in reversed(section):
                    locks[lock].release(site=f"t{k}:L{lock}")

        handles = [
            rt.spawn(lambda k=k: body(k), name=f"t{k}", site="dense:spawn")
            for k in range(6)
        ]
        for h in handles:
            h.join()

    return program


def write_dense_traces(tmp_dir: str, n: int) -> List[str]:
    """``n`` complete recordings of seeded dense programs (the first
    schedule of each in which no ring deadlocks for real)."""
    from repro.core.pipeline import run_detection
    from repro.runtime.sim.result import RunStatus

    paths = []
    for seed in range(n):
        program = dense_program(seed)
        for attempt in range(50):
            run = run_detection(program, 100 * seed + attempt, name=f"dense-{seed}", tries=1)
            if run.status is RunStatus.COMPLETED:
                break
        else:
            raise RuntimeError(f"no complete recording of dense-{seed}")
        path = os.path.join(tmp_dir, f"dense-{seed}.wtrc")
        write_trace(run.trace, path)
        paths.append(path)
    return paths


def run_index(paths: List[str], pairs: int = 6) -> dict:
    """The prediction index of dense ``.wtrc`` files, built by the pure
    re-read against the kernel's column re-read.

    Both sides run ``closure_index_for`` over the same Generator
    survivors: one with the pure detection, which re-reads the file in
    Python and feeds event objects, the other with the native one, which
    re-reads it through the kernel and slices the index out of its
    thread columns.  The first side over the second, in alternating
    pairs on one CPU, is ``index_speedup``.
    """
    from repro.core.generator import Generator
    from repro.core.nativekernel import analyze_trace_file
    from repro.core.parallel import closure_index_for
    from repro.core.pruner import Pruner

    if not paths:
        return dict.fromkeys(
            ("index_traces", "index_pure_s", "index_native_s", "index_speedup")
        )
    cases = []
    for path in paths:
        pair = []
        for backend in ("python", "native"):
            detection = analyze_trace_file(path, backend=backend).detection
            prune = Pruner(detection.vclocks).prune(detection.cycles)
            pair.append((detection, Generator(detection.relation).run(prune.survivors)))
        (pure, gen), (native, _) = pair
        if not gen.survivors:
            raise RuntimeError(f"{path}: no Generator survivors to index")
        cases.append((pure, native, gen.decisions, path))

    def pure():
        for detection, _, decisions, path in cases:
            closure_index_for(detection, decisions, path)

    def native():
        for _, detection, decisions, path in cases:
            closure_index_for(detection, decisions, path)

    pure_s, native_s, speedup, _ = _interleaved_medians(pure, native, pairs)
    return {
        "index_traces": len(cases),
        "index_pure_s": round(pure_s, 6),
        "index_native_s": round(native_s, 6),
        "index_speedup": round(speedup, 2),
    }


def run_generator(paths: List[str], pairs: int = 6) -> dict:
    """``Generator.run`` over every cycle of dense ``.wtrc`` files: the
    pure relation, which decides each ``Gs`` on its tables in Python
    (``SyncGraphBuilder.decide``), against the native relation, whose
    kernel decides them all in one call; neither side builds a graph,
    as in a report.  The first
    side over the second, in alternating pairs on one CPU, is
    ``native_speedup``; both sides reach the same verdicts.  Every call
    starts from a fresh Generator and a snapshot without its lookup
    caches, as a report's one call per trace does.
    """
    from repro.core.generator import Generator
    from repro.core.nativekernel import analyze_trace_file

    keys = ("traces", "cycles", "false", "pure_s", "native_s", "native_speedup")
    if not paths:
        return dict.fromkeys(keys)
    cases = [
        tuple(analyze_trace_file(path, backend=b).detection for b in ("python", "native"))
        for path in paths
    ]
    verdicts = {}

    def decide(side: int):
        def run():
            verdicts[side] = [
                [d.verdict for d in Generator(det.relation).run(det.cycles).decisions]
                for det in (case[side] for case in cases)
            ]

        return run

    def fresh_snapshots():
        for _, native in cases:
            for cache in ("_member_rows", "string_canon"):
                native.relation._snap.__dict__.pop(cache, None)

    pure_s, native_s, speedup, cpu = _interleaved_medians(
        decide(0), decide(1), pairs, setup=fresh_snapshots
    )
    assert verdicts[0] == verdicts[1], "the kernel and the builder disagree on Gs"
    return {
        "traces": len(cases),
        "cycles": sum(len(v) for v in verdicts[0]),
        "false": sum(v.value == "false" for vs in verdicts[0] for v in vs),
        "pure_s": round(pure_s, 6),
        "native_s": round(native_s, 6),
        "native_speedup": round(speedup, 2),
        "pairs": pairs,
        "cpu": cpu,
    }


def run_prediction(dense_paths: List[str]) -> dict:
    """Sync-preserving prediction over every registry benchmark.

    Measures what the prediction tentpole claims: how many Generator
    survivors the pass decides (certifies or refutes) without replay,
    and what the pass itself costs on top of detection.  The decided
    ratio is machine-independent (pure trace analysis), so the perf gate
    can hold a floor under it.

    ``early_speedup`` times ``predict_decisions`` over the same survivors
    without and with ``promote_early`` (what reports run), in alternating
    pairs on one CPU.  ``settled_early`` counts the survivors whose defect
    key already certified at an earlier instance of the same trace: the
    ones the early path decides without a schedule search or a witness.
    The ``index_*`` fields come from :func:`run_index` over
    ``dense_paths``.
    """
    from repro.core.generator import Generator, GeneratorVerdict
    from repro.core.parallel import predict_decisions
    from repro.core.pipeline import run_detection
    from repro.core.prediction import ClosureIndex, PredictionVerdict
    from repro.core.pruner import Pruner
    from repro.workloads.registry import all_benchmarks

    counts = {"certified": 0, "refuted": 0, "undecided": 0}
    n_bench = 0
    candidates = 0
    settled_early = 0
    predict_s = 0.0
    cases = []
    for b in all_benchmarks():
        n_bench += 1
        run = run_detection(b.program, b.detect_seed, name=b.name)
        detection = ExtendedDetector(max_length=b.max_cycle_length).analyze(
            run.trace
        )
        prune = Pruner(detection.vclocks).prune(detection.cycles)
        gen = Generator(detection.relation).run(prune.survivors)
        unknown = [
            d for d in gen.decisions if d.verdict is GeneratorVerdict.UNKNOWN
        ]
        if not unknown:
            continue
        candidates += len(unknown)
        t0 = time.perf_counter()
        index = ClosureIndex.from_events(run.trace)
        preds = predict_decisions(index, gen.decisions)
        predict_s += time.perf_counter() - t0
        cases.append((index, gen.decisions))
        certified_keys = set()
        for d, p in zip(gen.decisions, preds):
            if p is None:
                continue
            counts[p.verdict.value] += 1
            key = d.cycle.defect_key
            settled_early += key in certified_keys
            if p.verdict is PredictionVerdict.CERTIFIED and not p.promoted:
                certified_keys.add(key)

    def default():
        for index, decisions in cases:
            predict_decisions(index, decisions)

    def early():
        for index, decisions in cases:
            predict_decisions(index, decisions, promote_early=True)

    pairs = 6
    default_s, early_s, early_speedup, cpu = _interleaved_medians(
        default, early, pairs
    )
    decided = counts["certified"] + counts["refuted"]
    examined = sum(counts.values())
    return {
        "benchmarks": n_bench,
        "candidates": candidates,
        **counts,
        "decided_ratio": round(decided / examined, 4) if examined else None,
        "predict_s": round(predict_s, 6),
        "settled_early": settled_early,
        "predict_default_s": round(default_s, 6),
        "predict_early_s": round(early_s, 6),
        "early_speedup": round(early_speedup, 2),
        "pairs": pairs,
        "cpu": cpu,
        **run_index(dense_paths, pairs=pairs),
    }


def run_micro() -> dict:
    """Single-shot stage timings on the module's heavy trace (best of 3)."""
    result = run_program(heavy_program(), RandomStrategy(0, stickiness=0.9))
    result.raise_errors()
    trace = result.trace

    def best(fn, n=3):
        return min(_wall(fn)[0] for _ in range(n))

    rel = build_lockdep(trace)
    timings = {
        "build_lockdep_s": best(lambda: build_lockdep(trace)),
        "vector_clocks_s": best(lambda: compute_vector_clocks(trace)),
        "find_cycles_s": best(lambda: find_cycles(rel, max_length=3)),
        "batch_engine_s": best(
            lambda: ExtendedDetector(max_length=3).analyze(trace)
        ),
        "streaming_engine_s": best(
            lambda: StreamingDetector(max_length=3).analyze(trace)
        ),
        "json_dump_s": best(lambda: dump_trace(trace)),
        "binary_write_s": best(lambda: write_trace(trace, io.BytesIO())),
    }
    return {"events": len(trace), **{k: round(v, 6) for k, v in timings.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--events", type=int, default=120_000,
        help="synthetic stream length for the macro comparison (>=100k)",
    )
    parser.add_argument("--out", default="BENCH_core.json")
    args = parser.parse_args(argv)

    import tempfile

    from repro.util.interrupt import INTERRUPT_EXIT_CODE, GracefulInterrupt

    # Ctrl-C between stages flushes whatever completed as a partial
    # document (interrupted=true) and exits EX_TEMPFAIL instead of
    # losing minutes of timings to a traceback.
    from repro.core.nativekernel import kernel_available

    macro = dedup = micro = prediction = generator = None
    with GracefulInterrupt() as interrupt, tempfile.TemporaryDirectory() as tmp:
        macro = run_macro(args.events, tmp)
        if not interrupt.triggered:
            dedup = run_dedup(args.events)
        if not interrupt.triggered:
            micro = run_micro()
        # The kernel's ratios read dense .wtrc files; none without it.
        dense = write_dense_traces(tmp, 8) if kernel_available() else []
        if not interrupt.triggered:
            prediction = run_prediction(dense)
        if not interrupt.triggered:
            generator = run_generator(dense)
    doc = {
        "schema": "bench-core/12",
        "macro": macro,
        "dedup": dedup,
        "micro": micro,
        "prediction": prediction,
        "generator": generator,
    }
    if interrupt.triggered:
        doc["interrupted"] = True
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    if interrupt.triggered:
        print(f"interrupted: partial results flushed to {args.out}", file=sys.stderr)
        return INTERRUPT_EXIT_CODE
    speedup = macro["end_to_end_s"]["speedup"]
    print(
        f"{macro['events']} events: end-to-end "
        f"batch+json {macro['end_to_end_s']['batch_json']:.3f}s vs "
        f"streaming+binary {macro['end_to_end_s']['streaming_binary']:.3f}s "
        f"({speedup}x), file {macro['file_bytes']['ratio']}x smaller; "
        f"wrote {args.out}"
    )
    ana = macro["analyze_s"]
    asp = macro["analyze_speedup"]
    native_txt = (
        "unavailable (no C compiler)"
        if ana["streaming_binary_native"] is None
        else f"{ana['streaming_binary_native']:.3f}s ({asp['native']}x, "
        f"kernel {macro['native_kernel']})"
    )
    dr = macro["decode_ratio"]
    print(
        f"analyze {macro['events']} events: pure-python "
        f"{ana['streaming_binary']:.3f}s, native {native_txt}; in-memory "
        f"analyze {dr['analyze_in_memory_s']:.3f}s vs decode "
        f"{dr['decode_s']:.3f}s ({dr['ratio']}x)"
    )
    print(
        f"loop-heavy {dedup['events']} events: enumeration "
        f"plain {dedup['plain_s']:.3f}s vs collapsed "
        f"{dedup['dedup_s']:.3f}s ({dedup['speedup']}x, {dedup['rows']} "
        f"rows collapsed into {dedup['keys']} keys, {dedup['cycles']} cycles)"
    )
    print(
        f"prediction over {prediction['benchmarks']} benchmark(s): "
        f"{prediction['candidates']} candidate(s), "
        f"{prediction['certified']} certified, {prediction['refuted']} "
        f"refuted, {prediction['undecided']} undecided "
        f"({100.0 * prediction['decided_ratio']:.1f}% decided without "
        f"replay, {prediction['predict_s']:.3f}s); settling each key once "
        f"({prediction['settled_early']} settled early): "
        f"{prediction['predict_default_s'] * 1e3:.1f} -> "
        f"{prediction['predict_early_s'] * 1e3:.1f} ms "
        f"({prediction['early_speedup']}x)"
    )
    if prediction["index_speedup"] is not None:
        print(
            f"closure index over {prediction['index_traces']} dense trace(s): "
            f"pure re-read {prediction['index_pure_s'] * 1e3:.1f} ms vs kernel "
            f"columns {prediction['index_native_s'] * 1e3:.1f} ms "
            f"({prediction['index_speedup']}x)"
        )
    if generator["native_speedup"] is not None:
        print(
            f"Generator over {generator['cycles']} cycle(s) of "
            f"{generator['traces']} dense trace(s): Python builder "
            f"{generator['pure_s'] * 1e3:.1f} ms vs kernel "
            f"{generator['native_s'] * 1e3:.1f} ms "
            f"({generator['native_speedup']}x)"
        )
    ok = True
    if speedup <= 1.0:
        print("FAIL: streaming+binary not faster end-to-end", file=sys.stderr)
        ok = False
    if dr["ratio"] < 1.2:
        print(
            "FAIL: decoding the macro .wtrc takes more than 1/1.2 of the "
            f"in-memory streaming analyze (ratio {dr['ratio']}x)",
            file=sys.stderr,
        )
        ok = False
    if asp["native"] is None:
        print(
            "WARN: native kernel unavailable; >=10x analyze floor not checked",
            file=sys.stderr,
        )
    elif asp["native"] < 10.0:
        print(
            "FAIL: native kernel not >=10x faster than the pure-Python "
            f"streaming analyze (got {asp['native']}x)",
            file=sys.stderr,
        )
        ok = False
    if dedup["speedup"] < 3.0:
        print(
            "FAIL: the collapsed cycle search is not >=3x faster than the "
            f"plain integer search on the loop-heavy macro (got "
            f"{dedup['speedup']}x)",
            file=sys.stderr,
        )
        ok = False
    if prediction["decided_ratio"] is None or prediction["decided_ratio"] < 0.6:
        print(
            "FAIL: prediction decides < 60% of registry candidates without "
            f"replay (got {prediction['decided_ratio']})",
            file=sys.stderr,
        )
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
