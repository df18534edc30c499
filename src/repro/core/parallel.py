"""Parallel execution layer for the WOLF pipeline.

WOLF's stages are embarrassingly parallel: detection runs are independent
per seed, and each surviving cycle's replay attempts are independent of
every other cycle's (paper §4 runs many seeds and many replays per cycle).
This module fans both out onto a :class:`~concurrent.futures.ProcessPoolExecutor`
while keeping the pipeline's output *deterministic*:

* tasks are built in the serial pipeline's order and results are merged
  back **positionally**, so cycle reports come back in the same order and
  with identical classifications regardless of completion order;
* ``skip_confirmed_defects`` deduplication is resolved at merge time in
  :mod:`repro.core.pipeline` (never inside workers), so there is no race
  on the confirmed-key set;
* replay seeds derive from ``(detection seed, cycle sites, attempt)``
  alone (:class:`~repro.core.replayer.Replayer`), so a replay outcome does
  not depend on which other replays ran, or where.

Worker processes are started with the ``spawn`` method by default: the
simulated runtime parks real OS threads, and forking a threaded parent is
a portability hazard.  ``spawn`` requires the program object to be
picklable; :func:`make_engine` probes that and falls back to the
same-process :class:`SerialEngine` (also used for ``workers=1``) when the
program — e.g. a locally-defined closure — cannot be shipped to workers.

**Supervision.**  A long multi-seed campaign must survive hostile
workloads, so both engines expose :meth:`map_supervised`, which wraps
every task in a :class:`TaskOutcome` envelope instead of letting failures
propagate raw:

* a workload exception becomes an ``error`` outcome (the traceback rides
  along as text);
* a task that produces nothing within :attr:`SupervisionPolicy.task_timeout`
  becomes a ``timeout`` outcome — enforced *inside* the worker by a
  deadline-guard thread that captures the hung task's stack, with a
  parent-side ``Future`` timeout as the backstop for a wedged worker;
* a worker that dies outright (``os._exit``, OOM-kill) becomes a
  ``crashed`` outcome — the broken pool is abandoned and respawned,
  unfinished tasks are re-enqueued, and after
  :attr:`SupervisionPolicy.max_pool_breakages` the engine degrades to
  in-process execution with :attr:`ProcessEngine.fallback_reason` set;
* failures are retried with deterministic exponential backoff up to
  :attr:`SupervisionPolicy.retries`, after which the task is quarantined
  (its final failed outcome is recorded and nothing else re-runs it).

The pipeline turns failed outcomes into ``WolfReport.faults`` entries and
keeps classifying the surviving work — a bad seed costs one report line,
never the campaign.
"""

from __future__ import annotations

import enum
import multiprocessing
import pickle
import sys
import threading
import time
import traceback
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

# ``find_cycles`` stays a module attribute here: wolfbench's tracer wraps
# the enumeration under every name the package exposes it by.
from repro.core.detector import DetectionResult, find_cycles  # noqa: F401
from repro.core.streaming import StreamingDetector
from repro.core.generator import (
    Generator,
    GeneratorDecision,
    GeneratorResult,
    GeneratorVerdict,
)
from repro.core.prediction import (
    ClosureIndex,
    CyclePrediction,
    PredictionVerdict,
    Predictor,
    WitnessSchedule,
    promote_by_defect,
    promoted_from,
)
from repro.core.pruner import Pruner, PruneResult
from repro.core.replayer import Replayer, ReplayOutcome
from repro.runtime.sim.runtime import Program
from repro.runtime.tracefile import TraceFileReader

T = TypeVar("T")
R = TypeVar("R")


# ---------------------------------------------------------------------------
# Task descriptions (picklable work units) and their module-level runners.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectTask:
    """One detection run plus its trace-side analysis stages.

    Detection, pruning and ``Gs`` construction all depend only on the
    seed's own trace, so the whole chain runs inside one worker — only the
    (value-object) results cross the process boundary.
    """

    program: Program
    seed: int
    name: str
    stickiness: float
    tries: int
    max_cycle_length: int
    max_cycles: int
    max_steps: int
    step_timeout: float
    #: Prediction mode (``"off"``, ``"filter"`` or ``"certify"``): any
    #: non-off value runs the sync-preserving prediction pass over the
    #: Generator's survivors inside the worker, so fleet batches predict
    #: shard-parallel for free.
    predict: str = "off"


@dataclass
class DetectStageResult:
    """Everything one seed's detect→prune→generate chain produced."""

    seed: int
    detection: DetectionResult
    prune: PruneResult
    gen: GeneratorResult
    #: Task-seconds per stage, measured inside the (possibly remote)
    #: worker — the pipeline sums these into aggregate stage times.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Aligned with ``gen.decisions``: a :class:`CyclePrediction` for each
    #: Generator survivor, ``None`` for FALSE decisions (and everywhere
    #: when prediction is off).
    predictions: Optional[Tuple[Optional[CyclePrediction], ...]] = None


def _detect_from_task(task: DetectTask) -> DetectionResult:
    """Run the task's detection stage: execute the seed, then analyze."""
    # Imported here: pipeline.py imports this module at the top level.
    from repro.core.pipeline import run_detection

    run = run_detection(
        task.program,
        task.seed,
        name=task.name,
        stickiness=task.stickiness,
        tries=task.tries,
        max_steps=task.max_steps,
        step_timeout=task.step_timeout,
    )
    return StreamingDetector(
        max_length=task.max_cycle_length, max_cycles=task.max_cycles
    ).analyze(run.trace)


def closure_index_for(
    detection: DetectionResult,
    decisions: Sequence[GeneratorDecision],
    trace_path: Optional[str] = None,
) -> ClosureIndex:
    """The prediction index :func:`predict_decisions` needs for ``decisions``.

    Prediction examines only the Generator's survivors, so with none left
    the index is empty and the trace is never walked.  Otherwise the
    in-memory trace is used when the detection materialized one; file
    analysis never does, so ``trace_path`` names the backing ``.wtrc`` (or
    serve spool) to re-read in one sequential pass, with the backend
    that made the detection.  A detection the native kernel made is
    re-read through the kernel, which hands the index per-thread
    columns and takes the identity tables from the detection's
    relation; a pure detection is re-read in Python, the only path on a
    host without a C compiler.  Both backends accept the same bytes, so
    a payload the kernel refuses raises the pure decoder's error.
    """
    if not any(d.verdict is GeneratorVerdict.UNKNOWN for d in decisions):
        return ClosureIndex()
    if len(detection.trace.events) > 0:
        return ClosureIndex.from_events(detection.trace)
    if trace_path is None:
        return ClosureIndex()
    from repro.core.nativekernel import NativeColumnReader, NativeRelation

    rel = detection.relation
    with (
        NativeColumnReader(trace_path, rel)
        if isinstance(rel, NativeRelation)
        else TraceFileReader(trace_path)
    ) as reader:
        return ClosureIndex.from_events(reader)


def predict_decisions(
    index: ClosureIndex,
    decisions: Sequence[GeneratorDecision],
    *,
    promote_early: bool = False,
) -> Tuple[Optional[CyclePrediction], ...]:
    """Predict every Generator survivor; FALSE decisions map to ``None``.

    Verdicts are promoted key-level within the task (an UNDECIDED instance
    whose ``defect_key`` certified via a sibling inherits the sibling's
    witness); the pipeline merge promotes once more across seeds.

    ``promote_early`` settles each defect key once: after an instance of
    a key certifies, each later instance of that key is only checked for
    refutation (:meth:`Predictor.refutation`) and otherwise inherits the
    first certified instance's witness, with no schedule search or
    witness of its own.  Every verdict equals the default's; only a later
    instance that would have certified on its own comes back promoted.
    Reports, which read verdicts only, pass it; replay follows each
    instance's own witness and keeps the default.
    """
    predictor = Predictor(index)
    certified: Dict[object, CyclePrediction] = {}
    raw: List[Optional[CyclePrediction]] = []
    for d in decisions:
        if d.verdict is not GeneratorVerdict.UNKNOWN:
            raw.append(None)
            continue
        key = d.cycle.defect_key
        sibling = certified.get(key)
        if sibling is not None:
            raw.append(predictor.refutation(d.cycle) or promoted_from(sibling))
            continue
        pred = predictor.examine(d.cycle)
        if promote_early and pred.verdict is PredictionVerdict.CERTIFIED:
            certified[key] = pred
        raw.append(pred)
    return tuple(promote_by_defect([d.cycle for d in decisions], raw))


def run_detect_task(task: DetectTask) -> DetectStageResult:
    """Module-level worker entry point (must be importable for ``spawn``)."""
    timings: Dict[str, float] = {}
    t0 = time.perf_counter()
    detection = _detect_from_task(task)
    timings["detect"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    prune = Pruner(detection.vclocks).prune(detection.cycles)
    timings["prune"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    gen = Generator(detection.relation).run(prune.survivors)
    timings["generate"] = time.perf_counter() - t0

    predictions: Optional[Tuple[Optional[CyclePrediction], ...]] = None
    if task.predict != "off":
        t0 = time.perf_counter()
        index = closure_index_for(detection, gen.decisions)
        predictions = predict_decisions(index, gen.decisions)
        timings["predict"] = time.perf_counter() - t0

    return DetectStageResult(
        seed=task.seed,
        detection=detection,
        prune=prune,
        gen=gen,
        timings=timings,
        predictions=predictions,
    )


@dataclass(frozen=True)
class ReplayTask:
    """All replay attempts for one Generator survivor."""

    program: Program
    name: str
    #: The detection seed the cycle came from — replay seeds derive from
    #: it exactly as in the serial pipeline.
    seed: int
    decision: GeneratorDecision
    attempts: int
    max_steps: int
    step_timeout: float
    #: Optional witness schedule (from a CERTIFIED prediction or
    #: ``--replay-witness``): the first attempt follows it instead of the
    #: random Gs-steered strategy, making the hit deterministic.
    witness: Optional[WitnessSchedule] = None


def run_replay_task(task: ReplayTask) -> ReplayOutcome:
    """Module-level worker entry point (must be importable for ``spawn``)."""
    replayer = Replayer(
        task.program,
        name=task.name,
        attempts=task.attempts,
        seed=task.seed,
        max_steps=task.max_steps,
        step_timeout=task.step_timeout,
    )
    return replayer.replay(task.decision, witness=task.witness)


# ---------------------------------------------------------------------------
# Supervision: outcome envelopes, policies, and the in-worker deadline guard
# ---------------------------------------------------------------------------


class TaskStatus(enum.Enum):
    """Terminal state of one supervised task."""

    OK = "ok"
    #: The task raised (workload exception, scheduler stall, ...).
    ERROR = "error"
    #: No result within the per-task deadline.
    TIMEOUT = "timeout"
    #: The worker process died under the task (hard exit, kill, OOM).
    CRASHED = "crashed"


#: Exceptions carrying this attribute set to ``"crashed"`` are classified
#: as worker crashes even when raised in-process — the hook the chaos
#: harness (:mod:`repro.testing.chaos`) uses so a simulated hard-exit
#: classifies identically under ``workers=1`` and ``workers=N``.
FAILURE_CLASS_ATTR = "wolf_failure_class"


@dataclass
class TaskOutcome:
    """Envelope around one supervised task's result or failure."""

    status: TaskStatus
    #: The task function's return value (``OK`` only).
    value: Any = None
    #: Exception class name, or ``"TaskDeadlineExceeded"`` for timeouts.
    error_type: str = ""
    #: Human-readable failure detail (message, traceback tail, or the hung
    #: task thread's captured stack).
    message: str = ""
    #: Retries consumed (0 = first attempt resolved it).
    retries: int = 0
    #: Wall-clock seconds across all attempts, including backoff sleeps.
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is TaskStatus.OK


@dataclass(frozen=True)
class SupervisionPolicy:
    """Fault-tolerance knobs for one :meth:`map_supervised` campaign."""

    #: Per-task wall-clock deadline in seconds (``None`` = unbounded, the
    #: historical behavior).
    task_timeout: Optional[float] = None
    #: Extra attempts after the first before a failing task is quarantined.
    retries: int = 2
    #: First backoff sleep; doubles per retry (deterministic, no jitter).
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0
    #: Parent-side slack past ``task_timeout`` before a worker that has not
    #: even returned its timeout envelope is declared wedged.
    grace_s: float = 10.0
    #: Pool breakages tolerated before the engine degrades to in-process
    #: execution for the rest of the run.
    max_pool_breakages: int = 2

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {self.task_timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_base_s < 0:
            raise ValueError(f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.max_pool_breakages < 0:
            raise ValueError(
                f"max_pool_breakages must be >= 0, got {self.max_pool_breakages}"
            )

    def backoff(self, attempt: int) -> float:
        """Deterministic exponential backoff before retry ``attempt + 1``."""
        return min(self.backoff_base_s * (2**attempt), self.backoff_cap_s)

    def backstop(self) -> Optional[float]:
        """Parent-side ``Future`` timeout (in-worker deadline + grace)."""
        if self.task_timeout is None:
            return None
        return self.task_timeout + self.grace_s


#: Wire format of one attempt, picklable across the process boundary:
#: ``("ok", value)`` or ``(failure_class, error_type, message)``.
Envelope = Tuple


def _error_envelope(exc: BaseException) -> Envelope:
    failure = getattr(exc, FAILURE_CLASS_ATTR, "")
    kind = (
        TaskStatus.CRASHED.value
        if failure == TaskStatus.CRASHED.value
        else TaskStatus.ERROR.value
    )
    return (kind, type(exc).__name__, f"{exc}\n{traceback.format_exc()}".strip())


def _thread_stack(thread: threading.Thread) -> str:
    """Best-effort stack of a (hung) thread, faulthandler-style."""
    frame = sys._current_frames().get(thread.ident) if thread.ident else None
    if frame is None:
        return "<stack unavailable>"
    return "".join(traceback.format_stack(frame)).strip()


def guarded_call(fn: Callable[[T], R], task: T, timeout: Optional[float]) -> Envelope:
    """Run ``fn(task)`` under a deadline guard and return an envelope.

    This is both the worker-process entry point for supervised maps (it
    must stay module-level so ``spawn`` can import it) and the in-process
    attempt primitive of :class:`SerialEngine`.  With a ``timeout`` the
    task runs in a daemon thread; if it has produced nothing when the
    deadline passes, a ``timeout`` envelope carrying the task thread's
    captured stack is returned and the zombie thread is abandoned (it
    cannot block process exit).
    """
    if timeout is None:
        try:
            return ("ok", fn(task))
        except BaseException as exc:  # noqa: BLE001 - enveloped, not swallowed
            return _error_envelope(exc)
    box: List[Envelope] = []

    def _attempt() -> None:
        try:
            box.append(("ok", fn(task)))
        except BaseException as exc:  # noqa: BLE001 - enveloped, not swallowed
            box.append(_error_envelope(exc))

    t = threading.Thread(target=_attempt, daemon=True, name="wolf-supervised-task")
    t.start()
    t.join(timeout)
    if box:  # finished right at the wire: prefer the real result
        return box[0]
    return (
        TaskStatus.TIMEOUT.value,
        "TaskDeadlineExceeded",
        f"no result within {timeout}s; task thread stack:\n{_thread_stack(t)}",
    )


def _outcome_from(envelope: Envelope, *, retries: int, elapsed_s: float) -> TaskOutcome:
    if envelope[0] == "ok":
        return TaskOutcome(
            TaskStatus.OK, value=envelope[1], retries=retries, elapsed_s=elapsed_s
        )
    kind, error_type, message = envelope
    return TaskOutcome(
        TaskStatus(kind),
        error_type=error_type,
        message=message,
        retries=retries,
        elapsed_s=elapsed_s,
    )


# ---------------------------------------------------------------------------
# Execution engines
# ---------------------------------------------------------------------------


class SerialEngine:
    """Same-process execution: the ``workers=1`` path and the fallback for
    programs that cannot be shipped to worker processes.

    :meth:`map_supervised` evaluates strictly in task order, which is
    what makes the ``workers=1`` pipeline bit-identical to the
    historical serial one.
    """

    #: Parallel engines replay every candidate eagerly; the pipeline keys
    #: its lazy skip-confirmed path off this flag.
    parallel = False
    workers = 1

    def __init__(self, fallback_reason: str = "") -> None:
        #: Why a requested process pool degraded to serial ("" when serial
        #: was requested outright).
        self.fallback_reason = fallback_reason

    def map_supervised(
        self,
        fn: Callable[[T], R],
        tasks: Sequence[T],
        policy: SupervisionPolicy,
    ) -> List[TaskOutcome]:
        """Strictly-ordered in-process execution with the same envelope,
        deadline, retry and quarantine semantics as the process engine —
        what makes fault classifications identical for every worker count."""
        return [self._supervise_one(fn, t, policy) for t in tasks]

    def _supervise_one(
        self, fn: Callable[[T], R], task: T, policy: SupervisionPolicy
    ) -> TaskOutcome:
        t0 = time.perf_counter()
        envelope: Envelope = ()
        for attempt in range(policy.retries + 1):
            envelope = guarded_call(fn, task, policy.task_timeout)
            if envelope[0] == "ok":
                return _outcome_from(
                    envelope, retries=attempt, elapsed_s=time.perf_counter() - t0
                )
            if attempt < policy.retries:
                time.sleep(policy.backoff(attempt))
        return _outcome_from(
            envelope, retries=policy.retries, elapsed_s=time.perf_counter() - t0
        )

    def close(self) -> None:
        pass

    def __enter__(self) -> "SerialEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ProcessEngine:
    """Fan tasks out over a lazily-created :class:`ProcessPoolExecutor`.

    Results are returned in task order, never completion order:
    :meth:`map_supervised` wraps every task in a :class:`TaskOutcome` and
    survives worker failures.  The pool is reused across stages of one
    ``Wolf.analyze`` call and torn down by :meth:`close` (or the
    ``with`` statement).

    **Breakage ladder.**  A dead worker breaks the whole
    ``ProcessPoolExecutor`` and fails every in-flight future, so the
    culprit cannot be identified from the wreckage.  The supervised map
    therefore abandons the broken pool (killing any survivors), respawns,
    and re-runs unresolved tasks *one at a time* ("cautious mode"): a
    breakage with a single task in flight is attributable, counts against
    that task's retry budget, and classifies it ``crashed``.  Once total
    breakages exceed :attr:`SupervisionPolicy.max_pool_breakages`, the
    engine degrades to in-process execution for subsequent tasks
    (:attr:`fallback_reason` says why) — except tasks already attributed
    as crashers, which are quarantined rather than invited to take the
    parent process down with them.
    """

    parallel = True

    def __init__(self, workers: int, mp_context: str = "spawn") -> None:
        self.workers = workers
        self.fallback_reason = ""
        #: Total pool breakages observed (worker deaths, wedged workers).
        self.breakages = 0
        self._ctx = multiprocessing.get_context(mp_context)
        self._pool: Optional[ProcessPoolExecutor] = None
        #: After any breakage: submit one task at a time so further
        #: breakages are attributable.
        self._cautious = False
        #: After the breakage budget: run tasks in-process.
        self._degraded = False

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self._ctx
            )
        return self._pool

    def _abandon_pool(self) -> None:
        """Tear down a broken/wedged pool without waiting on it."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        procs = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for p in procs:
            try:
                p.kill()
            except Exception:
                pass

    def _note_breakage(self, policy: SupervisionPolicy, why: str) -> None:
        self.breakages += 1
        self._cautious = True
        self._abandon_pool()
        if self.breakages > policy.max_pool_breakages and not self._degraded:
            self.fallback_reason = (
                f"process pool broke {self.breakages} times "
                f"(budget {policy.max_pool_breakages}): {why}; "
                "degrading to in-process execution"
            )

    # -- supervised map ----------------------------------------------------

    def map_supervised(
        self,
        fn: Callable[[T], R],
        tasks: Sequence[T],
        policy: SupervisionPolicy,
    ) -> List[TaskOutcome]:
        tasks = list(tasks)
        if not tasks:
            return []
        futures: List[Optional[Future]] = [None] * len(tasks)
        if not self._cautious and not self._degraded:
            # Healthy fan-out: everything in flight at once.
            try:
                pool = self._ensure_pool()
                for i, task in enumerate(tasks):
                    futures[i] = pool.submit(
                        guarded_call, fn, task, policy.task_timeout
                    )
            except Exception as exc:  # pool refused to start/accept work
                self._note_breakage(policy, f"submission failed: {exc}")
                futures = [None] * len(tasks)
        return [
            self._supervise_one(fn, task, policy, futures[i])
            for i, task in enumerate(tasks)
        ]

    def _supervise_one(
        self,
        fn: Callable[[T], R],
        task: T,
        policy: SupervisionPolicy,
        future: Optional[Future],
    ) -> TaskOutcome:
        t0 = time.perf_counter()
        attempts = 0
        envelope: Envelope = ()
        while True:
            # Checked between attempts, never mid-attempt: pool failures
            # that are not this task's fault (collateral breakage, failed
            # submission) consume no attempt, so retry counts stay uniform
            # across worker counts even when the engine degrades mid-task.
            if self.breakages > policy.max_pool_breakages:
                self._degraded = True
            if self._degraded:
                if envelope and envelope[0] == TaskStatus.CRASHED.value:
                    # Known crasher: quarantine, never run it in-process.
                    break
                envelope = guarded_call(fn, task, policy.task_timeout)
            else:
                # Only a solo submission, made once the engine is already
                # cautious, can be blamed for a breakage: a retry made
                # while the first concurrent batch still runs shares the
                # pool with every other task in flight.
                attributable = future is None and self._cautious
                if future is None:
                    try:
                        future = self._ensure_pool().submit(
                            guarded_call, fn, task, policy.task_timeout
                        )
                    except Exception as exc:
                        # A pool that refuses work broke under *someone* —
                        # possibly a previous task's crash landing between
                        # this task's attempts — never under this task,
                        # which hasn't run.  Respawn and retry, no attempt
                        # spent; repeats are bounded by the breakage budget
                        # tripping degradation above.
                        self._note_breakage(policy, f"submission failed: {exc}")
                        continue
                try:
                    envelope = future.result(timeout=policy.backstop())
                except BrokenExecutor as exc:
                    future = None
                    self._note_breakage(policy, f"worker process died: {exc}")
                    if not attributable:
                        # Collateral damage from another task's crash (or
                        # from the pre-breakage concurrent batch, where the
                        # culprit is unknowable): re-run, no attempt spent.
                        continue
                    envelope = (
                        TaskStatus.CRASHED.value,
                        "BrokenProcessPool",
                        "worker process terminated abruptly while running "
                        "this task (hard exit, kill, or out-of-memory)",
                    )
                except FutureTimeoutError:
                    # The in-worker guard should have answered within the
                    # deadline; a silent worker is wedged beyond recovery.
                    future = None
                    self._note_breakage(
                        policy, "worker unresponsive past deadline + grace"
                    )
                    envelope = (
                        TaskStatus.TIMEOUT.value,
                        "TaskDeadlineExceeded",
                        f"worker produced nothing within task_timeout + "
                        f"{policy.grace_s}s grace; pool respawned",
                    )
                else:
                    future = None
            attempts += 1
            if envelope[0] == "ok" or attempts > policy.retries:
                break
            time.sleep(policy.backoff(attempts - 1))
        return _outcome_from(
            envelope,
            retries=max(attempts - 1, 0) if envelope[0] == "ok" else policy.retries,
            elapsed_s=time.perf_counter() - t0,
        )

    # -- teardown ----------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Shut the pool down; ``wait=False`` (the exception path) kills
        worker processes instead of waiting for them."""
        if self._pool is None:
            return
        if wait:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=True, cancel_futures=True)
        else:
            self._abandon_pool()

    def __enter__(self) -> "ProcessEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # On error/KeyboardInterrupt, don't wait on workers that may be
        # mid-task (or hung): cancel queued futures and kill the pool.
        self.close(wait=exc_type is None)


ExecutionEngine = Union[SerialEngine, ProcessEngine]


def is_picklable(obj) -> bool:
    """Can ``obj`` cross a process boundary?  (Closures and locally-defined
    functions cannot; module-level functions and plain classes can.)"""
    try:
        pickle.dumps(obj)
    except Exception:
        return False
    return True


def make_engine(
    workers: int, program: Program, *, mp_context: str = "spawn"
) -> ExecutionEngine:
    """Choose the execution engine for one pipeline run.

    Returns a :class:`ProcessEngine` when ``workers > 1`` and ``program``
    can be pickled to workers; otherwise a :class:`SerialEngine` whose
    ``fallback_reason`` says why (empty when serial was simply requested).
    """
    if workers <= 1:
        return SerialEngine()
    if not is_picklable(program):
        return SerialEngine(
            fallback_reason=(
                "program is not picklable (closure or locally-defined "
                "callable); running in-process"
            )
        )
    try:
        return ProcessEngine(workers, mp_context=mp_context)
    except ValueError:
        return SerialEngine(
            fallback_reason=f"multiprocessing context {mp_context!r} unavailable"
        )
