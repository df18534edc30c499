"""Native analysis kernel: the compiled ``.wtrc`` hot path.

The streaming engine's per-event Python loop (decode one event, run
``update_clocks``, mint a ``LockDepEntry``) costs microseconds per event;
the algorithms themselves are linear-time, so on large traces the wall
clock is pure interpreter overhead.  This module drives the C kernel in
``src/repro/_kernel/wolfkernel.c`` — one compiled pass per EVENTS chunk
that fuses varint decode, interned-table bounds checks, Algorithm 1's
scalar-timestamp (tau) maintenance and ``D_sigma`` entry extraction —
zero-copy from an mmap'd trace file, with no per-event Python objects.

Division of labor (see docs/architecture.md, "Native analysis kernel"):

* **Python keeps**: all chunk framing (:class:`TraceFileReader` /
  :class:`ChunkDecoder` subclasses below), identity-table decoding and
  each table's canonical row map, error reporting, vector-clock
  *semantics* (the kernel only logs touch/spawn/join ops, which are
  replayed through Algorithm 1's own updates on canonical thread rows),
  cycle enumeration, and everything downstream (Pruner, prediction,
  reports; the Generator's graphs when one is read).
* **C keeps**: the per-event byte crunching, emitting flat int64 logs —
  clock ops, lockdep entries, held-lock pool — keyed by the canonical
  thread rows Python hands it; and the Generator's decision, whether
  each cycle's ``Gs`` is cyclic (:func:`decide_gs`).
* **Integers until an object is needed**: the cycle search reads the
  entry log as integer columns (:meth:`NativeRelation.cycle_columns`)
  and mints only cycle members; the Generator has the kernel decide
  every cycle's ``Gs`` on the same log in one call per trace
  (:meth:`NativeRelation.gs_cyclic`).  No analysis path reads the whole
  relation or a graph; ``NativeRelation.entries`` materializes the
  relation, into the exact objects the pure-Python engine would have
  built, for a caller that does, and a decision's graph is built from
  it when read.
* **Only possible cycle members reach the search**: the kernel exports
  the entries whose wanted lock and some held lock share a strongly
  connected component of two or more locks of the held -> wanted lock
  graph, the only entries a tuple cycle can go through (the argument is
  in ``wolfkernel.c``), so a cycle-free trace hands the search no rows.
  The clock-op log is replayed into vector clocks only when the Pruner
  first reads ``V``, that is when it has a cycle to check; ``V`` is all
  a native detection's clocks answer.
* **Columns for the prediction index**: the index re-reads the file
  through a kernel that collects the trace as per-thread columns
  (:class:`NativeColumnReader`): dense thread and lock ids in first-
  mention order; per thread the steps, closure kinds, aux ids, matched
  release positions and token keys of its events; its spawn and end
  facts; the acquisitions in trace order; and, per thread, the
  positions a closure rule can fire on.
  :meth:`~repro.core.prediction.ClosureIndex.from_events` slices its
  tables out of them with no per-event Python loop and formats a
  thread's witness tokens only when a witness reads them.  The re-read
  takes the identity tables from the analysis pass's snapshot instead
  of decoding them again.  Analysis contexts collect no columns.

Build & fallback rules:

* The kernel is plain C99 with no Python.h, compiled on demand with the
  system C compiler (``$CC``/``cc``/``gcc``/``clang``) into a content-
  addressed cache (``$WOLF_KERNEL_CACHE`` or ``~/.cache/wolf-kernel``)
  and loaded through the cffi ABI.  No wheels, no setup-time build step.
* ``backend="auto"`` (the default everywhere) uses the kernel when it
  compiles and loads, silently falling back to pure Python otherwise;
  ``backend="native"`` raises :class:`KernelUnavailableError` instead of
  falling back; ``backend="python"`` never touches the kernel.
  ``WOLF_PURE_PYTHON=1`` force-disables the kernel process-wide.
* Determinism: the differential suite (tests/test_nativekernel.py)
  proves byte-identical reports against the pure-Python engine, and the
  grammar parity suite (tests/test_grammar_parity.py) one outcome per
  byte string.  The pure decoder holds an EVENTS payload to the
  kernel's widths (every varint below 2^64, the step and occurrences
  within int64), so both backends accept exactly the same payloads; a
  payload the kernel refuses is re-decoded in Python only to raise the
  pure backend's own exception (:func:`_feed_payload`).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.detector import DetectionResult, PotentialDeadlock, find_cycles
from repro.core.lockdep import CycleColumns, LockDepEntry, LockDependencyRelation
from repro.core.prediction import ThreadColumns
from repro.core.streaming import StreamingDetector
from repro.core.vclock import SJ, VectorClockState
from repro.runtime.events import Trace
from repro.runtime.tracefile import (
    ChunkDecoder,
    TraceFileReader,
    _DecodeCore,
    _get_uvarint,
)
from repro.util.ids import ExecIndex, LockId, ThreadId

#: Version of the kernel ABI this wrapper speaks; must match wk_abi().
KERNEL_ABI = 6

#: Backends accepted by every ``backend=`` parameter in the pipeline.
BACKENDS = ("python", "native", "auto")

_ENV_DISABLE = "WOLF_PURE_PYTHON"
_ENV_CACHE = "WOLF_KERNEL_CACHE"

_CDEF = """
typedef struct wk_ctx wk_ctx;
const char *wk_version(void);
int wk_abi(void);
wk_ctx *wk_new(void);
void wk_free(wk_ctx *);
int wk_set_tables(wk_ctx *, uint64_t, uint64_t, uint64_t, const int64_t *,
                  const int64_t *);
void wk_collect_columns(wk_ctx *, int);
int wk_feed_events(wk_ctx *, const void *, uint64_t);
int64_t wk_last_step(wk_ctx *);
uint64_t wk_events_read(wk_ctx *);
uint64_t wk_n_clock_ops(wk_ctx *);
const int64_t *wk_clock_ops(wk_ctx *);
uint64_t wk_n_entries(wk_ctx *);
const int64_t *wk_entries(wk_ctx *);
uint64_t wk_n_held(wk_ctx *);
const int64_t *wk_held(wk_ctx *);
int wk_find_cycle_rows(wk_ctx *);
uint64_t wk_n_cycle_rows(wk_ctx *);
const int64_t *wk_cycle_rows(wk_ctx *);
int wk_columns_finish(wk_ctx *);
uint64_t wk_column_len(wk_ctx *, int);
const int64_t *wk_column(wk_ctx *, int);
int wk_decide_gs(const int64_t *, uint64_t, const int64_t *, uint64_t,
                 const int64_t *, uint64_t, const int64_t *, uint64_t,
                 const int64_t *, uint64_t, const int64_t *, uint64_t,
                 uint64_t, uint8_t *);
"""


class KernelUnavailableError(RuntimeError):
    """``backend="native"`` was requested but the kernel cannot load."""


# ---------------------------------------------------------------------------
# build & load
# ---------------------------------------------------------------------------

_load_lock = threading.Lock()
_ffi = None
_lib = None
_load_error: Optional[str] = None
_load_attempted = False


def _kernel_source() -> str:
    return os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "_kernel",
        "wolfkernel.c",
    )


def kernel_cache_dir() -> str:
    env = os.environ.get(_ENV_CACHE)
    if env:
        return env
    return os.path.join(
        os.path.expanduser("~"), ".cache", "wolf-kernel"
    )


def _find_cc() -> Optional[str]:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    return None


def _build_shared_object(source: str) -> str:
    """Compile the kernel into the content-addressed cache (idempotent,
    concurrency-safe: compile to a temp file, then atomic rename)."""
    with open(source, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()[:16]
    cache = kernel_cache_dir()
    so_path = os.path.join(cache, f"wolfkernel-{digest}.so")
    if os.path.exists(so_path):
        return so_path
    cc = _find_cc()
    if cc is None:
        raise RuntimeError("no C compiler found ($CC, cc, gcc or clang)")
    os.makedirs(cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        subprocess.run(
            [cc, "-O2", "-std=c99", "-fPIC", "-shared", "-o", tmp, source],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(tmp, so_path)
    except subprocess.CalledProcessError as exc:
        raise RuntimeError(
            f"kernel compile failed: {exc.stderr.strip()[:500]}"
        ) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return so_path


def _load() -> Tuple[object, object]:
    """Compile (if needed) and dlopen the kernel; memoized, thread-safe."""
    global _ffi, _lib, _load_error, _load_attempted
    with _load_lock:
        if _lib is not None:
            return _ffi, _lib
        if _load_attempted and _load_error is not None:
            raise KernelUnavailableError(_load_error)
        _load_attempted = True
        try:
            if os.environ.get(_ENV_DISABLE, "") not in ("", "0"):
                raise RuntimeError(f"disabled by {_ENV_DISABLE}")
            import cffi

            so_path = _build_shared_object(_kernel_source())
            ffi = cffi.FFI()
            ffi.cdef(_CDEF)
            lib = ffi.dlopen(so_path)
            abi = lib.wk_abi()
            if abi != KERNEL_ABI:
                raise RuntimeError(
                    f"kernel ABI mismatch: built {abi}, wrapper speaks "
                    f"{KERNEL_ABI}"
                )
        except Exception as exc:  # noqa: BLE001 - any failure means fallback
            _load_error = f"{type(exc).__name__}: {exc}"
            raise KernelUnavailableError(_load_error) from exc
        _ffi, _lib = ffi, lib
        return _ffi, _lib


def kernel_available() -> bool:
    """True when the compiled kernel can be (or already was) loaded."""
    try:
        _load()
        return True
    except KernelUnavailableError:
        return False


def kernel_load_error() -> Optional[str]:
    """Why the kernel is unavailable (None when it loaded or was never
    tried)."""
    return _load_error


def kernel_version() -> Optional[str]:
    """The loaded kernel's version string, or ``None`` if unavailable."""
    try:
        ffi, lib = _load()
    except KernelUnavailableError:
        return None
    return ffi.string(lib.wk_version()).decode("ascii")


def resolve_backend(backend: str) -> str:
    """Resolve a ``python``/``native``/``auto`` choice to a concrete
    backend.  ``native`` raises :class:`KernelUnavailableError` when the
    kernel cannot load; ``auto`` silently falls back to ``python``."""
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {'/'.join(BACKENDS)}, got {backend!r}"
        )
    if backend == "python":
        return "python"
    if backend == "native":
        _load()  # raises KernelUnavailableError with the reason
        return "native"
    return "native" if kernel_available() else "python"


def require_native() -> None:
    """Assert the native backend resolves (CI's native-leg guard)."""
    resolved = resolve_backend("native")
    assert resolved == "native"


def backend_info(backend: str = "auto") -> Dict[str, Optional[str]]:
    """Attribution block for ``--version`` / manifests / health docs."""
    try:
        resolved = resolve_backend(backend)
    except KernelUnavailableError:
        resolved = "python"
    info: Dict[str, Optional[str]] = {"backend": resolved}
    info["kernel"] = kernel_version() if resolved == "native" else None
    return info


# ---------------------------------------------------------------------------
# kernel handle
# ---------------------------------------------------------------------------


class _Kernel:
    """One kernel context: the native mirror of one decode stream."""

    def __init__(self) -> None:
        ffi, lib = _load()
        self._ffi = ffi
        self._lib = lib
        ctx = lib.wk_new()
        if ctx == ffi.NULL:
            raise MemoryError("wk_new failed")
        self._ctx = ffi.gc(ctx, lib.wk_free)

    def set_tables(
        self, n_strings: int, thread_canon: array, lock_canon: array
    ) -> None:
        """Size the tables; ``thread_canon`` and ``lock_canon`` map every
        thread and lock row to the first row holding an equal identity."""
        from_buffer = self._ffi.from_buffer
        rc = self._lib.wk_set_tables(
            self._ctx,
            n_strings,
            len(thread_canon),
            len(lock_canon),
            from_buffer("int64_t[]", thread_canon),
            from_buffer("int64_t[]", lock_canon),
        )
        if rc != 0:
            raise MemoryError("wk_set_tables failed")

    def collect_columns(self) -> None:
        """Collect every event fed from now on (see :meth:`columns`)."""
        self._lib.wk_collect_columns(self._ctx, 1)

    def feed_events(self, payload) -> int:
        """Feed one EVENTS payload; returns the kernel error code
        (0 = OK).  The caller raises for non-zero codes through the
        pure-Python re-decode (:func:`_feed_payload`)."""
        buf = self._ffi.from_buffer(payload)
        return self._lib.wk_feed_events(self._ctx, buf, len(payload))

    @property
    def events_read(self) -> int:
        return self._lib.wk_events_read(self._ctx)

    @property
    def last_step(self) -> int:
        return self._lib.wk_last_step(self._ctx)

    def _pull(self, n_items: int, ptr, width: int) -> array:
        out = array("q")
        if n_items:
            out.frombytes(self._ffi.buffer(ptr, n_items * width * 8)[:])
        return out

    def snapshot_arrays(self) -> Tuple[array, array, array, array]:
        """Copy the kernel's logs out (clock ops, entries, held pool, and
        the indices of the entries that can close a cycle)."""
        lib, ctx = self._lib, self._ctx
        if lib.wk_find_cycle_rows(ctx) != 0:
            raise MemoryError("wk_find_cycle_rows failed")
        return (
            self._pull(lib.wk_n_clock_ops(ctx), lib.wk_clock_ops(ctx), 3),
            self._pull(lib.wk_n_entries(ctx), lib.wk_entries(ctx), 10),
            self._pull(lib.wk_n_held(ctx), lib.wk_held(ctx), 4),
            self._pull(lib.wk_n_cycle_rows(ctx), lib.wk_cycle_rows(ctx), 1),
        )

    def columns(self) -> Tuple[array, array, array, array]:
        """Group the collected events by thread and copy the columns out
        (threads, locks, events, acquisitions; see :class:`ThreadColumns`).
        Empty for a context that collected none."""
        lib, ctx = self._lib, self._ctx
        if lib.wk_columns_finish(ctx) != 0:
            raise MemoryError("wk_columns_finish failed")
        return tuple(
            self._pull(lib.wk_column_len(ctx, k), lib.wk_column(ctx, k), 1)
            for k in range(4)
        )

    def rule_spots(self) -> Tuple[array, array]:
        """The spots and runs :meth:`columns` lists beside the columns
        (see :class:`ThreadColumns`); call it after :meth:`columns`."""
        lib, ctx = self._lib, self._ctx
        return tuple(
            self._pull(lib.wk_column_len(ctx, k), lib.wk_column(ctx, k), 1)
            for k in (4, 5)
        )

    @property
    def n_entries(self) -> int:
        return self._lib.wk_n_entries(self._ctx)


def _feed_payload(kernel: _Kernel, core: _DecodeCore, payload) -> None:
    """Feed one EVENTS payload into the kernel with error parity.

    The kernel refuses exactly the payloads the pure-Python decoder
    refuses.  On a refusal the payload is re-decoded in Python from the
    identical pre-chunk state (the kernel validates before mutating, so
    its state is untouched), and Python's exception propagates: the same
    type and message as the pure backend.  A refusal Python accepts is a
    bug in one of the two decoders and raises ``RuntimeError``, which no
    caller treats as a decode outcome.
    """
    rc = kernel.feed_events(payload)
    if rc != 0:
        # Re-decode from bytes, not the mmap view: the decoder must raise
        # the exact exception (type AND message) the pure backend raises,
        # and bytes vs memoryview indexing word their IndexErrors
        # differently.
        data = payload.tobytes() if isinstance(payload, memoryview) else payload
        for _ in _DecodeCore._decode_events(core, data):
            pass
        raise RuntimeError(
            f"native kernel refused (code {rc}) an EVENTS payload the "
            "pure-Python decoder accepts"
        )
    core.events_read = kernel.events_read
    core._last_step = kernel.last_step


def decide_gs(
    ent: array,
    held: array,
    thread_canon: array,
    lock_canon: array,
    string_canon: array,
    cycles: Sequence[Sequence[int]],
) -> List[bool]:
    """Whether each cycle's ``Gs`` is cyclic, decided in the kernel
    (``wk_decide_gs``) exactly as
    :meth:`~repro.core.syncgraph.SyncGraphBuilder.decide` decides it.

    ``ent`` and ``held`` are an entry log and held pool in the snapshot's
    layout, the canonical maps give each thread, lock and string row the
    first row equal to it, and each cycle lists its members' entry rows.
    """
    if not cycles:
        return []
    ffi, lib = _load()
    flat = array("q", chain.from_iterable([len(rows), *rows] for rows in cycles))
    out = bytearray(len(cycles))
    buf = ffi.from_buffer
    rc = lib.wk_decide_gs(
        buf("int64_t[]", ent),
        len(ent) // 10,
        buf("int64_t[]", held),
        len(held) // 4,
        buf("int64_t[]", thread_canon),
        len(thread_canon),
        buf("int64_t[]", lock_canon),
        len(lock_canon),
        buf("int64_t[]", string_canon),
        len(string_canon),
        buf("int64_t[]", flat),
        len(flat),
        len(cycles),
        buf("uint8_t[]", out),
    )
    if rc != 0:
        if rc == -5:
            raise MemoryError("wk_decide_gs failed")
        raise ValueError(f"wk_decide_gs refused its tables (code {rc})")
    return list(map(bool, out))


# ---------------------------------------------------------------------------
# chunk sources wired into the kernel
# ---------------------------------------------------------------------------


def _extend_canon(table: Sequence, first: Dict, canon) -> None:
    """Extend ``canon`` over the new rows of ``table``: each row maps to
    the first row holding an equal identity.  ``ThreadId`` and ``LockId``
    equality ignores ``name``, so a table may repeat an identity under
    another name; every consumer that compares ids compares these."""
    for row in range(len(canon), len(table)):
        canon.append(first.setdefault(table[row], row))


class _KernelFeed:
    """Mixin for a chunk source that routes EVENTS payloads into a kernel
    instead of decoding per-event Python objects.

    Table chunks are decoded by the inherited pure-Python logic and then
    sized into the kernel, so framing and table corruption raise the
    exact errors of the pure backend.  The mixin also keeps each table's
    canonical row map (``_thread_canon``, ``_lock_canon``): the kernel
    keys its per-thread state by the thread map, and the cycle search
    compares ids through both.
    """

    def _init_decode_state(self) -> None:
        super()._init_decode_state()
        self._thread_canon = array("q")
        self._lock_canon = array("q")
        self._first_thread: Dict[ThreadId, int] = {}
        self._first_lock: Dict[LockId, int] = {}

    def _sync_tables(self) -> None:
        _extend_canon(self._threads, self._first_thread, self._thread_canon)
        _extend_canon(self._locks, self._first_lock, self._lock_canon)
        self._nk.set_tables(len(self._strings), self._thread_canon, self._lock_canon)

    def _load_strings(self, payload) -> None:
        super()._load_strings(payload)
        self._sync_tables()

    def _load_threads(self, payload) -> None:
        super()._load_threads(payload)
        self._sync_tables()

    def _load_locks(self, payload) -> None:
        super()._load_locks(payload)
        self._sync_tables()

    def _decode_events(self, payload) -> tuple:
        _feed_payload(self._nk, self, payload)
        return ()


class NativeTraceFileReader(_KernelFeed, TraceFileReader):
    """:class:`TraceFileReader` feeding a kernel.

    Iterating yields no events (they never exist as objects); iteration
    is for its side effect of streaming the file through the kernel.
    """

    _events_view = True  # zero-copy payload views into the map

    def __init__(self, src, kernel: _Kernel) -> None:
        self._nk = kernel
        super().__init__(src)


class NativeColumnReader(TraceFileReader):
    """A ``.wtrc`` re-read through a kernel that collects per-thread
    columns, for :meth:`ClosureIndex.from_events`.

    ``relation`` is the native analysis of the same bytes, whose
    snapshot holds the identity tables and their canonical row maps: the
    kernel is sized once from them, and the re-read decodes no table
    chunk again.  :meth:`~repro.runtime.tracefile._DecodeCore._next_chunk`
    still frames and orders every chunk; a table chunk is only counted,
    and the re-read refuses a file whose table rows differ from the
    snapshot's (the file changed since its analysis).  The columns exist
    only for the length of the re-read; analysis contexts never collect
    them.
    """

    _events_view = True  # zero-copy payload views into the map

    def __init__(self, src, relation: "NativeRelation") -> None:
        snap = self._snap = relation._snap
        self._nk = _Kernel()
        self._nk.set_tables(len(snap.strings), snap.thread_canon, snap.lock_canon)
        self._nk.collect_columns()
        super().__init__(src)

    def _init_decode_state(self) -> None:
        super()._init_decode_state()
        snap = self._snap
        # The pure re-decode of a refused payload (_feed_payload) reads
        # these; the loaders below never extend them.
        self._strings = snap.strings
        self._threads = snap.threads
        self._locks = snap.locks
        self._rows = {"strings": 0, "threads": 0, "locks": 0}

    def _count_rows(self, table: str, payload) -> None:
        n, _ = _get_uvarint(payload, 0)
        self._rows[table] += n
        if self._rows[table] > len(getattr(self._snap, table)):
            raise ValueError(f"{table} table differs from the analyzed trace's")

    def _load_strings(self, payload) -> None:
        self._count_rows("strings", payload)

    def _load_threads(self, payload) -> None:
        self._count_rows("threads", payload)

    def _load_locks(self, payload) -> None:
        self._count_rows("locks", payload)

    def _decode_events(self, payload) -> tuple:
        _feed_payload(self._nk, self, payload)
        return ()

    def read_columns(self) -> ThreadColumns:
        """Stream the rest of the file through the kernel; the whole
        trace as :class:`ThreadColumns`, with the tables their rows
        index."""
        for _ in self:
            pass
        for table, n in self._rows.items():
            if n != len(getattr(self._snap, table)):
                raise ValueError(f"{table} table differs from the analyzed trace's")
        threads, locks, events, acquisitions = self._nk.columns()
        spots, runs = self._nk.rule_spots()
        return ThreadColumns(
            threads=threads,
            locks=locks,
            events=events,
            acquisitions=acquisitions,
            spots=spots,
            runs=runs,
            strings=self._strings,
            thread_rows=self._threads,
            lock_rows=self._locks,
        )


class NativeChunkDecoder(_KernelFeed, ChunkDecoder):
    """Push-mode :class:`ChunkDecoder` feeding a kernel.

    :meth:`push` returns no events (``[]``): the daemon counts ingestion
    progress from ``events_read`` (which this class syncs from the
    kernel) rather than from materialized event objects.
    """

    def __init__(
        self, kernel: _Kernel, *, max_chunk_bytes: Optional[int] = None
    ) -> None:
        super().__init__(max_chunk_bytes=max_chunk_bytes)
        self._nk = kernel


# ---------------------------------------------------------------------------
# snapshot -> Python objects (lazy)
# ---------------------------------------------------------------------------


@dataclass
class _KernelSnapshot:
    """The kernel's flat logs plus the identity tables to resolve them
    (and the tables' canonical row maps, see :class:`_KernelFeed`, with
    the first row of each identity).

    ``cycle_rows`` are the indices, ascending, of the entries a tuple
    cycle can go through: those whose wanted lock and some held lock lie
    in one strongly connected component of two or more locks of the
    canonical held -> wanted lock graph (``wk_find_cycle_rows``).  They
    are the only rows :meth:`cycle_columns` hands the search.  The clock
    log is replayed by :meth:`build_vclocks`, which the detection calls
    only when ``V`` is first read (:class:`_ReplayedClocks`).
    """

    strings: List[str]
    threads: List[ThreadId]
    locks: List[LockId]
    thread_canon: Sequence[int]
    lock_canon: Sequence[int]
    first_thread: Dict[ThreadId, int]
    clock_ops: array
    ent: array
    held: array
    cycle_rows: array

    @property
    def n_entries(self) -> int:
        return len(self.ent) // 10

    def build_vclocks(self) -> VectorClockState:
        """Replay the clock-op log through Algorithm 1's own updates
        (:meth:`VectorClockState.touch`, ``spawn`` and ``join``, what
        :func:`update_clocks` applies per event), keyed by canonical
        thread row.

        Touch/spawn/join are the only operations that mutate tau/clocks,
        and the kernel logs them in stream order, so the replay builds
        the pure engine's clocks with rows for threads;
        :class:`_ReplayedClocks` answers the Pruner's ``V`` from it.
        """
        st = VectorClockState()
        tcanon = self.thread_canon
        ops = self.clock_ops
        for i in range(0, len(ops), 3):
            op, t = ops[i], tcanon[ops[i + 1]]
            st.touch(t)
            if op == 1:
                st.spawn(t, tcanon[ops[i + 2]])
            elif op == 2:
                st.join(t, tcanon[ops[i + 2]])
        return st

    def materialize_entries(self, indices=None) -> List[LockDepEntry]:
        """Mint :class:`LockDepEntry` objects from the flat logs —
        identical (``==``) to what ``entry_from_acquire`` produced on the
        pure path, in the same stream order.  ``indices`` restricts to a
        subset of entry indices (ascending)."""
        ent, held = self.ent, self.held
        strings, threads, locks = self.strings, self.threads, self.locks
        out: List[LockDepEntry] = []
        rng = range(self.n_entries) if indices is None else indices
        for i in rng:
            b = 10 * i
            nheld = ent[b + 8]
            if nheld:
                hoff = 4 * ent[b + 9]
                lockset = tuple(
                    locks[held[j]] for j in range(hoff, hoff + 4 * nheld, 4)
                )
                context = tuple(
                    ExecIndex(
                        threads[held[j + 1]], strings[held[j + 2]], held[j + 3]
                    )
                    for j in range(hoff, hoff + 4 * nheld, 4)
                )
            else:
                lockset = context = ()
            out.append(
                LockDepEntry(
                    thread=threads[ent[b + 1]],
                    lockset=lockset,
                    lock=locks[ent[b + 2]],
                    context=context,
                    index=ExecIndex(
                        threads[ent[b + 3]], strings[ent[b + 4]], ent[b + 5]
                    ),
                    tau=ent[b + 6],
                    step=ent[b],
                    pos=ent[b + 7],
                )
            )
        return out

    def cycle_columns(self) -> CycleColumns:
        """The cycle rows as :class:`CycleColumns`, read straight from
        the entry log and held pool through the canonical row maps.  The
        search finds the cycles it would find over every lock-holding
        entry, in the same order and with the same truncation.  Rows map
        back to entries by minting only those."""
        ent, held, rows = self.ent, self.held, self.cycle_rows
        tcanon, lcanon = self.thread_canon, self.lock_canon
        steps: List[int] = []
        threads: List[int] = []
        locks: List[int] = []
        helds: List[Tuple[int, ...]] = []
        # Loops repeat a few locksets many times: map each raw one once,
        # and each canonical lock in it once (see
        # LockDependencyRelation.cycle_columns).
        canon_of: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        for i in rows:
            b = 10 * i
            hoff = 4 * ent[b + 9]
            raw = tuple(held[hoff : hoff + 4 * ent[b + 8] : 4])
            h = canon_of.get(raw)
            if h is None:
                h = canon_of[raw] = tuple(dict.fromkeys([lcanon[l] for l in raw]))
            steps.append(ent[b])
            threads.append(tcanon[ent[b + 1]])
            locks.append(lcanon[ent[b + 2]])
            helds.append(h)
        return CycleColumns(
            steps,
            threads,
            locks,
            helds,
            lambda found: self.materialize_entries([rows[r] for r in found]),
        )

    @cached_property
    def string_canon(self) -> array:
        """Each string row -> the first row holding an equal string."""
        first: Dict[str, int] = {}
        return array("q", map(first.setdefault, self.strings, range(len(self.strings))))

    @cached_property
    def _member_rows(self) -> Dict[Tuple[int, int], int]:
        """(canonical thread row, pos) -> entry row, for each cycle row:
        every member of a tuple cycle is one (``wk_find_cycle_rows``), and
        each row has its own key, since the kernel counts positions per
        canonical thread."""
        ent, tcanon = self.ent, self.thread_canon
        return {(tcanon[ent[10 * r + 1]], ent[10 * r + 7]): r for r in self.cycle_rows}

    def gs_cyclic(self, cycles: Sequence[PotentialDeadlock]) -> List[bool]:
        """Whether each cycle's ``Gs`` is cyclic, decided by the kernel
        (:func:`decide_gs`) on the entry log: no table, plan or vertex is
        built in Python.  Members are found by thread, position and step,
        so the cycles of an unpickled detection, or of the pure analysis
        of the same trace, qualify too."""
        if not cycles:
            return []
        at, first, ent = self._member_rows, self.first_thread, self.ent
        rows = []
        for cycle in cycles:
            members = []
            for e in cycle.entries:
                row = at.get((first.get(e.thread), e.pos))
                if row is None or ent[10 * row] != e.step:
                    raise ValueError(f"{e.pretty()} is in no cycle of this relation")
                members.append(row)
            rows.append(members)
        return decide_gs(
            ent, self.held, self.thread_canon, self.lock_canon, self.string_canon, rows
        )


class _ReplayedClocks:
    """The vector clocks of a snapshot, replayed on canonical thread rows
    (:meth:`_KernelSnapshot.build_vclocks`) on the first read of
    :meth:`V`, the one thing the Pruner reads.  A cycle-free trace never
    replays its clock log, and no clock is keyed by :class:`ThreadId`.
    """

    def __init__(self, snap: _KernelSnapshot) -> None:
        self._snap = snap

    @cached_property
    def _replay(self) -> VectorClockState:
        return self._snap.build_vclocks()

    def V(self, t: ThreadId, other: ThreadId) -> SJ:
        """``V_t(other)``, as :meth:`VectorClockState.V` answers it."""
        first = self._snap.first_thread
        return self._replay.V(first.get(t), first.get(other))


class NativeRelation(LockDependencyRelation):
    """``D_sigma`` backed by the kernel's flat entry log.

    The cycle search reads :meth:`cycle_columns` and the Generator
    :meth:`gs_cyclic`, both straight from the logs, so the analyze and
    serve paths mint only the members of the cycles they find and never
    materialize the relation.  ``entries`` materializes it into real
    :class:`LockDepEntry` objects on first access, for any consumer of
    the whole relation (a graph that is read is built on its
    :meth:`acquisition_tables`).
    """

    def __init__(self, snap: _KernelSnapshot) -> None:
        # deliberately NOT calling super().__init__: ``entries`` is
        # created lazily by __getattr__.
        self._snap = snap

    def __getattr__(self, name):
        if name == "entries":
            self.entries = self._snap.materialize_entries()
            return self.entries
        raise AttributeError(name)

    def __len__(self) -> int:
        if "entries" in self.__dict__:
            return len(self.__dict__["entries"])
        return self._snap.n_entries

    def cycle_columns(self) -> CycleColumns:
        return self._snap.cycle_columns()

    def gs_cyclic(self, cycles: Sequence[PotentialDeadlock]) -> List[bool]:
        return self._snap.gs_cyclic(cycles)


# ---------------------------------------------------------------------------
# native streaming detector
# ---------------------------------------------------------------------------


class NativeStreamingDetector:
    """Kernel-backed :class:`StreamingDetector` drop-in for chunk-driven
    streams (trace files and the ingestion daemon).

    Events are consumed inside the kernel by the paired
    :class:`NativeTraceFileReader` / :class:`NativeChunkDecoder`;
    :meth:`feed`/:meth:`feed_many` therefore reject actual event objects
    (in-memory traces always use the pure-Python engine).  Enumeration
    runs at :meth:`finish`, as in the pure detector: ``find_cycles``
    searches the kernel's integer logs through
    :meth:`NativeRelation.cycle_columns`, which hold only the entries
    that can close a cycle, so the relation stays unmaterialized and
    only cycle members become :class:`LockDepEntry` objects; a
    cycle-free trace's ``finish`` hands the search no rows and mints
    none.  The detection's ``vclocks`` answer only ``V``, replaying the
    clock log on its first read (:class:`_ReplayedClocks`), and its
    relation decides every ``Gs`` in the kernel
    (:meth:`NativeRelation.gs_cyclic`).  It holds the snapshot, not the
    kernel context, so it pickles, and a serve session that drops its
    detector drops the kernel.
    """

    def __init__(
        self,
        kernel: _Kernel,
        tables: _KernelFeed,
        *,
        max_length: int = 4,
        max_cycles: int = 10_000,
    ) -> None:
        if max_length < 2:
            raise ValueError(f"max_length must be >= 2, got {max_length}")
        if max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
        self._nk = kernel
        self._tables = tables
        self.max_length = max_length
        self.max_cycles = max_cycles
        self.truncated = False
        self._snap: Optional[_KernelSnapshot] = None
        self._vclocks: Optional[_ReplayedClocks] = None
        self._rel: Optional[NativeRelation] = None

    @property
    def events_seen(self) -> int:
        return self._nk.events_read

    def feed(self, ev) -> None:
        raise TypeError(
            "NativeStreamingDetector consumes chunk payloads through its "
            "reader/decoder, not event objects; use the python backend "
            "for in-memory event streams"
        )

    def feed_many(self, events) -> None:
        for _ in events:
            self.feed(_)

    def stats(self) -> Dict[str, int]:
        """The pure detector's live counters, read from the kernel."""
        return {
            "events_seen": self.events_seen,
            "tuples": self._nk.n_entries,
            "truncated": int(self.truncated),
        }

    def _snapshot(self) -> _KernelSnapshot:
        if self._snap is None:
            ops, ent, held, cycle_rows = self._nk.snapshot_arrays()
            self._snap = _KernelSnapshot(
                strings=self._tables._strings,
                threads=self._tables._threads,
                locks=self._tables._locks,
                thread_canon=self._tables._thread_canon,
                lock_canon=self._tables._lock_canon,
                first_thread=self._tables._first_thread,
                clock_ops=ops,
                ent=ent,
                held=held,
                cycle_rows=cycle_rows,
            )
        return self._snap

    @property
    def vclocks(self) -> _ReplayedClocks:
        if self._vclocks is None:
            self._vclocks = _ReplayedClocks(self._snapshot())
        return self._vclocks

    @property
    def relation(self) -> LockDependencyRelation:
        if self._rel is None:
            self._rel = NativeRelation(self._snapshot())
        return self._rel

    def finish(self, trace: Optional[Trace] = None) -> DetectionResult:
        rel = self.relation
        cycles, self.truncated = find_cycles(
            rel, max_length=self.max_length, max_cycles=self.max_cycles
        )
        return DetectionResult(
            trace=trace if trace is not None else Trace(),
            relation=rel,
            cycles=cycles,
            max_length=self.max_length,
            max_cycles=self.max_cycles,
            vclocks=self.vclocks,
            truncated=self.truncated,
        )


# ---------------------------------------------------------------------------
# file-analysis front door
# ---------------------------------------------------------------------------


@dataclass
class TraceAnalysis:
    """What every ``.wtrc`` consumer needs from one analysis pass."""

    detection: DetectionResult
    program: str
    seed: int
    events: int
    backend: str  # the backend that actually ran ("python" | "native")


def _analyze_native(path, *, max_length: int, max_cycles: int) -> TraceAnalysis:
    kernel = _Kernel()
    with NativeTraceFileReader(path, kernel) as reader:
        det = NativeStreamingDetector(
            kernel, reader, max_length=max_length, max_cycles=max_cycles
        )
        for _ in reader:  # streams chunks through the kernel
            pass
        program, seed = reader.program, reader.seed
        detection = det.finish()
    return TraceAnalysis(
        detection=detection,
        program=program,
        seed=seed,
        events=det.events_seen,
        backend="native",
    )


def analyze_trace_file(
    path,
    *,
    max_length: int = 4,
    max_cycles: int = 10_000,
    backend: str = "auto",
) -> TraceAnalysis:
    """Analyze a ``.wtrc`` file with the resolved backend.

    The single front door used by ``wolf analyze-trace``,
    ``report_doc_for_file`` and the corpus tools — one place guarantees
    every consumer resolves the backend identically.  The resolved
    backend reads the whole file: a decode error propagates from either
    backend as the same exception.
    """
    resolved = resolve_backend(backend)
    if resolved == "native":
        return _analyze_native(path, max_length=max_length, max_cycles=max_cycles)
    det = StreamingDetector(max_length=max_length, max_cycles=max_cycles)
    with TraceFileReader(path) as reader:
        det.feed_many(reader)
        program, seed = reader.program, reader.seed
    return TraceAnalysis(
        detection=det.finish(),
        program=program,
        seed=seed,
        events=det.events_seen,
        backend="python",
    )
