"""Python-vs-native differential suite for the compiled analysis kernel.

The native backend's correctness contract is *byte identity*: on any
trace the pure-Python decoder accepts, the kernel-backed pipeline must
produce the same canonical defect report, the same cycles, the same
``V`` between any two threads, the same ``D_sigma`` — and on any trace
the pure decoder rejects, the same exception type with the same
message.  This file
proves that contract three ways:

* **registry benchmarks** — every benchmark's detection trace is written
  to ``.wtrc`` and the full report pipeline runs under both backends,
  compared at the rendered-byte level;
* **committed corpus** — same byte-level comparison over every minimized
  trace in ``corpus/``;
* **hostile bytes** — crafted corruptions per taxonomy class (torn
  chunk, truncated varint, bad interned-table index, unknown tag) plus a
  single-byte bit-rot sweep and hypothesis fuzz over mutations and
  truncations, asserting outcome parity for every input.

There is no admitted divergence: the pure decoder holds EVENTS payloads
to the kernel's widths, so a varint wider than 64 bits is refused by
both backends with one ``OverflowError``, and ``analyze_trace_file``
reports the backend it resolved for every input
(:class:`TestOversizedVarint`).

Everything that needs the compiled kernel is skipped when it cannot load
(no C compiler, no cffi, or ``WOLF_PURE_PYTHON=1`` — the CI pure leg),
so this file degrades to the pure-Python read-mode tests there.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.nativekernel import (
    BACKENDS,
    KernelUnavailableError,
    _build_shared_object,
    _kernel_source,
    analyze_trace_file,
    backend_info,
    kernel_available,
    kernel_version,
    resolve_backend,
)
from repro.core.streaming import StreamingDetector
from repro.corpus.manifest import DETECTOR_PARAMS
from repro.corpus.validate import CORRUPT_PAYLOAD, classify_decode_error
from repro.runtime.tracefile import (
    ChunkDecoder,
    TraceFileReader,
    _get_uvarint,
    _put_uvarint,
    _put_svarint,
    write_trace,
)
from repro.serve.report import render_report, report_doc_for_file

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a test extra
    HAVE_HYPOTHESIS = False

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO_ROOT / "corpus"
CORPUS_TRACES = sorted(p.name for p in CORPUS_DIR.glob("*.wtrc"))

needs_kernel = pytest.mark.skipif(
    not kernel_available(), reason="native kernel unavailable on this host"
)

# Chunk kinds (mirrors the private constants in repro.runtime.tracefile).
K_META = 0
K_EVENTS = 4
K_END = 5

#: Declared chunk lengths far beyond any file here: a reader that
#: trusted them would allocate that much.
HUGE_LENGTHS = (1 << 40, (1 << 63) - 1, (1 << 64) - 1)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def iter_chunks(data: bytes):
    """Yield ``(kind, header_off, payload_off, payload_len)`` per chunk."""
    pos = 5  # magic + version byte
    while pos < len(data):
        header = pos
        kind = data[pos]
        length, pos = _get_uvarint(data, pos + 1)
        yield kind, header, pos, length
        pos += length


def first_events_chunk(data: bytes):
    for kind, header, off, length in iter_chunks(data):
        if kind == K_EVENTS:
            return header, off, length
    raise AssertionError("trace has no EVENTS chunk")


def splice_events_chunk(data: bytes, payload: bytes) -> bytes:
    """Replace the first EVENTS chunk (and drop everything after it) with
    a hand-crafted payload — tables before it stay valid."""
    header, off, length = first_events_chunk(data)
    out = bytearray(data[:header])
    out.append(K_EVENTS)
    _put_uvarint(out, len(payload))
    out += payload
    return bytes(out)


def with_declared_chunk(prefix: bytes, kind: int, declared: int) -> bytes:
    """``prefix``, then a ``kind`` chunk declaring ``declared`` payload
    bytes of which only three follow."""
    out = bytearray(prefix)
    out.append(kind)
    _put_uvarint(out, declared)
    return bytes(out) + b"abc"


def _steps(detection):
    return [tuple(e.step for e in c.entries) for c in detection.cycles]


def assert_same_v(native, pure, label=""):
    """``V(t, u)`` of a native detection's clocks is the pure engine's for
    every ordered pair of the threads the pure clocks know: ``V`` is all
    native clocks answer, and all the Pruner reads."""
    seen = [u for view in pure.clocks.values() for u in view]
    threads = list(dict.fromkeys([*pure.tau, *pure.clocks, *seen]))
    assert threads, label
    for t in threads:
        for u in threads:
            assert native.V(t, u) == pure.V(t, u), (label, t, u)


def read_outcome(path: str, backend: str):
    """Fully stream a file; ``("ok", events_read)`` or the exception as
    ``("err", type_name, message)``."""
    try:
        if backend == "native":
            from repro.core.nativekernel import _Kernel, NativeTraceFileReader

            kernel = _Kernel()
            with NativeTraceFileReader(path, kernel) as reader:
                for _ in reader:
                    pass
                return ("ok", reader.events_read)
        with TraceFileReader(path) as reader:
            for _ in reader:
                pass
            return ("ok", reader.events_read)
    except Exception as exc:  # noqa: BLE001 - the outcome IS the assertion
        return ("err", type(exc).__name__, str(exc))


def analyze_outcome(path: str, backend: str):
    """``analyze_trace_file`` on one backend: the events and defect keys,
    or the exception as ``("err", type_name, message)``.  A finished
    analysis ran on the backend it resolved."""
    try:
        analysis = analyze_trace_file(path, max_length=3, backend=backend)
    except Exception as exc:  # noqa: BLE001 - the outcome IS the assertion
        return ("err", type(exc).__name__, str(exc))
    assert analysis.backend == resolve_backend(backend)
    return ("ok", analysis.events, analysis.detection.defect_keys())


def assert_outcome_parity(path: str):
    """Both backends reach one outcome on the file, read and analyzed."""
    py = read_outcome(path, "python")
    nat = read_outcome(path, "native")
    assert nat == py, f"backend outcomes diverge: python={py} native={nat}"
    py = analyze_outcome(path, "python")
    nat = analyze_outcome(path, "native")
    assert nat == py, f"analyses diverge: python={py} native={nat}"


@pytest.fixture(scope="module")
def fig9_wtrc(tmp_path_factory) -> str:
    """A small real deadlock trace (fig9) written to ``.wtrc``."""
    from repro.core.pipeline import run_detection
    from repro.workloads.figures import fig9_program

    run = run_detection(fig9_program, 0, name="fig9")
    path = tmp_path_factory.mktemp("nk") / "fig9.wtrc"
    write_trace(run.trace, str(path))
    return str(path)


# ---------------------------------------------------------------------------
# backend selection & build plumbing
# ---------------------------------------------------------------------------


class TestBackendSelection:
    def test_python_always_resolves(self):
        assert resolve_backend("python") == "python"

    def test_auto_resolves_concrete(self):
        assert resolve_backend("auto") in ("python", "native")

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("turbo")

    def test_backend_info_shape(self):
        info = backend_info("auto")
        assert set(info) == {"backend", "kernel"}
        assert info["backend"] in ("python", "native")
        if info["backend"] == "native":
            assert info["kernel"] == kernel_version()
        else:
            assert info["kernel"] is None

    def test_pure_python_env_disables_kernel(self):
        """WOLF_PURE_PYTHON force-disables the kernel process-wide (the
        load is memoized, so probe a fresh interpreter)."""
        env = dict(os.environ, WOLF_PURE_PYTHON="1")
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.core.nativekernel import kernel_available, "
                "resolve_backend\n"
                "print(kernel_available())\n"
                "print(resolve_backend('auto'))",
            ],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.split() == ["False", "python"]

    def test_native_raises_when_unavailable(self):
        if kernel_available():
            assert resolve_backend("native") == "native"
        else:
            with pytest.raises(KernelUnavailableError):
                resolve_backend("native")

    def test_backends_constant_matches_cli(self):
        assert BACKENDS == ("python", "native", "auto")

    @needs_kernel
    def test_build_cache_is_content_addressed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WOLF_KERNEL_CACHE", str(tmp_path))
        first = _build_shared_object(_kernel_source())
        assert first.startswith(str(tmp_path))
        assert os.path.exists(first)
        # Second build is a cache hit on the same path, not a recompile.
        assert _build_shared_object(_kernel_source()) == first

    @needs_kernel
    def test_kernel_version_is_ascii(self):
        v = kernel_version()
        assert v and all(c.isdigit() or c == "." for c in v)


# ---------------------------------------------------------------------------
# one buffer: a path is mapped, a file object is read whole (must hold on
# the pure CI leg too)
# ---------------------------------------------------------------------------


def _reader_outcome(src):
    """Stream ``src`` fully: events and the END count, or the exception
    as ``("err", type_name, message)``."""
    try:
        with TraceFileReader(src) as r:
            return ("ok", list(r), r.declared_events)
    except Exception as exc:  # noqa: BLE001 - the outcome IS the assertion
        return ("err", type(exc).__name__, str(exc))


class TestMmapReader:
    """The same bytes give the same outcome whichever way they are read."""

    def test_events_identical_to_plain_reader(self, fig9_wtrc):
        with TraceFileReader(fig9_wtrc) as r:
            assert r._mm is not None  # a path is mapped
            mapped = list(r)
        with TraceFileReader(io.BytesIO(Path(fig9_wtrc).read_bytes())) as r:
            assert r._mm is None  # a file object is read whole
            plain = list(r)
        assert mapped == plain and mapped

    def test_non_file_source_falls_back(self, tmp_path):
        """A file that cannot be mapped reads plainly: an empty file
        fails exactly as the same empty bytes do from a stream."""
        empty = tmp_path / "empty.wtrc"
        empty.write_bytes(b"")
        assert _reader_outcome(str(empty)) == _reader_outcome(io.BytesIO(b""))
        assert _reader_outcome(str(empty))[:2] == ("err", "TruncatedTraceError")

    def test_corruption_errors_identical_to_plain(self, fig9_wtrc, tmp_path):
        data = Path(fig9_wtrc).read_bytes()
        header, off, length = first_events_chunk(data)
        rot = bytearray(data)
        rot[off + length // 2] ^= 0xFF
        cases = [bytes(rot)] + [data[:cut] for cut in (3, off - 1, off + 1)]
        # A META or EVENTS chunk declaring far more than the file holds
        # is a truncated payload, not an allocation of that size.
        for declared in HUGE_LENGTHS:
            cases.append(with_declared_chunk(data[:5], K_META, declared))
            cases.append(with_declared_chunk(data[:header], K_EVENTS, declared))
        bad = tmp_path / "bad.wtrc"
        for case in cases:
            bad.write_bytes(case)
            mapped = _reader_outcome(str(bad))
            with open(bad, "rb") as fh:
                assert _reader_outcome(fh) == mapped
            assert mapped == _reader_outcome(io.BytesIO(case))
            assert mapped[0] == "err" or case is cases[0]

    def test_file_object_reads_from_current_position(self, fig9_wtrc, tmp_path):
        """A file object is read from where the caller left it, not
        mapped from byte 0."""
        data = Path(fig9_wtrc).read_bytes()
        prefix = b"not a trace: " * 7
        path = tmp_path / "prefixed.bin"
        path.write_bytes(prefix + data)
        with open(path, "rb") as fh:
            assert fh.read(len(prefix)) == prefix
            with TraceFileReader(fh) as r:
                events = list(r)
                assert r.declared_events == len(events)
            assert not fh.closed  # the caller keeps ownership
        with TraceFileReader(fig9_wtrc) as r:
            assert events == list(r)


# ---------------------------------------------------------------------------
# differential: registry benchmarks + committed corpus
# ---------------------------------------------------------------------------


@needs_kernel
class TestDifferentialRegistry:
    @pytest.fixture(scope="class")
    def registry_traces(self, tmp_path_factory):
        from repro.core.pipeline import run_detection
        from repro.workloads.registry import all_benchmarks

        tmp = tmp_path_factory.mktemp("registry")
        out = []
        for b in all_benchmarks():
            run = run_detection(b.program, b.detect_seed, name=b.name)
            path = tmp / f"{b.name}.wtrc"
            write_trace(run.trace, str(path))
            out.append((b.name, str(path), b.max_cycle_length))
        return out

    def test_reports_byte_identical(self, registry_traces):
        for name, path, max_length in registry_traces:
            py = render_report(
                report_doc_for_file(path, max_length=max_length, backend="python")
            )
            nat = render_report(
                report_doc_for_file(path, max_length=max_length, backend="native")
            )
            assert nat == py, f"report bytes diverge on {name}"

    def test_capped_reports_byte_identical(self, registry_traces):
        """A binding ``max_cycles`` cap keeps the same cycles on both
        backends, so the capped report bytes agree too."""
        for name, path, max_length in registry_traces:
            for cap in (1, 2, 3):
                kw = dict(max_length=max_length, max_cycles=cap)
                py = render_report(report_doc_for_file(path, backend="python", **kw))
                nat = render_report(report_doc_for_file(path, backend="native", **kw))
                assert nat == py, f"capped report bytes diverge on {name} at {cap}"

    def test_internal_state_identical(self, registry_traces):
        """Beyond the report: capped and uncapped cycle lists, ``V`` and
        the full relation."""
        for name, path, max_length in registry_traces:
            for cap in (1, 2, 3):
                kw = dict(max_length=max_length, max_cycles=cap)
                dp = analyze_trace_file(path, backend="python", **kw).detection
                dn = analyze_trace_file(path, backend="native", **kw).detection
                assert _steps(dn) == _steps(dp), f"{name} at cap {cap}"
                assert dn.truncated == dp.truncated, f"{name} at cap {cap}"
        for name, path, max_length in registry_traces[:4]:
            py = analyze_trace_file(path, max_length=max_length, backend="python")
            nat = analyze_trace_file(path, max_length=max_length, backend="native")
            assert nat.backend == "native" and py.backend == "python"
            assert (nat.program, nat.seed, nat.events) == (
                py.program,
                py.seed,
                py.events,
            )
            dp, dn = py.detection, nat.detection
            assert _steps(dn) == _steps(dp)
            assert dn.defect_keys() == dp.defect_keys()
            assert dn.truncated == dp.truncated
            assert_same_v(dn.vclocks, dp.vclocks, name)
            # D_sigma: lazy native relation materializes identically (the
            # entries carry each acquisition's tau).
            assert len(dn.relation) == len(dp.relation)
            assert dn.relation.entries == dp.relation.entries


@needs_kernel
class TestDifferentialCorpus:
    @pytest.mark.parametrize("name", CORPUS_TRACES)
    def test_corpus_report_byte_identical(self, name):
        path = str(CORPUS_DIR / name)
        py = render_report(report_doc_for_file(path, backend="python"))
        nat = render_report(report_doc_for_file(path, backend="native"))
        assert nat == py

    def test_detector_params_match_manifest(self):
        # The corpus comparison above runs at the manifest's detector
        # knobs (report_doc_for_file defaults to DETECTOR_PARAMS).
        assert set(DETECTOR_PARAMS) >= {"max_length", "max_cycles"}


@needs_kernel
class TestAliasedIdentityRows:
    """Tables that repeat an identity under another name, and a lockset
    that repeats a lock (see ``tests/crafted.py``).  ``ThreadId`` and
    ``LockId`` compare by value, so both backends must key tau, entry
    positions and the cycle search by value too, and report the same
    bytes."""

    @pytest.fixture(scope="class")
    def crafted(self, tmp_path_factory):
        from tests.crafted import (
            lock_alias_trace,
            repeated_lock_trace,
            thread_alias_trace,
        )

        tmp = tmp_path_factory.mktemp("alias")
        return {
            "thread-alias": thread_alias_trace(str(tmp / "ta.wtrc")),
            "thread-alias-pos": thread_alias_trace(
                str(tmp / "tapos.wtrc"), own_row_locks=3
            ),
            "lock-alias": lock_alias_trace(str(tmp / "la.wtrc")),
            "repeated-lock": repeated_lock_trace(str(tmp / "rl.wtrc")),
        }

    def test_reports_byte_identical(self, crafted):
        for name, path in crafted.items():
            py = render_report(report_doc_for_file(path, backend="python"))
            nat = render_report(report_doc_for_file(path, backend="native"))
            assert nat == py, f"report bytes diverge on {name}"

    def test_thread_alias_cycle_survives(self, crafted):
        """The alias's entries run at A's tau 2, after B started (V_B(A).S
        is 2), so the Pruner keeps the cycle and prediction certifies it.
        Keyed by raw row, they would carry tau 1 and the Pruner would
        drop the cycle."""
        for name in ("thread-alias", "thread-alias-pos"):
            doc = report_doc_for_file(crafted[name], backend="native")
            assert (doc["pruned_false"], doc["replay_candidates"]) == (0, 1), name
            assert doc["prediction"]["certified"] == 1, name

    def test_entries_and_clocks_identical(self, crafted):
        for name, path in crafted.items():
            dp = analyze_trace_file(path, backend="python").detection
            dn = analyze_trace_file(path, backend="native").detection
            # Names too: entry equality skips them.
            assert [(e, e.thread.name, e.tau, e.pos) for e in dn.relation] == [
                (e, e.thread.name, e.tau, e.pos) for e in dp.relation
            ], name
            assert_same_v(dn.vclocks, dp.vclocks, name)
        alias = analyze_trace_file(crafted["thread-alias-pos"], backend="native")
        positions = [
            e.pos for e in alias.detection.relation.entries
            if e.thread.name == "A-alias"
        ]
        assert positions == [3, 4]


# ---------------------------------------------------------------------------
# decoder parity at the chunk-push layer (the daemon's ingestion path)
# ---------------------------------------------------------------------------


@needs_kernel
class TestChunkDecoderParity:
    def test_push_incremental_identical(self, fig9_wtrc):
        from repro.core.nativekernel import (
            NativeChunkDecoder,
            NativeStreamingDetector,
            _Kernel,
        )

        data = Path(fig9_wtrc).read_bytes()

        pdec = ChunkDecoder()
        pdet = StreamingDetector(max_length=3)
        kernel = _Kernel()
        ndec = NativeChunkDecoder(kernel)
        ndet = NativeStreamingDetector(kernel, ndec, max_length=3)

        # Feed in awkward split sizes to cross chunk boundaries.
        for lo in range(0, len(data), 37):
            piece = data[lo : lo + 37]
            events = pdec.push(piece)
            if events:
                pdet.feed_many(events)
            assert ndec.push(piece) == []
        assert ndec.events_read == pdec.events_read
        assert ndec.bytes_consumed == pdec.bytes_consumed
        dp, dn = pdet.finish(), ndet.finish()
        assert _steps(dn) == _steps(dp)
        assert dn.defect_keys() == dp.defect_keys()
        assert ndet.events_seen == pdet.events_seen

    def test_native_detector_rejects_event_objects(self):
        from repro.core.nativekernel import (
            NativeChunkDecoder,
            NativeStreamingDetector,
            _Kernel,
        )
        from repro.runtime.events import BeginEvent
        from repro.util.ids import ThreadId

        kernel = _Kernel()
        det = NativeStreamingDetector(kernel, NativeChunkDecoder(kernel))
        with pytest.raises(TypeError):
            det.feed(BeginEvent(0, ThreadId.root()))


# ---------------------------------------------------------------------------
# decode-error parity: every corruption class, both backends
# ---------------------------------------------------------------------------


def craft(fig9_wtrc: str, tmp_path, payload: bytes, name: str) -> str:
    data = Path(fig9_wtrc).read_bytes()
    path = tmp_path / name
    path.write_bytes(splice_events_chunk(data, payload))
    return str(path)


@needs_kernel
class TestErrorParity:
    def test_torn_chunk(self, fig9_wtrc, tmp_path):
        """File cut mid-EVENTS-payload: framing error, same both ways."""
        data = Path(fig9_wtrc).read_bytes()
        _, off, length = first_events_chunk(data)
        for cut in (off + 1, off + length // 2, off + length - 1):
            torn = tmp_path / f"torn{cut}.wtrc"
            torn.write_bytes(data[:cut])
            py = read_outcome(str(torn), "python")
            nat = read_outcome(str(torn), "native")
            assert py[0] == "err" and nat == py

    def test_truncated_varint_inside_payload(self, fig9_wtrc, tmp_path):
        """Payload ends mid-varint (continuation bit on the final byte)."""
        buf = bytearray()
        _put_uvarint(buf, 1)  # one event
        buf += bytes([0])  # BeginEvent tag
        buf += bytes([0x80])  # svarint step delta: continuation, then EOF
        path = craft(fig9_wtrc, tmp_path, bytes(buf), "truncvarint.wtrc")
        py = read_outcome(path, "python")
        nat = read_outcome(path, "native")
        assert py[0] == "err" and py[1] == "IndexError" and nat == py

    def test_bad_interned_table_index(self, fig9_wtrc, tmp_path):
        """SpawnEvent whose child index is out of the thread table."""
        buf = bytearray()
        _put_uvarint(buf, 1)
        buf += bytes([2])  # SpawnEvent tag
        _put_svarint(buf, 1)  # step delta
        _put_uvarint(buf, 0)  # thread index (valid)
        _put_uvarint(buf, 200)  # child index (out of range)
        path = craft(fig9_wtrc, tmp_path, bytes(buf), "badindex.wtrc")
        py = read_outcome(path, "python")
        nat = read_outcome(path, "native")
        assert py[0] == "err" and py[1] == "IndexError" and nat == py

    def test_unknown_event_tag(self, fig9_wtrc, tmp_path):
        buf = bytearray()
        _put_uvarint(buf, 1)
        buf += bytes([9])  # no such tag
        _put_svarint(buf, 1)
        _put_uvarint(buf, 0)
        path = craft(fig9_wtrc, tmp_path, bytes(buf), "badtag.wtrc")
        py = read_outcome(path, "python")
        nat = read_outcome(path, "native")
        assert py == ("err", "ValueError", "unknown event tag 9")
        assert nat == py

    def test_single_byte_bitrot_sweep(self, fig9_wtrc, tmp_path):
        """Every single-byte mutation over the head of the EVENTS payload
        yields the identical outcome from both backends (and neither
        crashes the process).  This sweeps the taxonomy organically —
        bad indexes, bad tags, truncations — and asserts the sweep did
        hit the index-error class."""
        data = bytearray(Path(fig9_wtrc).read_bytes())
        _, off, length = first_events_chunk(bytes(data))
        bad = tmp_path / "rot.wtrc"
        seen_types = set()
        for rel in range(min(length, 80)):
            for val in (0x00, 0x7F, 0xFF):
                mutated = bytearray(data)
                if mutated[off + rel] == val:
                    continue
                mutated[off + rel] = val
                bad.write_bytes(bytes(mutated))
                py = read_outcome(str(bad), "python")
                nat = read_outcome(str(bad), "native")
                assert nat == py, f"offset {rel} value {val:#x}"
                if py[0] == "err":
                    seen_types.add(py[1])
        assert "IndexError" in seen_types or "ValueError" in seen_types

    def test_corruption_classifies_identically(self, fig9_wtrc, tmp_path):
        """classify_decode_error maps both backends' exceptions to the
        same quarantine code."""
        buf = bytearray()
        _put_uvarint(buf, 1)
        buf += bytes([2])
        _put_svarint(buf, 1)
        _put_uvarint(buf, 0)
        _put_uvarint(buf, 200)
        path = craft(fig9_wtrc, tmp_path, bytes(buf), "classify.wtrc")
        codes = []
        for backend in ("python", "native"):
            try:
                _read_raising(path, backend)
            except Exception as exc:  # noqa: BLE001
                codes.append(classify_decode_error(exc).code)
        assert len(codes) == 2 and codes[0] == codes[1]


def _read_raising(path: str, backend: str) -> None:
    if backend == "native":
        from repro.core.nativekernel import _Kernel, NativeTraceFileReader

        kernel = _Kernel()
        with NativeTraceFileReader(path, kernel) as reader:
            for _ in reader:
                pass
    else:
        with TraceFileReader(path) as reader:
            for _ in reader:
                pass


# ---------------------------------------------------------------------------
# varints wider than 64 bits: refused by both backends alike
# ---------------------------------------------------------------------------


def _oversized_payload() -> bytes:
    """One BeginEvent whose zigzag step delta is 2^70: eleven bytes."""
    buf = bytearray()
    _put_uvarint(buf, 1)
    buf += bytes([0])  # BeginEvent tag
    _put_uvarint(buf, 1 << 70)  # zigzag step delta
    _put_uvarint(buf, 0)  # thread index
    return bytes(buf)


def _with_extra_events_chunk(data: bytes, payload: bytes) -> bytes:
    """``data`` with ``payload`` spliced in as an EVENTS chunk of one
    event in front of its first EVENTS chunk, and the END count bumped
    to match: well-formed end to end but for that payload."""
    extra = bytearray([K_EVENTS])
    _put_uvarint(extra, len(payload))
    extra += payload
    out = bytearray(data[:5])
    inserted = False
    for kind, header, off, length in iter_chunks(data):
        if kind == K_EVENTS and not inserted:
            out += extra
            inserted = True
            out += data[header : off + length]
        elif kind == K_END:
            declared, _ = _get_uvarint(data, off)
            end_payload = bytearray()
            _put_uvarint(end_payload, declared + 1)
            out.append(K_END)
            _put_uvarint(out, len(end_payload))
            out += end_payload
        else:
            out += data[header : off + length]
    return bytes(out)


OVERLONG = ("err", "OverflowError", "varint longer than 10 bytes")


@needs_kernel
class TestOversizedVarint:
    def test_both_backends_refuse(self, fig9_wtrc, tmp_path):
        path = craft(fig9_wtrc, tmp_path, _oversized_payload(), "big.wtrc")
        assert read_outcome(path, "python") == OVERLONG
        assert read_outcome(path, "native") == OVERLONG

    def test_front_door_refuses_on_both_backends(self, fig9_wtrc, tmp_path):
        """analyze_trace_file runs the backend it resolved to the end: the
        file is refused with the decoder's error, never redone in pure
        Python."""
        data = Path(fig9_wtrc).read_bytes()
        path = tmp_path / "degenerate.wtrc"
        path.write_bytes(_with_extra_events_chunk(data, _oversized_payload()))
        for backend in ("python", "native"):
            assert analyze_outcome(str(path), backend) == OVERLONG
            assert analyze_outcome(fig9_wtrc, backend)[0] == "ok"

    def test_overflow_quarantines_as_corrupt_payload(self):
        code = classify_decode_error(OverflowError(OVERLONG[2])).code
        assert code == CORRUPT_PAYLOAD


# ---------------------------------------------------------------------------
# hypothesis fuzz: mutations and truncations never break parity
# ---------------------------------------------------------------------------


if HAVE_HYPOTHESIS:

    @needs_kernel
    class TestFuzzParity:
        @pytest.fixture(scope="class")
        def base(self, tmp_path_factory) -> bytes:
            from repro.core.pipeline import run_detection
            from repro.workloads.figures import fig9_program

            run = run_detection(fig9_program, 0, name="fig9")
            path = tmp_path_factory.mktemp("fuzz") / "base.wtrc"
            write_trace(run.trace, str(path))
            return path.read_bytes()

        @settings(max_examples=40, deadline=None)
        @given(offset=st.integers(min_value=5), value=st.integers(0, 255))
        def test_mutation_parity(self, base, tmp_path_factory, offset, value):
            data = bytearray(base)
            offset %= len(data) - 5
            data[5 + offset] = value
            path = tmp_path_factory.mktemp("m") / "mut.wtrc"
            path.write_bytes(bytes(data))
            assert_outcome_parity(str(path))

        @settings(max_examples=25, deadline=None)
        @given(cut=st.integers(min_value=5))
        def test_truncation_parity(self, base, tmp_path_factory, cut):
            cut = 5 + cut % (len(base) - 5)
            path = tmp_path_factory.mktemp("t") / "cut.wtrc"
            path.write_bytes(base[:cut])
            assert_outcome_parity(str(path))


# ---------------------------------------------------------------------------
# satellite: backend attribution surfaces
# ---------------------------------------------------------------------------


class TestAttribution:
    def test_cli_version_reports_backend(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("wolf ")
        assert "backend: " in out

    def test_wolf_report_carries_backend(self):
        import json

        from repro.core.pipeline import Wolf, WolfConfig
        from repro.workloads.figures import fig9_program

        report = Wolf(config=WolfConfig(replay_attempts=1, workers=1)).analyze(
            fig9_program, name="fig9"
        )
        info = backend_info()
        assert (report.backend, report.kernel) == (info["backend"], info["kernel"])
        doc = json.loads(report.to_json())
        assert (doc["backend"], doc["kernel"]) == (info["backend"], info["kernel"])

    @needs_kernel
    def test_report_doc_carries_no_backend(self, fig9_wtrc):
        """Defect reports stay a pure function of the trace bytes."""
        doc = report_doc_for_file(fig9_wtrc, max_length=3, backend="native")
        assert "backend" not in doc and "kernel" not in doc
