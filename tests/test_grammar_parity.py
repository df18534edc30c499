"""One ``.wtrc`` chunk grammar: every reader reaches one outcome per input.

The pull reader (on a path, an open file and ``io.BytesIO``) and the push
decoder behind ``wolf serve`` (pushed whole and in 1- and 7-byte slices),
pure and, where the kernel loads, native, read every committed corpus
trace and its mutations: bit flips, a truncation at every offset, an
appended byte, an appended chunk, a dropped META, a flipped META kind
byte, and the META-less tables-then-END and END-only streams.

An outcome is ``("ok", program, seed, events, END count)``, the
exception as ``("err", type, message)``, or ``TRUNCATED``: the reader's
``TruncatedTraceError`` and a decoder left waiting for bytes (a partial
chunk buffered, or no META yet) are the same outcome.  Pure readers
must agree event for event; native readers yield no event objects, so
they are held to the pure event count.  There is no exception: the
EVENTS-width tests below hold every reader to the native kernel's
widths, at the largest value it accepts and at the next one up.
"""

from __future__ import annotations

import io
import random
from pathlib import Path

import pytest

from repro.core.nativekernel import kernel_available
from repro.runtime.tracefile import (
    FORMAT_VERSION,
    MAGIC,
    ChunkDecoder,
    TraceFileReader,
    TruncatedTraceError,
    _get_uvarint,
    _put_uvarint,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_TRACES = sorted((REPO_ROOT / "corpus").glob("*.wtrc"))
NATIVE = kernel_available()

HEADER = MAGIC + bytes([FORMAT_VERSION])
K_META, K_STRINGS, K_THREADS, K_LOCKS, K_EVENTS, K_END = range(6)
TRUNCATED = ("truncated",)
#: Bit flips per corpus trace (seeded per file).
FLIPS = 24


def chunk(kind: int, payload: bytes) -> bytes:
    head = bytearray([kind])
    _put_uvarint(head, len(payload))
    return bytes(head) + payload


END_ZERO = chunk(K_END, b"\x00")


def chunks_of(data: bytes):
    """``(kind, raw chunk bytes)`` per chunk of a well-formed trace."""
    pos = len(HEADER)
    while pos < len(data):
        length, start = _get_uvarint(data, pos + 1)
        yield data[pos], data[pos : start + length]
        pos = start + length


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------


def _error(exc: Exception):
    if type(exc) is TruncatedTraceError and str(exc) == "truncated trace file":
        return TRUNCATED
    return ("err", type(exc).__name__, str(exc))


def _native_reader(src):
    from repro.core.nativekernel import NativeTraceFileReader, _Kernel

    return NativeTraceFileReader(src, _Kernel())


def _native_decoder():
    from repro.core.nativekernel import NativeChunkDecoder, _Kernel

    return NativeChunkDecoder(_Kernel())


def read_outcome(make, src):
    try:
        with make(src) as r:
            events = list(r)
            return ("ok", r.program, r.seed, r.events_read, r.declared_events, events)
    except Exception as exc:  # noqa: BLE001 - the outcome IS the assertion
        return _error(exc)


def _settled(dec, events):
    if dec.buffered or not dec._meta_done:
        return TRUNCATED
    return ("ok", dec.program, dec.seed, dec.events_read, dec.declared_events, events)


def push_outcome(make, data: bytes, step: int):
    dec = make()
    events = []
    try:
        for i in range(0, len(data), step):
            events.extend(dec.push(data[i : i + step]))
    except Exception as exc:  # noqa: BLE001 - the outcome IS the assertion
        return _error(exc)
    return _settled(dec, events)


def prefix_outcomes(make, data: bytes):
    """The 1-byte-slice decoder's outcome on ``data[:k]`` for every ``k``:
    one pass, read after each push."""
    dec = make()
    events = []
    out = [_settled(dec, [])]
    for k in range(len(data)):
        try:
            events.extend(dec.push(data[k : k + 1]))
        except Exception as exc:  # noqa: BLE001 - the outcome IS the assertion
            return out + [_error(exc)] * (len(data) - k)
        out.append(_settled(dec, list(events)))
    return out


def backends():
    yield "pure", TraceFileReader, ChunkDecoder
    if NATIVE:
        yield "native", _native_reader, _native_decoder


def outcomes(data: bytes, path: Path, *, one_byte=None):
    """Every reader's outcome on ``data``, by (backend, reader) name.
    ``one_byte`` supplies the 1-byte-slice decoders' outcomes when the
    caller already has them from :func:`prefix_outcomes`."""
    path.write_bytes(data)
    out = {}
    for name, reader, decoder in backends():
        out[name, "path"] = read_outcome(reader, str(path))
        with open(path, "rb") as fh:
            out[name, "open file"] = read_outcome(reader, fh)
        out[name, "BytesIO"] = read_outcome(reader, io.BytesIO(data))
        out[name, "push whole"] = push_outcome(decoder, data, max(len(data), 1))
        out[name, "push 7"] = push_outcome(decoder, data, 7)
        out[name, "push 1"] = (
            one_byte[name] if one_byte else push_outcome(decoder, data, 1)
        )
    return out


def assert_one_outcome(out, label) -> tuple:
    """Pure readers agree in full, native readers agree in full, and the
    two backends agree on everything but the event objects."""
    pure = {k: v for k, v in out.items() if k[0] == "pure"}
    want = next(iter(pure.values()))
    for key, got in pure.items():
        assert got == want, f"{label}: {key} {got[:5]} != {want[:5]}"
    native = {k: v for k, v in out.items() if k[0] == "native"}
    if native:
        got_native = next(iter(native.values()))
        for key, got in native.items():
            assert got == got_native, f"{label}: {key} {got} != {got_native}"
        assert got_native[:5] == want[:5], f"{label}: native {got_native}"
    return want


# ---------------------------------------------------------------------------
# the corpus and its mutations
# ---------------------------------------------------------------------------


@pytest.fixture(params=CORPUS_TRACES, ids=lambda p: p.name)
def trace(request):
    return request.param.read_bytes()


class TestCorpusParity:
    def test_intact(self, trace, tmp_path):
        want = assert_one_outcome(outcomes(trace, tmp_path / "t.wtrc"), "intact")
        assert want[0] == "ok" and want[4] == want[3] > 0

    def test_bit_flips(self, trace, tmp_path, request):
        rng = random.Random(request.node.callspec.id)
        for _ in range(FLIPS):
            pos = rng.randrange(len(trace))
            bit = 1 << rng.randrange(8)
            data = bytearray(trace)
            data[pos] ^= bit
            out = outcomes(bytes(data), tmp_path / "t.wtrc")
            assert_one_outcome(out, f"byte {pos} ^ {bit:#x}")

    def test_truncation_at_every_offset(self, trace, tmp_path):
        one_byte = {
            name: prefix_outcomes(decoder, trace)
            for name, _reader, decoder in backends()
        }
        boundaries = 0
        for cut in range(len(trace) + 1):
            out = outcomes(
                trace[:cut],
                tmp_path / "t.wtrc",
                one_byte={name: seen[cut] for name, seen in one_byte.items()},
            )
            want = assert_one_outcome(out, f"cut at {cut}")
            if want[0] == "ok":
                boundaries += 1
            else:
                assert want == TRUNCATED, f"cut at {cut}: {want}"
        # Only cuts at chunk boundaries after META read as (torn) traces.
        assert boundaries == len(list(chunks_of(trace)))

    @pytest.mark.parametrize(
        "tail", [b"\x00", chunk(K_STRINGS, b"\x00")], ids=["byte", "chunk"]
    )
    def test_bytes_after_end(self, trace, tmp_path, tail):
        out = outcomes(trace + tail, tmp_path / "t.wtrc")
        assert assert_one_outcome(out, "after END") == (
            "err",
            "ValueError",
            "data after END chunk",
        )

    def test_dropped_meta(self, trace, tmp_path):
        rest = b"".join(raw for kind, raw in chunks_of(trace) if kind != K_META)
        out = outcomes(HEADER + rest, tmp_path / "t.wtrc")
        assert assert_one_outcome(out, "no META") == (
            "err",
            "ValueError",
            "trace file must start with a META chunk",
        )

    @pytest.mark.parametrize("kind", [K_STRINGS, K_EVENTS, K_END, 0x80 | K_META])
    def test_flipped_meta_kind(self, trace, tmp_path, kind):
        data = bytearray(trace)
        assert data[len(HEADER)] == K_META
        data[len(HEADER)] = kind
        out = outcomes(bytes(data), tmp_path / "t.wtrc")
        assert assert_one_outcome(out, f"META kind {kind}") == (
            "err",
            "ValueError",
            "trace file must start with a META chunk",
        )

    def test_tables_then_end(self, trace, tmp_path):
        tables = b"".join(
            raw
            for kind, raw in chunks_of(trace)
            if kind in (K_STRINGS, K_THREADS, K_LOCKS)
        )
        out = outcomes(HEADER + tables + END_ZERO, tmp_path / "t.wtrc")
        assert assert_one_outcome(out, "tables then END") == (
            "err",
            "ValueError",
            "trace file must start with a META chunk",
        )


def test_end_only_stream(tmp_path):
    out = outcomes(HEADER + END_ZERO, tmp_path / "t.wtrc")
    assert assert_one_outcome(out, "END only") == (
        "err",
        "ValueError",
        "trace file must start with a META chunk",
    )


def test_short_header_is_truncated(tmp_path):
    """A stream that ends inside the header is truncated, whatever bytes
    it holds; five bytes are judged."""
    for data in (b"", MAGIC[:2], b"NOPE"):
        out = outcomes(data, tmp_path / "t.wtrc")
        assert assert_one_outcome(out, repr(data)) == TRUNCATED
    out = outcomes(b"NOPE!", tmp_path / "t.wtrc")
    assert assert_one_outcome(out, "bad magic")[:2] == ("err", "ValueError")


# ---------------------------------------------------------------------------
# EVENTS widths: each integer validate_events bounds, at its edge
# ---------------------------------------------------------------------------

U64_MAX = (1 << 64) - 1
I64_MAX = (1 << 63) - 1
WIDER_64 = ("err", "OverflowError", "varint wider than 64 bits")
WIDER_63 = ("err", "OverflowError", "varint wider than 63 bits")
STEP_OUT = ("err", "OverflowError", "event step outside int64")
OVERLONG = ("err", "OverflowError", "varint longer than 10 bytes")
OUT_OF_RANGE = ("err", "IndexError", "list index out of range")
#: Zero in eleven bytes: ten carry the continuation bit.
ELEVEN = b"\x80" * 10 + b"\x00"


def _varint(value) -> bytes:
    """``value`` as a uvarint, or raw bytes as they are."""
    if isinstance(value, bytes):
        return value
    buf = bytearray()
    _put_uvarint(buf, value)
    return bytes(buf)


def _zigzag(value) -> bytes:
    if isinstance(value, bytes):
        return value
    return _varint(value * 2 if value >= 0 else -value * 2 - 1)


def acquire(
    delta=1, thread=0, lock=0, ix_thread=0, site=0, occ=1, held=None, depth=0
) -> bytes:
    """One encoded AcquireEvent; ``held`` is a list of (lock, index
    thread, index site, index occurrence) for its held locks, one by
    default.  Each field is an int or its raw varint bytes."""
    if held is None:
        held = [(0, 0, 0, 1)]
    return b"".join(
        [bytes([4]), _zigzag(delta)]
        + [_varint(v) for v in (thread, lock, ix_thread, site, occ, len(held))]
        + [_varint(h[0]) for h in held]
        + [_varint(v) for h in held for v in h[1:]]
        + [b"\x00", _varint(depth)]
    )


@pytest.fixture(scope="module")
def tables():
    """Header, META and the table chunks of a one-thread, one-lock trace,
    and the thread and string table sizes."""
    from repro.runtime.events import AcquireEvent, Trace
    from repro.runtime.tracefile import write_trace
    from repro.util.ids import ExecIndex, LockId, ThreadId

    root = ThreadId.root()
    lock = LockId(root, "new:L", 0, name="L")
    index = ExecIndex(root, "acq:L", 1)
    trace = Trace(program="widths", seed=0)
    trace.append(AcquireEvent(1, root, lock, index, (lock,), (index,)))
    buf = io.BytesIO()
    write_trace(trace, buf)
    data = buf.getvalue()
    with TraceFileReader(io.BytesIO(data)) as r:
        list(r)
        sizes = {"threads": len(r._threads), "locks": len(r._locks)}
        sizes["strings"] = len(r._strings)
    head = b"".join(raw for kind, raw in chunks_of(data) if kind < K_EVENTS)
    return HEADER + head, sizes


def widths_trace(tables, events, count=None) -> bytes:
    """The tables, one EVENTS chunk of ``events`` (its count ``count``,
    an int or raw bytes, by default the true one) and a matching END."""
    head, _sizes = tables
    payload = _varint(len(events) if count is None else count) + b"".join(events)
    return (
        head
        + chunk(K_EVENTS, payload)
        + chunk(K_END, _varint(len(events)))
    )


def _index_case(field, size_key):
    """An index field: the last table row reads, the next row is out of
    range, 2^64 is too wide and eleven bytes too long."""

    def make(value):
        if field.startswith("held_"):
            row = [0, 0, 0, 1]
            row[["held_lock", "held_thread", "held_site"].index(field)] = value
            return [acquire(held=[row])]
        return [acquire(**{field: value})]

    return (
        lambda sizes: (make(sizes[size_key] - 1), None),
        lambda sizes: [
            ((make(sizes[size_key]), None), OUT_OF_RANGE),
            ((make(1 << 64), None), WIDER_64),
        ],
        (make(ELEVEN), None),
    )


#: field -> (the edge (events, count) from the table sizes, the
#: [((events, count), outcome)] one step past the edge, and the
#: (events, count) with the field eleven bytes long).  A ``None`` count
#: is the true one.
WIDTH_CASES = {
    # The count is the number of events, so its edge is its width.
    "count": (
        lambda sizes: ([acquire()], b"\x81" + b"\x80" * 8 + b"\x00"),
        lambda sizes: [(([acquire()], 1 << 64), WIDER_64)],
        ([acquire()], b"\x81" + b"\x80" * 9 + b"\x00"),
    ),
    "step delta": (
        lambda sizes: (
            [
                acquire(delta=-(1 << 63)),
                acquire(delta=I64_MAX),
                acquire(delta=I64_MAX),
                acquire(delta=1),
            ],
            None,
        ),
        lambda sizes: [
            (([acquire(delta=I64_MAX), acquire(delta=1)], None), STEP_OUT),
            (([acquire(delta=-(1 << 63)), acquire(delta=-1)], None), STEP_OUT),
            (([acquire(delta=1 << 63)], None), WIDER_64),
        ],
        ([acquire(delta=ELEVEN)], None),
    ),
    "occurrence": (
        lambda sizes: ([acquire(occ=I64_MAX)], None),
        lambda sizes: [(([acquire(occ=1 << 63)], None), WIDER_63)],
        ([acquire(occ=ELEVEN)], None),
    ),
    "held-index occurrence": (
        lambda sizes: ([acquire(held=[(0, 0, 0, I64_MAX)])], None),
        lambda sizes: [(([acquire(held=[(0, 0, 0, 1 << 63)])], None), WIDER_63)],
        ([acquire(held=[(0, 0, 0, ELEVEN)])], None),
    ),
    "depth": (
        lambda sizes: ([acquire(depth=U64_MAX)], None),
        lambda sizes: [(([acquire(depth=1 << 64)], None), WIDER_64)],
        ([acquire(depth=ELEVEN)], None),
    ),
    "thread": _index_case("thread", "threads"),
    "lock": _index_case("lock", "locks"),
    "index thread": _index_case("ix_thread", "threads"),
    "index site": _index_case("site", "strings"),
    "held lock": _index_case("held_lock", "locks"),
    "held thread": _index_case("held_thread", "threads"),
    "held site": _index_case("held_site", "strings"),
}


@pytest.mark.parametrize("field", list(WIDTH_CASES))
class TestEventsWidths:
    """The largest value the native kernel accepts reads to the same
    events on every reader; the next one up, and an eleven-byte varint,
    are refused by every reader with one exception and message."""

    def test_edge_reads(self, tables, tmp_path, field):
        events, count = WIDTH_CASES[field][0](tables[1])
        data = widths_trace(tables, events, count)
        want = assert_one_outcome(outcomes(data, tmp_path / "t.wtrc"), field)
        assert want[0] == "ok" and want[3] == want[4] == len(events), want

    def test_next_value_up_refused(self, tables, tmp_path, field):
        for (events, count), refusal in WIDTH_CASES[field][1](tables[1]):
            data = widths_trace(tables, events, count)
            got = assert_one_outcome(outcomes(data, tmp_path / "t.wtrc"), field)
            assert got == refusal, (field, got)

    def test_eleven_bytes_refused(self, tables, tmp_path, field):
        events, count = WIDTH_CASES[field][2]
        data = widths_trace(tables, events, count)
        got = assert_one_outcome(outcomes(data, tmp_path / "t.wtrc"), field)
        assert got == OVERLONG, (field, got)


def test_edge_values_decode_exactly(tables):
    """The edge values reach the pure events unchanged."""
    data = widths_trace(
        tables,
        [
            acquire(delta=-(1 << 63), occ=I64_MAX, held=[(0, 0, 0, I64_MAX)]),
            acquire(delta=I64_MAX, depth=U64_MAX),
            acquire(delta=I64_MAX),
            acquire(delta=1),
        ],
    )
    with TraceFileReader(io.BytesIO(data)) as r:
        events = list(r)
    assert [e.step for e in events] == [-(1 << 63), -1, I64_MAX - 1, I64_MAX]
    assert events[0].index.occ == events[0].held_indices[0].occ == I64_MAX
    assert events[1].stack_depth == U64_MAX


def test_run_of_continuation_bytes_refused_after_ten(tables, tmp_path):
    """An EVENTS chunk of 64 KiB of 0xff is refused as an overlong
    varint by every reader, the same way a short one is."""
    data = tables[0] + chunk(K_EVENTS, b"\xff" * 65536)
    got = assert_one_outcome(outcomes(data, tmp_path / "t.wtrc"), "0xff run")
    assert got == OVERLONG
