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
they are held to the pure event count.  The one admitted divergence is
the kernel's refusal of varints wider than 64 bits
(``KernelDivergenceError``, see ``tests/test_nativekernel.py``).
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
        if got_native[:2] != ("err", "KernelDivergenceError"):
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
