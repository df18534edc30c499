"""Unit tests for the deterministic identity model."""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.core.syncgraph import GsVertex
from repro.util.ids import (
    ExecIndex,
    LockId,
    OccurrenceCounter,
    ThreadId,
    auto_site,
)


class TestThreadId:
    def test_root(self):
        root = ThreadId.root()
        assert root.is_root
        assert root.parent is None
        assert root.depth == 0
        assert root.pretty() == "main"

    def test_child_identity_is_structural(self):
        root = ThreadId.root()
        a = ThreadId(root, "f.py:1", 0)
        b = ThreadId(root, "f.py:1", 0)
        assert a == b
        assert hash(a) == hash(b)

    def test_seq_distinguishes_siblings(self):
        root = ThreadId.root()
        a = ThreadId(root, "f.py:1", 0)
        b = ThreadId(root, "f.py:1", 1)
        assert a != b

    def test_name_excluded_from_identity(self):
        root = ThreadId.root()
        a = ThreadId(root, "f.py:1", 0, name="x")
        b = ThreadId(root, "f.py:1", 0, name="y")
        assert a == b

    def test_abstraction_collapses_seq(self):
        """The DeadlockFuzzer weakness: same spawn site => same abstraction."""
        root = ThreadId.root()
        a = ThreadId(root, "f.py:1", 0)
        b = ThreadId(root, "f.py:1", 1)
        assert a.abstraction() == b.abstraction()

    def test_abstraction_distinguishes_sites(self):
        root = ThreadId.root()
        a = ThreadId(root, "f.py:1", 0)
        b = ThreadId(root, "f.py:2", 0)
        assert a.abstraction() != b.abstraction()

    def test_abstraction_is_full_chain(self):
        root = ThreadId.root()
        mid = ThreadId(root, "f.py:1", 0)
        leaf = ThreadId(mid, "g.py:2", 0)
        assert leaf.abstraction() == ("<root>", "f.py:1", "g.py:2")

    def test_depth(self):
        root = ThreadId.root()
        mid = ThreadId(root, "f.py:1", 0)
        leaf = ThreadId(mid, "g.py:2", 3)
        assert mid.depth == 1
        assert leaf.depth == 2

    def test_pretty_unnamed_includes_lineage(self):
        root = ThreadId.root()
        child = ThreadId(root, "f.py:1", 2)
        assert "f.py:1" in child.pretty()
        assert "#2" in child.pretty()


class TestLockId:
    def test_identity(self):
        t = ThreadId.root()
        a = LockId(t, "f.py:9", 0)
        b = LockId(t, "f.py:9", 0)
        assert a == b

    def test_abstraction_collapses_seq(self):
        t = ThreadId.root()
        a = LockId(t, "f.py:9", 0)
        b = LockId(t, "f.py:9", 5)
        assert a != b
        assert a.abstraction() == b.abstraction()

    def test_abstraction_includes_owner_chain(self):
        root = ThreadId.root()
        child = ThreadId(root, "f.py:1", 0)
        lock = LockId(child, "g.py:3", 0)
        assert lock.abstraction() == ("<root>", "f.py:1", "g.py:3")


class TestExecIndex:
    def test_equality(self):
        t = ThreadId.root()
        assert ExecIndex(t, "s", 1) == ExecIndex(t, "s", 1)
        assert ExecIndex(t, "s", 1) != ExecIndex(t, "s", 2)

    def test_matches_site(self):
        t = ThreadId.root()
        ix = ExecIndex(t, "file:12", 3)
        assert ix.matches_site("file:12")
        assert not ix.matches_site("file:13")


class TestOccurrenceCounter:
    def test_starts_at_one(self):
        c = OccurrenceCounter()
        assert c.next("a") == 1

    def test_increments_per_key(self):
        c = OccurrenceCounter()
        assert [c.next("a"), c.next("a"), c.next("b"), c.next("a")] == [1, 2, 1, 3]

    def test_peek_does_not_advance(self):
        c = OccurrenceCounter()
        c.next("a")
        assert c.peek("a") == 1
        assert c.peek("a") == 1
        assert c.peek("missing") == 0


def test_auto_site_names_caller():
    site = auto_site()
    assert site.startswith("test_ids.py:")


def test_auto_site_depth_two_names_grandcaller():
    def inner():
        return auto_site(2)

    site = inner()
    assert site.startswith("test_ids.py:")
    # The line number must be this function's call line, not inner()'s.
    line = int(site.split(":")[1])
    assert abs(line - test_auto_site_depth_two_names_grandcaller.__code__.co_firstlineno) < 10


# ---------------------------------------------------------------------------
# hash computed once per object
# ---------------------------------------------------------------------------


def _identities():
    """One of each hash-once identity type, with its field tuple."""
    root = ThreadId.root()
    worker = ThreadId(ThreadId(root, "spawn.py:3", 0), "spawn.py:7", 2, name="w")
    lock = LockId(worker, "lock.py:11", 1, name="L")
    index = ExecIndex(worker, "acq.py:21", 4)
    vertex = GsVertex(index=index, lock=lock)
    return [
        (worker, (worker.parent, "spawn.py:7", 2)),
        (lock, (worker, "lock.py:11", 1)),
        (index, (worker, "acq.py:21", 4)),
        (vertex, (index, lock)),
    ]


def _fields_of(x) -> dict:
    return {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}


class _CountingSite(str):
    """A site string that counts how often it is hashed."""

    hashed = 0

    def __hash__(self) -> int:
        type(self).hashed += 1
        return str.__hash__(self)


class TestHashOnce:
    @pytest.mark.parametrize("i", range(4))
    def test_hash_is_the_field_tuple_hash(self, i):
        x, field_tuple = _identities()[i]
        assert hash(x) == hash(field_tuple)
        assert hash(x) == hash(field_tuple)  # cached value, same answer

    def test_nested_fields_hashed_once(self):
        _CountingSite.hashed = 0
        thread = ThreadId(ThreadId.root(), _CountingSite("spawn.py:1"), 0)
        index = ExecIndex(thread, "acq.py:2", 1)
        for _ in range(3):
            hash(thread)
            hash(index)
            hash(GsVertex(index=index, lock=LockId(thread, "l.py:3", 0)))
        assert _CountingSite.hashed == 1

    @pytest.mark.parametrize("i", range(4))
    def test_copies_carry_no_cached_hash(self, i):
        x, _ = _identities()[i]
        hash(x)
        for dup in (
            pickle.loads(pickle.dumps(x)),
            copy.copy(x),
            copy.deepcopy(x),
            dataclasses.replace(x),
        ):
            assert vars(dup) == _fields_of(x)
            assert dup == x and hash(dup) == hash(x)

    def test_unpickled_in_another_hash_seed(self):
        """A child interpreter with a different ``PYTHONHASHSEED`` rehashes
        what it unpickles: equal to, hashed like, and keyed like its own
        freshly built identities."""
        objs = [x for x, _ in _identities()]
        for x in objs:
            hash(x)  # cache the parent's hashes before pickling
        payload = pickle.dumps((objs, {x: i for i, x in enumerate(objs)}))
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            [src, os.path.dirname(os.path.abspath(__file__))]
        )
        child = (
            "import pickle, sys\n"
            "from test_ids import _identities\n"
            "objs, table = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = [x for x, _ in _identities()]\n"
            "for i, (got, new) in enumerate(zip(objs, fresh, strict=True)):\n"
            "    assert got == new and hash(got) == hash(new), i\n"
            "    assert table[new] == i and table[got] == i, i\n"
            "print(hash('probe'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", child],
            input=payload,
            env=env,
            capture_output=True,
            check=True,
            timeout=120,
        )
        assert int(out.stdout) != hash("probe"), "child shared the hash seed"
