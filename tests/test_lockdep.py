"""Tests for eta tuples and D_sigma construction."""

from __future__ import annotations

import pytest

from repro.core.lockdep import build_lockdep
from repro.runtime.events import AcquireEvent
from repro.runtime.sim.runtime import run_program
from repro.runtime.sim.strategy import RandomStrategy
from tests.conftest import two_lock_program
from tests.cyclereference import holding
from tests.gsreference import RelationIndex


def trace_of(program, seed=0):
    result = run_program(program, RandomStrategy(seed))
    return result.trace


class TestBuildLockdep:
    def test_entry_per_nonreentrant_acquisition(self):
        trace = trace_of(two_lock_program, seed=3)
        rel = build_lockdep(trace)
        acquires = [
            e for e in trace if isinstance(e, AcquireEvent) and not e.reentrant
        ]
        assert len(rel) == len(acquires)

    def test_reentrant_acquisitions_skipped(self):
        def program(rt):
            lock = rt.new_lock(name="L")
            with lock.at("r:1"):
                with lock.at("r:2"):
                    pass

        rel = build_lockdep(trace_of(program))
        assert len(rel) == 1

    def test_lockset_and_context_parallel(self):
        def program(rt):
            a, b, c = (rt.new_lock(name=n) for n in "abc")
            with a.at("s:a"):
                with b.at("s:b"):
                    with c.at("s:c"):
                        pass

        rel = build_lockdep(trace_of(program))
        last = rel.entries[-1]
        assert [l.name for l in last.lockset] == ["a", "b"]
        assert [ix.site for ix in last.context] == ["s:a", "s:b"]
        assert last.index.site == "s:c"

    def test_mu_maps_lockset_and_own_lock(self):
        def program(rt):
            a, b = rt.new_lock(name="a"), rt.new_lock(name="b")
            with a.at("s:a"):
                with b.at("s:b"):
                    pass

        rel = build_lockdep(trace_of(program))
        entry = rel.entries[-1]
        assert entry.mu(entry.lock).site == "s:b"
        assert entry.mu(entry.lockset[0]).site == "s:a"

    def test_mu_unknown_lock_raises(self):
        rel = build_lockdep(trace_of(two_lock_program, seed=1))
        entry = rel.entries[0]
        with pytest.raises(KeyError):
            entry.mu(object())

    def test_positions_are_per_thread(self):
        trace = trace_of(two_lock_program, seed=3)
        index = RelationIndex(build_lockdep(trace))
        for thread in index.threads():
            entries = index.entries_of(thread)
            assert [e.pos for e in entries] == list(range(len(entries)))

    def test_before_slices_strictly(self):
        trace = trace_of(two_lock_program, seed=3)
        index = RelationIndex(build_lockdep(trace))
        for thread in index.threads():
            entries = index.entries_of(thread)
            if len(entries) >= 2:
                assert index.before(entries[1]) == entries[:1]
                assert index.before(entries[0]) == []
                return
        pytest.fail("expected a thread with two entries")

    def test_indexes_holding_and_acquiring(self):
        trace = trace_of(two_lock_program, seed=3)
        rel = build_lockdep(trace)
        index, holders = RelationIndex(rel), holding(rel)
        for entry in rel:
            assert entry in index.acquiring[entry.lock]
            for lock in entry.lockset:
                assert holders[lock].count(entry) == 1

    def test_taus_applied(self):
        trace = trace_of(two_lock_program, seed=3)
        steps = [
            e.step for e in trace if isinstance(e, AcquireEvent) and not e.reentrant
        ]
        taus = {s: 7 for s in steps}
        rel = build_lockdep(trace, taus=taus)
        assert all(e.tau == 7 for e in rel)

    def test_default_tau_is_one(self):
        rel = build_lockdep(trace_of(two_lock_program, seed=3))
        assert all(e.tau == 1 for e in rel)

    def test_pretty_mentions_thread_and_lock(self):
        rel = build_lockdep(trace_of(two_lock_program, seed=3))
        text = rel.entries[-1].pretty()
        assert "eta(" in text and "tau=" in text
