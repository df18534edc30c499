"""CLI coverage for the extension commands (scaling, explore) and small
presentation paths not exercised elsewhere."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestScalingCli:
    def test_scaling_with_points(self, capsys):
        assert main(["scaling", "--points", "2x5", "2x10"]) == 0
        out = capsys.readouterr().out
        assert "Scaling" in out
        assert out.count("\n") >= 5

    def test_bad_point_format(self):
        with pytest.raises(ValueError):
            main(["scaling", "--points", "nonsense"])


class TestExploreCli:
    def test_explore_fig4(self, capsys):
        assert main(["explore", "fig4", "--max-runs", "300"]) == 0
        out = capsys.readouterr().out
        assert "explored" in out
        assert "['19', '33']" in out  # theta'_2 reached

    def test_explore_unbounded_flag(self, capsys):
        assert (
            main(["explore", "fig1", "--max-runs", "100", "--preemption-bound", "-1"])
            == 0
        )
        out = capsys.readouterr().out
        assert "unbounded" in out
        # Figure 1's cycle is a false positive: search finds nothing.
        assert "0 deadlocking" in out

    def test_explore_clean_benchmark(self, capsys):
        assert main(["explore", "pipeline", "--max-runs", "150"]) == 0
        assert "0 deadlocking" in capsys.readouterr().out


class TestPresentationPaths:
    def test_digraph_repr(self):
        from repro.util.digraph import DiGraph

        g = DiGraph()
        g.add_edge(1, 2)
        assert repr(g) == "DiGraph(|V|=2, |E|=1)"

    def test_simlock_repr_states(self):
        from repro.runtime.sim.runtime import run_program

        seen = {}

        def program(rt):
            lock = rt.new_lock(name="L")
            seen["free"] = repr(lock)
            with lock.at("r:1"):
                seen["held"] = repr(lock)

        run_program(program).raise_errors()
        assert "free" in seen["free"]
        assert "held by main" in seen["held"]

    def test_condition_repr(self):
        from repro.runtime.sim.runtime import run_program

        seen = {}

        def program(rt):
            lock = rt.new_lock(name="L")
            cond = lock.condition("c")
            seen["repr"] = repr(cond)

        run_program(program).raise_errors()
        assert "waiters=0" in seen["repr"]

    def test_handle_repr_and_alive(self):
        from repro.runtime.sim.runtime import run_program

        def program(rt):
            h = rt.spawn(lambda: None, name="kid", site="s:1")
            assert "kid" in repr(h)
            h.join()
            assert not h.is_alive()

        run_program(program).raise_errors()

    def test_defect_report_pretty(self):
        from repro.core.pipeline import Wolf

        from repro.workloads.figures import fig4_program

        report = Wolf(seed=0).analyze(fig4_program, name="fig4")
        for d in report.defects:
            text = d.pretty()
            assert "defect at" in text and "cycle(s)" in text

    def test_eta_repr_via_relation(self):
        from repro.core.lockdep import build_lockdep
        from repro.core.pipeline import run_detection
        from repro.workloads.figures import fig4_program

        rel = build_lockdep(run_detection(fig4_program, 0).trace)
        # only t1/t3 acquire locks
        assert len({e.thread for e in rel.entries}) == 2
