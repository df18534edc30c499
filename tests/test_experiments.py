"""Experiment driver tests (run on small benchmark subsets)."""

from __future__ import annotations

import math


from repro.experiments.fig8 import render_fig8, run_fig8
from repro.experiments.fig10 import render_fig10, run_fig10
from repro.experiments.metrics import average_stack_length, detection_slowdown
from repro.experiments.runner import (
    ExperimentSettings,
    run_both,
    select_benchmarks,
)
from repro.experiments.table1 import render_table1, run_table1
from repro.experiments.table2 import render_table2, run_table2
from repro.workloads import get_benchmark

FAST = ExperimentSettings(replay_attempts=3)


class TestRunner:
    def test_select_all(self):
        assert len(select_benchmarks()) == 11

    def test_select_subset_in_order(self):
        names = ["HashMap", "cache4j"]
        assert [b.name for b in select_benchmarks(names)] == names

    def test_run_both_returns_reports(self):
        wolf, df = run_both(get_benchmark("HashMap"), FAST)
        assert wolf.program == df.program == "HashMap"
        assert wolf.n_cycles == df.n_cycles == 4


class TestMetrics:
    def test_slowdown_near_unity(self):
        # Summed over the default three run pairs: one host stall in a
        # single pair must not decide the ratio.
        s = detection_slowdown(get_benchmark("HashMap").program)
        assert 0.3 < s < 10.0

    def test_average_stack_length(self):
        wolf, _ = run_both(get_benchmark("HashMap"), FAST)
        sl = average_stack_length(wolf)
        assert sl is not None and sl >= 2

    def test_average_stack_length_none_without_cycles(self):
        wolf, _ = run_both(get_benchmark("cache4j"), FAST)
        assert average_stack_length(wolf) is None


class TestTable1:
    def test_map_row_matches_paper_shape(self):
        rows = run_table1(["HashMap"], FAST, measure_slowdown=False)
        (row,) = rows
        assert row.detected == 3
        assert row.fp_generator == 1
        assert row.fp_pruner == 0
        assert row.tp_wolf == 2
        assert row.tp_wolf >= row.tp_df
        assert row.unknown_wolf == 0

    def test_cache4j_row_empty(self):
        (row,) = run_table1(["cache4j"], FAST, measure_slowdown=False)
        assert row.detected == 0

    def test_render_includes_cumulative(self):
        rows = run_table1(["HashMap", "cache4j"], FAST, measure_slowdown=False)
        text = render_table1(rows)
        assert "Cumulative" in text
        assert "Table 1" in text


class TestTable2:
    def test_map_row(self):
        (row,) = run_table2(["TreeMap"], FAST)
        assert row.cycles == 4
        assert row.fp_wolf == 1
        assert row.tp_wolf == 3
        assert row.tp_wolf >= row.tp_df

    def test_render(self):
        text = render_table2(run_table2(["TreeMap"], FAST))
        assert "Table 2" in text and "Cumulative" in text


class TestFig8:
    def test_wolf_beats_df_on_maps(self):
        (row,) = run_fig8(["HashMap"], FAST, n_runs=8)
        assert 0.0 <= row.df <= row.wolf <= 1.0
        assert row.wolf > 0.5

    def test_render_has_bars(self):
        rows = run_fig8(["HashMap"], FAST, n_runs=4)
        text = render_fig8(rows)
        assert "WOLF |" in text and "Figure 8" in text


class TestFig10:
    def test_ratios_positive(self):
        (row,) = run_fig10(["HashMap"], FAST, replays_per_cycle=2)
        assert row.detection_ratio > 0
        assert row.reproduction_ratio > 0 or math.isnan(row.reproduction_ratio)

    def test_cache4j_reproduction_nan(self):
        (row,) = run_fig10(["cache4j"], FAST, replays_per_cycle=1)
        assert math.isnan(row.reproduction_ratio)

    def test_render(self):
        text = render_fig10(run_fig10(["cache4j"], FAST, replays_per_cycle=1))
        assert "Figure 10" in text
