"""Smoke tests for every table/figure harness (smoke scale)."""

import pytest

from repro.config import WorkloadKind
from repro.core.bounds import Budget
from repro.experiments import fig3, fig4, fig5, fig6, fig8, fig9, fig10, fig11, table1
from repro.experiments.harness import get_scale
from repro.errors import ConfigurationError


def test_get_scale_presets():
    assert get_scale("smoke").name == "smoke"
    assert get_scale("default").window_size >= get_scale("smoke").window_size
    with pytest.raises(ConfigurationError):
        get_scale("galactic")


class TestTable1:
    def test_shape(self):
        # One measurement per loop, so time enough work for it to mean
        # something: at 2000 updates every loop runs for milliseconds (the
        # shortest, incremental upkeep, ~7 ms); at 30 it ran for ~150 us
        # and one scheduler hiccup reversed the comparison.
        rows = table1.run(windows=(256, 1024), updates=2000)
        assert [r.window_size for r in rows] == [256, 1024]
        for row in rows:
            assert row.incremental_dft_seconds >= 1e-3
            # The full transform must be far costlier than incremental upkeep.
            assert row.full_dft_seconds > row.incremental_dft_seconds
            assert row.speedup_incremental > 1
        text = table1.format_result(rows)
        assert "iDFT" in text and "AGMS" in text


class TestFig3:
    def test_rows_and_rendering(self):
        rows = fig3.run(max_nodes=20)
        assert rows[0].num_nodes == 2
        assert rows[-1].num_nodes == 20
        final = rows[-1]
        assert final.error_tlog < final.error_t1
        assert final.messages_baseline > final.messages_tlog > final.messages_t1 - 1e-9
        assert "eps(T=1)" in fig3.format_result(rows)


class TestFig4:
    def test_zipf_bound_beats_uniform(self):
        rows = fig4.run(max_nodes=20)
        final = rows[-1]
        assert final.error_olog < final.uniform_error_olog
        assert "O(logN)" in fig4.format_result(rows)


class TestFig5:
    def test_lossless_at_generous_budget(self):
        series = fig5.run(window=1024, kappas=(64, 8), seed=3)
        by_kappa = {s.kappa: s for s in series}
        assert by_kappa[8].mean_squared_error <= by_kappa[64].mean_squared_error
        assert by_kappa[8].lossless_fraction >= by_kappa[64].lossless_fraction
        assert by_kappa[8].lossless_fraction > 0.8
        assert len(by_kappa[8].squared_errors) > 0
        assert "frac<0.25" in fig5.format_result(series)


class TestFig6:
    def test_chosen_kappa_meets_threshold(self):
        result = fig6.run(window=1024, kappas=(4, 16, 64, 256))
        chosen_points = [p for p in result.points if p.kappa == result.chosen_kappa]
        assert len(chosen_points) == 1
        assert "chosen kappa" in fig6.format_result(result)
        means = [p.mean_mse for p in result.points]
        assert means == sorted(means)  # error grows with compression


class TestFig8:
    def test_overhead_is_small_fraction(self):
        rows = fig8.run(scale="smoke")
        assert len(rows) == 2
        for row in rows:
            assert 0.0 < row.overhead_percent < 60.0
        assert "overhead %" in fig8.format_result(rows)


class TestFig9:
    def test_smoke_run_covers_all_algorithms(self):
        cells = fig9.run(
            scale="smoke", workloads=(WorkloadKind.ZIPF,), max_probes=3
        )
        algorithms = {c.algorithm for c in cells}
        assert algorithms == {"BASE", "DFT", "DFTT", "BLOOM", "SKCH"}
        base = [c for c in cells if c.algorithm == "BASE"]
        assert all(c.achieved_epsilon < 0.05 for c in base)
        assert "msgs/result" in fig9.format_result(cells)


class TestFig10:
    def test_panel_a_error_grows_with_kappa(self):
        rows = fig10.run_panel_a(scale="smoke", num_nodes=4)
        dftt = [r for r in rows if r.algorithm == "DFTT"]
        assert dftt[0].kappa < dftt[-1].kappa
        assert "entries" in fig10.format_panel_a(rows)

    def test_panel_b_runs_node_grid(self):
        rows = fig10.run_panel_b(scale="smoke")
        node_counts = sorted({r.num_nodes for r in rows})
        assert node_counts == [2, 4]
        assert "msgs/arrival" in fig10.format_panel_b(rows)


class TestFig11:
    def test_throughput_rows(self):
        rows = fig11.run(scale="smoke", max_probes=2)
        assert {r.algorithm for r in rows} == {"BASE", "DFT", "DFTT", "BLOOM", "SKCH"}
        for row in rows:
            assert row.throughput > 0
        assert "results/s" in fig11.format_result(rows)
