"""Tests for the text report renderers (using the mini study)."""

import numpy as np
import pytest

from repro.core.report import (
    _BLOCKS,
    render_fig1,
    render_fig2,
    render_fig3,
    render_fig4,
    render_fig5,
    render_fig6,
    render_fig7,
    render_fig8,
    render_summary,
    sparkline,
)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_all_zero(self):
        assert set(sparkline([0, 0, 0])) == {" "}

    def test_monotone_levels(self):
        line = sparkline([1, 2, 4, 8], width=4)
        assert len(line) == 4
        assert line[-1] == "█"

    def test_downsampling(self):
        line = sparkline(list(range(1000)), width=50)
        assert len(line) == 50

    def test_nan_treated_as_zero(self):
        line = sparkline([float("nan"), 1.0], width=2)
        assert len(line) == 2
        assert line[0] == " "

    @pytest.mark.parametrize("width", [24, 40, 50, 60, 84])
    def test_downsampling_matches_chunk_loop(self, width):
        def chunk_loop(values, width):
            data = np.asarray(values, dtype=np.float64)
            data = np.where(np.isnan(data), 0.0, data)
            if data.size > width:
                edges = np.linspace(0, data.size, width + 1).astype(int)
                data = np.array([
                    data[lo:hi].mean() if hi > lo else 0.0
                    for lo, hi in zip(edges[:-1], edges[1:])
                ])
            top = data.max()
            if top <= 0:
                return _BLOCKS[0] * len(data)
            scaled = (data / top * (len(_BLOCKS) - 1)).round().astype(int)
            return "".join(_BLOCKS[level] for level in scaled)

        rng = np.random.default_rng(width)
        for _ in range(200):
            size = int(rng.integers(1, 400))
            series = rng.exponential(10.0 ** rng.uniform(-2, 9), size)
            series[rng.random(size) < 0.1] = np.nan
            assert sparkline(series, width) == chunk_loop(series, width)


class TestRenderers:
    def test_all_renderers_produce_text(self, mini_artifacts):
        outputs = [
            render_fig1(mini_artifacts.fig1()),
            render_fig2(mini_artifacts.fig2()),
            render_fig3(mini_artifacts.fig3()),
            render_fig4(mini_artifacts.fig4()),
            render_fig5(mini_artifacts.fig5()),
            render_fig6(mini_artifacts.fig6()),
            render_fig7(mini_artifacts.fig7()),
            render_fig8(mini_artifacts.fig8()),
            render_summary(mini_artifacts.summary()),
        ]
        for text in outputs:
            assert isinstance(text, str)
            assert "\n" in text
            assert text.startswith(("Figure", "Headline"))

    def test_summary_mentions_key_stats(self, mini_artifacts):
        text = render_summary(mini_artifacts.summary())
        assert "post-shutdown devices" in text
        assert "international" in text
        assert "distinct sites" in text

    def test_fig6_has_all_months(self, mini_artifacts):
        text = render_fig6(mini_artifacts.fig6())
        for month in ("February", "March", "April", "May"):
            assert month in text


class TestFigureCsvExport:
    def test_all_files_written(self, mini_artifacts, tmp_path):
        from repro.core.figures import FIGURE_FILES, export_figure_csvs
        paths = export_figure_csvs(mini_artifacts, str(tmp_path))
        import os
        assert sorted(os.path.basename(p) for p in paths) == sorted(
            FIGURE_FILES)
        for path in paths:
            assert os.path.getsize(path) > 0

    def test_fig1_csv_matches_result(self, mini_artifacts, tmp_path):
        import csv
        from repro.core.figures import export_figure_csvs
        export_figure_csvs(mini_artifacts, str(tmp_path))
        with open(tmp_path / "fig1_active_devices.csv") as fileobj:
            rows = list(csv.reader(fileobj))
        result = mini_artifacts.fig1()
        assert rows[0][0] == "date"
        assert len(rows) - 1 == len(result.day_ts)
        assert int(rows[1][1]) == int(result.total[0])

    def test_summary_csv_parseable(self, mini_artifacts, tmp_path):
        import csv
        from repro.core.figures import export_figure_csvs
        export_figure_csvs(mini_artifacts, str(tmp_path))
        with open(tmp_path / "summary.csv") as fileobj:
            rows = {name: value for name, value in csv.reader(fileobj)}
        assert "post_shutdown_devices" in rows
        assert float(rows["traffic_increase_feb_to_aprmay"]) != 0.0
