"""Tests for rendering and CSV output."""

import csv

from repro.experiments.figures import Figure, Panel
from repro.experiments.io import (
    figure_to_csv,
    panel_to_csv,
    render_figure,
    render_panel,
    render_rows,
)


def _panel():
    panel = Panel(
        key="a",
        title="demo",
        xlabel="order",
        ylabel="MS",
        xs=[8, 16],
    )
    panel.add("algo", [10.0, 20.0])
    panel.add("bound", [5.0, 9.5])
    return panel


class TestRenderRows:
    def test_alignment_and_headers(self):
        text = render_rows([{"a": 1, "bb": 2.5}, {"a": 100, "bb": 0.25}])
        lines = text.splitlines()
        assert "a" in lines[0] and "bb" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_empty(self):
        assert render_rows([]) == "(empty)"

    def test_float_formatting(self):
        text = render_rows([{"v": 123456789.0}, {"v": 0.000123}])
        assert "1.235e+08" in text
        assert "0.000123" in text


class TestPanelRendering:
    def test_render_panel_contains_series(self):
        text = render_panel(_panel())
        assert "algo" in text and "bound" in text
        assert "order" in text
        assert "[a] demo" in text

    def test_render_figure(self):
        fig = Figure(id="figX", title="T", caption="C", panels=[_panel()])
        text = render_figure(fig)
        assert "figX" in text and "T" in text and "C" in text


class TestCSV:
    def test_panel_to_csv_roundtrip(self, tmp_path):
        path = tmp_path / "p.csv"
        panel_to_csv(_panel(), path)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["order", "algo", "bound"]
        assert rows[1] == ["8", "10.0", "5.0"]

    def test_figure_to_csv_one_file_per_panel(self, tmp_path):
        fig = Figure(id="figX", title="T", caption="C", panels=[_panel(), _panel()])
        fig.panels[1].key = "b"
        paths = figure_to_csv(fig, tmp_path)
        assert [p.name for p in paths] == ["figXa.csv", "figXb.csv"]
        assert all(p.exists() for p in paths)


class TestFieldnameUnion:
    def test_first_seen_order(self):
        from repro.experiments.io import fieldname_union

        rows = [{"b": 1, "a": 2}, {"c": 3, "a": 4}, {"d": 5}]
        assert fieldname_union(rows) == ["b", "a", "c", "d"]

    def test_render_rows_includes_late_columns(self):
        text = render_rows([{"x": 1}, {"x": 2, "late": 9}])
        assert "late" in text.splitlines()[0]
