"""Rendering of figures and tables: ASCII, CSV, Markdown.

The benchmark harness prints the same rows/series the paper plots;
these helpers keep that output consistent everywhere (benches, CLI,
examples).
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Union

from repro.experiments.figures import Figure, Panel


def fieldname_union(rows: Sequence[Mapping[str, Any]]) -> List[str]:
    """Union of all rows' keys, preserving first-seen order.

    Using only ``rows[0]``'s keys silently drops every column that
    first appears in a later row (e.g. ``MS_pred`` on the first
    algorithm with a registered formula mid-table).
    """
    names: List[str] = []
    seen = set()
    for row in rows:
        for key in row:
            if key not in seen:
                seen.add(key)
                names.append(key)
    return names


def _fmt(value: Any, width: int = 0) -> str:
    if isinstance(value, float):
        if value == 0:
            text = "0"
        elif abs(value) >= 1e5 or abs(value) < 1e-3:
            text = f"{value:.4g}"
        else:
            text = f"{value:.2f}".rstrip("0").rstrip(".")
    else:
        text = str(value)
    return text.rjust(width) if width else text


def render_rows(rows: Sequence[Mapping[str, Any]]) -> str:
    """Render a list of dict rows as an aligned ASCII table."""
    if not rows:
        return "(empty)"
    headers = fieldname_union(rows)
    cells = [[_fmt(row.get(h, "")) for h in headers] for row in rows]
    widths = [
        max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)
    ]
    out = io.StringIO()
    out.write("  ".join(h.rjust(w) for h, w in zip(headers, widths)) + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for row_cells in cells:
        out.write("  ".join(c.rjust(w) for c, w in zip(row_cells, widths)) + "\n")
    return out.getvalue()


def render_panel(panel: Panel) -> str:
    """ASCII table of one panel: x column plus one column per series."""
    rows: List[Dict[str, Any]] = []
    for idx, x in enumerate(panel.xs):
        row: Dict[str, Any] = {panel.xlabel: x}
        for label, values in panel.series.items():
            row[label] = values[idx]
        rows.append(row)
    header = f"[{panel.key}] {panel.title}  ({panel.ylabel})\n"
    return header + render_rows(rows)


def render_figure(figure: Figure) -> str:
    """ASCII rendering of a whole figure (all panels)."""
    parts = [f"=== {figure.id}: {figure.title} ===", figure.caption, ""]
    for panel in figure.panels:
        parts.append(render_panel(panel))
    return "\n".join(parts)


def panel_to_csv(panel: Panel, path: Union[str, Path]) -> None:
    """Atomically write one panel as CSV (x column + one column per series)."""
    from repro.store.atomic import atomic_write_text

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([panel.xlabel, *panel.series])
    for idx, x in enumerate(panel.xs):
        writer.writerow([x, *(vals[idx] for vals in panel.series.values())])
    atomic_write_text(path, buffer.getvalue())


def figure_to_csv(figure: Figure, directory: Union[str, Path]) -> List[Path]:
    """Write every panel of a figure as ``<dir>/<figid><panel>.csv``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: List[Path] = []
    for panel in figure.panels:
        path = directory / f"{figure.id}{panel.key}.csv"
        panel_to_csv(panel, path)
        paths.append(path)
    return paths
