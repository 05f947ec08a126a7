"""Reporting for benchmark harnesses: ASCII tables and SVG line charts.

The benchmarks print the same rows/series the paper's figures plot;
these helpers render them as aligned ASCII tables so `pytest
benchmarks/ --benchmark-only` output is directly comparable to the
paper. :func:`render_line_chart` is the one figure writer: the
robustness and degradation figures and ``tools/plot_history.py`` all
draw through it, with the standard library only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union
from xml.sax.saxutils import escape

from ..errors import ConfigurationError

Cell = Union[str, float, int]

#: distinguishable line colors, cycled per series
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
    "#393b79", "#ad494a", "#637939", "#7b4173", "#3182bd",
)

#: ``stroke-dasharray`` styles, cycled per line family (solid first)
DASHES = ("", "6,4", "2,3", "9,3,2,3")


def _render_cell(cell: Cell) -> str:
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, int):
        return str(cell)
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


@dataclass
class Table:
    """A small column-aligned table builder."""

    headers: List[str]
    rows: List[List[str]] = field(default_factory=list)
    title: str = ""

    def add_row(self, *cells: Cell) -> None:
        """Append a row; must match the header width."""
        if len(cells) != len(self.headers):
            raise ConfigurationError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append([_render_cell(c) for c in cells])

    def render(self) -> str:
        """The aligned ASCII rendering."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(h.ljust(w) for h, w in zip(self.headers, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


def format_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[Cell]]
) -> str:
    """One-shot table rendering."""
    table = Table(headers=list(headers), title=title)
    for row in rows:
        table.add_row(*row)
    return table.render()


def format_series(
    title: str, xs: Sequence[Cell], ys: Sequence[Cell], *, x_name: str = "x",
    y_name: str = "y"
) -> str:
    """Render a single (x, y) series as a two-column table."""
    if len(xs) != len(ys):
        raise ConfigurationError(
            f"series length mismatch: {len(xs)} xs vs {len(ys)} ys"
        )
    return format_table(title, [x_name, y_name], list(zip(xs, ys)))


@dataclass
class Series:
    """One line of a chart: ``points`` are ``(x, y)`` pairs, drawn as a
    polyline with a marker on each; ``whiskers`` are ``(x, low, high)``
    vertical bars. Non-finite values are left out."""

    label: str
    points: Sequence[Tuple[float, float]]
    color: str = PALETTE[0]
    dash: str = ""
    whiskers: Sequence[Tuple[float, float, float]] = ()


@dataclass
class Panel:
    """One plot of a chart. ``y_range`` clips the y axis (``None`` fits
    the data); ``x_ticks`` are ``(x, label)`` pairs (``None`` labels
    every x that carries a point); ``y_format`` labels the y ticks
    (``None``: ``1e-06`` style on a log axis, ``%g`` on a linear one)."""

    title: str
    series: Sequence[Series]
    x_label: str = ""
    log_y: bool = False
    y_range: Optional[Tuple[float, float]] = None
    x_ticks: Optional[Sequence[Tuple[float, str]]] = None
    y_format: Optional[Callable[[float], str]] = None


def _finite(*values: float) -> bool:
    return all(math.isfinite(value) for value in values)


def _y_scale(panel: Panel) -> Tuple[Callable[[float], float], List[float]]:
    """The panel's y transform onto [0, 1] (clipped) and its ticks."""
    if panel.y_range is not None:
        low, high = panel.y_range
    else:
        ys = [y for series in panel.series for _, y in series.points
              if _finite(y) and (y > 0 or not panel.log_y)]
        low, high = (min(ys), max(ys)) if ys else (0.1, 1.0)
        if low == high:  # a flat axis still needs a span to project onto
            low, high = (low / 2, high * 2) if panel.log_y else (
                low - 0.5, high + 0.5)
    if panel.log_y:
        low, high = math.log10(low), math.log10(high)
        exponents = range(math.ceil(low), math.floor(high) + 1)
        ticks = [10.0 ** e for e in exponents[::max(1, len(exponents) // 10)]]
    else:
        ticks = [low, (low + high) / 2, high]

    def scale(y: float) -> float:
        if panel.log_y:
            y = math.log10(y) if y > 0 else low
        return min(max((y - low) / (high - low), 0.0), 1.0)

    return scale, ticks


def _text(x: float, y: float, body: object, attributes: str = "") -> str:
    return (f'<text x="{x:.1f}" y="{y:.1f}"{attributes}>'
            f'{escape(str(body))}</text>')


def render_line_chart(
    panels: Sequence[Panel],
    *,
    panel_height: int = 300,
    columns: int = 1,
    legend_width: int = 150,
) -> str:
    """The panels as one dependency-free SVG document, 960 pixels wide,
    laid out row-major in ``columns`` columns, each panel with its title,
    framed plot area, y gridlines, x tick labels and a legend column on
    its right."""
    width = 960
    columns = max(columns, 1)
    panel_width = width // columns
    height = panel_height * math.ceil(len(panels) / columns)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="10">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for index, panel in enumerate(panels):
        left = (index % columns) * panel_width + 64
        top = (index // columns) * panel_height + 36
        plot_w, plot_h = panel_width - 64 - legend_width, panel_height - 76
        scale, y_ticks = _y_scale(panel)
        y_format = (panel.y_format
                    or ("{:.0e}" if panel.log_y else "{:g}").format)
        x_ticks = panel.x_ticks
        if x_ticks is None:
            x_ticks = [(x, f"{x:g}") for x in sorted({
                x for series in panel.series for x, y in series.points
                if _finite(x, y)
            })]
        x_low = min((x for x, _ in x_ticks), default=0.0)
        x_span = max((x for x, _ in x_ticks), default=0.0) - x_low

        def x_at(x: float) -> float:
            return left + plot_w * ((x - x_low) / x_span if x_span else 0.5)

        def y_at(y: float) -> float:
            return top + plot_h * (1.0 - scale(y))

        parts += [
            _text(left, top - 16, panel.title,
                  ' font-size="13" font-weight="bold"'),
            f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
            f'fill="none" stroke="#cccccc"/>',
            _text(left, top + plot_h + 32, panel.x_label),
        ]
        for tick in y_ticks:
            parts += [
                f'<line x1="{left}" y1="{y_at(tick):.1f}" '
                f'x2="{left + plot_w}" y2="{y_at(tick):.1f}" '
                f'stroke="#eeeeee"/>',
                _text(left - 6, y_at(tick) + 4, y_format(tick),
                      ' text-anchor="end"'),
            ]
        parts += [_text(x_at(x), top + plot_h + 16, label,
                        ' text-anchor="middle"') for x, label in x_ticks]
        legend_y = top
        for series in panel.series:
            points = sorted((x_at(x), y_at(y)) for x, y in series.points
                            if _finite(x, y))
            if not points:
                continue
            color = f'"{series.color}"'
            dash = f' stroke-dasharray="{series.dash}"' if series.dash else ""
            parts += [
                f'<line x1="{x_at(x):.1f}" y1="{y_at(low):.1f}" '
                f'x2="{x_at(x):.1f}" y2="{y_at(high):.1f}" stroke={color}/>'
                for x, low, high in series.whiskers if _finite(x, low, high)
            ]
            if len(points) > 1:
                path = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
                parts.append(f'<polyline points="{path}" fill="none" '
                             f'stroke={color} stroke-width="1.6"{dash}/>')
            parts += [f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.5" '
                      f'fill={color}/>' for x, y in points]
            if legend_y < top + plot_h:
                parts += [
                    f'<line x1="{left + plot_w + 10}" y1="{legend_y + 4}" '
                    f'x2="{left + plot_w + 26}" y2="{legend_y + 4}" '
                    f'stroke={color} stroke-width="2"{dash}/>',
                    _text(left + plot_w + 30, legend_y + 8, series.label),
                ]
                legend_y += 14
    parts.append("</svg>")
    return "\n".join(parts)
