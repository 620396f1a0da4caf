"""Standalone SVG line chart of the cumulative decomposition.

Hand-assembled XML: no plotting dependency, byte-deterministic output,
easy to diff in tests.  One polyline per cumulative series (six in total),
identified by ``id="series-<column>"``, plus a date axis and a legend.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .decomposition import CUMULATIVE_COLUMNS, validate_cumulative
from .errors import InsufficientDataError
from .series import Frame

WIDTH, HEIGHT = 960.0, 540.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 24.0, 46.0, 58.0
TITLE = "Cumulative decomposition (bps)"  # no "&", "<" or ">": it and the labels go in as is
_TARGET_TICKS = 6  # y-axis ticks aimed at; the step is rounded to a nice value

# (cumulative column, legend label, color, stroke width), in CUMULATIVE_COLUMNS order
SERIES_STYLE = tuple((name, *style) for name, style in zip(CUMULATIVE_COLUMNS, (
    ("DI5Y change (cum)", "#111111", 2.2),
    ("Constant", "#999999", 1.4),
    ("Macro / central bank", "#1f77b4", 1.4),
    ("Brazil risk", "#d62728", 1.4),
    ("Global risk", "#2ca02c", 1.4),
    ("Residual", "#9467bd", 1.4),
), strict=True))

__all__ = ["emit_svg", "render_svg", "SERIES_STYLE"]


def _nice_step(span: float) -> float:
    raw = span / _TARGET_TICKS
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 1.0
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mult * mag >= raw:
            return mult * mag
    return 10.0 * mag


def _axis_ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 else v)
        v += step
    return ticks


def emit_svg(cum: Frame, path: Path | str) -> None:
    """Write :func:`render_svg`'s chart of ``cum`` to the file ``path``."""
    Path(path).write_text(render_svg(cum), encoding="utf-8")


def render_svg(cum: Frame) -> str:
    """The six cumulative series as a well-formed standalone SVG document.

    ``cum`` is a frame with the columns named in :data:`SERIES_STYLE`, as
    returned by :func:`di_decomp.decomposition.accumulate`.

    The additive identity is cross-checked on every row before anything is
    rendered, so a chart is never produced from inconsistent accounting.
    """
    if cum.n_rows < 2:
        raise InsufficientDataError(
            f"render_svg: need at least 2 rows, got {cum.n_rows}"
        )
    validate_cumulative(cum)

    day_offset = (cum.dates - cum.dates[0]).astype(np.int64)
    xspan = max(int(day_offset[-1]), 1)
    values = [cum.column(name) for name, *_ in SERIES_STYLE]
    lo = min(float(v.min()) for v in values)
    hi = max(float(v.max()) for v in values)
    pad = 0.05 * (hi - lo) or 1.0
    lo, hi = lo - pad, hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    # Whole columns, in the same operation order as the scalar formulas, so
    # every coordinate rounds to the same string.
    xs = (MARGIN_L + plot_w * day_offset / xspan).tolist()

    def sy(v):
        return MARGIN_T + plot_h * (hi - v) / (hi - lo)

    parts: list[str] = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
        f'height="{HEIGHT:.0f}" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">'
    )
    parts.append(f"<title>{TITLE}</title>")
    parts.append(
        f'<rect x="0" y="0" width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="#ffffff"/>'
    )
    parts.append(
        f'<text x="{MARGIN_L:.1f}" y="24" font-family="sans-serif" font-size="16" '
        f'fill="#111111">{TITLE}</text>'
    )

    # horizontal grid and y labels
    for tick in _axis_ticks(lo, hi):
        y = sy(tick)
        parts.append(
            f'<line x1="{MARGIN_L:.1f}" y1="{y:.2f}" x2="{WIDTH - MARGIN_R:.1f}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8:.1f}" y="{y + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" fill="#444444" text-anchor="end">{tick:g}</text>'
        )

    # date axis: at most 8 evenly spaced tick labels
    n_ticks = min(8, cum.n_rows)
    for i in range(n_ticks):
        idx = round(i * (cum.n_rows - 1) / max(n_ticks - 1, 1))
        x = xs[idx]
        parts.append(
            f'<line x1="{x:.2f}" y1="{HEIGHT - MARGIN_B:.1f}" x2="{x:.2f}" '
            f'y2="{HEIGHT - MARGIN_B + 5:.1f}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{HEIGHT - MARGIN_B + 20:.1f}" font-family="sans-serif" '
            f'font-size="11" fill="#444444" text-anchor="middle">{cum.dates[idx]}</text>'
        )
    parts.append(
        f'<line x1="{MARGIN_L:.1f}" y1="{HEIGHT - MARGIN_B:.1f}" '
        f'x2="{WIDTH - MARGIN_R:.1f}" y2="{HEIGHT - MARGIN_B:.1f}" '
        f'stroke="#444444" stroke-width="1"/>'
    )

    x_text = [f"{x:.2f}," for x in xs]
    for name, label, color, width in SERIES_STYLE:
        y_text = map("{:.2f}".format, sy(cum.column(name)).tolist())
        pts = " ".join(map(str.__add__, x_text, y_text))
        parts.append(
            f'<polyline id="series-{name}" fill="none" stroke="{color}" '
            f'stroke-width="{width:g}" points="{pts}"/>'
        )

    # legend, one entry per series, laid out in two rows
    per_row = 3
    for i, (name, label, color, _) in enumerate(SERIES_STYLE):
        lx = MARGIN_L + (i % per_row) * 260.0
        ly = HEIGHT - 26.0 + (i // per_row) * 14.0
        parts.append(
            f'<line x1="{lx:.1f}" y1="{ly - 4:.1f}" x2="{lx + 22:.1f}" y2="{ly - 4:.1f}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        parts.append(
            f'<text x="{lx + 28:.1f}" y="{ly:.1f}" font-family="sans-serif" '
            f'font-size="11" fill="#111111">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
