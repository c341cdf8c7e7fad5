"""Hand-emitted SVG line charts for sweep output.  No plotting dependency."""

from __future__ import annotations

import math

from .stats import STAT_COLUMNS, StatsRecord
from .sweep import SweepRow

_PANEL_W, _PANEL_H = 300, 230
_MARGIN = 48
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _panel(stat, rows_by_model, ref_value, x0, y0, color_of):
    out = []
    pts_all = [y for pts in rows_by_model.values() for _, y in pts]
    if math.isfinite(ref_value):
        pts_all.append(ref_value)
    if not pts_all:
        pts_all = [0.0, 1.0]
    lo, hi = min(pts_all), max(pts_all)
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.08 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    left, bottom = x0 + _MARGIN, y0 + _PANEL_H - 30
    width, height = _PANEL_W - _MARGIN - 12, _PANEL_H - 54

    def px(x):
        return left + x * width

    def py(y):
        return bottom - (y - lo) / (hi - lo) * height

    out.append(
        f'<text x="{x0 + _PANEL_W / 2:.0f}" y="{y0 + 14}" text-anchor="middle" '
        f'font-size="11" font-weight="bold">{stat}</text>'
    )
    out.append(
        f'<rect x="{left}" y="{bottom - height}" width="{width}" height="{height}" '
        'fill="none" stroke="#888" stroke-width="1"/>'
    )
    for frac, label in ((0.0, "0"), (0.5, "0.5"), (1.0, "1")):
        out.append(
            f'<text x="{px(frac):.1f}" y="{bottom + 14}" text-anchor="middle" '
            f'font-size="9">{label}</text>'
        )
    for val in (lo + pad, hi - pad):
        out.append(
            f'<text x="{left - 4}" y="{py(val) + 3:.1f}" text-anchor="end" '
            f'font-size="9">{val:.3g}</text>'
        )
    if math.isfinite(ref_value):
        y = py(ref_value)
        out.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + width}" y2="{y:.1f}" '
            'stroke="#444" stroke-dasharray="4,3" stroke-width="1"/>'
        )
    for model, pts in rows_by_model.items():
        coords = [(f"{px(x):.1f}", f"{py(y):.1f}") for x, y in pts]
        if len(coords) >= 2:
            points = " ".join(f"{cx},{cy}" for cx, cy in coords)
            out.append(
                f'<polyline points="{points}" fill="none" '
                f'stroke="{color_of[model]}" stroke-width="1.5"/>'
            )
        for cx, cy in coords:
            out.append(
                f'<circle cx="{cx}" cy="{cy}" r="2.2" fill="{color_of[model]}"/>'
            )
    return "\n".join(out)


def render_sweep_svg(rows: list[SweepRow], reference: StatsRecord) -> str:
    """One panel per statistic (2 x 4 grid), x = expected overlap.

    Dashed horizontal line marks the reference graph's own value.
    """
    models = sorted({r.model for r in rows})
    color_of = {m: _COLORS[i % len(_COLORS)] for i, m in enumerate(models)}
    cols, rows_n = 4, 2
    width = cols * _PANEL_W
    height = rows_n * _PANEL_H + 26
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i, m in enumerate(models):
        x = 12 + i * 150
        parts.append(
            f'<line x1="{x}" y1="{height - 12}" x2="{x + 22}" y2="{height - 12}" '
            f'stroke="{color_of[m]}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{x + 27}" y="{height - 8}" font-size="11">{m}</text>'
        )
    for k, stat in enumerate(STAT_COLUMNS):
        rows_by_model = {m: [] for m in models}  # finite points of ok rows
        for r in rows:
            x, y = r.overlap_expected, r.means[stat]
            if r.status == "ok" and math.isfinite(x) and math.isfinite(y):
                rows_by_model[r.model].append((x, y))
        ref_value = getattr(reference, stat)
        x0 = (k % cols) * _PANEL_W
        y0 = (k // cols) * _PANEL_H
        parts.append(_panel(stat, rows_by_model, ref_value, x0, y0, color_of))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
