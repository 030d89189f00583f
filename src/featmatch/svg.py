"""Standalone SVG box plots, no plotting dependency.

Whiskers extend to the most extreme data point within 1.5 IQR of the box;
points beyond that render as outlier circles.  Output is deterministic for
a given input (fixed viewBox, fixed formatting).
"""

from __future__ import annotations

import numpy as np

__all__ = ["BoxStats", "render_box_plot"]

WIDTH, HEIGHT = 800, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 70


class BoxStats:
    def __init__(self, values):
        values = sorted(float(v) for v in values)
        if not values:
            raise ValueError("box plot group needs at least one value")
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        iqr = q3 - q1
        lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        inside = [v for v in values if lo_fence <= v <= hi_fence]
        self.q1, self.median, self.q3 = float(q1), float(med), float(q3)
        self.whisker_lo = min(inside)
        self.whisker_hi = max(inside)
        self.outliers = [v for v in values if v < lo_fence or v > hi_fence]


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def render_box_plot(groups: list[tuple[str, list[float]]], title: str, y_label: str) -> str:
    """Render one box per (label, values) group into a standalone SVG, on a
    y axis from 0 to 1."""
    if not groups:
        raise ValueError("nothing to plot")
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def ypix(v: float) -> float:
        return MARGIN_T + (1.0 - v) * plot_h

    slot = plot_w / len(groups)
    box_w = min(60.0, slot * 0.5)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    parts.append(f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>')
    parts.append(
        f'<text x="16" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.1f})">{y_label}</text>'
    )
    # frame and y ticks
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black"/>'
    )
    for i in range(5):
        v = i / 4
        y = ypix(v)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{y:.1f}" x2="{MARGIN_L}" y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{y:.1f}" x2="{MARGIN_L + plot_w}" y2="{y:.1f}" '
            'stroke="#dddddd" stroke-dasharray="4 4"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 9}" y="{y + 4:.1f}" text-anchor="end">{_fmt(v)}</text>'
        )

    for i, (label, values) in enumerate(groups):
        st = BoxStats(values)
        cx = MARGIN_L + slot * (i + 0.5)
        x0, x1 = cx - box_w / 2, cx + box_w / 2
        yq1, yq3 = ypix(st.q1), ypix(st.q3)
        ymed = ypix(st.median)
        ywl, ywh = ypix(st.whisker_lo), ypix(st.whisker_hi)
        parts.append(f'<line x1="{cx:.1f}" y1="{ywh:.1f}" x2="{cx:.1f}" y2="{yq3:.1f}" stroke="black"/>')
        parts.append(f'<line x1="{cx:.1f}" y1="{yq1:.1f}" x2="{cx:.1f}" y2="{ywl:.1f}" stroke="black"/>')
        parts.append(
            f'<line x1="{cx - box_w / 4:.1f}" y1="{ywh:.1f}" x2="{cx + box_w / 4:.1f}" y2="{ywh:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{cx - box_w / 4:.1f}" y1="{ywl:.1f}" x2="{cx + box_w / 4:.1f}" y2="{ywl:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<rect x="{x0:.1f}" y="{yq3:.1f}" width="{box_w:.1f}" height="{yq1 - yq3:.1f}" '
            'fill="#9ecae1" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{x0:.1f}" y1="{ymed:.1f}" x2="{x1:.1f}" y2="{ymed:.1f}" stroke="black" stroke-width="2"/>'
        )
        for v in st.outliers:
            parts.append(
                f'<circle cx="{cx:.1f}" cy="{ypix(v):.1f}" r="2.5" fill="none" stroke="black"/>'
            )
        parts.append(
            f'<text x="{cx:.1f}" y="{MARGIN_T + plot_h + 18:.1f}" text-anchor="middle">{label}</text>'
        )
        parts.append(
            f'<text x="{cx:.1f}" y="{MARGIN_T + plot_h + 34:.1f}" text-anchor="middle" '
            f'font-size="10">med {_fmt(st.median)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
