"""Minimal static SVG line charts, dependency-free.

One chart = labeled axes plus one polyline per series, for batch reports;
nothing interactive.
"""

from __future__ import annotations

WIDTH, HEIGHT = 640, 400
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 60
COLORS = ("#1f6fb2", "#c2451e", "#3a8a3a", "#7b4fa6")


def escape(text: str) -> str:
    """``xml.sax.saxutils.escape(text)``, the same three replacements in its
    order, without importing ``xml.sax.saxutils``, which imports
    ``urllib.request`` and with it ``http.client``, ``email`` and ``ssl``."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def line_chart(
    x_labels: list[str],
    series: dict[str, list[float]],
    title: str,
    y_label: str,
) -> str:
    """Render series sharing categorical x positions as an SVG document."""
    if not x_labels or not series:
        raise ValueError("need at least one x position and one series")
    for name, ys in series.items():
        if len(ys) != len(x_labels):
            raise ValueError(f"series {name!r} has {len(ys)} points, expected {len(x_labels)}")
    all_y = [y for ys in series.values() for y in ys]
    y_min = min(0.0, min(all_y))
    y_max = max(all_y)
    if y_max == y_min:
        y_max = y_min + 1.0
    pad = 0.05 * (y_max - y_min)
    y_min, y_max = y_min - (pad if y_min else 0.0), y_max + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def x_pos(i: int) -> float:
        if len(x_labels) == 1:
            return MARGIN_L + plot_w / 2
        return MARGIN_L + plot_w * i / (len(x_labels) - 1)

    def y_pos(v: float) -> float:
        return MARGIN_T + plot_h * (1 - (v - y_min) / (y_max - y_min))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="15">{escape(title)}</text>',
        # axes
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<text x="18" y="{HEIGHT / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {HEIGHT / 2})">{escape(y_label)}</text>',
    ]
    for i, label in enumerate(x_labels):
        x = x_pos(i)
        parts.append(
            f'<line x1="{x:.1f}" y1="{HEIGHT - MARGIN_B}" x2="{x:.1f}" '
            f'y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{HEIGHT - MARGIN_B + 20}" '
            f'text-anchor="middle">{escape(label)}</text>'
        )
    n_ticks = 5
    for t in range(n_ticks + 1):
        v = y_min + (y_max - y_min) * t / n_ticks
        y = y_pos(v)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{y:.1f}" x2="{MARGIN_L}" '
            f'y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 9}" y="{y + 4:.1f}" text-anchor="end">{v:.1f}</text>'
        )
    for s_i, (name, ys) in enumerate(series.items()):
        color = COLORS[s_i % len(COLORS)]
        pts = " ".join(f"{x_pos(i):.1f},{y_pos(v):.1f}" for i, v in enumerate(ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for i, v in enumerate(ys):
            parts.append(
                f'<circle cx="{x_pos(i):.1f}" cy="{y_pos(v):.1f}" r="3" fill="{color}"/>'
            )
        ly = MARGIN_T + 16 * s_i
        parts.append(
            f'<line x1="{WIDTH - MARGIN_R - 120}" y1="{ly}" '
            f'x2="{WIDTH - MARGIN_R - 100}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{WIDTH - MARGIN_R - 94}" y="{ly + 4}">{escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
