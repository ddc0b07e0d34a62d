"""Minimal hand-emitted SVG line plots (no plotting dependency)."""

import numpy as np

_WIDTH, _HEIGHT = 720, 440
_MARGIN = 60
_COLORS = ("#1f6fb4", "#c44e52")


def line_plot(path, x, curves, title):
    """Write a simple SVG with labelled polylines over an axis labelled x.

    curves: list of (label, values) pairs sharing the x grid; x and the
    values may be lists or arrays of finite numbers, with the same bytes.
    The coordinates are numpy expressions in the operation order of the
    per-point formula ``MARGIN + (v - min) / (max - min) * (size - 2 * MARGIN)``,
    so each is bitwise that formula's, and each curve's points are
    formatted by one ``str.format`` map.
    """
    x = np.asarray(x, dtype=float)
    Y = np.asarray([values for _, values in curves], dtype=float)
    xmin, xmax = float(x.min()), float(x.max())
    ymin, ymax = float(Y.min()), float(Y.max())
    if ymax == ymin:
        ymin, ymax = ymin - 0.5, ymax + 0.5
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad
    sx = (_MARGIN + (x - xmin) / (xmax - xmin) * (_WIDTH - 2 * _MARGIN)).tolist()
    sy = (_HEIGHT - _MARGIN - (Y - ymin) / (ymax - ymin) * (_HEIGHT - 2 * _MARGIN)).tolist()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        # axes
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        # axis labels and extreme ticks
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 16}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">x</text>',
        f'<text x="{_MARGIN}" y="{_HEIGHT - _MARGIN + 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{xmin:g}</text>',
        f'<text x="{_WIDTH - _MARGIN}" y="{_HEIGHT - _MARGIN + 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{xmax:g}</text>',
        f'<text x="{_MARGIN - 6}" y="{_HEIGHT - _MARGIN + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{ymin:.4g}</text>',
        f'<text x="{_MARGIN - 6}" y="{_MARGIN + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{ymax:.4g}</text>',
    ]
    for k, ((label, _), curve_sy) in enumerate(zip(curves, sy)):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(map("{:.2f},{:.2f}".format, sx, curve_sy))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN - 4}" y="{_MARGIN + 16 + 16 * k}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(parts) + "\n")
