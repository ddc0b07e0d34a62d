"""Minimal hand-emitted SVG line plots (no plotting dependency)."""

_WIDTH, _HEIGHT = 720, 440
_MARGIN = 60
_COLORS = ("#1f6fb4", "#c44e52")


def line_plot(path, x, curves, title):
    """Write a simple SVG with labelled polylines over an axis labelled x.

    curves: list of (label, values) pairs sharing the x grid.
    """
    xmin, xmax = min(x), max(x)
    ys = [v for _, values in curves for v in values]
    ymin, ymax = min(ys), max(ys)
    if ymax == ymin:
        ymin, ymax = ymin - 0.5, ymax + 0.5
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad

    def sx(v):
        return _MARGIN + (v - xmin) / (xmax - xmin) * (_WIDTH - 2 * _MARGIN)

    def sy(v):
        return _HEIGHT - _MARGIN - (v - ymin) / (ymax - ymin) * (_HEIGHT - 2 * _MARGIN)

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
    for k, (label, values) in enumerate(curves):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, values))
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
