import numpy as np
import pytest

from rdgalerkin.svg import line_plot

HEAD = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="720" height="440">\n'
    '<rect width="720" height="440" fill="white"/>\n'
)
AXES = (
    '<line x1="60" y1="380" x2="660" y2="380" stroke="black"/>\n'
    '<line x1="60" y1="60" x2="60" y2="380" stroke="black"/>\n'
    '<text x="360.0" y="424" text-anchor="middle" font-family="sans-serif" font-size="12">x</text>\n'
)

THREE_POINTS = (
    HEAD
    + '<text x="360.0" y="24" text-anchor="middle" font-family="sans-serif" font-size="15">three points</text>\n'
    + AXES
    + '<text x="60" y="396" text-anchor="middle" font-family="sans-serif" font-size="11">0</text>\n'
    '<text x="660" y="396" text-anchor="middle" font-family="sans-serif" font-size="11">2</text>\n'
    '<text x="54" y="384" text-anchor="end" font-family="sans-serif" font-size="11">-0.1025</text>\n'
    '<text x="54" y="64" text-anchor="end" font-family="sans-serif" font-size="11">1.052</text>\n'
    '<polyline points="60.00,323.90 210.00,282.34 660.00,365.45" fill="none" stroke="#1f6fb4" stroke-width="1.5"/>\n'
    '<text x="656" y="76" text-anchor="end" font-family="sans-serif" font-size="12" fill="#1f6fb4">M</text>\n'
    '<polyline points="60.00,74.55 210.00,102.25 660.00,143.81" fill="none" stroke="#c44e52" stroke-width="1.5"/>\n'
    '<text x="656" y="92" text-anchor="end" font-family="sans-serif" font-size="12" fill="#c44e52">N</text>\n'
    "</svg>\n"
)

CONSTANT = (
    HEAD
    + '<text x="360.0" y="24" text-anchor="middle" font-family="sans-serif" font-size="15">constant</text>\n'
    + AXES
    + '<text x="60" y="396" text-anchor="middle" font-family="sans-serif" font-size="11">-1</text>\n'
    '<text x="660" y="396" text-anchor="middle" font-family="sans-serif" font-size="11">1</text>\n'
    '<text x="54" y="384" text-anchor="end" font-family="sans-serif" font-size="11">1.45</text>\n'
    '<text x="54" y="64" text-anchor="end" font-family="sans-serif" font-size="11">2.55</text>\n'
    '<polyline points="60.00,220.00 360.00,220.00 660.00,220.00" fill="none" stroke="#1f6fb4" stroke-width="1.5"/>\n'
    '<text x="656" y="76" text-anchor="end" font-family="sans-serif" font-size="12" fill="#1f6fb4">M</text>\n'
    "</svg>\n"
)


def plot(path, x, curves, title):
    line_plot(path, x, curves, title)
    return path.read_text()


def test_three_point_plot(tmp_path):
    curves = [("M", [0.1, 0.25, -0.05]), ("N", [1.0, 0.9, 0.75])]
    assert plot(tmp_path / "p.svg", [0.0, 0.5, 2.0], curves, "three points") == THREE_POINTS


def test_constant_curve_widens_the_range(tmp_path):
    # ymax == ymin: the y range becomes [y - 0.5, y + 0.5] before padding
    curves = [("M", [2.0, 2.0, 2.0])]
    assert plot(tmp_path / "p.svg", [-1.0, 0.0, 1.0], curves, "constant") == CONSTANT


@pytest.mark.parametrize("n", [3, 1001])
def test_lists_and_arrays_give_the_same_bytes(tmp_path, n):
    rng = np.random.default_rng(n)
    x = np.linspace(-50.0, 50.0, n)
    M, N = rng.standard_normal(n), 0.25 * rng.random(n)
    as_arrays = plot(tmp_path / "a.svg", x, [("M", M), ("N", N)], "t")
    as_lists = plot(tmp_path / "l.svg", x.tolist(), [("M", M.tolist()), ("N", N.tolist())], "t")
    assert as_arrays == as_lists


def per_point_polylines(x, curves):
    """Each curve's points, computed by a scalar expression per point."""
    xmin, xmax = min(x), max(x)
    ys = [v for values in curves for v in values]
    ymin, ymax = min(ys), max(ys)
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad
    return [
        " ".join(
            f"{60 + (a - xmin) / (xmax - xmin) * (720 - 2 * 60):.2f},"
            f"{440 - 60 - (b - ymin) / (ymax - ymin) * (440 - 2 * 60):.2f}"
            for a, b in zip(x, values)
        )
        for values in curves
    ]


RNG = np.random.default_rng(5)


@pytest.mark.parametrize(
    "x,curves",
    [
        (
            np.linspace(-50.0, 50.0, 1001).tolist(),
            [(1.0 - 0.5 * RNG.random(1001)).tolist(), (0.25 * RNG.random(1001)).tolist()],
        ),
        # coordinates within an ulp of a rounding boundary of the .2f format:
        # (v - min) * size / (max - min) rounds them the other way
        (
            [0.0, 0.007324999999999999, 0.015175000000000001, 0.015725, 3.0],
            [[0.0, 0.0005828125000000087, 0.0031609375000000092, 0.004879687500000007, 1.0]],
        ),
    ],
    ids=["grid", "rounding-boundary"],
)
def test_points_match_the_per_point_formula(tmp_path, x, curves):
    as_arrays = [(str(k), np.array(values)) for k, values in enumerate(curves)]
    text = plot(tmp_path / "p.svg", np.array(x), as_arrays, "t")
    for pts in per_point_polylines(x, curves):
        assert f'<polyline points="{pts}"' in text
