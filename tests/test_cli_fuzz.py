"""Property tests of the CLI: every input gives a RunConfig or a ConfigError
from ``parse_config`` and a documented exit code from ``main``.

``parse_config`` gets flag lists and ``--config`` documents: any JSON value
under the known keys, unknown keys, and documents that are not objects;
nothing is solved, so the examples are cheap. ``main`` gets small runs (at
most 3 steps, degree <= 4) whose numeric settings may be anything; when
one succeeds, the ``t`` column of its solution.csv is steps * dt exactly.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rdgalerkin.cli import ConfigError, RunConfig, main, parse_config

KEYS = (
    "problem", "custom_path", "degree", "dt", "t_end", "theta", "picard_tol",
    "picard_max", "quad_points", "grid_points", "output_dir", "emit_svg",
    "convergence_dts", "report_times",
)
FLAGS = tuple("--" + k.replace("_", "-") for k in KEYS if k != "custom_path") + ("--custom",)

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([0.1, 0.2, 1.0, 2, 6, "tp1", "custom", "0.5,1", ""])
    | st.text(max_size=6)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# a runnable base that the fuzzed keys overwrite, so some examples parse
BASE = {"problem": "tp1", "dt": 0.1, "t_end": 1.0}
documents = st.one_of(
    st.dictionaries(st.sampled_from(KEYS), json_values, max_size=5).map(lambda d: {**BASE, **d}),
    st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=6), json_values, max_size=5),
    json_values.filter(lambda v: not isinstance(v, dict)),
)
flag_values = st.sampled_from(["0.1", "1", "2", "0", "-1", "nan", "inf", "tp1", "0.5,1"]) | st.text(max_size=6)
# "--name=value" keeps a value that starts with "-" attached to its flag; no
# token can abbreviate --help, which prints and exits 0 by design
flags = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(FLAGS), flag_values).map(lambda p: f"{p[0]}={p[1]}"),
        st.sampled_from(["--emit-svg", "--bogus", "--dt", "--", "stray"]),
    ),
    max_size=6,
)


def _parses_or_config_error(argv):
    try:
        cfg = parse_config(argv)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


@settings(max_examples=150, deadline=None)
@given(argv=flags)
def test_flag_lists(argv):
    _parses_or_config_error(["--problem", "tp1", "--dt", "0.1", "--t-end", "1"] + argv)


@settings(max_examples=150, deadline=None)
@given(doc=documents, argv=flags)
def test_config_documents(doc, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(doc))
        _parses_or_config_error(["--config", str(path)] + argv)


# --- main with small solves: every input ends in a documented exit code ----

def value(usual, anything):
    """A value from usual, so that many examples run, or from anything."""
    return st.sampled_from(usual) | anything


@st.composite
def small_runs(draw):
    """Flags of a run of at most 3 steps, degree <= 4 and <= 50 output points,
    and the ``t`` column its solution.csv must hold: state k is at k * dt.
    theta, dt, picard_tol and picard_max take any value, nan and inf included;
    the usual dt values include two far below 1."""
    dt = draw(value([0.05, 0.1, 0.5, 1e-10, 1e-306], st.floats()))
    steps = draw(st.integers(min_value=0, max_value=3))
    argv = [
        "--problem", draw(st.sampled_from(["tp1", "grayscott"])),
        f"--dt={dt!r}", f"--t-end={steps * dt!r}",
        f"--degree={draw(value([4], st.integers(min_value=-1, max_value=4)))}",
        f"--grid-points={draw(value([11], st.integers(min_value=-1, max_value=50)))}",
    ]
    optional = {
        "--theta": value([0.5, 1.0], st.floats()).map(repr),
        "--picard-tol": value([1e-10], st.floats()).map(repr),
        "--picard-max": value(
            ["50"], st.integers(min_value=-5, max_value=60).map(str) | st.sampled_from(["nan", "inf"])
        ),
        "--quad-points": value(["12"], st.integers(min_value=-1, max_value=12).map(str)),
        "--convergence-dts": st.just(f"{2 * dt!r},{dt!r}"),
    }
    for flag in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        argv.append(f"{flag}={draw(optional[flag])}")
    if draw(st.booleans()):
        argv.append("--emit-svg")
    return argv, f"{steps * dt:.9g}"


@settings(max_examples=300, deadline=None)
@given(small_run=small_runs())
def test_main_exits_with_documented_code(small_run):
    argv, t_column = small_run
    with tempfile.TemporaryDirectory() as tmp:
        code = main(argv + ["--output-dir", tmp])
        assert code in (0, 2, 3, 4, 5)
        if code == 0:
            rows = (Path(tmp) / "solution.csv").read_text().splitlines()[1:]
            assert {row.split(",")[1] for row in rows} == {t_column}
