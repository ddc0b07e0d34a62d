"""Command-line front end: problem selection, solver runs, CSV/SVG emission.

Exit codes: 0 success, 2 configuration error (a run too large for memory
included), 3 Picard non-convergence, 4 linear-solver failure (a linear system
whose reciprocal condition bound falls below 1e-13, see ``linalg.lu_solve``),
5 I/O failure.

Outputs (all deterministic; identical configs yield byte-identical files):
  solution.csv   header ``x,t,M,N``, one row per sample, 9 significant digits
  norms.csv      header ``dt,L2_M,Linf_M,L2_N,Linf_N`` (convergence studies
                 only; the coarsest dt row is the anchor and left blank)
  solution_t*.svg  per-time line plots of M and N vs x (with --emit-svg)
"""

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from . import svg
from .basis import BasisSpec
from .linalg import SingularMatrixError
from .norms import DEFAULT_GRID_POINTS, evaluate, halving_report, sample_grid
from .problems import ProblemSpec, ReactionForm, builtin_grayscott, builtin_tp1, sine_power_profile
from .stepper import PicardConvergenceError, SolverConfig, run, state_at, whole_steps

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PICARD = 3
EXIT_LINEAR = 4
EXIT_IO = 5


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    """The CLI's own settings around the ``SolverConfig`` of the main run."""

    problem_id: str
    solver: SolverConfig
    report_times: list
    custom_path: Optional[str] = None
    degree: int = 6
    grid_points: int = DEFAULT_GRID_POINTS
    output_dir: str = "."
    emit_svg: bool = False
    convergence_dts: Optional[list] = None


def _number(key, value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{key}: expected a number, got {value!r}")


def _integer(key, value):
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{key}: expected an integer, got {value!r}")


def _text(key, value):
    if isinstance(value, str):
        return value
    raise ConfigError(f"{key}: expected a string, got {value!r}")


def _flag(key, value):
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{key}: expected true or false, got {value!r}")


def _numbers(key, value):
    """A list of numbers, given as a list or as a comma-separated string."""
    if isinstance(value, list):
        return [_number(key, v) for v in value]
    if isinstance(value, str):
        try:
            return [float(v) for v in value.split(",") if v.strip()]
        except ValueError:
            pass
    raise ConfigError(f"{key}: cannot parse {value!r} as a number list")


# config key -> conversion; flags arrive already typed by argparse
_CONFIG_KEYS = {
    "problem": _text, "custom_path": _text, "degree": _integer, "dt": _number,
    "t_end": _number, "theta": _number, "picard_tol": _number, "picard_max": _integer,
    "quad_points": _integer, "grid_points": _integer, "output_dir": _text,
    "emit_svg": _flag, "convergence_dts": _numbers, "report_times": _numbers,
}
_SOLVER_KEYS = ("dt", "t_end", "theta", "picard_tol", "picard_max", "quad_points")
_RUN_KEYS = ("custom_path", "degree", "grid_points", "output_dir", "emit_svg", "convergence_dts")


def _read_json(path, key):
    """The JSON object in the file at path; errors name ``key``."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as err:
        raise ConfigError(f"{key}: cannot read {path}: {err}") from err
    except ValueError as err:
        raise ConfigError(f"{key}: invalid JSON in {path}: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{key}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _convert(doc, kinds, where):
    """Each value of doc converted by its key's entry in kinds."""
    unknown = set(doc) - set(kinds)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    return {key: kinds[key](key, value) for key, value in doc.items()}


@contextmanager
def _checked(prefix=""):
    """Re-raise the ValueError of a library check as a ConfigError."""
    try:
        yield
    except ValueError as err:
        raise ConfigError(prefix + str(err)) from err


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    p = _Parser(
        prog="rdgalerkin",
        description="Galerkin reaction-diffusion solver with an endpoint-vanishing "
        "Bernstein basis (theta-weighted implicit steps + Picard iteration).",
    )
    p.add_argument("--config", help="JSON file with any of the flag values; flags override")
    p.add_argument("--problem", choices=["tp1", "grayscott", "custom"])
    p.add_argument("--custom", dest="custom_path", help="custom problem JSON (with --problem custom)")
    p.add_argument("--degree", type=int, help="basis degree m (m+1 members); default 6")
    p.add_argument("--dt", type=float, help="time increment")
    p.add_argument("--t-end", dest="t_end", type=float, help="final time (integer multiple of dt)")
    p.add_argument("--theta", type=float, help="implicit weight in (0,1]; 1 = backward difference")
    p.add_argument("--picard-tol", dest="picard_tol", type=float)
    p.add_argument("--picard-max", dest="picard_max", type=int)
    p.add_argument("--quad-points", dest="quad_points", type=int)
    p.add_argument("--grid-points", dest="grid_points", type=int, help="output sample grid size")
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--emit-svg", dest="emit_svg", action="store_true", default=None)
    p.add_argument("--convergence-dts", dest="convergence_dts",
                   help="comma-separated dt list for a norms study (e.g. 0.4,0.2,0.1)")
    p.add_argument("--report-times", dest="report_times",
                   help="comma-separated output times, each a whole multiple of dt; default t_end")
    return p


def parse_config(argv):
    """Merge config file and flags into a validated RunConfig.

    A null in the config file, like an absent flag, leaves the default.
    """
    def given(doc):
        return _convert({k: v for k, v in doc.items() if v is not None}, _CONFIG_KEYS, "config")

    args = vars(_build_parser().parse_args(argv))
    path = args.pop("config")
    values = given(_read_json(path, "config")) if path else {}
    values.update(given(args))

    problem_id = values.get("problem")
    if problem_id not in ("tp1", "grayscott", "custom"):
        raise ConfigError("problem: must be one of tp1, grayscott, custom")
    if (problem_id == "custom") != ("custom_path" in values):
        raise ConfigError("custom_path: required exactly when problem is 'custom'")
    for key in ("dt", "t_end"):
        if key not in values:
            raise ConfigError(f"{key}: required")
    with _checked():
        solver = SolverConfig(**{k: values[k] for k in _SOLVER_KEYS if k in values})
    cfg = RunConfig(
        problem_id=problem_id,
        solver=solver,
        report_times=values.get("report_times") or [solver.t_end],
        **{k: values[k] for k in _RUN_KEYS if k in values},
    )
    if cfg.grid_points < 2:
        raise ConfigError("grid_points: must be at least 2")
    with _checked():
        solver.rule_points(cfg.degree)
    for t in cfg.report_times:
        if not t >= 0:
            raise ConfigError(f"report_times: {t} must be non-negative")
        with _checked():
            steps = whole_steps(t, solver.dt, "report_times")
        if steps > solver.step_count:
            raise ConfigError(f"report_times: {t} exceeds t_end={solver.t_end}")
    for dt in cfg.convergence_dts or ():
        with _checked("convergence_dts: "):
            replace(solver, dt=dt)
    return cfg


_CUSTOM_IC = ("amplitude", "power", "x_ref", "width", "offset")
_CUSTOM_KEYS = {
    **{key: _number for key in (
        "lower", "upper", "eps1", "eps2", "theta0", "gamma0",
        "decay_M", "decay_N", "source_M", "source_N",
    )},
    **{key: _integer for key in ("alpha", "beta", "sign_M", "sign_N")},
    **{
        f"initial_{sp}_{k}": _integer if k == "power" else _number
        for sp in "MN" for k in _CUSTOM_IC
    },
}


def load_custom_problem(path):
    """Build a ProblemSpec from a flat JSON document.

    Initial conditions are restricted to the family
    amplitude * sin^power(pi (x - x_ref) / width) + offset, expressed as
    keys ``initial_M_amplitude`` ... ``initial_N_offset``.
    """
    doc = _read_json(path, "custom_path")
    missing = set(_CUSTOM_KEYS) - set(doc)
    if missing:
        raise ConfigError(f"custom problem: missing keys {sorted(missing)}")
    doc = _convert(doc, _CUSTOM_KEYS, "custom problem")
    initial = {
        f"initial_{sp}": sine_power_profile(*(doc.pop(f"initial_{sp}_{k}") for k in _CUSTOM_IC))
        for sp in "MN"
    }
    with _checked("custom problem: "):
        return ProblemSpec(
            reaction=ReactionForm(alpha=doc.pop("alpha"), beta=doc.pop("beta")),
            **initial,
            **doc,
        )


def _problem_for(cfg):
    if cfg.problem_id == "tp1":
        return builtin_tp1()
    if cfg.problem_id == "grayscott":
        return builtin_grayscott()
    return load_custom_problem(cfg.custom_path)


# the one number format of solution.csv and norms.csv: 9 significant digits
_NUMBER = "{:.9g}"
_fmt = _NUMBER.format


def run_and_emit(cfg):
    """Execute the configured run and write all outputs; returns exit code.

    Trajectories are kept by dt, so a convergence study solves each
    distinct dt (including the main run's) once.

    The x column of ``solution.csv`` is formatted once per command and the
    t cell once per report time; M and N are formatted from Python floats
    (``ndarray.tolist``) through one ``str.format`` map, and each report
    time's block is one write.  The bytes are those of formatting every
    cell of every row with ``f"{v:.9g}"``.
    """
    problem = _problem_for(cfg)
    basis = BasisSpec(problem.lower, problem.upper, cfg.degree)
    trajectories = {}

    def trajectory(dt):
        if dt not in trajectories:
            trajectories[dt] = run(problem, basis, replace(cfg.solver, dt=dt))
        return trajectories[dt]

    main_run = trajectory(cfg.solver.dt)
    xs = sample_grid(problem, cfg.grid_points)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    x_cells = list(map(_fmt, xs.tolist()))
    with open(out / "solution.csv", "w", newline="\n") as f:
        f.write("x,t,M,N\n")
        for t in cfg.report_times:
            state = state_at(main_run, t, cfg.solver.dt)
            M, N = evaluate(state, problem, basis, xs)
            row = f"{{}},{_fmt(state.t)},{_NUMBER},{_NUMBER}\n".format
            f.write("".join(map(row, x_cells, M.tolist(), N.tolist())))
            print(
                f"t={state.t:g}: M in [{M.min():.6g}, {M.max():.6g}], "
                f"N in [{N.min():.6g}, {N.max():.6g}] "
                f"(picard iterations last step: {state.picard_iters_last})"
            )
            if cfg.emit_svg:
                svg.line_plot(
                    out / f"solution_t{state.t:g}.svg",
                    xs,
                    [("M", M), ("N", N)],
                    f"{cfg.problem_id}: concentrations at t={state.t:g}",
                )

    if cfg.convergence_dts:
        coarsest, *dts = sorted(cfg.convergence_dts, reverse=True)
        with open(out / "norms.csv", "w", newline="\n") as f:
            f.write("dt,L2_M,Linf_M,L2_N,Linf_N\n")
            # coarsest anchor row: no finer partner by convention
            f.write(f"{_fmt(coarsest)},,,,\n")
            for dt in dts:
                rep = halving_report(
                    problem, basis, trajectory(dt), trajectory(dt / 2), dt,
                    cfg.solver.t_end, cfg.grid_points,
                )
                f.write(
                    f"{_fmt(dt)},{_fmt(rep.L2_M)},{_fmt(rep.Linf_M)},"
                    f"{_fmt(rep.L2_N)},{_fmt(rep.Linf_N)}\n"
                )
                print(
                    f"dt={dt:g} vs {dt / 2:g}: L2_M={rep.L2_M:.6g} Linf_M={rep.Linf_M:.6g} "
                    f"L2_N={rep.L2_N:.6g} Linf_N={rep.Linf_N:.6g}"
                )
    return EXIT_OK


def main(argv=None):
    try:
        return run_and_emit(parse_config(sys.argv[1:] if argv is None else argv))
    except SystemExit as err:
        # argparse exits 0 after printing --help
        return EXIT_CONFIG if err.code else EXIT_OK
    except PicardConvergenceError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_PICARD
    except SingularMatrixError as err:
        print(f"linear-solver error: {err}", file=sys.stderr)
        return EXIT_LINEAR
    except ValueError as err:  # ConfigError included
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print(
            "configuration error: the run does not fit in memory; "
            "lower grid_points, degree or quad_points",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
