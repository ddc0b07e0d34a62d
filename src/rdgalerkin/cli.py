"""Command-line front end: problem selection, solver runs, CSV/SVG emission.

Exit codes: 0 success, 2 configuration error, 3 Picard non-convergence,
4 linear-solver failure, 5 I/O failure.

Outputs (all deterministic; identical configs yield byte-identical files):
  solution.csv   header ``x,t,M,N``, one row per sample, 9 significant digits
  norms.csv      header ``dt,L2_M,Linf_M,L2_N,Linf_N`` (convergence studies
                 only; the coarsest dt row is the anchor and left blank)
  solution_t*.svg  per-time line plots of M and N vs x (with --emit-svg)
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import svg
from .basis import BasisSpec
from .linalg import SingularMatrixError
from .norms import evaluate, sample_grid, self_convergence
from .problems import ProblemSpec, ReactionForm, builtin_grayscott, builtin_tp1, sine_power_profile
from .stepper import PicardConvergenceError, SolverConfig, run, state_at

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PICARD = 3
EXIT_LINEAR = 4
EXIT_IO = 5


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


@dataclass
class RunConfig:
    problem_id: str
    dt: float
    t_end: float
    custom_path: Optional[str] = None
    degree: int = 6
    theta: float = 1.0
    picard_tol: float = 1e-10
    picard_max: int = 50
    quad_points: Optional[int] = None
    grid_points: int = 101
    output_dir: str = "."
    emit_svg: bool = False
    convergence_dts: Optional[list] = None
    report_times: list = field(default_factory=list)


_CONFIG_KEYS = (
    "problem", "custom_path", "degree", "dt", "t_end", "theta", "picard_tol",
    "picard_max", "quad_points", "grid_points", "output_dir", "emit_svg",
    "convergence_dts", "report_times",
)


def _build_parser():
    p = argparse.ArgumentParser(
        prog="rdgalerkin",
        description="Galerkin reaction-diffusion solver with an endpoint-vanishing "
        "Bernstein basis (backward difference + Picard iteration).",
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
                   help="comma-separated output times; default t_end")
    return p


def _float_list(value, name):
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    try:
        return [float(v) for v in str(value).split(",") if v.strip()]
    except ValueError as err:
        raise ConfigError(f"{name}: cannot parse {value!r} as a number list") from err


def parse_config(argv):
    """Merge config file and flags into a validated RunConfig."""
    args = _build_parser().parse_args(argv)
    merged = {}
    if args.config:
        try:
            with open(args.config) as f:
                doc = json.load(f)
        except OSError as err:
            raise ConfigError(f"config: cannot read {args.config}: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config: invalid JSON in {args.config}: {err}") from err
        unknown = set(doc) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"config: unknown keys {sorted(unknown)}")
        merged.update(doc)
    for key in _CONFIG_KEYS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val

    problem_id = merged.get("problem")
    if problem_id not in ("tp1", "grayscott", "custom"):
        raise ConfigError("problem: must be one of tp1, grayscott, custom")
    custom_path = merged.get("custom_path")
    if (problem_id == "custom") != (custom_path is not None):
        raise ConfigError("custom_path: required exactly when problem is 'custom'")
    if merged.get("dt") is None:
        raise ConfigError("dt: required")
    if merged.get("t_end") is None:
        raise ConfigError("t_end: required")

    cfg = RunConfig(
        problem_id=problem_id,
        custom_path=custom_path,
        dt=float(merged["dt"]),
        t_end=float(merged["t_end"]),
        degree=int(merged.get("degree", 6)),
        theta=float(merged.get("theta", 1.0)),
        picard_tol=float(merged.get("picard_tol", 1e-10)),
        picard_max=int(merged.get("picard_max", 50)),
        quad_points=None if merged.get("quad_points") is None else int(merged["quad_points"]),
        grid_points=int(merged.get("grid_points", 101)),
        output_dir=str(merged.get("output_dir", ".")),
        emit_svg=bool(merged.get("emit_svg", False)),
        convergence_dts=_float_list(merged.get("convergence_dts"), "convergence_dts"),
        report_times=_float_list(merged.get("report_times"), "report_times") or [],
    )
    if not cfg.report_times:
        cfg.report_times = [cfg.t_end]
    if not (math.isfinite(cfg.dt) and cfg.dt > 0):
        raise ConfigError(f"dt: must be finite and positive, got {cfg.dt}")
    if not (math.isfinite(cfg.t_end) and cfg.t_end >= 0):
        raise ConfigError(f"t_end: must be finite and non-negative, got {cfg.t_end}")
    if cfg.grid_points < 2:
        raise ConfigError("grid_points: must be at least 2")
    if cfg.quad_points is not None and cfg.quad_points < cfg.degree + 1:
        raise ConfigError(
            f"quad_points: {cfg.quad_points} is fewer than the {cfg.degree + 1} "
            "basis members"
        )
    for t in cfg.report_times:
        if not (math.isfinite(t) and t >= 0):
            raise ConfigError(f"report_times: {t} must be finite and non-negative")
        steps = t / cfg.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ConfigError(f"report_times: {t} is not a multiple of dt={cfg.dt}")
        if t > cfg.t_end + 1e-12:
            raise ConfigError(f"report_times: {t} exceeds t_end={cfg.t_end}")
    if cfg.convergence_dts is not None:
        for dt in cfg.convergence_dts:
            if not (math.isfinite(dt) and dt > 0):
                raise ConfigError(f"convergence_dts: {dt} must be finite and positive")
            steps = cfg.t_end / dt
            if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
                raise ConfigError(f"convergence_dts: t_end={cfg.t_end} not a multiple of {dt}")
    return cfg


_CUSTOM_SCALARS = (
    "lower", "upper", "eps1", "eps2", "theta0", "gamma0", "alpha", "beta",
    "sign_M", "sign_N", "decay_M", "decay_N", "source_M", "source_N",
)
_CUSTOM_IC = ("amplitude", "power", "x_ref", "width", "offset")


def load_custom_problem(path):
    """Build a ProblemSpec from a flat JSON document.

    Initial conditions are restricted to the family
    amplitude * sin^power(pi (x - x_ref) / width) + offset, expressed as
    keys ``initial_M_amplitude`` ... ``initial_N_offset``.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as err:
        raise ConfigError(f"custom_path: cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"custom_path: invalid JSON: {err}") from err

    expected = set(_CUSTOM_SCALARS) | {
        f"initial_{sp}_{k}" for sp in "MN" for k in _CUSTOM_IC
    }
    missing = expected - set(doc)
    if missing:
        raise ConfigError(f"custom problem: missing keys {sorted(missing)}")
    unknown = set(doc) - expected
    if unknown:
        raise ConfigError(f"custom problem: unknown keys {sorted(unknown)}")

    def ic(sp):
        return sine_power_profile(
            float(doc[f"initial_{sp}_amplitude"]),
            int(doc[f"initial_{sp}_power"]),
            float(doc[f"initial_{sp}_x_ref"]),
            float(doc[f"initial_{sp}_width"]),
            float(doc[f"initial_{sp}_offset"]),
        )

    try:
        return ProblemSpec(
            lower=float(doc["lower"]),
            upper=float(doc["upper"]),
            eps1=float(doc["eps1"]),
            eps2=float(doc["eps2"]),
            theta0=float(doc["theta0"]),
            gamma0=float(doc["gamma0"]),
            reaction=ReactionForm(alpha=int(doc["alpha"]), beta=int(doc["beta"])),
            sign_M=int(doc["sign_M"]),
            sign_N=int(doc["sign_N"]),
            decay_M=float(doc["decay_M"]),
            decay_N=float(doc["decay_N"]),
            source_M=float(doc["source_M"]),
            source_N=float(doc["source_N"]),
            initial_M=ic("M"),
            initial_N=ic("N"),
        )
    except ValueError as err:
        raise ConfigError(f"custom problem: {err}") from err


def _problem_for(cfg):
    if cfg.problem_id == "tp1":
        return builtin_tp1()
    if cfg.problem_id == "grayscott":
        return builtin_grayscott()
    return load_custom_problem(cfg.custom_path)


def _fmt(v):
    return f"{v:.9g}"


def run_and_emit(cfg):
    """Execute the configured run and write all outputs; returns exit code."""
    problem = _problem_for(cfg)
    basis = BasisSpec(problem.lower, problem.upper, cfg.degree)
    solver_cfg = SolverConfig(
        dt=cfg.dt,
        t_end=cfg.t_end,
        theta=cfg.theta,
        picard_tol=cfg.picard_tol,
        picard_max=cfg.picard_max,
        quad_points=cfg.quad_points,
    )
    trajectory = run(problem, basis, solver_cfg)
    xs = sample_grid(problem, cfg.grid_points)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    report_times = cfg.report_times if cfg.t_end > 0 else [0.0]
    with open(out / "solution.csv", "w", newline="\n") as f:
        f.write("x,t,M,N\n")
        for t in report_times:
            state = state_at(trajectory, t)
            M, N = evaluate(state, problem, basis, xs)
            for x, m, n in zip(xs, M, N):
                f.write(f"{_fmt(x)},{_fmt(state.t)},{_fmt(m)},{_fmt(n)}\n")
            print(
                f"t={state.t:g}: M in [{M.min():.6g}, {M.max():.6g}], "
                f"N in [{N.min():.6g}, {N.max():.6g}] "
                f"(picard iterations last step: {state.picard_iters_last})"
            )
            if cfg.emit_svg:
                svg.line_plot(
                    out / f"solution_t{state.t:g}.svg",
                    xs,
                    [("M", list(M)), ("N", list(N))],
                    f"{cfg.problem_id}: concentrations at t={state.t:g}",
                )

    if cfg.convergence_dts:
        dts = sorted(cfg.convergence_dts, reverse=True)
        with open(out / "norms.csv", "w", newline="\n") as f:
            f.write("dt,L2_M,Linf_M,L2_N,Linf_N\n")
            for i, dt in enumerate(dts):
                if i == 0:
                    # coarsest anchor row: no finer partner by convention
                    f.write(f"{_fmt(dt)},,,,\n")
                    continue
                rep = self_convergence(
                    problem,
                    basis,
                    replace(solver_cfg, dt=dt),
                    cfg.t_end,
                    grid_points=cfg.grid_points,
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
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as err:
        # argparse exits 2 on unknown flags, which matches our config code
        return EXIT_CONFIG if err.code else EXIT_OK
    try:
        return run_and_emit(cfg)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except PicardConvergenceError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_PICARD
    except SingularMatrixError as err:
        print(f"linear-solver error: {err}", file=sys.stderr)
        return EXIT_LINEAR
    except ValueError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
