"""The three benchmark workloads: seeded inputs, the timed operation, output checks.

Input generation uses only the standard library, so a process that only
launches CLI ops can write their custom-problem JSON without importing the
package. Everything that needs ``rdgalerkin`` imports it inside the
function, after the caller has put the checkout's ``src`` on the path.
"""

import csv
import json
import math
import random
from pathlib import Path

WORKLOADS = ("tp1-trapezoid", "fd-oracle", "gs-study")

# Which package module a user of each workload imports before the first op.
SETUP_IMPORT = {
    "tp1-trapezoid": "rdgalerkin",
    "fd-oracle": "rdgalerkin.fdref",
    "gs-study": "rdgalerkin.cli",
}

TP1_DEGREE, TP1_THETA, TP1_DT, TP1_T_END = 10, 0.5, 0.05, 10.0
FD_NX, FD_DT, FD_T_END = 2001, 1e-3, 1.0
GS_DT, GS_T_END = 0.1, 10.0
GS_REPORT_TIMES = tuple(range(1, 11))
GS_CONVERGENCE_DTS = (0.4, 0.2, 0.1)
GS_GRID_POINTS = 1001
GS_FILES = ("solution.csv", "norms.csv") + tuple(
    f"solution_t{t}.svg" for t in GS_REPORT_TIMES
)

PICARD_TOL = 1e-10  # the package default, used by every workload
# Reference tolerance: PICARD_TOL bounds the last coefficient correction;
# a coefficient error e moves a field by at most e * ((U - L) / 2)^2,
# because the members sum to (x - L)(U - x). The factor leaves room for
# error carried across steps and for summation-order changes.
TOL_FACTOR = 100.0
# Inputs of op k differ from op 0 by a relative k * OP_OFFSET in both
# initial amplitudes: distinct values for every op of a run, with field
# changes far below the tolerance.
OP_OFFSET = 1e-12
# Seeds other than 0 scale the amplitudes and diffusivities by up to this.
PERTURBATION = 0.10


def _factors(seed):
    """Scale factors for (amplitude M, amplitude N, eps1, eps2); all 1 at seed 0."""
    if seed == 0:
        return 1.0, 1.0, 1.0, 1.0
    rng = random.Random(f"rdgalerkin-perfbench:{seed}")
    return tuple(1.0 + PERTURBATION * rng.uniform(-1.0, 1.0) for _ in range(4))


def problem_doc(workload, seed, op):
    """Flat problem description in the CLI's custom-problem JSON format.

    Seed 0, op 0 is exactly the built-in problem (tp1 for the in-process
    workloads, Gray-Scott for gs-study). Scaling the amplitudes of the
    sin^power profiles keeps their boundary values and mirror symmetry.
    """
    if workload == "gs-study":
        p, q = 0.01, 0.12
        doc = dict(
            lower=-50.0, upper=50.0, eps1=1.0, eps2=0.01, theta0=1.0, gamma0=0.0,
            alpha=1, beta=2, sign_M=-1, sign_N=1, decay_M=p, decay_N=p + q,
            source_M=p, source_N=0.0,
            initial_M_amplitude=-0.5, initial_M_power=100, initial_M_x_ref=50.0,
            initial_M_width=100.0, initial_M_offset=1.0,
            initial_N_amplitude=0.25, initial_N_power=100, initial_N_x_ref=50.0,
            initial_N_width=100.0, initial_N_offset=0.0,
        )
    else:
        p, q = 0.09, -0.004
        doc = dict(
            lower=0.0, upper=2.0, eps1=0.01, eps2=0.01, theta0=0.0, gamma0=1.0,
            alpha=2, beta=1, sign_M=1, sign_N=-1, decay_M=p + q, decay_N=p,
            source_M=0.0, source_N=p,
            initial_M_amplitude=0.01, initial_M_power=1, initial_M_x_ref=2.0,
            initial_M_width=2.0, initial_M_offset=0.0,
            initial_N_amplitude=-0.12, initial_N_power=1, initial_N_x_ref=2.0,
            initial_N_width=2.0, initial_N_offset=1.0,
        )
    f_am, f_an, f_e1, f_e2 = _factors(seed)
    op_scale = 1.0 + op * OP_OFFSET
    doc["initial_M_amplitude"] *= f_am * op_scale
    doc["initial_N_amplitude"] *= f_an * op_scale
    doc["eps1"] *= f_e1
    doc["eps2"] *= f_e2
    return doc


def tolerance(workload):
    """Absolute field tolerance for reference and mirror-symmetry checks."""
    if workload == "fd-oracle":
        scale = 1.0  # nodal unknowns: the Picard test is on the fields
    else:
        lower, upper = (-50.0, 50.0) if workload == "gs-study" else (0.0, 2.0)
        scale = ((upper - lower) / 2) ** 2
    return TOL_FACTOR * PICARD_TOL * scale


def write_custom_problem(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)


def cli_argv(problem_path, output_dir):
    return [
        "--problem", "custom", "--custom", str(problem_path),
        "--dt", repr(GS_DT), "--t-end", repr(GS_T_END),
        "--convergence-dts", ",".join(repr(d) for d in GS_CONVERGENCE_DTS),
        "--report-times", ",".join(str(t) for t in GS_REPORT_TIMES),
        "--grid-points", str(GS_GRID_POINTS), "--emit-svg",
        "--output-dir", str(output_dir),
    ]


# --- in-process operations (need the package on sys.path) -----------------


def build_problem(doc):
    """ProblemSpec from the flat description, through the package's own types."""
    from rdgalerkin.problems import ProblemSpec, ReactionForm, sine_power_profile

    def ic(sp):
        return sine_power_profile(
            doc[f"initial_{sp}_amplitude"], doc[f"initial_{sp}_power"],
            doc[f"initial_{sp}_x_ref"], doc[f"initial_{sp}_width"],
            doc[f"initial_{sp}_offset"],
        )

    return ProblemSpec(
        lower=doc["lower"], upper=doc["upper"], eps1=doc["eps1"], eps2=doc["eps2"],
        theta0=doc["theta0"], gamma0=doc["gamma0"],
        reaction=ReactionForm(alpha=doc["alpha"], beta=doc["beta"]),
        sign_M=doc["sign_M"], sign_N=doc["sign_N"],
        decay_M=doc["decay_M"], decay_N=doc["decay_N"],
        source_M=doc["source_M"], source_N=doc["source_N"],
        initial_M=ic("M"), initial_N=ic("N"),
    )


class InProcess:
    """Shared objects of an in-process sweep: the basis and the solver config.

    ``prepare(k)`` builds op k's problem (outside the timed region),
    ``run(problem)`` is the timed op and ``sample(problem, out)`` reduces its
    output to the fields the checks compare.
    """

    def __init__(self, workload, seed):
        from rdgalerkin.basis import BasisSpec
        from rdgalerkin.stepper import SolverConfig

        self.workload, self.seed = workload, seed
        self.basis = BasisSpec(0.0, 2.0, TP1_DEGREE)
        self.config = SolverConfig(
            dt=TP1_DT, t_end=TP1_T_END, degree=TP1_DEGREE, theta=TP1_THETA,
            picard_tol=PICARD_TOL,
        )

    def prepare(self, k):
        return build_problem(problem_doc(self.workload, self.seed, k))

    def run(self, problem):
        if self.workload == "tp1-trapezoid":
            from rdgalerkin import stepper

            return stepper.run(problem, self.basis, self.config)
        from rdgalerkin import fdref

        return fdref.fd_solve(problem, FD_NX, FD_DT, FD_T_END, picard_tol=PICARD_TOL)

    def sample(self, problem, out):
        """{"x": [...], "t": [...], "M": [[...] per t], "N": [[...] per t], "finite": bool}."""
        import numpy as np

        if self.workload == "fd-oracle":
            every = (FD_NX - 1) // 20
            return dict(
                x=out.x[::every].tolist(), t=[out.t],
                M=[out.M_values[::every].tolist()], N=[out.N_values[::every].tolist()],
                finite=bool(np.isfinite(out.M_values).all() and np.isfinite(out.N_values).all()),
            )
        from rdgalerkin.norms import evaluate

        xs = np.linspace(problem.lower, problem.upper, 21)
        picks = [round(t / TP1_DT) for t in (0.0, 2.5, 5.0, 7.5, TP1_T_END)]
        fields = [evaluate(out[i], problem, self.basis, xs) for i in picks]
        return dict(
            x=xs.tolist(), t=[i * TP1_DT for i in picks],
            M=[M.tolist() for M, _ in fields], N=[N.tolist() for _, N in fields],
            finite=all(np.isfinite(s.c).all() and np.isfinite(s.d).all() for s in out),
        )


# --- the CLI study's outputs -------------------------------------------------


def sample_cli_outputs(output_dir):
    """Read what the CLI wrote: sampled fields, norms rows and the file set."""
    out = Path(output_dir)
    present = sorted(p.name for p in out.iterdir())
    sample = dict(files=present, bytes=sum((out / n).stat().st_size for n in present))
    if "solution.csv" not in present or "norms.csv" not in present:
        return sample
    by_t = {}
    with open(out / "solution.csv", newline="") as f:
        for row in csv.DictReader(f):
            by_t.setdefault(row["t"], []).append(row)
    every = (GS_GRID_POINTS - 1) // 20
    ts = sorted(by_t, key=float)
    rows = [by_t[t] for t in ts]
    sample.update(
        t=[float(t) for t in ts],
        n_x=[len(r) for r in rows],
        x=[float(r["x"]) for r in rows[0][::every]] if rows else [],
        M=[[float(r["M"]) for r in rs[::every]] for rs in rows],
        N=[[float(r["N"]) for r in rs[::every]] for rs in rows],
        finite=all(
            math.isfinite(float(r[k])) for rs in rows for r in rs for k in ("M", "N")
        ),
        mirror=max(
            (abs(float(a[k]) - float(b[k]))
             for rs in rows for a, b in zip(rs, reversed(rs)) for k in ("M", "N")),
            default=0.0,
        ),
    )
    with open(out / "norms.csv", newline="") as f:
        sample["norms"] = [
            {k: (float(v) if v else None) for k, v in row.items()}
            for row in csv.DictReader(f)
        ]
    return sample


# --- checks --------------------------------------------------------------------


def check(workload, doc, sample, reference=None):
    """Return a list of failed checks (empty when the op's output is correct).

    Every seed: finite fields, exact boundary values, mirror symmetry, and for
    gs-study the complete file set and the first-order L2_M contraction.
    ``reference`` (seed 0 only): sampled fields, and norms rows, within
    ``tolerance(workload)``.
    """
    tol = tolerance(workload)
    errors = []
    if workload == "gs-study":
        if sample["files"] != sorted(GS_FILES):
            return [f"file set {sample['files']} != {sorted(GS_FILES)}"]
        if sample["t"] != [float(t) for t in GS_REPORT_TIMES]:
            errors.append(f"report times {sample['t']}")
        if set(sample["n_x"]) != {GS_GRID_POINTS}:
            errors.append(f"rows per time {sorted(set(sample['n_x']))}")
        if sample["mirror"] > tol:
            errors.append(f"mirror asymmetry {sample['mirror']:.3e} > {tol:.1e}")
        rows = {r["dt"]: r for r in sample["norms"]}
        if sorted(rows) != sorted(GS_CONVERGENCE_DTS):
            errors.append(f"norms.csv dt column {sorted(rows)}")
        else:
            ratio = rows[0.2]["L2_M"] / rows[0.1]["L2_M"]
            if not 1.8 <= ratio <= 4.5:
                errors.append(f"L2_M contraction {ratio:.3f} outside [1.8, 4.5]")
    if not sample.get("finite", False):
        errors.append("non-finite field values")
    # Galerkin fields meet the boundary values exactly (every member vanishes
    # there); the FD oracle pins them through rows of its banded solve, whose
    # pivoting leaves rounding error.
    edge_tol = tol if workload == "fd-oracle" else 0.0
    for M, N in zip(sample["M"], sample["N"]):
        edges = (M[0] - doc["theta0"], M[-1] - doc["theta0"], N[0] - doc["gamma0"], N[-1] - doc["gamma0"])
        if max(map(abs, edges)) > edge_tol:
            errors.append(f"boundary values {M[0]}, {M[-1]}, {N[0]}, {N[-1]}")
            break
        asym = max(abs(a - b) for F in (M, N) for a, b in zip(F, reversed(F)))
        if asym > tol:
            errors.append(f"mirror asymmetry {asym:.3e} > {tol:.1e}")
            break
    if reference is not None:
        errors += _compare_reference(workload, sample, reference, tol)
    return errors


def _compare_reference(workload, sample, ref, tol):
    errors = []
    if sample["t"] != ref["t"] or len(sample["x"]) != len(ref["x"]):
        return [f"sample grid differs from reference (t={sample['t']})"]
    for key in ("M", "N"):
        dev = max(
            abs(a - b) for got, want in zip(sample[key], ref[key]) for a, b in zip(got, want)
        )
        if dev > tol:
            errors.append(f"{key} deviates from reference by {dev:.3e} > {tol:.1e}")
    if workload == "gs-study":
        # each norm is an l2 / l_inf distance of two fields over the grid, so
        # its error is at most 2 * sqrt(grid points) * tol, or 2 * tol
        for got, want in zip(sample["norms"], ref["norms"]):
            for k, v in want.items():
                norm_tol = 2.0 * tol * (math.sqrt(GS_GRID_POINTS) if k.startswith("L2") else 1.0)
                if (v is None) != (got[k] is None) or (v is not None and abs(got[k] - v) > norm_tol):
                    errors.append(f"norms.csv {k} at dt={want['dt']}: {got[k]} vs {v}")
    return errors


def load_reference(path):
    with open(path) as f:
        return json.load(f)
