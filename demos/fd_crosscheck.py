"""Cross-check the Galerkin solver against the finite-difference oracle.

The two solvers share no assembly code: one expands the fields in seven
endpoint-vanishing polynomials, the other marches nodal central
differences on a fine grid. For the coupled parabolic problem they agree
to a few parts in 1e8; for Gray-Scott they diverge at the centre because
the degree-6 basis cannot represent the narrow initial pulse the fine
grid resolves (docs/benchmark-discrepancies.md, section 2).

Writes the two reports to ``reports/fd_discrepancy_*.csv``:

    PYTHONPATH=src python3 demos/fd_crosscheck.py
"""

from pathlib import Path

from rdgalerkin import builtin_grayscott, builtin_tp1
from rdgalerkin.basis import BasisSpec
from rdgalerkin.fdref import compare, fd_solve, write_report
from rdgalerkin.stepper import SolverConfig

import numpy as np

REPORT_DIR = Path(__file__).resolve().parent.parent / "reports"


def crosscheck(name, report, problem, fd_nx):
    basis = BasisSpec(problem.lower, problem.upper, 6)
    rep = compare(
        problem, basis, SolverConfig(dt=0.01, t_end=1.0),
        fd_nx=fd_nx, fd_dt=0.01, t=1.0,
    )
    write_report(rep, REPORT_DIR / f"fd_discrepancy_{report}.csv")
    print(
        f"{name}: Linf_M = {rep.Linf_M:.3e}, Linf_N = {rep.Linf_N:.3e} "
        f"(vs nx = {fd_nx} oracle at t = 1)"
    )


def contraction():
    problem = builtin_tp1()
    grids = [
        fd_solve(problem, nx=nx, dt=dt, t_end=1.0)
        for nx, dt in ((1001, 2e-3), (2001, 1e-3), (4001, 5e-4))
    ]
    M = [g.M_values[:: (g.nx - 1) // 1000] for g in grids]
    e1 = np.abs(M[0] - M[1]).max()
    e2 = np.abs(M[1] - M[2]).max()
    print(
        f"oracle self-convergence: |d1| = {e1:.3e}, |d2| = {e2:.3e}, "
        f"contraction factor {e1 / e2:.2f}"
    )


if __name__ == "__main__":
    crosscheck("coupled parabolic", "coupled_parabolic", builtin_tp1(), fd_nx=1001)
    crosscheck("Gray-Scott       ", "grayscott", builtin_grayscott(), fd_nx=2001)
    contraction()
