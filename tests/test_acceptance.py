"""Acceptance gate: the seven release criteria, one test each.

Each test records a single pass/fail line (echoed in the terminal summary)
and then asserts, so a red criterion is visible both ways.  Criteria are
independent; order follows the numbering.
"""

import numpy as np
import pytest

from conftest import record_criterion

from rdgalerkin.assembly import assemble_mass, assemble_stiffness
from rdgalerkin.basis import BasisSpec, derivative_matrix, value, value_matrix
from rdgalerkin.cli import main as cli_main
from rdgalerkin.fdref import compare, fd_solve, write_report
from rdgalerkin.goldens import run_problem_goldens
from rdgalerkin.linalg import lu_solve
from rdgalerkin.norms import evaluate, self_convergence
from rdgalerkin.problems import (
    ProblemSpec,
    ReactionForm,
    builtin_grayscott,
    builtin_tp1,
)
from rdgalerkin.quadrature import gauss_legendre, integrate
from rdgalerkin.stepper import SolverConfig, _step_system, discretize, initial_state, run, step


def _verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} ({label}): {status}"
    if detail:
        line += f" [{detail}]"
    record_criterion(line)
    assert ok, line


def _heat_problem():
    return ProblemSpec(
        lower=0.0, upper=1.0, eps1=1.0, eps2=1.0,
        theta0=0.0, gamma0=0.0,
        reaction=ReactionForm(alpha=1, beta=2),
        sign_M=-1, sign_N=+1,
        decay_M=0.0, decay_N=0.0, source_M=0.0, source_N=0.0,
        initial_M=lambda x: np.asarray(x, dtype=float) * (1.0 - np.asarray(x, dtype=float)),
        initial_N=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def test_criterion_1_basis_identities():
    ok = True
    for lower, upper in ((0.0, 2.0), (-50.0, 50.0)):
        for degree in (0, 3, 6, 10):
            spec = BasisSpec(lower, upper, degree)
            for n in range(spec.size):
                if value(spec, n, lower) != 0.0 or value(spec, n, upper) != 0.0:
                    ok = False
            x = np.linspace(lower, upper, 1000)
            total = value_matrix(spec, x).sum(axis=0)
            target = (x - lower) * (upper - x)
            scale = np.abs(target).max()
            if np.abs(total - target).max() > 1e-10 * scale:
                ok = False
    _verdict(1, "basis identities", ok)


def test_criterion_2_closed_form_assembly():
    spec = BasisSpec(0.0, 1.0, 0)
    rule = gauss_legendre(12, 0.0, 1.0)
    B, dB = value_matrix(spec, rule.nodes), derivative_matrix(spec, rule.nodes)
    mass_ok = abs(assemble_mass(B, rule.weights)[0, 0] - 1 / 30) <= 1e-12
    stiff_ok = abs(
        assemble_stiffness(B, dB, rule.weights, eps=1.0, decay=0.0)[0, 0] - 1 / 3
    ) <= 1e-12

    problem = _heat_problem()
    config = SolverConfig(dt=0.1, t_end=0.1, degree=0, picard_tol=1e-14)
    disc = discretize(problem, spec, config)
    s1 = step(initial_state(problem, spec, config), problem, disc, config)
    heat_ok = abs(s1.c[0] - 0.5) <= 1e-12

    _verdict(
        2, "closed-form assembly", mass_ok and stiff_ok and heat_ok,
        f"mass={mass_ok} stiffness={stiff_ok} heat-step={heat_ok}",
    )


def test_criterion_3_coupled_parabolic_tables():
    report = run_problem_goldens("tp1", builtin_tp1(), basis_degree=6, dt=0.1)
    n_fail = len(report.failures)
    _verdict(
        3, "benchmark tables, coupled parabolic problem", report.passed,
        f"{len(report.verdicts)} entries, {n_fail} failures, "
        f"worst concordant deviation {report.worst_deviation:.2e}",
    )


def test_criterion_4_grayscott_tables():
    report = run_problem_goldens("grayscott", builtin_grayscott(), basis_degree=6, dt=0.1)
    n_fail = len(report.failures)
    worst = max((v.deviation for v in report.verdicts), default=0.0)
    _verdict(
        4, "benchmark tables, Gray-Scott problem", report.passed,
        f"{len(report.verdicts)} entries, {n_fail} failures, worst deviation {worst:.2e}; "
        "see docs/benchmark-discrepancies.md",
    )


def test_criterion_5_self_convergence_norms():
    checks = []

    problem = builtin_tp1()
    basis = BasisSpec(problem.lower, problem.upper, 6)
    tp1 = [
        self_convergence(
            problem, basis,
            SolverConfig(dt=dt, t_end=10.0, theta=0.5), t_report=10.0,
        )
        for dt in (0.2, 0.1)
    ]
    for rep, ref in zip(tp1, (1.38e-6, 3.5e-7)):
        checks.append(ref / 3 <= rep.L2_M <= ref * 3)
    checks.append(1.8 <= tp1[0].L2_M / tp1[1].L2_M <= 4.5)

    problem = builtin_grayscott()
    basis = BasisSpec(problem.lower, problem.upper, 6)
    gs = [
        self_convergence(
            problem, basis,
            SolverConfig(dt=dt, t_end=10.0, theta=1.0), t_report=10.0,
        )
        for dt in (0.2, 0.1)
    ]
    for rep, ref in zip(gs, (1.106e-3, 5.55e-4)):
        checks.append(ref / 2 <= rep.L2_M <= ref * 2)
    checks.append(1.8 <= gs[0].L2_M / gs[1].L2_M <= 4.5)

    _verdict(
        5, "self-convergence norms", all(checks),
        "L2_M coupled-parabolic: " + ", ".join(f"{r.L2_M:.3e}" for r in tp1)
        + "; Gray-Scott: " + ", ".join(f"{r.L2_M:.3e}" for r in gs),
    )


def test_criterion_6_fd_oracle(tmp_path):
    problem = builtin_tp1()
    levels = [
        fd_solve(problem, nx=nx, dt=dt, t_end=1.0)
        for nx, dt in ((1001, 2e-3), (2001, 1e-3), (4001, 5e-4))
    ]
    # the grids nest, so restrict each level to the coarsest one
    M = [g.M_values[:: (g.nx - 1) // 1000] for g in levels]
    e1 = np.abs(M[0] - M[1]).max()
    e2 = np.abs(M[1] - M[2]).max()
    factor = e1 / e2
    contraction_ok = factor >= 1.8

    # the tracked copies under reports/ are written by demos/fd_crosscheck.py
    archived = []
    for name, prob, g_cfg, fd_args in (
        (
            "coupled_parabolic",
            builtin_tp1(),
            SolverConfig(dt=0.01, t_end=1.0),
            dict(fd_nx=1001, fd_dt=0.01, t=1.0),
        ),
        (
            "grayscott",
            builtin_grayscott(),
            SolverConfig(dt=0.01, t_end=1.0),
            dict(fd_nx=2001, fd_dt=0.01, t=1.0),
        ),
    ):
        basis = BasisSpec(prob.lower, prob.upper, 6)
        rep = compare(prob, basis, g_cfg, **fd_args)
        path = tmp_path / f"fd_discrepancy_{name}.csv"
        write_report(rep, path)
        archived.append(path.exists())

    _verdict(
        6, "finite-difference oracle", contraction_ok and all(archived),
        f"contraction factor {factor:.2f}, reports written",
    )


def test_criterion_7_property_suite(tmp_path):
    checks = {}

    # Picard fixed point: the converged step satisfies its own linear system
    problem = builtin_tp1()
    basis = BasisSpec(problem.lower, problem.upper, 6)
    config = SolverConfig(dt=0.1, t_end=0.1, picard_tol=1e-12)
    disc = discretize(problem, basis, config)
    s0 = initial_state(problem, basis, config)
    s1 = step(s0, problem, disc, config)
    A, rhs = _step_system(problem, disc, config, s0.c, s0.d)(s1.c, s1.d)
    x = np.concatenate([s1.c, s1.d])
    resid = np.abs(A @ x - rhs).max()
    checks["picard-fixed-point"] = resid <= 1e-8 * (1.0 + np.abs(rhs).max())

    # symmetry preservation for both built-in problems, every time level
    for name, prob in (("tp1", builtin_tp1()), ("gs", builtin_grayscott())):
        b = BasisSpec(prob.lower, prob.upper, 6)
        states = run(prob, b, SolverConfig(dt=0.1, t_end=2.0))
        centre = 0.5 * (prob.lower + prob.upper)
        s = np.linspace(0.0, 0.45 * (prob.upper - prob.lower), 12)
        sym_ok = True
        for state in states:
            Ml, Nl = evaluate(state, prob, b, centre - s)
            Mr, Nr = evaluate(state, prob, b, centre + s)
            if np.abs(Ml - Mr).max() > 1e-8 * (1.0 + np.abs(Ml).max()):
                sym_ok = False
            if np.abs(Nl - Nr).max() > 1e-8 * (1.0 + np.abs(Nl).max()):
                sym_ok = False
        checks[f"symmetry-{name}"] = sym_ok

    # dissipativity of pure diffusion: energy c' C c never increases
    heat = _heat_problem()
    b = BasisSpec(0.0, 1.0, 6)
    cfg = SolverConfig(dt=0.02, t_end=0.2)
    disc = discretize(heat, b, cfg)
    energies = [s.c @ disc.C @ s.c for s in run(heat, b, cfg)]
    checks["dissipativity"] = bool(np.all(np.diff(energies) <= 1e-14))

    # quadrature exactness at the minimum sufficient point count
    rule = gauss_legendre(17, 0.0, 1.0)
    checks["quadrature"] = abs(integrate(rule, lambda x: x ** 32) - 1 / 33) <= 1e-14

    # LU residual at the production system size (two degree-6 blocks)
    rng = np.random.default_rng(41)
    A = rng.standard_normal((24, 24))
    rhs = rng.standard_normal(24)
    sol = lu_solve(A, rhs)
    checks["lu-residual"] = np.abs(A @ sol - rhs).max() <= 1e-9 * (1.0 + np.abs(rhs).max())

    # CSV determinism: two identical CLI runs, byte-identical output
    args = ["--problem", "tp1", "--dt", "0.1", "--t-end", "1"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--output-dir", str(out1)]) == 0
    assert cli_main(args + ["--output-dir", str(out2)]) == 0
    checks["csv-determinism"] = (
        (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    )

    failing = [k for k, v in checks.items() if not v]
    _verdict(
        7, "property suite", not failing,
        "all properties hold" if not failing else "failing: " + ", ".join(failing),
    )
