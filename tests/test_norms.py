import numpy as np
import pytest

from rdgalerkin.basis import BasisSpec
from rdgalerkin.norms import (
    DEFAULT_GRID_POINTS,
    evaluate,
    sample_grid,
    self_convergence,
)
from rdgalerkin.problems import builtin_grayscott, builtin_tp1
from rdgalerkin.stepper import CoefficientState, SolverConfig, run, state_at


@pytest.fixture(scope="module")
def tp1_run():
    problem = builtin_tp1()
    basis = BasisSpec(problem.lower, problem.upper, 6)
    states = run(problem, basis, SolverConfig(dt=0.1, t_end=2.0))
    return problem, basis, states


class TestEvaluate:
    def test_boundary_values_are_exact(self, tp1_run):
        problem, basis, states = tp1_run
        for state in (states[0], states[-1]):
            for edge in (problem.lower, problem.upper):
                M, N = evaluate(state, problem, basis, edge)
                assert M == problem.theta0
                assert N == problem.gamma0

    def test_scalar_and_vector_agree(self, tp1_run):
        problem, basis, states = tp1_run
        xs = np.array([0.3, 1.0, 1.7])
        M_vec, N_vec = evaluate(states[-1], problem, basis, xs)
        for i, x in enumerate(xs):
            M, N = evaluate(states[-1], problem, basis, float(x))
            assert M == M_vec[i]
            assert N == N_vec[i]

    @pytest.mark.parametrize("make_problem", [builtin_grayscott, builtin_tp1])
    def test_point_value_independent_of_batch(self, make_problem):
        # the CLI and self_convergence evaluate the 101-point sampling grid
        # in one call; a batched matrix product rounds some of those points
        # differently from a one-point call, so compare them all exactly
        problem = make_problem()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        state = run(problem, basis, SolverConfig(dt=0.1, t_end=1.0))[-1]
        xs = sample_grid(problem, DEFAULT_GRID_POINTS)
        M_vec, N_vec = evaluate(state, problem, basis, xs)
        alone = [evaluate(state, problem, basis, float(x)) for x in xs]
        assert [M for M, _ in alone] == M_vec.tolist()
        assert [N for _, N in alone] == N_vec.tolist()

    def test_midpoint_matches_benchmark_values(self, tp1_run):
        problem, basis, states = tp1_run
        state_t1 = state_at(states, 1.0, 0.1)
        M, N = evaluate(state_t1, problem, basis, 1.0)
        assert M == pytest.approx(-0.00877, abs=1e-3)
        assert N == pytest.approx(1.10689, abs=5e-3)


class TestSelfConvergence:
    def test_identical_trajectories_give_zero(self, tp1_run):
        # comparing a run against itself through the dt/2 path is not
        # available, so instead check the degenerate analytic case: a state
        # with zero coefficients evaluates to the boundary constants, and the
        # norms of a zero difference field vanish
        problem, basis, _ = tp1_run
        zero = CoefficientState(c=np.zeros(basis.size), d=np.zeros(basis.size), t=0.0)
        xs = sample_grid(problem, 50)
        M, N = evaluate(zero, problem, basis, xs)
        assert np.all(M == problem.theta0)
        assert np.all(N == problem.gamma0)

    def test_report_fields_and_norm_inequality(self):
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        report = self_convergence(
            problem, basis, SolverConfig(dt=0.1, t_end=1.0), t_report=1.0
        )
        assert report.dt == 0.1
        assert report.t == 1.0
        assert report.grid_points == DEFAULT_GRID_POINTS
        n = report.grid_points
        for L2, Linf in (
            (report.L2_M, report.Linf_M),
            (report.L2_N, report.Linf_N),
        ):
            assert 0 < L2 <= np.sqrt(n) * Linf
            assert Linf <= L2 + 1e-30

    def test_grid_refinement_changes_linf_little(self):
        # L_inf over the grid is a sampling of a smooth field; doubling the
        # grid resolution must not move it by more than a few percent
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        config = SolverConfig(dt=0.1, t_end=1.0)
        r101 = self_convergence(problem, basis, config, 1.0, grid_points=101)
        r201 = self_convergence(problem, basis, config, 1.0, grid_points=201)
        assert abs(r201.Linf_M - r101.Linf_M) <= 0.05 * r201.Linf_M
        # L2 is unnormalized, so it scales roughly with sqrt(grid points)
        assert r201.L2_M / r101.L2_M == pytest.approx(np.sqrt(2), rel=0.1)


def test_sample_grid_spans_domain():
    problem = builtin_grayscott()
    xs = sample_grid(problem, 11)
    assert xs[0] == problem.lower
    assert xs[-1] == problem.upper
    assert len(xs) == 11
