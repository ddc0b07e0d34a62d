import numpy as np
import pytest

from rdgalerkin.assembly import (
    Discretization,
    assemble_coupling,
    assemble_loads,
    assemble_mass,
    assemble_stiffness,
    project_initial,
)
from rdgalerkin.basis import BasisSpec, derivative_matrix, value_matrix
from rdgalerkin.problems import builtin_grayscott, builtin_tp1, picard_split
from rdgalerkin.quadrature import default_point_count, gauss_legendre


def rule_for(spec, points=None):
    return gauss_legendre(points or default_point_count(spec.degree), spec.lower, spec.upper)


def tables(spec, rule):
    """Basis values, derivatives and weights at the rule's nodes."""
    return value_matrix(spec, rule.nodes), derivative_matrix(spec, rule.nodes), rule.weights


class TestMass:
    def test_degree_zero_unit_interval(self):
        spec = BasisSpec(0.0, 1.0, 0)
        B, _, w = tables(spec, rule_for(spec))
        C = assemble_mass(B, w)
        assert C[0, 0] == pytest.approx(1 / 30, rel=1e-12)

    def test_degree_zero_scaled_interval(self):
        # int_0^h x^2 (h-x)^2 dx = h^5 / 30
        spec = BasisSpec(0.0, 2.0, 0)
        B, _, w = tables(spec, rule_for(spec))
        C = assemble_mass(B, w)
        assert C[0, 0] == pytest.approx(16 / 15, rel=1e-12)

    @pytest.mark.parametrize("degree", [3, 6])
    def test_exact_symmetry(self, degree):
        spec = BasisSpec(-50.0, 50.0, degree)
        B, _, w = tables(spec, rule_for(spec))
        C = assemble_mass(B, w)
        assert np.array_equal(C, C.T)

    @pytest.mark.parametrize("lower,upper", [(0.0, 2.0), (-50.0, 50.0)])
    @pytest.mark.parametrize("degree", range(11))
    def test_positive_definite(self, lower, upper, degree):
        spec = BasisSpec(lower, upper, degree)
        B, _, w = tables(spec, rule_for(spec))
        C = assemble_mass(B, w)
        np.linalg.cholesky(C)   # raises if not SPD


class TestStiffness:
    def test_unit_diffusion(self):
        spec = BasisSpec(0.0, 1.0, 0)
        K = assemble_stiffness(*tables(spec, rule_for(spec)), eps=1.0, decay=0.0)
        assert K[0, 0] == pytest.approx(1 / 3, rel=1e-12)

    def test_diffusion_plus_decay(self):
        spec = BasisSpec(0.0, 1.0, 0)
        K = assemble_stiffness(*tables(spec, rule_for(spec)), eps=1.0, decay=0.09)
        assert K[0, 0] == pytest.approx(1 / 3 + 0.09 / 30, rel=1e-12)

    def test_symmetric(self):
        spec = BasisSpec(0.0, 2.0, 6)
        K = assemble_stiffness(*tables(spec, rule_for(spec)), eps=0.01, decay=0.086)
        assert K == pytest.approx(K.T, rel=1e-13)


class TestCoupling:
    def test_zero_weight_gives_zero_matrix(self):
        spec = BasisSpec(0.0, 2.0, 4)
        B, _, w = tables(spec, rule_for(spec))
        K = assemble_coupling(B, w, np.zeros_like(w))
        assert np.abs(K).max() == 0.0

    def test_identity_weight_reduces_to_mass(self):
        spec = BasisSpec(-50.0, 50.0, 6)
        B, _, w = tables(spec, rule_for(spec))
        K = assemble_coupling(B, w, np.ones_like(w))
        C = assemble_mass(B, w)
        assert np.abs(K - C).max() <= 1e-12 * np.abs(C).max()

    @pytest.mark.parametrize("make_problem", [builtin_tp1, builtin_grayscott])
    @pytest.mark.parametrize("degree", [2, 6, 10, 14])
    def test_stacked_weights_match_single_calls(self, make_problem, degree):
        # both coupling blocks of an iterate in one product, each bit for bit
        problem = make_problem()
        spec = BasisSpec(problem.lower, problem.upper, degree)
        B, _, w = tables(spec, rule_for(spec))
        rng = np.random.default_rng(degree)
        split = picard_split(problem, B, *(0.1 * rng.standard_normal((2, spec.size))))
        weights = np.array([-problem.sign_M * split.omega, -problem.sign_N * split.phi])
        stacked = assemble_coupling(B, w, weights)
        assert stacked.shape == (2, spec.size, spec.size)
        for K, weight in zip(stacked, weights):
            assert np.array_equal(K, assemble_coupling(B, w, weight))


class TestLoads:
    def test_grayscott_zero_iterate_loads_vanish(self):
        problem = builtin_grayscott()
        spec = BasisSpec(problem.lower, problem.upper, 6)
        disc = Discretization.build(problem, spec, rule_for(spec))
        zero = np.zeros(spec.size)
        split = picard_split(problem, disc.B, zero, zero)
        F1, F2 = assemble_loads(problem, disc, split)
        # Gamma = 0 and source - decay*theta0 = p - p = 0; Pi = 0, gamma0 = 0
        scale = np.abs(disc.C).max()
        assert np.abs(F1).max() <= 1e-14 * scale
        assert np.abs(F2).max() <= 1e-14 * scale

    def test_grayscott_zero_iterate_coupling_vanishes(self):
        problem = builtin_grayscott()
        spec = BasisSpec(problem.lower, problem.upper, 6)
        B, _, w = tables(spec, rule_for(spec))
        zero = np.zeros(spec.size)
        split = picard_split(problem, B, zero, zero)
        K2 = assemble_coupling(B, w, -problem.sign_M * split.omega)
        assert np.abs(K2).max() == 0.0

    def test_tp1_zero_iterate_f2_vanishes(self):
        # Pi = theta0 * N~^2 = 0 and source_N - decay_N * gamma0 = p - p = 0
        problem = builtin_tp1()
        spec = BasisSpec(problem.lower, problem.upper, 6)
        disc = Discretization.build(problem, spec, rule_for(spec))
        zero = np.zeros(spec.size)
        split = picard_split(problem, disc.B, zero, zero)
        _, F2 = assemble_loads(problem, disc, split)
        assert np.abs(F2).max() <= 1e-14


class TestQuadratureInvariance:
    @pytest.mark.parametrize("make_problem", [builtin_tp1, builtin_grayscott])
    def test_doubling_points_changes_nothing(self, make_problem):
        problem = make_problem()
        spec = BasisSpec(problem.lower, problem.upper, 6)
        n = default_point_count(spec.degree)
        rng = np.random.default_rng(23)
        c = rng.uniform(-1, 1, spec.size)
        d = rng.uniform(-1, 1, spec.size)
        for build in (
            lambda B, dB, w: assemble_mass(B, w),
            lambda B, dB, w: assemble_stiffness(B, dB, w, problem.eps1, problem.decay_M),
            lambda B, dB, w: assemble_coupling(
                B, w, picard_split(problem, B, c, d).omega
            ),
        ):
            coarse = build(*tables(spec, gauss_legendre(n, spec.lower, spec.upper)))
            fine = build(*tables(spec, gauss_legendre(2 * n, spec.lower, spec.upper)))
            scale = np.abs(fine).max() + 1e-30
            assert np.abs(coarse - fine).max() <= 1e-10 * scale


class TestInitialProjection:
    def test_constant_initial_data_projects_to_zero(self):
        problem = builtin_grayscott()
        flat = type(problem)(
            lower=problem.lower, upper=problem.upper,
            eps1=problem.eps1, eps2=problem.eps2,
            theta0=1.0, gamma0=0.0, reaction=problem.reaction,
            sign_M=problem.sign_M, sign_N=problem.sign_N,
            decay_M=problem.decay_M, decay_N=problem.decay_N,
            source_M=problem.source_M, source_N=problem.source_N,
            initial_M=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            initial_N=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )
        spec = BasisSpec(flat.lower, flat.upper, 6)
        c0, d0 = project_initial(flat, Discretization.build(flat, spec, rule_for(spec, 72)))
        assert np.abs(c0).max() <= 1e-12
        assert np.abs(d0).max() <= 1e-12

    def test_tp1_degree_zero_closed_form(self):
        # c0 = -0.01 * (32 / pi^3) / (16 / 15)
        problem = builtin_tp1()
        spec = BasisSpec(0.0, 2.0, 0)
        c0, _ = project_initial(problem, Discretization.build(problem, spec, rule_for(spec, 36)))
        assert c0[0] == pytest.approx(-0.00967546032995985, rel=1e-10)

    def test_tp1_reconstruction_error(self):
        problem = builtin_tp1()
        spec = BasisSpec(0.0, 2.0, 6)
        c0, _ = project_initial(problem, Discretization.build(problem, spec, rule_for(spec, 72)))
        x = np.linspace(0, 2, 801)
        recon = problem.theta0 + c0 @ value_matrix(spec, x)
        assert np.abs(recon - problem.initial_M(x)).max() <= 2e-4

    def test_projection_is_l2_minimizer(self):
        problem = builtin_tp1()
        spec = BasisSpec(0.0, 2.0, 6)
        rule = rule_for(spec, 72)
        c0, _ = project_initial(problem, Discretization.build(problem, spec, rule))
        B = value_matrix(spec, rule.nodes)
        target = problem.initial_M(rule.nodes)

        def l2_error(c):
            resid = c @ B - target
            return np.dot(rule.weights, resid ** 2)

        best = l2_error(c0)
        for k in range(spec.size):
            for sign in (+1, -1):
                c = c0.copy()
                c[k] += sign * 1e-3
                assert l2_error(c) > best
