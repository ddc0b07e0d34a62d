import numpy as np
import pytest

from rdgalerkin.basis import BasisSpec, value_matrix
from rdgalerkin.problems import (
    ProblemSpec,
    ReactionForm,
    builtin_grayscott,
    builtin_tp1,
    picard_split,
    sine_power_profile,
)


class TestBuiltinTP1:
    def test_parameters(self):
        p = builtin_tp1()
        assert (p.lower, p.upper) == (0.0, 2.0)
        assert p.eps1 == p.eps2 == 0.01
        assert (p.theta0, p.gamma0) == (0.0, 1.0)
        assert (p.reaction.alpha, p.reaction.beta) == (2, 1)
        assert (p.sign_M, p.sign_N) == (1, -1)
        assert p.decay_M == pytest.approx(0.086)   # p + q with q = -0.004
        assert (p.decay_N, p.source_N, p.source_M) == (0.09, 0.09, 0.0)

    def test_initial_data(self):
        p = builtin_tp1()
        assert p.initial_M(0.0) == pytest.approx(0.0, abs=1e-12)
        assert p.initial_M(2.0) == pytest.approx(0.0, abs=1e-12)
        assert p.initial_M(1.0) == pytest.approx(-0.01, rel=1e-12)
        assert p.initial_N(1.0) == pytest.approx(1.12, rel=1e-12)

    def test_initial_symmetry_about_midpoint(self):
        p = builtin_tp1()
        x = np.linspace(0.0, 2.0, 41)
        assert p.initial_M(2.0 - x) == pytest.approx(p.initial_M(x), abs=1e-12)
        assert p.initial_N(2.0 - x) == pytest.approx(p.initial_N(x), abs=1e-12)


class TestBuiltinGrayScott:
    def test_parameters(self):
        p = builtin_grayscott()
        assert (p.lower, p.upper) == (-50.0, 50.0)
        assert (p.eps1, p.eps2) == (1.0, 0.01)
        assert (p.theta0, p.gamma0) == (1.0, 0.0)
        assert (p.reaction.alpha, p.reaction.beta) == (1, 2)
        assert (p.sign_M, p.sign_N) == (-1, 1)
        assert (p.decay_M, p.source_M) == (0.01, 0.01)
        assert p.decay_N == pytest.approx(0.13)
        assert p.source_N == 0.0

    def test_initial_data(self):
        p = builtin_grayscott()
        assert p.initial_M(-50.0) == pytest.approx(1.0, abs=1e-12)
        assert p.initial_M(50.0) == pytest.approx(1.0, abs=1e-12)
        assert p.initial_N(-50.0) == pytest.approx(0.0, abs=1e-12)
        assert p.initial_M(0.0) == pytest.approx(0.5, rel=1e-12)
        assert p.initial_N(0.0) == pytest.approx(0.25, rel=1e-12)
        # 0.25 * cos^100(pi/10), evaluated in extended precision
        assert p.initial_N(10.0) == pytest.approx(0.00165414114035118, rel=1e-12)

    def test_initial_symmetry_about_origin(self):
        p = builtin_grayscott()
        x = np.linspace(-50.0, 50.0, 41)
        assert p.initial_M(-x) == pytest.approx(p.initial_M(x), abs=1e-12)
        assert p.initial_N(-x) == pytest.approx(p.initial_N(x), abs=1e-12)


class TestValidation:
    def test_reaction_must_be_nonlinear(self):
        with pytest.raises(ValueError):
            ReactionForm(alpha=1, beta=0)
        with pytest.raises(ValueError):
            ReactionForm(alpha=-1, beta=3)

    def test_boundary_compatibility_enforced(self):
        base = builtin_tp1()
        with pytest.raises(ValueError):
            ProblemSpec(
                lower=base.lower, upper=base.upper,
                eps1=base.eps1, eps2=base.eps2,
                theta0=0.5,  # initial_M(0) = 0 != 0.5
                gamma0=base.gamma0, reaction=base.reaction,
                sign_M=base.sign_M, sign_N=base.sign_N,
                decay_M=base.decay_M, decay_N=base.decay_N,
                source_M=base.source_M, source_N=base.source_N,
                initial_M=base.initial_M, initial_N=base.initial_N,
            )

    def test_positive_diffusion_enforced(self):
        base = builtin_tp1()
        with pytest.raises(ValueError):
            ProblemSpec(
                lower=base.lower, upper=base.upper,
                eps1=0.0, eps2=base.eps2,
                theta0=base.theta0, gamma0=base.gamma0, reaction=base.reaction,
                sign_M=base.sign_M, sign_N=base.sign_N,
                decay_M=base.decay_M, decay_N=base.decay_N,
                source_M=base.source_M, source_N=base.source_N,
                initial_M=base.initial_M, initial_N=base.initial_N,
            )


class TestPicardSplit:
    def _fields(self, problem, basis, c, d, x):
        B = value_matrix(basis, x)
        return problem.theta0 + c @ B, problem.gamma0 + d @ B

    @pytest.mark.parametrize("make_problem", [builtin_tp1, builtin_grayscott])
    def test_consistency_identity(self, make_problem):
        # Gamma + Omega (N - gamma0) and Pi + Phi (M - theta0) both equal f
        # when every factor is evaluated at the same iterate.
        problem = make_problem()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        rng = np.random.default_rng(7)
        x = np.linspace(problem.lower, problem.upper, 100)
        for _ in range(5):
            c = rng.uniform(-1, 1, basis.size)
            d = rng.uniform(-1, 1, basis.size)
            split = picard_split(problem, value_matrix(basis, x), c, d)
            M, N = self._fields(problem, basis, c, d, x)
            f = problem.reaction(M, N)
            scale = np.abs(f).max() + 1e-30
            lhs_M = split.gamma + split.omega * (N - problem.gamma0)
            lhs_N = split.pi + split.phi * (M - problem.theta0)
            assert np.abs(lhs_M - f).max() <= 1e-10 * scale
            assert np.abs(lhs_N - f).max() <= 1e-10 * scale

    def test_grayscott_zero_state_kills_m_equation_terms(self):
        problem = builtin_grayscott()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        zero = np.zeros(basis.size)
        x = np.linspace(-50, 50, 11)
        split = picard_split(problem, value_matrix(basis, x), zero, zero)
        assert np.abs(split.omega).max() == 0.0   # N~ = gamma0 = 0
        assert np.abs(split.gamma).max() == 0.0

    def test_tp1_split_is_squared_m_field(self):
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 4)
        rng = np.random.default_rng(11)
        c = rng.uniform(-1, 1, basis.size)
        d = rng.uniform(-1, 1, basis.size)
        x = np.linspace(0, 2, 33)
        split = picard_split(problem, value_matrix(basis, x), c, d)
        M, _ = self._fields(problem, basis, c, d, x)
        assert split.omega == pytest.approx(M ** 2, rel=1e-12)
        assert split.gamma == pytest.approx(M ** 2 * problem.gamma0, rel=1e-12)

    def test_degenerate_exponent_lags_fully(self):
        problem = builtin_tp1()
        # alpha = 0 makes the N-equation split degenerate: phi = 0, pi = f
        prob0 = ProblemSpec(
            lower=problem.lower, upper=problem.upper,
            eps1=problem.eps1, eps2=problem.eps2,
            theta0=problem.theta0, gamma0=problem.gamma0,
            reaction=ReactionForm(alpha=0, beta=3),
            sign_M=problem.sign_M, sign_N=problem.sign_N,
            decay_M=problem.decay_M, decay_N=problem.decay_N,
            source_M=problem.source_M, source_N=problem.source_N,
            initial_M=problem.initial_M, initial_N=problem.initial_N,
        )
        basis = BasisSpec(0.0, 2.0, 3)
        rng = np.random.default_rng(3)
        c = rng.uniform(-1, 1, basis.size)
        d = rng.uniform(-1, 1, basis.size)
        x = np.linspace(0, 2, 21)
        split = picard_split(prob0, value_matrix(basis, x), c, d)
        M, N = self._fields(prob0, basis, c, d, x)
        assert np.abs(split.phi).max() == 0.0
        assert split.pi == pytest.approx(prob0.reaction(M, N), rel=1e-12)

    def test_rejects_wrong_vector_length(self):
        problem = builtin_tp1()
        basis = BasisSpec(0.0, 2.0, 6)
        with pytest.raises(ValueError):
            picard_split(problem, value_matrix(basis, [1.0]), np.zeros(3), np.zeros(7))


def test_sine_power_profile_formula():
    f = sine_power_profile(2.0, 3, 1.0, 4.0, 0.5)
    x = 2.0
    assert f(x) == pytest.approx(2.0 * np.sin(np.pi / 4) ** 3 + 0.5, rel=1e-14)
