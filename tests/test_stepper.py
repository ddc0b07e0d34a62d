import warnings

import numpy as np
import pytest

from rdgalerkin.basis import BasisSpec
from rdgalerkin.norms import evaluate, self_convergence
from rdgalerkin.problems import ProblemSpec, ReactionForm, builtin_grayscott, builtin_tp1
from rdgalerkin.stepper import (
    CoefficientState,
    PicardConvergenceError,
    SolverConfig,
    _step_system,
    discretize,
    initial_state,
    run,
    state_at,
    step,
)


def heat_problem(degree_profile=True):
    """Pure diffusion in disguise: N starts and stays identically zero, so the
    f = M N^2 reaction never fires and M obeys the plain heat equation."""

    def init_M(x):
        x = np.asarray(x, dtype=float)
        return x * (1.0 - x)

    def init_N(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return ProblemSpec(
        lower=0.0, upper=1.0, eps1=1.0, eps2=1.0,
        theta0=0.0, gamma0=0.0,
        reaction=ReactionForm(alpha=1, beta=2),
        sign_M=-1, sign_N=+1,
        decay_M=0.0, decay_N=0.0, source_M=0.0, source_N=0.0,
        initial_M=init_M, initial_N=init_N,
    )


class TestSolverConfig:
    def test_step_count(self):
        assert SolverConfig(dt=0.1, t_end=2.0).step_count == 20

    def test_non_divisible_horizon_rejected(self):
        with pytest.raises(ValueError, match="integer multiple"):
            SolverConfig(dt=0.3, t_end=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=-0.1, t_end=1.0),
            dict(dt=0.1, t_end=1.0, theta=0.0),
            dict(dt=0.1, t_end=1.0, theta=1.5),
            dict(dt=0.1, t_end=1.0, picard_max=0),
            dict(dt=0.1, t_end=1.0, picard_tol=0.0),
            dict(dt=float("inf"), t_end=1.0),
            dict(dt=0.1, t_end=float("inf")),
            dict(dt=0.1, t_end=1.0, picard_tol=float("nan")),
            dict(dt=0.1, t_end=1.0, theta=float("nan")),
            dict(dt=1e10, t_end=1.0),
            dict(dt=0.1, t_end=1.0, picard_max=2.5),
            dict(dt=0.1, t_end=1.0, picard_max=True),
        ],
    )
    def test_invalid_configs(self, kwargs):
        # the message starts with the name of the offending field
        with pytest.raises(ValueError, match=r"^(dt|t_end|theta|picard_tol|picard_max): "):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("quad_points", [24.5, True])
    def test_non_integer_quad_points_rejected(self, quad_points):
        with pytest.raises(ValueError, match="^quad_points: "):
            SolverConfig(dt=0.1, t_end=1.0, quad_points=quad_points)

    def test_numpy_integers_accepted(self):
        config = SolverConfig(dt=0.1, t_end=1.0, picard_max=np.int64(5), quad_points=np.int32(24))
        assert config.rule_points(6) == 24

    def test_rule_sized_from_basis_degree(self):
        # 2m + 12 points for m = 10; no degree on the config
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 10)
        disc = discretize(problem, basis, SolverConfig(dt=0.1, t_end=0.1))
        assert disc.rule.nodes.size == 32
        assert disc.B.shape == (11, 32)

    @pytest.mark.parametrize("entry", ["run", "initial_state"])
    def test_config_degree_must_match_basis(self, entry):
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 10)
        config = SolverConfig(dt=0.1, t_end=0.1, degree=6)
        call = {
            "run": lambda: run(problem, basis, config),
            "initial_state": lambda: initial_state(problem, basis, config),
        }[entry]
        with pytest.raises(ValueError, match="differs from the basis degree"):
            call()

    @pytest.mark.parametrize("lower,upper", [(0.0, 3.0), (-1.0, 2.0)])
    def test_basis_off_the_problem_interval_rejected(self, lower, upper):
        # tp1 lives on [0, 2]; a basis on another interval does not vanish at
        # the problem's boundary, so the boundary values would come out wrong
        with pytest.raises(ValueError, match="^basis: "):
            run(builtin_tp1(), BasisSpec(lower, upper, 6), SolverConfig(dt=0.1, t_end=0.2))

    @pytest.mark.parametrize(
        "make_problem,dt",
        [(builtin_tp1, 5e-324), (builtin_tp1, 1e-310), (builtin_grayscott, 1e-306)],
    )
    def test_dt_overflowing_mass_over_dt_rejected(self, make_problem, dt):
        # a subnormal dt, or a normal one against the large mass entries of a
        # wide domain, overflows C/dt; the run names dt before any overflow
        problem = make_problem()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        config = SolverConfig(dt=dt, t_end=2 * dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^dt: "):
                run(problem, basis, config)


class TestSingleStep:
    def test_heat_single_mode_halves(self):
        # degree 0: C = 1/30, K1 = 1/3, so with dt = C/K1 = 0.1 one backward
        # step maps c -> c * (C/dt) / (C/dt + K1) = c / 2, exactly
        problem = heat_problem()
        basis = BasisSpec(0.0, 1.0, 0)
        config = SolverConfig(dt=0.1, t_end=0.1, degree=0, picard_tol=1e-14)
        s0 = initial_state(problem, basis, config)
        assert s0.c[0] == pytest.approx(1.0, abs=1e-12)
        s1 = step(s0, problem, discretize(problem, basis, config), config)
        assert s1.c[0] == pytest.approx(0.5, abs=1e-12)
        assert np.abs(s1.d).max() <= 1e-13

    def test_grayscott_flat_state_is_stationary(self):
        # M = 1, N = 0 solves the model exactly; the projected coefficients
        # are all zero and must stay zero
        problem = builtin_grayscott()
        flat = ProblemSpec(
            lower=problem.lower, upper=problem.upper,
            eps1=problem.eps1, eps2=problem.eps2,
            theta0=problem.theta0, gamma0=problem.gamma0,
            reaction=problem.reaction,
            sign_M=problem.sign_M, sign_N=problem.sign_N,
            decay_M=problem.decay_M, decay_N=problem.decay_N,
            source_M=problem.source_M, source_N=problem.source_N,
            initial_M=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            initial_N=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )
        basis = BasisSpec(flat.lower, flat.upper, 6)
        config = SolverConfig(dt=0.5, t_end=1.0)
        states = run(flat, basis, config)
        for state in states:
            assert np.abs(state.c).max() <= 1e-12
            assert np.abs(state.d).max() <= 1e-12

    def test_converged_state_is_picard_fixed_point(self):
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        config = SolverConfig(dt=0.1, t_end=0.1, picard_tol=1e-12)
        disc = discretize(problem, basis, config)
        s0 = initial_state(problem, basis, config)
        s1 = step(s0, problem, disc, config)
        A, rhs = _step_system(problem, disc, config, s0.c, s0.d)(s1.c, s1.d)
        x = np.concatenate([s1.c, s1.d])
        resid = np.abs(A @ x - rhs).max()
        assert resid <= 1e-8 * (1.0 + np.abs(rhs).max())

    def test_state_shape_mismatch(self):
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        config = SolverConfig(dt=0.1, t_end=0.1)
        bad = CoefficientState(c=np.zeros(3), d=np.zeros(3), t=0.0)
        with pytest.raises(ValueError, match="basis degree"):
            step(bad, problem, discretize(problem, basis, config), config)


class TestRun:
    def test_zero_horizon_returns_initial_only(self):
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        states = run(problem, basis, SolverConfig(dt=0.1, t_end=0.0))
        assert len(states) == 1
        assert states[0].t == 0.0

    def test_state_count_and_times(self):
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        states = run(problem, basis, SolverConfig(dt=0.1, t_end=2.0))
        assert len(states) == 21
        assert states[-1].t == pytest.approx(2.0, abs=1e-12)
        assert all(s.picard_iters_last >= 1 for s in states[1:])

    def test_tp1_mirror_symmetry_preserved(self):
        # both initial profiles are even about x = 1 and the equations have
        # constant coefficients, so the discrete solution should stay even
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        states = run(problem, basis, SolverConfig(dt=0.1, t_end=1.0))
        s = np.linspace(0.0, 0.9, 10)
        M_left, N_left = evaluate(states[-1], problem, basis, 1.0 - s)
        M_right, N_right = evaluate(states[-1], problem, basis, 1.0 + s)
        scale = 1.0 + np.abs(M_left).max()
        assert np.abs(M_left - M_right).max() <= 1e-8 * scale
        assert np.abs(N_left - N_right).max() <= 1e-8 * (1.0 + np.abs(N_left).max())

    def test_pure_diffusion_energy_decays(self):
        problem = heat_problem()
        basis = BasisSpec(0.0, 1.0, 6)
        config = SolverConfig(dt=0.02, t_end=0.2)
        disc = discretize(problem, basis, config)
        states = run(problem, basis, config)
        energies = [s.c @ disc.C @ s.c for s in states]
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-14)

    def test_time_refinement_reduces_error_at_first_order(self):
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        coarse = self_convergence(
            problem, basis, SolverConfig(dt=0.1, t_end=1.0), t_report=1.0
        )
        fine = self_convergence(
            problem, basis, SolverConfig(dt=0.05, t_end=1.0), t_report=1.0
        )
        ratio = coarse.L2_M / fine.L2_M
        assert 1.8 <= ratio <= 4.5


class TestStateAt:
    def test_off_grid_time_rejected(self):
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        states = run(problem, basis, SolverConfig(dt=0.1, t_end=1.0))
        with pytest.raises(ValueError, match="not on the trajectory grid"):
            state_at(states, 0.55, 0.1)

    def test_past_the_end_time_rejected(self):
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        states = run(problem, basis, SolverConfig(dt=0.1, t_end=1.0))
        with pytest.raises(ValueError, match="not on the trajectory grid"):
            state_at(states, 1.1, 0.1)

    def test_dt_other_than_the_runs_rejected(self):
        # t = 0.5 at dt = 0.05 is step 10, but state 10 of a dt = 0.1 run
        # lies at t = 1.0
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        states = run(problem, basis, SolverConfig(dt=0.1, t_end=1.0))
        with pytest.raises(ValueError, match="^dt: "):
            state_at(states, 0.5, 0.05)

    @pytest.mark.parametrize("dt,t,k", [(1e-306, 2e-306, 2), (1e-10, 5e-10, 5), (1e-10, 1e-9, 10)])
    def test_tiny_dt_finds_its_step(self, dt, t, k):
        # a time is matched to the grid relative to dt, so a dt far below 1
        # does not collapse every time onto the initial state
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 4)
        states = run(problem, basis, SolverConfig(dt=dt, t_end=k * dt))
        assert state_at(states, t, dt) is states[k]
        assert states[k].t == k * dt

    def test_state_k_time_is_k_dt(self):
        # k * dt exactly, not a running sum of dt: 0.1 added six times gives
        # 0.6, while 6 * 0.1 is 0.6000000000000001
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 4)
        states = run(problem, basis, SolverConfig(dt=0.1, t_end=10.0))
        assert len(states) == 101
        assert [s.t for s in states] == [k * 0.1 for k in range(101)]


class TestPicardFailure:
    def test_iteration_cap_raises(self):
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        config = SolverConfig(dt=0.1, t_end=0.1, picard_tol=1e-14, picard_max=1)
        s0 = initial_state(problem, basis, config)
        with pytest.raises(PicardConvergenceError) as exc:
            step(s0, problem, discretize(problem, basis, config), config)
        assert exc.value.iterations == 1
        assert exc.value.last_correction > 1e-14
