import copy
import inspect
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import hetcover.solver as solver
from hetcover.cli import ALPHA_STEP
from hetcover.graphs import build_relation_graphs
from hetcover.solver import (
    FINISH_STEPS,
    MAX_ITERATIONS,
    MU0,
    RHO,
    TOLERANCE,
    Problem,
    SolverConfig,
    SolverState,
    constraint_residuals,
    initial_state,
    objective,
    prepare_problem,
    solve,
    update_laplacian,
    update_multipliers,
    update_z,
    update_zhat,
)
from hetcover.simulation import (
    SimConfig,
    baseline_solver_config,
    generate_system,
    sweep_grid,
    trial_rngs,
)
from hetcover.system import Environment, Position, RobotSpec, RobotSystem, Wall

import _oracles
from _oracles import (
    nonnegative_qp_oracle,
    numeric_gradient,
    projection_oracle,
    reference_solve,
    singular_value_thresholding,
)


def make_state(Z, Zhat=None, phi1=None, Phi2=None, mu=0.1, k=0):
    """A stack of one SolverState from n x n iterates, Zhat defaulting to sym Z
    as the loop leaves it, and the multipliers to zero."""
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[0]
    state = SolverState(
        Z=Z,
        Zhat=sym(Z) if Zhat is None else Zhat,
        phi1=np.zeros(n) if phi1 is None else phi1,
        Phi2=np.zeros((n, n)) if Phi2 is None else Phi2,
        mu=mu,
        k=k,
    )
    return replace(state, **{name: np.asarray(value, dtype=float)[None]
                             for name, value in vars(state).items() if name not in ("mu", "k")})


# Full, Baseline and a larger lambda2: the settings on which the loop's
# induction (see update_zhat and update_laplacian) is checked
INDUCTION_SETTINGS = ["full", "baseline", "lambda2-1"]


def induction_config(setting):
    return {"full": DEFAULT_WEIGHTS, "baseline": baseline_solver_config(DEFAULT_WEIGHTS),
            "lambda2-1": replace(DEFAULT_WEIGHTS, lambda2=1.0)}[setting]


def sym(G):
    """The symmetric part of G (of each matrix of a stack), the target the L step's subproblem sees."""
    return 0.5 * (G + G.mT)


def laplacian_case(Z, Phi2, lambda2, mu):
    """The L step on an n x n state shaped as the loop leaves it: Zhat = sym Z
    and Phi2 antisymmetric (the antisymmetric part of the Phi2 given), so that
    the L link's multiplier is Phi3 = -Phi2 - lambda2 I. Returns (L, T) with
    T = I - Z - Phi3 / mu the step's target."""
    n = Z.shape[0]
    state = make_state(Z, Zhat=sym(Z), Phi2=0.5 * (Phi2 - Phi2.T), mu=mu)
    L = update_laplacian(state)[0]
    return L, np.eye(n) - Z - link_multiplier(state, lambda2)[0] / mu


def near_feasible(rng, n):
    """A random n x n Z whose symmetric part is non-negative with row sums at
    most 1, so that I - sym Z is positive semidefinite, plus a random skew part."""
    S = sym(rng.random((n, n)))
    K = rng.standard_normal((n, n))
    return S / S.sum(axis=1).max() + 0.1 * (K - K.T)


def two_pair_system():
    """Four robots in two tight spatial pairs, each pair sensing one modality."""
    robots = (
        RobotSpec(0, Position(0.20, 0.20), frozenset({"rgb"})),
        RobotSpec(1, Position(0.25, 0.20), frozenset({"rgb"})),
        RobotSpec(2, Position(0.80, 0.80), frozenset({"depth"})),
        RobotSpec(3, Position(0.75, 0.80), frozenset({"depth"})),
    )
    system = RobotSystem(robots, Environment(1.0, 1.0), ("rgb", "depth"))
    return build_relation_graphs(system, comm_radius=0.4 * math.hypot(1.0, 1.0))


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.alphas is None
        assert cfg.lambda1 == 0.1 and cfg.lambda2 == 0.1
        # the loop's penalty schedule, tolerance and pass cap are the solver's, not settings
        assert [f.name for f in fields(SolverConfig)] == ["alphas", "lambda1", "lambda2"]
        assert (MU0, RHO) == (1.0, 1.9)

    def test_alphas_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SolverConfig(alphas=(0.5, 0.6))

    def test_alphas_non_negative(self):
        with pytest.raises(ValueError):
            SolverConfig(alphas=(1.5, -0.5))

    def test_alphas_empty_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(alphas=())

    def test_negative_lambdas_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(lambda1=-0.1)
        with pytest.raises(ValueError):
            SolverConfig(lambda2=-0.1)

    # the Z step's c = z_weight / mu + 3 and the lambda2 / mu on its diagonal
    # must be finite from the first penalty, MU0 = 1, on; the bound is on
    # 4 (1 + lambda1) + 2 lambda2, so the last pair is refused together only
    @pytest.mark.parametrize("refused, admitted", [
        (dict(lambda1=1e308), dict(lambda1=4e307)),
        (dict(lambda2=1e308), dict(lambda2=8e307)),
        (dict(lambda1=2e307, lambda2=5e307), dict(lambda1=2e307, lambda2=4e307)),
    ], ids=["lambda1", "lambda2", "both"])
    def test_lambda_that_overflows_the_z_step_rejected(self, refused, admitted):
        with pytest.raises(ValueError,
                           match="^lambda1 and lambda2 are too large.*lambda1=.*lambda2="):
            SolverConfig(**refused)
        config = SolverConfig(**admitted)
        assert all(getattr(config, name) == value for name, value in admitted.items())

    # these once set a penalty too small for lambda2: lambda2 / mu0 overflowed
    # the Z step's diagonal from the first pass. mu0 is no setting now, and the
    # loop's smallest penalty, MU0 = 1, leaves the same lambda2's Z step finite
    @pytest.mark.parametrize("mu0, lambda2", [
        (1e-300, 1e10), (1e-307, 1000.0), (2.5e-308, 1.0),
    ], ids=["lambda2-1e10", "lambda2-1000", "lambda2-1"])
    def test_penalty_too_small_for_the_z_step_rejected(self, mu0, lambda2):
        with pytest.raises(TypeError, match="mu0"):
            SolverConfig(mu0=mu0, lambda2=lambda2)
        problem = prepare_problem([fleet_graphs(20, 0)], [SolverConfig(lambda2=lambda2)])
        state = initial_state(problem)
        assert state.mu == MU0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            Z = update_z(state, problem)
        assert_minimizes_over_nonnegative(Z, state, problem)

    # the loop's first penalty, MU0 = 1, is its smallest
    @pytest.mark.parametrize("lambda2", [0.0, 0.1, 1e10])
    def test_smallest_admitted_penalty_solves_without_warnings(self, lambda2):
        config = SolverConfig(lambda2=lambda2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = solve(fleet_graphs(20, 0), config)
        assert np.isfinite(result.Z).all()

    def test_loop_tolerance_and_cap_are_fixed(self):
        # the reference loop writes its own defaults, as it writes its own
        # schedule; the Z step's 4 mu stays finite up to the cap
        assert (TOLERANCE, MAX_ITERATIONS) == (1e-2, 1000)
        loop = inspect.signature(reference_solve).parameters
        assert (loop["tolerance"].default, loop["max_iterations"].default) == (
            TOLERANCE, MAX_ITERATIONS)
        assert math.isfinite(4.0 * MU0 * RHO**MAX_ITERATIONS)

    @pytest.mark.parametrize("settings", [
        dict(lambda1=math.nan), dict(lambda2=math.inf),
        dict(alphas=(math.nan, 0.5, 0.5)), dict(alphas=(math.inf, 0.0, 0.0)),
    ], ids=["lambda1-nan", "lambda2-inf", "alpha-nan", "alpha-inf"])
    def test_non_finite_setting_rejected(self, settings):
        with pytest.raises(ValueError, match="must be finite"):
            SolverConfig(**settings)

    def test_resolved_fills_equal_weights(self):
        cfg = SolverConfig().resolved(4)
        assert cfg.alphas == (0.25, 0.25, 0.25, 0.25)

    def test_resolved_checks_count(self):
        with pytest.raises(ValueError):
            SolverConfig(alphas=(0.5, 0.5)).resolved(3)


class TestObjective:
    def test_perfect_fit_is_zero(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        cfg = SolverConfig(alphas=(1.0,), lambda1=0.0, lambda2=0.0)
        assert objective(A, np.zeros((2, 2)), [A], cfg) == 0.0

    def test_zero_z_gives_frobenius_of_graph(self):
        A = np.array([[0.0, 2.0], [2.0, 0.0]])
        cfg = SolverConfig(alphas=(1.0,), lambda1=0.0, lambda2=0.0)
        got = objective(np.zeros((2, 2)), np.zeros((2, 2)), [A], cfg)
        assert got == pytest.approx(np.sum(A**2), abs=1e-12)

    def test_identity_laplacian_counts_unit_singular_values(self):
        # Z = 0 against a zero graph kills the fit term, so the objective is
        # lambda2 tr I, the nuclear norm of I
        n = 5
        A = np.zeros((n, n))
        cfg = SolverConfig(alphas=(1.0,), lambda1=0.0, lambda2=1.0)
        got = objective(np.zeros((n, n)), np.eye(n), [A], cfg)
        assert got == pytest.approx(float(n), abs=1e-12)

    def test_nuclear_term_is_the_trace(self):
        # off the feasible set L need not be positive semidefinite, and the
        # term the L step minimizes is lambda2 tr L, negative here
        A = np.zeros((3, 3))
        cfg = SolverConfig(alphas=(1.0,), lambda1=0.0, lambda2=0.5)
        L = np.array([[-2.0, 5.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, -1.0]])
        assert objective(np.zeros((3, 3)), L, [A], cfg) == 0.5 * (-2.0 + 0.5 - 1.0)

    def test_dimension_mismatch_rejected(self):
        cfg = SolverConfig(alphas=(1.0,))
        with pytest.raises(ValueError):
            objective(np.zeros((2, 2)), np.zeros((2, 2)), [np.zeros((3, 3))], cfg)


class TestPrepareProblem:
    def test_each_slice_of_a_stack_is_its_own_problem(self):
        # fleets and weightings, as a simulate or sweep batch stacks them; None
        # alphas resolve to equal weights
        graph_lists = [fleet_graphs(20, seed) for seed in (0, 0, 1, 2)]
        configs = [SolverConfig(alphas=(0.1, 0.2, 0.7)), SolverConfig(alphas=(1.0, 0.0, 0.0)),
                   SolverConfig(), SolverConfig(alphas=(0.0, 0.5, 0.5))]
        stack = prepare_problem(graph_lists, configs)
        assert stack.weighted_sum.shape == (4, 20, 20) and stack.z_weight.shape == (4, 1, 1)
        assert stack.config == SolverConfig()
        for i, (graphs, config) in enumerate(zip(graph_lists, configs)):
            alone = prepare_problem([graphs], [config])
            assert alone.z_weight.shape == (1, 1, 1)
            assert stack.weighted_sum[i].tobytes() == alone.weighted_sum[0].tobytes()
            assert stack.z_weight[i].tobytes() == alone.z_weight[0].tobytes()


def link_multiplier(state, lambda2):
    """The L link's multiplier, -Phi2 - lambda2 I, which the solver does not store."""
    return -state.Phi2 - lambda2 * np.eye(state.Phi2.shape[-1])


class TestSvt:
    """The L step against singular value thresholding, the nuclear-norm prox of
    the step's symmetric target sym T = I - Zhat + tau I, tau = lambda2 / mu
    (see laplacian_case): the two agree wherever every eigenvalue of sym T
    is at least tau, that is wherever I - Zhat is positive semidefinite, as
    it is near the feasible set. Below tau the thresholding clamps an
    eigenvalue at zero, and the affine step lowers it past zero."""

    def test_diagonal_matrix_shrinks_exactly(self):
        # sym T = diag(3, 1, 0.75) at tau = 0.5
        L, target = laplacian_case(np.diag([-1.5, 0.5, 0.75]), np.zeros((3, 3)), 0.5, 1.0)
        assert np.array_equal(sym(target), np.diag([3.0, 1.0, 0.75]))
        assert np.array_equal(L, np.diag([2.5, 0.5, 0.25]))
        assert np.abs(L - singular_value_thresholding(sym(target), 0.5)).max() <= 1e-12

    def test_zero_target_shifts_to_minus_tau(self):
        # sym T = 0 at Zhat = (1 + tau) I: the thresholding keeps the zero
        # matrix; the affine step does not
        L, target = laplacian_case(1.5 * np.eye(3), np.zeros((3, 3)), 0.5, 1.0)
        assert np.all(sym(target) == 0.0)
        assert np.array_equal(L, -0.5 * np.eye(3))
        assert np.all(singular_value_thresholding(sym(target), 0.5) == 0.0)

    def test_zero_threshold_is_identity(self):
        # with lambda2 = 0 the prox keeps a positive semidefinite sym T, skew
        # part and all
        rng = np.random.default_rng(0)
        L, target = laplacian_case(near_feasible(rng, 4), rng.standard_normal((4, 4)), 0.0, 0.5)
        assert np.abs(L - singular_value_thresholding(sym(target), 0.0)).max() <= 1e-12

    def test_output_singular_values_never_exceed_input(self):
        # above tau, each eigenvalue, and so each singular value, falls by tau
        rng = np.random.default_rng(5)
        for _ in range(5):
            L, target = laplacian_case(near_feasible(rng, 5), rng.standard_normal((5, 5)),
                                       0.4, 1.0)
            s_in = np.linalg.svd(sym(target), compute_uv=False)
            s_out = np.linalg.svd(L, compute_uv=False)
            assert np.abs(s_out - (s_in - 0.4)).max() <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_prox_oracle(self, seed):
        rng = np.random.default_rng(seed)
        L, target = laplacian_case(near_feasible(rng, 6), rng.standard_normal((6, 6)), 0.3, 1.0)
        want = singular_value_thresholding(sym(target), 0.3)
        assert np.abs(L - want).max() <= 1e-12

    def test_skew_part_of_the_target_is_ignored(self):
        # Phi2, antisymmetric, only moves T's skew part
        rng = np.random.default_rng(7)
        Z = rng.standard_normal((6, 6))
        L, _ = laplacian_case(Z, rng.standard_normal((6, 6)), 0.3, 1.0)
        assert L.tobytes() == laplacian_case(Z, rng.standard_normal((6, 6)), 0.3, 1.0)[0].tobytes()

    def test_output_is_symmetric(self):
        rng = np.random.default_rng(8)
        L, _ = laplacian_case(rng.standard_normal((6, 6)), rng.standard_normal((6, 6)), 0.3, 1.0)
        assert np.array_equal(L, L.T)


def smooth_part(Z, state, adjs, config, L=None):
    """The differentiable terms the Z-step minimizes, penalties completed to squares,
    at the loop's L = I - Zhat unless an L is given."""
    n = Z.shape[0]
    ones = np.ones(n)
    L = np.eye(n) - state.Zhat if L is None else L
    fit = sum(a * np.sum((Z - A) ** 2) for a, A in zip(config.alphas, adjs))
    pen = (
        np.sum((Z @ ones - ones + state.phi1 / state.mu) ** 2)
        + np.sum((Z.T - state.Zhat + state.Phi2 / state.mu) ** 2)
        + np.sum((L - np.eye(n) + Z + link_multiplier(state, config.lambda2) / state.mu) ** 2)
        + np.sum((state.Zhat - Z + state.Phi2 / state.mu) ** 2)
    )
    return fit + config.lambda1 * np.sum(Z**2) + 0.5 * state.mu * pen


def z_step_system(state, problem):
    """B and RHS of the Z step's gradient equation Z B = RHS, in the full form
    update_z reduces: L = I - Zhat and the L link's multiplier are formed."""
    mu = state.mu
    eye = np.eye(state.Z.shape[-1])
    L = eye - state.Zhat
    rhs = (problem.weighted_sum + mu * (1.0 + state.Zhat.mT + state.Zhat + eye - L)
           - state.phi1[..., None] - state.Phi2.mT + state.Phi2
           - link_multiplier(state, problem.config.lambda2))
    B = (problem.z_weight + 3.0 * mu) * eye + mu
    return B, rhs


def random_state(rng, shape, mu):
    """Random iterates and multipliers of the given (stack) shape, at penalty mu,
    shaped as the loop leaves them: Zhat is sym of a random matrix and Phi2
    antisymmetric, and L = I - Zhat is implied. Zhat's entries may be negative,
    so that the step clamps at every penalty."""
    K = rng.standard_normal(shape)
    return SolverState(
        Z=rng.random(shape), Zhat=sym(rng.standard_normal(shape)),
        phi1=rng.standard_normal(shape[:-1]),
        Phi2=0.5 * (K - K.mT), mu=mu, k=0)


def assert_close_relative(got, want, rel):
    """Each matrix of got lies within rel of want's, relative to want's largest entry."""
    err = np.abs(got - want).reshape(want.shape[:-2] + (-1,)).max(axis=-1)
    scale = np.abs(want).reshape(want.shape[:-2] + (-1,)).max(axis=-1)
    assert np.all(err <= rel * scale)


def positive_step_state(rng, problem, mu):
    """A random loop-shaped state, and problem with the weighted_sum whose Z
    step's linear solve is a random positive Z: weighted_sum, which enters RHS
    alone, is set to give RHS = Z B, so that no entry clamps."""
    shape = problem.weighted_sum.shape
    state = random_state(rng, shape, mu)
    B, rhs = z_step_system(state, replace(problem, weighted_sum=np.zeros(shape)))
    return state, replace(problem, weighted_sum=(0.1 + rng.random(shape)) @ B - rhs)


def assert_kkt(Z, gradient, tol):
    """Z >= 0 with the gradient zero on Z's support and non-negative off it, within tol."""
    assert Z.min() >= 0.0
    assert np.abs(gradient[Z > 0]).max(initial=0.0) <= tol
    assert gradient[Z == 0].min(initial=0.0) >= -tol


def assert_minimizes_over_nonnegative(Z, state, problem):
    """Z is the Z step's minimizer over Z >= 0: in units of mu, it meets the KKT
    conditions of the gradient Z B - RHS to 1e-12 of RHS, and equals the
    projected-gradient oracle's to 1e-12 relative."""
    B, rhs = z_step_system(state, problem)
    B, R = B / state.mu, rhs / state.mu
    assert_kkt(Z, Z @ B - R, 1e-12 * np.abs(R).max())
    assert_close_relative(Z, nonnegative_qp_oracle(B, R), 1e-12)


class TestUpdateZ:
    def test_output_never_negative(self):
        # a large row-sum multiplier pushes the linear solve far below zero
        A = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.2], [0.5, 0.2, 0.0]])
        cfg = SolverConfig(alphas=(1.0,))
        problem = prepare_problem([[A]], [cfg])
        state = initial_state(problem)
        state = replace(state, phi1=100.0 * np.ones((1, 3)))
        B, rhs = z_step_system(state, problem)
        assert np.linalg.solve(B, rhs.mT).mT.min() < 0
        assert update_z(state, problem).min() >= 0.0

    def test_single_robot_forced_to_one(self):
        # repeated updates with a huge penalty drive the 1x1 iterate to the
        # only row-stochastic value
        A = [np.array([[1.0]])]
        cfg = SolverConfig(alphas=(1.0,), lambda1=0.0, lambda2=0.0)
        z = 0.2
        for _ in range(300):
            state = make_state(np.array([[z]]), mu=1e6)
            z = float(update_z(state, prepare_problem([A], [cfg]))[0, 0, 0])
        assert abs(z - 1.0) < 1e-12

    # mu from 0.1 up to about 1e6: a solve run to a tolerance of 1e-6 steps
    # at mu = 1.9**k up to k of about 21, near 7e5
    @pytest.mark.parametrize("mu", [0.1, 0.1 * 1.1**50, 0.1 * 1.1**100, 0.1 * 1.1**170])
    @pytest.mark.parametrize("n", [1, 2, 5, 20, 100])
    def test_closed_form_matches_a_linear_solve(self, n, mu):
        # where no entry clamps, the step is the solve of its gradient equation
        rng = np.random.default_rng(n)
        problem = prepare_problem([[rng.random((n, n)), rng.random((n, n))]],
                                  [SolverConfig(alphas=(0.4, 0.6))])
        state, problem = positive_step_state(rng, problem, mu)
        B, rhs = z_step_system(state, problem)
        want = np.linalg.solve(B, rhs.mT).mT
        assert want.min() > 0
        assert_close_relative(update_z(state, problem), want, 1e-12)
        # a stack whose slices differ in z_weight, each solved against its own B
        stack = Problem(config=problem.config, weighted_sum=np.zeros((3, n, n)),
                        z_weight=np.array([0.2, 2.2, 7.0])[:, None, None])
        state, stack = positive_step_state(rng, stack, mu)
        B, rhs = z_step_system(state, stack)
        assert_close_relative(update_z(state, stack), np.linalg.solve(B, rhs.mT).mT, 1e-12)

    # the same range of mu as above
    @pytest.mark.parametrize("mu", [0.1, 0.1 * 1.1**50, 0.1 * 1.1**100, 0.1 * 1.1**170])
    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_step_matches_the_qp_oracle(self, n, mu):
        # random multipliers clamp about half the entries; the step is the
        # minimizer over Z >= 0, which projected gradient descent reaches
        rng = np.random.default_rng(100 + n)
        problem = prepare_problem([[rng.random((n, n)), rng.random((n, n))]],
                                  [SolverConfig(alphas=(0.4, 0.6))])
        state = random_state(rng, (4, n, n), mu)
        problem = replace(problem, weighted_sum=np.repeat(problem.weighted_sum, 4, axis=0),
                          z_weight=np.repeat(problem.z_weight, 4, axis=0))
        Z = update_z(state, problem)
        assert (Z == 0).any() and (Z > 0).any()
        assert_minimizes_over_nonnegative(Z, state, problem)

    def test_huge_penalty_stays_finite(self, monkeypatch):
        # at mu = RHO**1102, near 1.5e307, B and RHS are finite, but the
        # partial sums of RHS and the factor mu / (c + n mu) overflow; a loop
        # that never reaches its tolerance runs every pass up to the cap's mu
        graphs = fleet_graphs(20, 0)[1:2]
        config = SolverConfig(alphas=(1.0,))
        problem = prepare_problem([graphs], [config])
        state = replace(initial_state(problem), mu=RHO**1102)
        assert_minimizes_over_nonnegative(update_z(state, problem), state, problem)
        monkeypatch.setattr(solver, "TOLERANCE", 1e-300)
        result = solve(graphs, config, trace=False)
        assert result.iterations == MAX_ITERATIONS and np.isfinite(result.Z).all()

    def test_tiny_penalty_stays_finite(self):
        # a penalty tiny against what it divides: at mu = 1, a row-sum
        # multiplier of -8e307 leaves each entry of R = RHS / mu finite, but
        # R's row sums overflow unless they are taken of R scaled down
        for n in (20, 100):
            problem = prepare_problem([fleet_graphs(n, 0)], [SolverConfig()])
            state = replace(initial_state(problem), phi1=np.full((1, n), -8e307))
            assert state.mu == 1.0
            assert_minimizes_over_nonnegative(update_z(state, problem), state, problem)

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_unclamped_point_is_stationary(self, seed):
        # on the entries the step leaves positive, smooth_part is stationary;
        # raising a clamped entry off zero does not lower it (the KKT
        # conditions over Z >= 0, by central differences)
        rng = np.random.default_rng(seed)
        n = 5
        adjs = [rng.random((n, n)) for _ in range(2)]
        cfg = SolverConfig(alphas=(0.4, 0.6))
        state = random_state(rng, (1, n, n), 0.1 * 1.1**3)
        Zs = update_z(state, prepare_problem([adjs], [cfg]))[0]
        assert (Zs == 0).any() and (Zs > 0).any()
        gradient = numeric_gradient(lambda X: smooth_part(X, state, adjs, cfg), Zs)
        assert_kkt(Zs, gradient, 1e-5 * max(1.0, abs(smooth_part(Zs, state, adjs, cfg))))

    def test_start_support_does_not_reach_the_bits(self):
        # the threshold starts from the previous iterate's support; an empty,
        # a full or a random start gives the same Z, on random clamping
        # states and on every state of three fleets' solves, run to 1e-6 for
        # enough states; each state is copied, as solve advances it in place
        rng = np.random.default_rng(5)
        problem = prepare_problem([[rng.random((20, 20)), rng.random((20, 20))]] * 4,
                                  [SolverConfig(alphas=(0.4, 0.6))] * 4)
        states = [random_state(rng, (4, 20, 20), mu) for mu in (0.1, 0.1 * 1.1**50)]
        cases = [(state, problem) for state in states]

        def capture(state, problem):
            cases.append((copy.deepcopy(state), problem))
            return update_z(state, problem)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "update_z", capture)
            patch.setattr(solver, "TOLERANCE", 1e-6)
            for seed in range(3):
                solve(fleet_graphs(20, seed), DEFAULT_WEIGHTS, trace=False)
        assert len(cases) > 50
        for state, problem in cases:
            want = update_z(state, problem)
            assert (want == 0).any() and (want > 0).any()
            for start in (np.zeros_like(state.Z), np.ones_like(state.Z),
                          rng.random(state.Z.shape) - 0.5):
                assert update_z(replace(state, Z=start), problem).tobytes() == want.tobytes()

    def test_runs_no_sort(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the Z step sorted")

        rng = np.random.default_rng(6)
        problem = prepare_problem([[rng.random((5, 5))]], [SolverConfig(alphas=(1.0,))])
        state = random_state(rng, (1, 5, 5), 0.3)
        with monkeypatch.context() as patch:
            patch.setattr(np, "sort", refuse)
            Z = update_z(state, problem)
        assert (Z == 0).any() and (Z > 0).any()
        assert_minimizes_over_nonnegative(Z, state, problem)


class TestUpdateZhat:
    def test_symmetric_z_is_fixed(self):
        Z = np.array([[0.5, 0.5], [0.5, 0.5]])
        state = make_state(Z, Zhat=np.zeros((2, 2)), mu=0.3)
        assert np.abs(update_zhat(state) - Z).max() < 1e-14

    def test_general_z_symmetrizes(self):
        rng = np.random.default_rng(1)
        Z = rng.random((4, 4))
        state = make_state(Z, Zhat=np.zeros((4, 4)), mu=0.7)
        got = update_zhat(state)
        want = 0.5 * (Z + Z.T)
        assert np.abs(got - want).max() < 1e-14
        assert np.abs(got - got.mT).max() < 1e-14

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_step_is_stationary(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        adjs = [rng.random((n, n)) for _ in range(2)]
        cfg = SolverConfig(alphas=(0.4, 0.6))
        state = random_state(rng, (1, n, n), 0.1 * 1.1**3)
        Zhat = update_zhat(state)

        def in_zhat(X):  # the L step comes after, so L stays at the state's I - Zhat
            return smooth_part(state.Z[0], replace(state, Zhat=X), adjs, cfg,
                               L=np.eye(n) - state.Zhat)

        gradient = numeric_gradient(in_zhat, Zhat[0])
        assert np.abs(gradient).max() / max(1.0, abs(in_zhat(Zhat[0]))) <= 1e-5


class TestUpdateLaplacian:
    def test_zero_shrinkage_hits_target_exactly(self):
        # at lambda2 = 0 the step is the target's symmetric part, I - Zhat byte
        # for byte
        rng = np.random.default_rng(2)
        Z = rng.random((4, 4))
        L, target = laplacian_case(Z, rng.standard_normal((4, 4)), 0.0, 0.5)
        assert L.tobytes() == (np.eye(4) - sym(Z)).tobytes()
        assert np.abs(L - sym(target)).max() <= 1e-12 * np.abs(target).max()

    def test_is_identity_minus_the_copy_bit_for_bit(self):
        # on any state, zeros of Zhat included, which I - Zhat turns into +0.0;
        # lambda2 does not enter the step
        rng = np.random.default_rng(12)
        state = random_state(rng, (3, 5, 5), 0.4)
        state.Zhat[:, 0, 1] = state.Zhat[:, 1, 0] = 0.0
        L = update_laplacian(state)
        assert L.tobytes() == (np.eye(5) - state.Zhat).tobytes()

    def test_identity_z_gives_zero(self):
        # Z = I is feasible, and L = I - Z = 0; the L link's multiplier is then
        # -lambda2 I, the value stationarity asks at an optimum
        state = make_state(np.eye(4), mu=0.5)
        assert np.all(update_laplacian(state)[0] == 0.0)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_step_is_stationary(self, seed):
        # lambda2 I + mu (L - sym T) = 0, the gradient of the step's objective
        # lambda2 tr L + (mu/2) ||L - T||^2 along symmetric L
        rng = np.random.default_rng(seed)
        mu = 0.1 * 1.1 ** rng.integers(0, 60)
        lambda2 = rng.uniform(0.01, 2.0)
        L, target = laplacian_case(rng.random((5, 5)), rng.standard_normal((5, 5)), lambda2, mu)
        gradient = lambda2 * np.eye(5) + mu * (L - sym(target))
        assert np.abs(gradient).max() <= 1e-12 * max(1.0, mu * np.abs(target).max())

    def test_matches_prox_oracle(self):
        # near the feasible set, sym T = I - Zhat + tau I has no eigenvalue
        # below tau, and the step is the nuclear-norm prox
        rng = np.random.default_rng(11)
        mu, lambda2 = 0.4, 0.1
        L, target = laplacian_case(near_feasible(rng, 4), 0.01 * rng.standard_normal((4, 4)),
                                   lambda2, mu)
        assert np.linalg.eigvalsh(sym(target)).min() >= lambda2 / mu
        want = singular_value_thresholding(sym(target), lambda2 / mu)
        assert np.abs(L - want).max() <= 1e-12

    @pytest.mark.parametrize("setting", INDUCTION_SETTINGS)
    def test_reference_prox_is_identity_minus_the_copy(self, monkeypatch, setting):
        # the reference loop keeps Phi3 and the full prox of lambda2 tr L over
        # symmetric L, sym(I - Z - Phi3/mu) - (lambda2/mu) I; on every state
        # it steps, that prox is I - Zhat to rounding of its target
        prox = _oracles._update_laplacian
        errors = []

        def check(state, config):
            L = prox(state, config)
            errors.append(laplacian_error(state, L))
            return L

        monkeypatch.setattr(_oracles, "_update_laplacian", check)
        result = reference_solve(fleet_graphs(20, 0), induction_config(setting))
        assert len(errors) == result.iterations and max(errors) <= 1e-15

    def test_runs_no_eigensolve_and_no_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the L step ran a LAPACK decomposition")

        for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd", "svdvals", "solve", "lstsq"):
            monkeypatch.setattr(np.linalg, name, refuse)
        state = make_state(np.random.default_rng(4).random((5, 5)), mu=0.4)
        L = update_laplacian(state)
        assert L.shape == (1, 5, 5)


def laplacian_error(state, L):
    """How far a reference state's L lies from I - Zhat, relative to the
    largest entry of the L step's target I - Z - Phi3 / mu, which it rounds."""
    eye = np.eye(len(L))
    target = eye - state.Z - state.Phi3 / state.mu
    return np.abs(L - (eye - state.Zhat)).max() / np.abs(target).max()


class TestUpdateMultipliers:
    def test_feasible_state_leaves_multipliers_unchanged(self):
        Z = np.array([[0.5, 0.5], [0.5, 0.5]])
        state = make_state(Z, mu=MU0, k=0)
        _, gaps = constraint_residuals(state)
        assert len(gaps) == 2
        update_multipliers(state, gaps)
        out = state
        assert np.all(out.phi1 == 0.0)
        assert np.all(out.Phi2 == 0.0)
        assert out.mu == MU0 * RHO
        assert out.k == 1

    def test_penalty_schedule_is_geometric(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        problem = prepare_problem([[A]], [SolverConfig()])
        state = initial_state(problem)
        assert state.mu == 1.0
        update_multipliers(state, constraint_residuals(state)[1])
        update_multipliers(state, constraint_residuals(state)[1])
        assert state.mu == 1.9**2
        assert state.mu == pytest.approx(3.61, rel=1e-12)

    def test_row_sum_violation_feeds_phi1(self):
        Z = np.array([[0.2, 0.1], [0.0, 0.3]])
        state = make_state(Z, mu=1.0, k=0)
        _, gaps = constraint_residuals(state)
        update_multipliers(state, gaps)
        out = state
        v = Z @ np.ones(2) - np.ones(2)
        assert np.abs(out.phi1 - v).max() < 1e-15
        assert out.mu == 1.9


class TestConstraintResiduals:
    def test_feasible_state_has_zero_residuals(self):
        Z = np.array([[0.5, 0.5], [0.5, 0.5]])
        res, gaps = constraint_residuals(make_state(Z))
        assert len(gaps) == 2
        assert res.r1 == res.r2 == 0.0
        assert res.max_residual == 0.0

    def test_zero_matrix_breaks_row_sums(self):
        res, _ = constraint_residuals(make_state(np.zeros((2, 2))))
        assert res.r1 == 1.0

    def test_transpose_copy_mismatch(self):
        # the gaps are Z 1 - 1 and (Z^T - Z) / 2, which is Z^T - Zhat for the
        # loop's Zhat = sym Z
        Z = np.array([[0.0, 1.0], [0.0, 1.0]])
        res, gaps = constraint_residuals(make_state(Z))
        assert [g.shape for g in gaps] == [(1, 2), (1, 2, 2)]
        assert np.array_equal(gaps[1], (Z.T - sym(Z))[None])
        assert np.array_equal(gaps[1], -gaps[1].mT)
        assert res.r1 == 0.0 and res.r2 == res.max_residual == 0.5


class TestSolve:
    def test_feasible_graph_is_recovered(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        cfg = SolverConfig(alphas=(1.0,), lambda1=0.0, lambda2=0.0)
        result = solve([A], cfg)
        assert result.converged
        assert np.abs(result.Z - A).max() < 1e-4
        got = objective(result.Z, np.eye(2) - result.Z, [A], cfg)
        best = objective(A, np.eye(2) - A, [A], cfg)
        assert got <= best + 1e-6

    def test_two_pair_system_recovers_blocks(self):
        graphs = two_pair_system()
        cfg = SolverConfig(alphas=(1 / 3, 1 / 3, 1 / 3))
        result = solve(graphs, cfg)
        assert result.converged
        off = result.Z[np.ix_([0, 1], [2, 3])]
        assert off.max() < 0.05

    def test_two_pair_blocks_beat_flat_alternatives(self):
        # sweep block-constant row-stochastic matrices: within-pair value b,
        # cross-pair value s, diagonal 1 - b - 2s; the grid minimizer should
        # concentrate mass inside the pairs, and the solver's iterate should
        # score at least as well as every grid point
        graphs = two_pair_system()
        cfg = SolverConfig(alphas=(1 / 3, 1 / 3, 1 / 3))
        best = None
        for b in np.linspace(0.0, 1.0, 21):
            for s in np.linspace(0.0, 0.5, 21):
                a = 1.0 - b - 2.0 * s
                if a < -1e-12:
                    continue
                Z = np.full((4, 4), s)
                Z[0, 1] = Z[1, 0] = b
                Z[2, 3] = Z[3, 2] = b
                Z[np.diag_indices(4)] = a
                val = objective(Z, np.eye(4) - Z, graphs, cfg)
                if best is None or val < best[0]:
                    best = (val, b, s)
        _, b_star, s_star = best
        assert b_star > 2.0 * s_star  # the block pattern wins the grid
        result = solve(graphs, cfg)
        got = objective(result.Z, np.eye(4) - result.Z, graphs, cfg)
        assert got <= best[0] + 1e-6

    def test_penalty_trace_is_strictly_increasing(self, monkeypatch):
        # the mu each pass of a real solve runs at, read before its update
        mus = []

        def record(state, gaps):
            mus.append(state.mu)
            update_multipliers(state, gaps)

        monkeypatch.setattr(solver, "update_multipliers", record)
        result = solve(two_pair_system(), SolverConfig(alphas=(1 / 3, 1 / 3, 1 / 3)))
        assert result.iterations > 1
        assert mus == [1.9**k for k in range(result.iterations)]
        assert all(a < b for a, b in zip(mus, mus[1:]))

    def test_converged_result_meets_tolerance(self):
        graphs = two_pair_system()
        cfg = SolverConfig(alphas=(1 / 3, 1 / 3, 1 / 3))
        result = solve(graphs, cfg)
        assert result.converged
        assert result.residual_trace[-1].residuals.max_residual <= TOLERANCE
        assert np.abs(result.Z - result.Z.T).max() <= 2 * TOLERANCE
        assert result.Z.min() >= 0.0
        assert np.abs(result.Z.sum(axis=1) - 1.0).max() < 1e-12

    def test_copy_is_sym_z_and_its_multiplier_antisymmetric(self, monkeypatch):
        # the loop invariant that lets one multiplier serve both copy penalties:
        # after every iteration Zhat is sym Z and Phi2 antisymmetric, so the
        # two copy gaps agree
        skew = []

        def check(state, gaps):
            update_multipliers(state, gaps)
            assert np.array_equal(state.Zhat, 0.5 * (state.Z + state.Z.mT))
            skew.append(np.abs(state.Phi2 + state.Phi2.mT).max() / np.abs(state.Phi2).max())

        monkeypatch.setattr(solver, "update_multipliers", check)
        result = solve(fleet_graphs(20, 0), DEFAULT_WEIGHTS)
        assert len(skew) == len(result.residual_trace) == result.iterations
        assert max(skew) <= 1e-12

    @pytest.mark.parametrize("setting", INDUCTION_SETTINGS + ["asymmetric"])
    def test_laplacian_is_i_minus_zhat_and_r3_r4_repeat_r2(self, monkeypatch, setting):
        # after every iteration Zhat is exactly symmetric and Phi2 exactly
        # antisymmetric, so the traced L is I - Zhat bit for bit, the Z step's
        # reduced right-hand side is exact, and the gaps of L = I - Z and
        # Zhat = Z, which the trace leaves out, have its r2 for their norm to
        # rounding (see update_laplacian); from the start sym Z0 this holds for
        # an asymmetric graph too, whose Z is the optimum of its sym M
        passes, laplacians, repeats = [], [], []

        def laplacian(state):  # formed once a pass, for the trace's objective
            laplacians.append(update_laplacian(state))
            link = laplacians[-1] - np.eye(state.Z.shape[-1]) + state.Z
            repeats.append([np.abs(link).max(), np.abs(state.Zhat - state.Z).max()])
            return laplacians[-1]

        def check(state, gaps):
            update_multipliers(state, gaps)
            assert np.array_equal(state.Zhat, state.Zhat.mT)
            assert np.array_equal(state.Phi2, -state.Phi2.mT)
            passes.append(state.k)

        monkeypatch.setattr(solver, "update_laplacian", laplacian)
        monkeypatch.setattr(solver, "update_multipliers", check)
        if setting == "asymmetric":
            graphs, config = [np.random.default_rng(3).random((20, 20))], SolverConfig()
        else:
            graphs, config = fleet_graphs(20, 0), induction_config(setting)
        result = solve(graphs, config)
        assert result.converged
        assert len(passes) == len(laplacians) == len(result.residual_trace) == result.iterations
        r2 = [[record.residuals.r2] * 2 for record in result.residual_trace]
        assert np.abs(np.subtract(repeats, r2)).max() <= 1e-15
        if setting == "asymmetric":
            assert not np.array_equal(graphs[0], graphs[0].T)
            assert np.abs(result.Z - projection_oracle(graphs, config)).max() <= 1e-12
            assert_follows_reference(result, reference_solve(graphs, config))

    def test_trace_length_matches_iterations(self):
        graphs = two_pair_system()
        result = solve(graphs, SolverConfig(alphas=(1 / 3, 1 / 3, 1 / 3)))
        assert len(result.residual_trace) == result.iterations

    def test_non_convergence_is_flagged_not_raised(self, monkeypatch):
        graphs = two_pair_system()
        shape_loop(monkeypatch, tolerance=1e-6, max_iterations=3)
        result = solve(graphs, SolverConfig(alphas=(1 / 3, 1 / 3, 1 / 3)))
        assert not result.converged
        assert result.iterations == 3

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_permutation_equivariance(self, n):
        rng = np.random.default_rng(3 + n)
        A1 = rng.random((n, n))
        A1 = 0.5 * (A1 + A1.T)
        np.fill_diagonal(A1, 0.0)
        A1 /= A1.max()
        A2 = rng.random((n, n))
        A2 = 0.5 * (A2 + A2.T)
        np.fill_diagonal(A2, 0.0)
        A2 /= A2.max()
        cfg = SolverConfig(alphas=(0.5, 0.5))
        base = solve([A1, A2], cfg)
        p = rng.permutation(n)
        P = np.eye(n)[p]
        permuted = solve([P @ A1 @ P.T, P @ A2 @ P.T], cfg)
        assert np.abs(P @ base.Z @ P.T - permuted.Z).max() < 1e-8

    def test_empty_graph_list_rejected(self):
        with pytest.raises(ValueError):
            solve([], SolverConfig())

    def test_one_by_one_rejected(self):
        with pytest.raises(ValueError):
            solve([np.array([[1.0]])], SolverConfig())

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            solve([np.zeros((2, 2)), np.zeros((3, 3))], SolverConfig())

    @pytest.mark.parametrize("graph", [np.float64(1.0), np.zeros(3), np.zeros((2, 3)),
                                       np.zeros((2, 2, 2))])
    def test_graph_that_is_not_a_square_matrix_rejected(self, graph):
        with pytest.raises(ValueError, match="^all graphs must share the same square shape$"):
            solve([graph])

    # unchecked, such a graph ran to the iteration cap and gave an all-NaN Z
    # at lambda2 = 0, and an SVD that did not converge at the default lambda2
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("lambda2", [0.0, 0.1])
    def test_non_finite_graph_rejected_before_any_iteration(self, monkeypatch, bad, lambda2):
        def refuse(*args, **kwargs):
            raise AssertionError("an iteration ran")

        monkeypatch.setattr(solver, "update_z", refuse)
        good, nan = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, bad], [bad, 0.0]])
        config = SolverConfig(lambda2=lambda2)
        with pytest.raises(ValueError, match="^graph 0 has a non-finite entry$"):
            solve([nan], config)
        with pytest.raises(ValueError, match="^graph 1 has a non-finite entry$"):
            solve([good, nan], replace(config, alphas=(0.5, 0.5)))
        # stacked, each problem's graph list is checked
        with pytest.raises(ValueError, match="^graph 1 has a non-finite entry$"):
            solve([[good, good], [good, nan]], [replace(config, alphas=(0.5, 0.5))] * 2)

    def test_wrong_alpha_count_rejected(self):
        with pytest.raises(ValueError):
            solve([np.zeros((2, 2))], SolverConfig(alphas=(0.5, 0.5)))


class TestFinish:
    """solve's result is the exact optimum: the projection of sym M onto the
    symmetric doubly stochastic matrices, by Newton's method on its dual,
    started from the last copy Zhat."""

    @pytest.mark.parametrize("max_iterations", [1, 3, 5, 1000])
    def test_result_is_symmetric_with_unit_row_sums(self, monkeypatch, max_iterations):
        # from the first iterate on, the finish returns the optimum; only a
        # run that reached the tolerance is reported converged
        monkeypatch.setattr(solver, "MAX_ITERATIONS", max_iterations)
        for seed in range(3):
            graphs = fleet_graphs(20, seed)
            result = solve(graphs, DEFAULT_WEIGHTS, trace=False)
            assert result.converged == (max_iterations == 1000)
            assert np.array_equal(result.Z, result.Z.T)
            assert np.abs(result.Z.sum(axis=1) - 1.0).max() <= 20 * np.finfo(float).eps
            assert result.Z.min() >= 0.0
            assert np.abs(result.Z - projection_oracle(graphs, DEFAULT_WEIGHTS)).max() <= 1e-12

    def test_bipartite_block_is_balanced(self):
        # capability-only Baseline of a six-robot, two-sensor fleet pairs its
        # two rgb robots in a [[0, 1], [1, 0]] block, on whose support the
        # Newton matrix diag(P 1) + P is singular, as the block's duals are
        # free but for their sum; the last check keeps the optimum's
        # support singular should the fleet ever change
        config = SimConfig(n_robots=6, n_capabilities=2, seed=0)
        system = generate_system(config, trial_rngs(0)[0])
        graphs = build_relation_graphs(system, config.comm_radius)
        solver_config = baseline_solver_config(SolverConfig(alphas=(0.0, 0.0, 1.0)))
        result = solve(graphs, solver_config)
        assert result.converged
        assert np.array_equal(result.Z, result.Z.T)
        assert np.abs(result.Z.sum(axis=1) - 1.0).max() <= 1e-14
        assert np.abs(result.Z[np.ix_([2, 4], [2, 4])] - [[0.0, 1.0], [1.0, 0.0]]).max() <= 1e-12
        best = projection_oracle(graphs, solver_config)
        assert np.abs(result.Z - best).max() <= 1e-15
        P = (best > 0).astype(float)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            np.linalg.solve(np.diag(P.sum(axis=1)) + P, np.ones(6))

    def test_uncertified_slice_is_reported_unconverged(self, monkeypatch):
        # with no Newton step, the start from the last copy, handed over at a
        # 1e-2 residual, leaves the row sums short: the loop converged, but the
        # finish cannot certify the KKT conditions, so the run is unconverged
        graph_lists = [fleet_graphs(20, seed) for seed in range(2)]
        want = solve(graph_lists, [DEFAULT_WEIGHTS] * 2, trace=False)
        monkeypatch.setattr(solver, "FINISH_STEPS", 0)
        got = solve(graph_lists, [DEFAULT_WEIGHTS] * 2, trace=False)
        assert want.converged and not any(result.converged for result in got.results)
        for mine, ref in zip(got.results, want.results):
            assert mine.iterations == ref.iterations
            assert np.array_equal(mine.Z, mine.Z.T) and mine.Z.min() >= 0.0
            assert np.abs(mine.Z.sum(axis=1) - 1.0).max() > 1e-14

    def test_singular_slice_leaves_its_neighbour_on_lu(self, monkeypatch):
        # started from the bipartite Baseline's exact optimum, whose support
        # makes the Newton matrix exactly singular, the finish falls back to
        # least squares for that slice alone; stacked with a regular Baseline,
        # both give their solo bytes. (The loop's last copy holds rounding-level
        # entries, about 4e-17, off the block, which keep its start regular.)
        config = SimConfig(n_robots=6, n_capabilities=2, seed=0)
        system = generate_system(config, trial_rngs(0)[0])
        graphs = build_relation_graphs(system, config.comm_radius)
        configs = [baseline_solver_config(SolverConfig(alphas=alphas))
                   for alphas in ((0.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))]
        finals = []

        def capture(M, Zhat):
            finals.append(M.copy())
            return project(M, Zhat)

        project = solver._project
        monkeypatch.setattr(solver, "_project", capture)
        solve([graphs, graphs], configs, trace=False)
        (M,) = finals
        start = np.stack([projection_oracle(graphs, config) for config in configs])
        lstsq_calls = []
        lstsq = np.linalg.lstsq

        def counted(*args, **kwargs):
            lstsq_calls.append(tuple(np.asarray(a).tobytes() for a in args))
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        alone = [project(M[:1], start[:1])]
        singular_calls = list(lstsq_calls)
        alone.append(project(M[1:], start[1:]))
        assert singular_calls and lstsq_calls == singular_calls  # none for the regular one
        del lstsq_calls[:]
        Z, certified = project(M, start)
        assert lstsq_calls == singular_calls
        assert certified.all()
        for i, (Z_alone, certified_alone) in enumerate(alone):
            assert certified_alone.all()
            assert Z[i].tobytes() == Z_alone[0].tobytes()

    def test_regular_stack_takes_one_lu_solve_per_step(self, monkeypatch):
        # the finish of a stack of regular problems is one batched LU solve
        # for the start and one per Newton step, and no least squares
        calls = []
        linalg_solve = np.linalg.solve

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return linalg_solve(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the finish took a least-squares step")

        monkeypatch.setattr(np.linalg, "solve", counted)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        stack = solve([fleet_graphs(20, seed) for seed in range(5)], [DEFAULT_WEIGHTS] * 5,
                      trace=False)
        assert stack.converged
        assert 2 <= len(calls) <= FINISH_STEPS + 1
        assert calls[0] == calls[1] == (5, 20, 20)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rounding_of_the_last_copy_still_balances(self, seed):
        # the last copy only starts the finish: every last Zhat of a sweep
        # stack, as it is and moved by 4 ulp up or down on each positive entry
        # (symmetrically, seeded), finishes at the same optimum with row sums
        # within n eps
        finals = []

        def capture(M, Zhat):
            finals.append((M.copy(), Zhat.copy()))
            return project(M, Zhat)

        project = solver._project
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_project", capture)
            stack = solve([fleet_graphs(20, seed)] * len(SWEEP_WEIGHTS), SWEEP_WEIGHTS,
                          trace=False)
        ((M, S),) = finals
        assert S.shape == (len(SWEEP_WEIGHTS), 20, 20)
        sign = np.random.default_rng(seed).choice([-4.0, 4.0], size=S.shape)
        sign = np.triu(sign) + np.triu(sign, 1).mT
        moved = np.where(S > 0, S + sign * np.spacing(S), 0.0)
        assert np.array_equal(moved, moved.mT) and not np.array_equal(moved, S)
        Z, certified = project(M, moved)
        assert certified.all()
        assert np.array_equal(Z, Z.mT)
        assert np.abs(Z.sum(axis=-1) - 1.0).max() <= 20 * np.finfo(float).eps
        assert np.abs(Z - np.stack([r.Z for r in stack.results])).max() <= 1e-14


def fleet_graphs(n_robots, seed, walls=()):
    """Relation graphs of the seeded n-robot, three-capability fleet the simulator generates."""
    config = SimConfig(n_robots=n_robots, n_capabilities=3, seed=seed,
                       environment=Environment(1.0, 1.0, tuple(walls)))
    system = generate_system(config, trial_rngs(seed)[0])
    return build_relation_graphs(system, config.comm_radius)


DEFAULT_WEIGHTS = SolverConfig(alphas=(1 / 3, 1 / 3, 1 / 3))


def shape_loop(monkeypatch, tolerance, max_iterations):
    """Run solve's loop to tolerance or for at most max_iterations passes, for
    this test; returns the same settings as reference_solve's keywords."""
    monkeypatch.setattr(solver, "TOLERANCE", tolerance)
    monkeypatch.setattr(solver, "MAX_ITERATIONS", max_iterations)
    return dict(tolerance=tolerance, max_iterations=max_iterations)
SWEEP_WEIGHTS = [SolverConfig(alphas=alphas) for alphas in sweep_grid(ALPHA_STEP)]
WALL = Wall(Position(0.5, 0.0), Position(0.5, 1.0))


def assert_follows_reference(got, want, trace=True):
    """got follows the reference loop's run want: the same count, stop and trace
    length, Z and r1 within 1e-12, and r2 within 1e-12 of each of the
    reference's r2, r3 and r4."""
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert len(got.residual_trace) == (want.iterations if trace else 0)
    assert np.abs(got.Z - want.Z).max() <= 1e-12
    for mine, ref in zip(got.residual_trace, want.residual_trace):
        assert abs(mine.residuals.r1 - ref.residuals.r1) <= 1e-12
        # the reference computes the gaps of L = I - Z and Zhat = Z from their own
        # constraints; solve leaves them out as repeats of its r2
        for gap in (ref.residuals.r2, ref.residuals.r3, ref.residuals.r4):
            assert abs(mine.residuals.r2 - gap) <= 1e-12
        assert abs(mine.objective - ref.objective) <= 1e-12 * abs(ref.objective)


class TestMatchesReferenceLoop:
    """solve() follows the reference loop, whose Z step solves on a shrinking
    support where solve's thresholds rows, and whose finish projects from
    scratch where solve's starts from the last copy; a stack's problems are
    byte for byte their own solves."""

    def assert_same_run(self, graphs, config, **loop):
        got = solve(graphs, config)
        assert_follows_reference(got, reference_solve(graphs, config, **loop))
        return got

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_fleets_full_and_baseline(self, seed):
        graphs = fleet_graphs(20, seed)
        assert self.assert_same_run(graphs, DEFAULT_WEIGHTS).converged
        assert self.assert_same_run(graphs, baseline_solver_config(DEFAULT_WEIGHTS)).converged

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_capability_heavy_weights(self, seed):
        self.assert_same_run(fleet_graphs(20, seed), SolverConfig(alphas=(0.1, 0.2, 0.7)))

    def test_fifty_robots_behind_a_wall(self):
        self.assert_same_run(fleet_graphs(50, 3, walls=(WALL,)), DEFAULT_WEIGHTS)

    def test_run_stopped_by_the_iteration_cap(self, monkeypatch):
        loop = shape_loop(monkeypatch, tolerance=1e-6, max_iterations=20)
        result = self.assert_same_run(fleet_graphs(20, 4), DEFAULT_WEIGHTS, **loop)
        assert not result.converged and result.iterations == 20

    def assert_same_stack(self, graph_lists, configs, trace, **loop):
        """Each problem of the stack, a graph list under its config, gives the Z
        bytes, count and trace of its own solve, and follows the reference loop
        run under loop's settings."""
        stack = solve(graph_lists, configs, trace=trace)
        assert len(stack.results) == len(configs)
        for graphs, config, got in zip(graph_lists, configs, stack.results):
            alone = solve(graphs, config, trace=trace)
            assert got.Z.tobytes() == alone.Z.tobytes()
            assert (got.iterations, got.converged) == (alone.iterations, alone.converged)
            assert got.residual_trace == alone.residual_trace
            assert_follows_reference(got, reference_solve(graphs, config, **loop), trace)
        # the stack reports its loop passes and whether every problem converged
        assert stack.iterations == max(result.iterations for result in stack.results)
        assert stack.converged == all(result.converged for result in stack.results)
        assert type(stack.iterations) is int and type(stack.converged) is bool
        return stack

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stack_of_the_sweep_weightings(self, seed):
        stack = self.assert_same_stack([fleet_graphs(20, seed)] * len(SWEEP_WEIGHTS),
                                       SWEEP_WEIGHTS, trace=False)
        assert stack.converged
        assert len({result.iterations for result in stack.results}) > 1  # they leave apart

    def test_stack_with_one_problem_stopped_by_the_iteration_cap(self, monkeypatch):
        # alone, these converge after 19, 22 and 23 iterations
        loop = shape_loop(monkeypatch, tolerance=1e-6, max_iterations=22)
        configs = [SolverConfig(alphas=alphas)
                   for alphas in ((0.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3), (0.0, 0.5, 0.5))]
        stack = self.assert_same_stack([fleet_graphs(20, 0)] * 3, configs, trace=True, **loop)
        assert [(r.iterations, r.converged) for r in stack.results] == [
            (19, True), (22, True), (22, False)]
        assert (stack.iterations, stack.converged) == (22, False)

    def test_stack_of_one_with_fifty_robots_behind_a_wall(self):
        self.assert_same_stack([fleet_graphs(50, 3, walls=(WALL,))], [DEFAULT_WEIGHTS],
                               trace=True)

    @pytest.mark.parametrize("baseline", [False, True], ids=["full", "baseline"])
    def test_stack_of_five_fleets(self, baseline):
        # a simulate batch stacks its seeds' fleets, Full and Baseline apart
        config = baseline_solver_config(DEFAULT_WEIGHTS) if baseline else DEFAULT_WEIGHTS
        stack = self.assert_same_stack([fleet_graphs(20, seed) for seed in range(5)],
                                       [config] * 5, trace=True)
        assert stack.converged

    def test_stack_of_fleets_with_one_stopped_by_the_iteration_cap(self, monkeypatch):
        # alone, seeds 0-4 converge after 22, 23, 22, 22 and 22 iterations
        loop = shape_loop(monkeypatch, tolerance=1e-6, max_iterations=22)
        stack = self.assert_same_stack([fleet_graphs(20, seed) for seed in range(5)],
                                       [DEFAULT_WEIGHTS] * 5, trace=True, **loop)
        assert [(r.iterations, r.converged) for r in stack.results] == [
            (22, True), (22, False), (22, True), (22, True), (22, True)]

    def test_stack_of_fleets_and_weightings(self):
        graph_lists = [fleet_graphs(20, seed) for seed in (0, 0, 1, 1)]
        configs = [SolverConfig(alphas=alphas) for alphas in ((0.1, 0.2, 0.7), (1.0, 0.0, 0.0))] * 2
        self.assert_same_stack(graph_lists, configs, trace=False)

    @pytest.mark.parametrize("setting", INDUCTION_SETTINGS)
    def test_reference_multipliers_follow_the_induction(self, monkeypatch, setting):
        # the reference carries Phi3 from -lambda2 I and Phi4 from 0; after
        # every pass Phi3 = -Phi2 - lambda2 I and Phi4 = Phi2, each relative to
        # the larger of the multiplier and mu max |Z|, the terms its update
        # sums, and L = I - Zhat (see laplacian_error), each to 1e-15: the
        # induction that lets solve carry Phi2 alone
        step = _oracles._update_multipliers
        errors = []

        def check(state, config):
            new = step(state, config)
            added = state.mu * np.abs(state.Z).max()
            eye = np.eye(len(new.Z))
            errors.append((
                np.abs(new.Phi3 + new.Phi2 + config.lambda2 * eye).max()
                / max(np.abs(new.Phi3).max(), added),
                np.abs(new.Phi4 - new.Phi2).max() / max(np.abs(new.Phi2).max(), added),
                laplacian_error(state, state.L)))
            return new

        monkeypatch.setattr(_oracles, "_update_multipliers", check)
        result = reference_solve(fleet_graphs(20, 0), induction_config(setting))
        assert len(errors) == result.iterations
        assert np.max(errors) <= 1e-15, np.max(errors, axis=0)

    def test_stack_must_share_n(self):
        with pytest.raises(ValueError, match="must share n, got n = 20, 21"):
            solve([fleet_graphs(20, 0), fleet_graphs(21, 0)], [DEFAULT_WEIGHTS] * 2)

    def test_stack_needs_one_graph_list_per_config(self):
        graphs = fleet_graphs(20, 0)
        with pytest.raises(ValueError, match="one graph list per config, got 1 for 2"):
            solve([graphs], [DEFAULT_WEIGHTS] * 2)
        # a single config takes one graph list, not a list of them
        with pytest.raises(TypeError):
            solve([graphs], DEFAULT_WEIGHTS)

    def test_stack_must_be_non_empty_and_differ_only_in_alphas(self):
        graphs = fleet_graphs(20, 0)
        for other in (baseline_solver_config(DEFAULT_WEIGHTS),
                      replace(DEFAULT_WEIGHTS, lambda1=0.2),
                      replace(DEFAULT_WEIGHTS, lambda2=0.2)):
            with pytest.raises(ValueError, match="only in alphas"):
                solve([graphs, graphs], [DEFAULT_WEIGHTS, other])
        with pytest.raises(ValueError, match="at least one config"):
            solve([], [])

    def test_no_trace_skips_the_objective(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the objective was computed")

        graphs = fleet_graphs(20, 0)
        want = solve(graphs, DEFAULT_WEIGHTS)
        monkeypatch.setattr(solver, "objective", refuse)
        got = solve(graphs, DEFAULT_WEIGHTS, trace=False)
        assert got.Z.tobytes() == want.Z.tobytes()
        assert (got.iterations, got.converged, got.residual_trace) == (
            want.iterations, want.converged, ())
