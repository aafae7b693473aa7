import math
from dataclasses import replace

import numpy as np
import pytest

from hetcover.graphs import build_relation_graphs
from hetcover.solver import (
    NumericalSolverError,
    SolverConfig,
    SolverState,
    constraint_residuals,
    initial_state,
    objective,
    prepare_problem,
    solve,
    svt,
    update_laplacian,
    update_multipliers,
    update_z,
    update_z_unclamped,
    update_zhat,
)
from hetcover.simulation import SimConfig, baseline_solver_config, generate_system, trial_rngs
from hetcover.system import Environment, Position, RobotSpec, RobotSystem, Wall

from _oracles import nuclear_prox_oracle, reference_solve


def make_state(Z, Zhat=None, L=None, phi1=None, Phi2=None, Phi3=None, Phi4=None,
               mu=0.1, k=0):
    """A SolverState with consistent shapes, defaulting to the feasible companions."""
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[0]
    return SolverState(
        Z=Z,
        Zhat=Z.T.copy() if Zhat is None else np.asarray(Zhat, dtype=float),
        L=np.eye(n) - Z if L is None else np.asarray(L, dtype=float),
        phi1=np.zeros(n) if phi1 is None else np.asarray(phi1, dtype=float),
        Phi2=np.zeros((n, n)) if Phi2 is None else np.asarray(Phi2, dtype=float),
        Phi3=np.zeros((n, n)) if Phi3 is None else np.asarray(Phi3, dtype=float),
        Phi4=np.zeros((n, n)) if Phi4 is None else np.asarray(Phi4, dtype=float),
        mu=mu,
        k=k,
    )


def problem_for(config, n):
    """The Problem of an n x n zero graph under config, for steps that read only its constants."""
    return prepare_problem([np.zeros((n, n))], config)


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
        assert cfg.mu0 == 0.1 and cfg.rho == 1.1
        assert cfg.tolerance == 1e-6 and cfg.max_iterations == 1000

    def test_alphas_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SolverConfig(alphas=(0.5, 0.6))

    def test_alphas_non_negative(self):
        with pytest.raises(ValueError):
            SolverConfig(alphas=(1.5, -0.5))

    def test_alphas_empty_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(alphas=())

    def test_rho_bounds_are_strict(self):
        with pytest.raises(ValueError):
            SolverConfig(rho=1.0)
        with pytest.raises(ValueError):
            SolverConfig(rho=2.0)
        with pytest.raises(ValueError):
            SolverConfig(rho=0.9)

    def test_mu0_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(mu0=0.0)

    def test_negative_lambdas_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(lambda1=-0.1)
        with pytest.raises(ValueError):
            SolverConfig(lambda2=-0.1)

    def test_tolerance_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(tolerance=0.0)

    def test_max_iterations_positive_integer(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)

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
        # the nuclear norm of I
        n = 5
        A = np.zeros((n, n))
        cfg = SolverConfig(alphas=(1.0,), lambda1=0.0, lambda2=1.0)
        got = objective(np.zeros((n, n)), np.eye(n), [A], cfg)
        assert got == pytest.approx(float(n), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        cfg = SolverConfig(alphas=(1.0,))
        with pytest.raises(ValueError):
            objective(np.zeros((2, 2)), np.zeros((2, 2)), [np.zeros((3, 3))], cfg)


class TestSvt:
    def test_diagonal_matrix_shrinks_exactly(self):
        G = np.diag([3.0, 1.0, 0.2])
        want = np.diag([2.5, 0.5, 0.0])
        assert np.abs(svt(G, 0.5) - want).max() < 1e-10

    def test_zero_matrix_stays_zero(self):
        assert np.all(svt(np.zeros((3, 3)), 0.7) == 0.0)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(0)
        G = rng.standard_normal((4, 4))
        assert np.array_equal(svt(G, 0.0), G)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            svt(np.eye(2), -0.1)

    def test_output_singular_values_never_exceed_input(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            G = rng.standard_normal((5, 5))
            s_in = np.linalg.svd(G, compute_uv=False)
            s_out = np.linalg.svd(svt(G, 0.4), compute_uv=False)
            assert np.all(s_out <= s_in + 1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_prox_oracle(self, seed):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((4, 4))
        got = svt(G, 0.3)
        want = nuclear_prox_oracle(G, 0.3)
        assert np.abs(got - want).max() < 1e-4


def smooth_part(Z, state, adjs, config):
    """The differentiable terms the Z-step minimizes, penalties completed to squares."""
    n = Z.shape[0]
    ones = np.ones(n)
    fit = sum(a * np.sum((Z - A) ** 2) for a, A in zip(config.alphas, adjs))
    pen = (
        np.sum((Z @ ones - ones + state.phi1 / state.mu) ** 2)
        + np.sum((Z.T - state.Zhat + state.Phi2 / state.mu) ** 2)
        + np.sum((state.L - np.eye(n) + Z + state.Phi3 / state.mu) ** 2)
        + np.sum((state.Zhat - Z + state.Phi4 / state.mu) ** 2)
    )
    return fit + config.lambda1 * np.sum(Z**2) + 0.5 * state.mu * pen


class TestUpdateZ:
    def test_output_never_negative(self):
        # a large Phi3 pushes the unclamped solution far below zero
        A = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.2], [0.5, 0.2, 0.0]])
        cfg = SolverConfig(alphas=(1.0,))
        problem = prepare_problem([A], cfg)
        state = replace(initial_state(problem), Phi3=100.0 * np.ones((3, 3)))
        assert update_z_unclamped(state, problem).min() < 0
        assert update_z(state, problem).min() >= 0.0

    def test_single_robot_forced_to_one(self):
        # repeated updates with a huge penalty drive the 1x1 iterate to the
        # only row-stochastic value
        A = [np.array([[1.0]])]
        cfg = SolverConfig(alphas=(1.0,), lambda1=0.0, lambda2=0.0)
        z = 0.2
        for _ in range(300):
            state = make_state(np.array([[z]]), mu=1e6)
            z = float(update_z(state, prepare_problem(A, cfg))[0, 0])
        assert abs(z - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_unclamped_point_is_stationary(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        adjs = [rng.random((n, n)) for _ in range(2)]
        cfg = SolverConfig(alphas=(0.4, 0.6))
        state = SolverState(
            Z=rng.random((n, n)),
            Zhat=rng.random((n, n)),
            L=rng.random((n, n)),
            phi1=rng.standard_normal(n),
            Phi2=rng.standard_normal((n, n)),
            Phi3=rng.standard_normal((n, n)),
            Phi4=rng.standard_normal((n, n)),
            mu=0.1 * 1.1**3,
            k=3,
        )
        problem = prepare_problem(adjs, cfg)
        Zs = update_z_unclamped(state, problem)
        f0 = smooth_part(Zs, state, adjs, cfg)
        h = 1e-6
        scale = max(1.0, abs(f0))
        for _ in range(8):
            D = rng.standard_normal((n, n))
            D /= np.linalg.norm(D)
            deriv = (
                smooth_part(Zs + h * D, state, adjs, cfg)
                - smooth_part(Zs - h * D, state, adjs, cfg)
            ) / (2 * h)
            assert abs(deriv) / scale <= 1e-5


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
        assert np.abs(got - got.T).max() < 1e-14

    def test_multipliers_shift_result(self):
        state = make_state(
            np.zeros((3, 3)), Zhat=np.zeros((3, 3)),
            Phi2=np.eye(3), Phi4=np.eye(3), mu=1.0,
        )
        assert np.abs(update_zhat(state) - np.eye(3)).max() < 1e-14


class TestUpdateLaplacian:
    def test_zero_shrinkage_hits_target_exactly(self):
        rng = np.random.default_rng(2)
        Z = rng.random((4, 4))
        Phi3 = rng.standard_normal((4, 4))
        state = make_state(Z, Phi3=Phi3, mu=0.5)
        cfg = SolverConfig(lambda2=0.0)
        want = np.eye(4) - Z - Phi3 / 0.5
        assert np.abs(update_laplacian(state, problem_for(cfg, 4))[0] - want).max() < 1e-12

    def test_identity_z_gives_zero(self):
        state = make_state(np.eye(4), mu=0.5)
        assert np.all(update_laplacian(state, problem_for(SolverConfig(), 4))[0] == 0.0)

    def test_matches_prox_oracle(self):
        rng = np.random.default_rng(11)
        Z = rng.random((4, 4))
        Phi3 = rng.standard_normal((4, 4))
        mu = 0.4
        state = make_state(Z, Phi3=Phi3, mu=mu)
        cfg = SolverConfig(lambda2=0.1)
        target = np.eye(4) - Z - Phi3 / mu
        want = nuclear_prox_oracle(target, cfg.lambda2 / mu)
        assert np.abs(update_laplacian(state, problem_for(cfg, 4))[0] - want).max() < 1e-4


class TestUpdateMultipliers:
    def test_feasible_state_leaves_multipliers_unchanged(self):
        Z = np.array([[0.5, 0.5], [0.5, 0.5]])
        cfg = SolverConfig()
        state = make_state(Z, mu=cfg.mu0, k=0)
        _, gaps = constraint_residuals(state, problem_for(cfg, 2))
        update_multipliers(state, gaps, cfg)
        out = state
        assert np.all(out.phi1 == 0.0)
        assert np.all(out.Phi2 == 0.0)
        assert np.all(out.Phi3 == 0.0)
        assert np.all(out.Phi4 == 0.0)
        assert out.mu == pytest.approx(cfg.rho * cfg.mu0, rel=1e-15)
        assert out.k == 1

    def test_penalty_schedule_is_geometric(self):
        cfg = SolverConfig()
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        problem = prepare_problem([A], cfg)
        state = initial_state(problem)
        update_multipliers(state, constraint_residuals(state, problem)[1], cfg)
        update_multipliers(state, constraint_residuals(state, problem)[1], cfg)
        assert state.mu == cfg.mu0 * cfg.rho**2
        assert state.mu == pytest.approx(0.121, rel=1e-12)

    def test_row_sum_violation_feeds_phi1(self):
        Z = np.array([[0.2, 0.1], [0.0, 0.3]])
        cfg = SolverConfig(mu0=1.0, rho=1.5)
        state = make_state(Z, mu=1.0, k=0)
        _, gaps = constraint_residuals(state, problem_for(cfg, 2))
        update_multipliers(state, gaps, cfg)
        out = state
        v = Z @ np.ones(2) - np.ones(2)
        assert np.abs(out.phi1 - v).max() < 1e-15
        assert out.mu == 1.5


class TestConstraintResiduals:
    def test_feasible_state_has_zero_residuals(self):
        Z = np.array([[0.5, 0.5], [0.5, 0.5]])
        res, _ = constraint_residuals(make_state(Z), problem_for(SolverConfig(), 2))
        assert res.r1 == res.r2 == res.r3 == res.r4 == 0.0
        assert res.max_residual == 0.0

    def test_zero_matrix_breaks_row_sums(self):
        res, _ = constraint_residuals(make_state(np.zeros((2, 2))), problem_for(SolverConfig(), 2))
        assert res.r1 == 1.0

    def test_transpose_copy_mismatch(self):
        state = make_state(np.eye(2), Zhat=np.zeros((2, 2)))
        res, _ = constraint_residuals(state, problem_for(SolverConfig(), 2))
        assert res.r2 == 1.0
        assert res.r4 == 1.0


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

    def test_penalty_trace_is_strictly_increasing(self):
        graphs = two_pair_system()
        cfg = SolverConfig(alphas=(1 / 3, 1 / 3, 1 / 3))
        result = solve(graphs, cfg)
        mus = [cfg.mu0 * cfg.rho**k for k in range(result.iterations)]
        assert all(a < b for a, b in zip(mus, mus[1:]))
        assert mus[0] == cfg.mu0

    def test_converged_result_meets_tolerance(self):
        graphs = two_pair_system()
        cfg = SolverConfig(alphas=(1 / 3, 1 / 3, 1 / 3))
        result = solve(graphs, cfg)
        assert result.converged
        last = result.residual_trace[-1]
        assert max(last.r1, last.r2, last.r3, last.r4) <= cfg.tolerance
        assert np.abs(result.Z - result.Z.T).max() <= 2 * cfg.tolerance
        assert result.Z.min() >= 0.0
        assert np.abs(result.Z.sum(axis=1) - 1.0).max() < 1e-12

    def test_trace_length_matches_iterations(self):
        graphs = two_pair_system()
        result = solve(graphs, SolverConfig(alphas=(1 / 3, 1 / 3, 1 / 3)))
        assert len(result.residual_trace) == result.iterations

    def test_non_convergence_is_flagged_not_raised(self):
        graphs = two_pair_system()
        cfg = SolverConfig(alphas=(1 / 3, 1 / 3, 1 / 3), max_iterations=3)
        result = solve(graphs, cfg)
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

    def test_wrong_alpha_count_rejected(self):
        with pytest.raises(ValueError):
            solve([np.zeros((2, 2))], SolverConfig(alphas=(0.5, 0.5)))


def fleet_graphs(n_robots, seed, walls=()):
    """Relation graphs of the seeded n-robot, three-capability fleet the simulator generates."""
    config = SimConfig(n_robots=n_robots, n_capabilities=3, n_regions=2, seed=seed,
                       environment=Environment(1.0, 1.0, tuple(walls)))
    system = generate_system(config, trial_rngs(seed)[0])
    return build_relation_graphs(system, config.comm_radius)


DEFAULT_WEIGHTS = SolverConfig(alphas=(1 / 3, 1 / 3, 1 / 3))
WALL = Wall(Position(0.5, 0.0), Position(0.5, 1.0))


class TestMatchesReferenceLoop:
    """solve() does the reference loop's floating-point work in the same order."""

    def assert_same_run(self, graphs, config):
        got, want = solve(graphs, config), reference_solve(graphs, config)
        assert got.Z.tobytes() == want.Z.tobytes()
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert len(got.residual_trace) == len(want.residual_trace) == got.iterations
        for mine, ref in zip(got.residual_trace, want.residual_trace):
            assert (mine.r1, mine.r2, mine.r3, mine.r4) == (ref.r1, ref.r2, ref.r3, ref.r4)
            assert abs(mine.objective - ref.objective) <= 1e-12 * abs(ref.objective)
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

    def test_run_stopped_by_the_iteration_cap(self):
        result = self.assert_same_run(fleet_graphs(20, 4),
                                      replace(DEFAULT_WEIGHTS, max_iterations=25))
        assert not result.converged and result.iterations == 25
