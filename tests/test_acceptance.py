"""End-to-end acceptance checks for the fused-team pipeline at desk scale.

One test per user-facing guarantee, in a fixed order: solver feasibility,
its iteration count, its distance to the exact optimum, the gradient oracle,
planted-structure recovery, the eigenvector oracle, the three-method coverage benchmark,
duplication endpoints, the weight-sweep direction, byte-level determinism,
and solver scaling. The seeded batch runs are shared through session
fixtures so the determinism check can compare two complete executions
without tripling the runtime.
"""

import math
import time

import numpy as np
import pytest

import hetcover.solver as solver
from hetcover.cli import ALPHA_STEP
from hetcover.graphs import build_relation_graphs, save_matrix_csv
from hetcover.partition import fiedler_cut, fiedler_vector, partition
from hetcover.simulation import (
    Method,
    SimConfig,
    append_metrics_csv,
    baseline_solver_config,
    generate_system,
    metrics_rows,
    prepare_fleet,
    run_trial,
    sweep_grid,
    trial_rngs,
)
from hetcover.solver import (
    TOLERANCE,
    SolverConfig,
    SolverState,
    objective,
    prepare_problem,
    solve,
    update_z,
)
from hetcover.system import Environment, Position, Wall

from _oracles import (
    doubly_stochastic_projection,
    dykstra_projection,
    numeric_gradient,
    projection_oracle,
    second_eigenpair_oracle,
)
from _planted import blocks_recovered, planted_system


def random_fleet_graphs(n_robots, seed):
    """Relation graphs of a randomly generated fleet with three capabilities."""
    config = SimConfig(n_robots=n_robots, n_capabilities=3, seed=seed)
    system = generate_system(config, trial_rngs(seed)[0])
    return build_relation_graphs(system, config.comm_radius)


def report_for(reports, method):
    return next(rep for rep in reports if rep.method is method)


@pytest.fixture(scope="session")
def feasibility_runs(tmp_path_factory):
    """Two identical 30-seed solve batches at n=20; stats plus CSV bytes."""

    def one_run(out_dir):
        stats = []
        files = {}
        for seed in range(30):
            graphs = random_fleet_graphs(20, seed)
            start = time.perf_counter()
            result = solve(graphs)
            seconds = time.perf_counter() - start
            path = out_dir / ("Z_%02d.csv" % seed)
            save_matrix_csv(result.Z, path)
            files[path.name] = path.read_bytes()
            last = result.residual_trace[-1].residuals
            stats.append({
                "seed": seed,
                "converged": result.converged,
                "iterations": result.iterations,
                "loop_residual": last.max_residual,
                "Z": result.Z,
                "seconds": seconds,
            })
        return stats, files

    stats, bytes_a = one_run(tmp_path_factory.mktemp("feasibility_a"))
    _, bytes_b = one_run(tmp_path_factory.mktemp("feasibility_b"))
    return {"stats": stats, "bytes_a": bytes_a, "bytes_b": bytes_b}


@pytest.fixture(scope="session")
def hundred_robot_runs():
    """Seeds 0-2 at n=100: (seed, graphs, result)."""
    runs = []
    for seed in range(3):
        graphs = random_fleet_graphs(100, seed)
        runs.append((seed, graphs, solve(graphs, trace=False)))
    return runs


@pytest.fixture(scope="session")
def recovery_runs(tmp_path_factory):
    """Two identical planted-recovery batches: 50 seeds for 2 and 3 clusters."""

    comm_radius = 0.4 * math.hypot(1.0, 1.0)
    cases = [((6, 5), 2), ((4, 3, 3), 3)]

    def one_run(path):
        lines = ["clusters,seed,recovered,team_of"]
        hits = {}
        for sizes, k in cases:
            hits[k] = 0
            for seed in range(50):
                system, blocks = planted_system(sizes, seed=seed)
                graphs = build_relation_graphs(system, comm_radius=comm_radius)
                result = solve(graphs)
                assignment, = partition(result.Z, k)
                ok = result.converged and blocks_recovered(assignment, blocks)
                hits[k] += ok
                lines.append("%d,%d,%d,%s" % (
                    k, seed, int(ok),
                    ";".join(str(t) for t in assignment.team_of)))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return hits, path.read_bytes()

    hits, bytes_a = one_run(tmp_path_factory.mktemp("recovery_a") / "recovery.csv")
    _, bytes_b = one_run(tmp_path_factory.mktemp("recovery_b") / "recovery.csv")
    return {"hits": hits, "bytes_a": bytes_a, "bytes_b": bytes_b}


@pytest.fixture(scope="session")
def benchmark_runs(tmp_path_factory):
    """Two identical coverage benchmarks: 30 seeds, n=20, r from 2 to 10.

    As in the simulate command, one fleet per seed serves every r.
    """

    def one_run(path):
        start = time.perf_counter()
        reports = {}
        for seed in range(30):
            fleet = prepare_fleet(SimConfig(n_robots=20, n_capabilities=3, seed=seed))
            for r in range(2, 11):
                trial = run_trial(fleet, r)
                reports[(seed, r)] = trial
                append_metrics_csv(path, metrics_rows(fleet.config, trial))
        return reports, path.read_bytes(), time.perf_counter() - start

    reports, bytes_a, seconds = one_run(
        tmp_path_factory.mktemp("benchmark_a") / "metrics.csv")
    _, bytes_b, _ = one_run(tmp_path_factory.mktemp("benchmark_b") / "metrics.csv")
    return {"reports": reports, "bytes_a": bytes_a, "bytes_b": bytes_b,
            "seconds": seconds}


def test_random_fleet_solutions_feasible_and_fast(feasibility_runs):
    # the loop hands over at its tolerance; the returned Z, with L = I - Z,
    # meets the constraints themselves
    for stat in feasibility_runs["stats"]:
        assert stat["converged"], "seed %d did not converge" % stat["seed"]
        assert stat["iterations"] <= 1000
        assert stat["loop_residual"] <= TOLERANCE
        Z = stat["Z"]
        n = Z.shape[0]
        L = np.eye(n) - Z
        row_sums = np.abs(Z.sum(axis=1) - 1.0).max()
        assert max(row_sums, np.abs(Z - Z.T).max(), np.abs(L - np.eye(n) + Z).max()) <= 1e-6
        assert Z.min() >= 0.0
        assert row_sums <= 1e-14
        assert np.array_equal(Z, Z.T)
        assert stat["seconds"] <= 10.0


def test_feasibility_batch_takes_few_iterations(feasibility_runs):
    # the exact Z, Zhat and L steps, at the penalty 1.9**k, reach the 1e-2
    # hand-off in a median of 6 iterations (6 to 7)
    iterations = [stat["iterations"] for stat in feasibility_runs["stats"]]
    assert np.median(iterations) <= 7 and max(iterations) <= 8, iterations


def test_baseline_batch_takes_few_iterations():
    # Baseline (lambda1 = lambda2 = 0) takes the symmetric L step I - Zhat: a
    # median of 6 iterations to the 1e-2 hand-off (6 to 7)
    config = baseline_solver_config(SolverConfig())
    graph_lists = [random_fleet_graphs(20, seed) for seed in range(30)]
    stack = solve(graph_lists, [config] * len(graph_lists), trace=False)
    assert stack.converged
    iterations = [result.iterations for result in stack.results]
    assert np.median(iterations) <= 7 and max(iterations) <= 8, iterations


def test_hundred_robot_fleets_take_few_iterations(hundred_robot_runs):
    # 6 iterations to the 1e-2 hand-off
    iterations = [result.iterations for _, _, result in hundred_robot_runs]
    assert all(result.converged for _, _, result in hundred_robot_runs)
    assert max(iterations) <= 7, iterations


def test_four_hundred_robot_fleets_behind_a_wall_take_few_iterations():
    # 4 iterations each; the bounds are the counts of the slower schedule
    # 0.1 * 1.1**k, which the loop's must not exceed at this size
    wall = Wall(Position(0.5, 0.0), Position(0.5, 0.6))
    most = {(0, False): 7, (0, True): 7, (1, False): 7, (1, True): 6}
    for seed in (0, 1):
        config = SimConfig(n_robots=400, n_capabilities=3, seed=seed,
                           environment=Environment(1.0, 1.0, (wall,)))
        graphs = build_relation_graphs(generate_system(config, trial_rngs(seed)[0]),
                                       config.comm_radius)
        for baseline in (False, True):
            solver_config = baseline_solver_config(SolverConfig()) if baseline else SolverConfig()
            result = solve(graphs, solver_config, trace=False)
            assert result.converged
            assert result.iterations <= most[seed, baseline], (seed, baseline, result.iterations)
            assert np.abs(result.Z - projection_oracle(graphs, solver_config)).max() <= 1e-12


def test_projection_oracle_matches_dykstra():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        M = (1.0 + seed) * rng.standard_normal((n, n))
        M = 0.5 * (M + M.T)
        Z, _ = doubly_stochastic_projection(M)
        assert np.abs(Z - dykstra_projection(M)).max() <= 1e-12


def assert_near_the_optimum(Z, graphs, config, distance):
    """Z lies within distance of the exact optimum, entrywise, its objective is
    not below the optimum's, and ||I - Z||_* = n - tr Z, so that the trace the
    objective takes is the nuclear norm."""
    n = Z.shape[0]
    best = projection_oracle(graphs, config)
    assert np.abs(Z - best).max() <= distance
    value = objective(Z, np.eye(n) - Z, graphs, config)
    least = objective(best, np.eye(n) - best, graphs, config)
    assert value >= least - 1e-12 * abs(least)
    nuclear = np.linalg.svd(np.eye(n) - Z, compute_uv=False).sum()
    assert abs(nuclear - (n - np.trace(Z))) <= n * 1e-14


def test_converged_z_lies_near_the_exact_optimum(feasibility_runs, hundred_robot_runs):
    # the finish returns the optimum to rounding: at n = 20, at n = 100, at
    # n = 50 behind a wall, and for each weighting of the sweep stacks
    for stat in feasibility_runs["stats"]:
        assert_near_the_optimum(stat["Z"], random_fleet_graphs(20, stat["seed"]),
                                SolverConfig(), 1e-12)
    for _, graphs, result in hundred_robot_runs:
        assert_near_the_optimum(result.Z, graphs, SolverConfig(), 1e-12)
    wall = Wall(Position(0.5, 0.0), Position(0.5, 1.0))
    config = SimConfig(n_robots=50, n_capabilities=3, seed=3,
                       environment=Environment(1.0, 1.0, (wall,)))
    graphs = build_relation_graphs(generate_system(config, trial_rngs(3)[0]),
                                   config.comm_radius)
    assert_near_the_optimum(solve(graphs, trace=False).Z, graphs, SolverConfig(), 1e-12)
    weightings = [SolverConfig(alphas=alphas) for alphas in sweep_grid(ALPHA_STEP)]
    for seed in range(3):
        graphs = random_fleet_graphs(20, seed)
        stack = solve([graphs] * len(weightings), weightings, trace=False)
        assert stack.converged
        for config, result in zip(weightings, stack.results):
            assert_near_the_optimum(result.Z, graphs, config, 1e-12)


def smooth_augmented(Z, state, adjs, config):
    """The differentiable terms the Z-step minimizes, penalties as full squares."""
    n = Z.shape[0]
    ones = np.ones(n)
    fit = sum(a * np.sum((Z - A) ** 2) for a, A in zip(config.alphas, adjs))
    pen = (
        np.sum((Z @ ones - ones + state.phi1 / state.mu) ** 2)
        + np.sum((Z.T - state.Zhat + state.Phi2 / state.mu) ** 2)
        # the L link at L = I - Zhat, whose multiplier -Phi2 - lambda2 I the
        # solver does not store, any more than L
        + np.sum((np.eye(n) - state.Zhat - np.eye(n) + Z
                  - (state.Phi2 + config.lambda2 * np.eye(n)) / state.mu) ** 2)
        + np.sum((state.Zhat - Z + state.Phi2 / state.mu) ** 2)
    )
    return fit + config.lambda1 * np.sum(Z**2) + 0.5 * state.mu * pen


def test_z_step_zeroes_the_smooth_gradient():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 5
        adjs = [rng.random((n, n)) for _ in range(3)]
        weights = rng.random(3)
        config = SolverConfig(alphas=tuple(weights / weights.sum()))
        # a state shaped as the loop leaves it: Zhat symmetric, Phi2 antisymmetric
        G, K = rng.random((1, n, n)), rng.standard_normal((1, n, n))
        state = SolverState(
            Z=rng.random((1, n, n)), Zhat=0.5 * (G + G.mT),
            phi1=rng.standard_normal((1, n)), Phi2=0.5 * (K - K.mT),
            mu=0.1 * 1.1 ** (seed % 10), k=seed % 10,
        )
        Zs = update_z(state, prepare_problem([adjs], [config]))[0]
        gradient = numeric_gradient(
            lambda X: smooth_augmented(X, state, adjs, config), Zs, h=1e-6)
        scale = max(1.0, abs(smooth_augmented(Zs, state, adjs, config)))
        # the step minimizes over Z >= 0: the gradient vanishes where Z is
        # positive and does not point below zero where Z is clamped
        assert Zs.min() >= 0.0
        assert np.abs(gradient[Zs > 0]).max() / scale <= 1e-5
        assert gradient[Zs == 0].min(initial=0.0) / scale >= -1e-5


def test_planted_teams_recovered_in_90_percent_of_seeds(recovery_runs):
    assert recovery_runs["hits"][2] >= 45, recovery_runs["hits"]
    assert recovery_runs["hits"][3] >= 45, recovery_runs["hits"]


def test_fiedler_signs_match_charpoly_oracle():
    rng = np.random.default_rng(12345)
    informative = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        W = rng.random((n, n))
        W = 0.5 * (W + W.T)
        np.fill_diagonal(W, 0.0)
        laplacian = np.diag(W.sum(axis=1)) - W
        _, w, gap = second_eigenpair_oracle(laplacian)
        if gap < 1e-6 or np.abs(w).min() < 1e-7:
            continue  # eigenvector not unique, or a sign is ill-determined
        v = fiedler_vector(laplacian)
        ours = frozenset(i for i in range(n) if v[i] < 0)
        theirs = frozenset(i for i in range(n) if w[i] < 0)
        assert ours in (theirs, frozenset(range(n)) - theirs)
        sides = {frozenset(side) for side in fiedler_cut(W, range(n))}
        assert sides == {theirs, frozenset(range(n)) - theirs}
        informative += 1
    assert informative >= 80


def test_fused_teams_beat_greedy_on_detection_and_duplication(benchmark_runs):
    reports = benchmark_runs["reports"]
    detection_over_greedy = 0
    detection_over_baseline = 0
    duplication_under_greedy = 0
    for r in range(2, 11):
        mean_detection = {
            m: np.mean([report_for(reports[(s, r)], m).detection_rate
                        for s in range(30)])
            for m in Method
        }
        mean_duplication = {
            m: np.mean([report_for(reports[(s, r)], m).duplication_rate
                        for s in range(30)])
            for m in Method
        }
        detection_over_greedy += (
            mean_detection[Method.FULL] > mean_detection[Method.GREEDY])
        detection_over_baseline += (
            mean_detection[Method.FULL] >= mean_detection[Method.BASELINE])
        duplication_under_greedy += (
            mean_duplication[Method.FULL] < mean_duplication[Method.GREEDY])
    assert benchmark_runs["seconds"] <= 900.0
    assert (detection_over_greedy >= 7
            and detection_over_baseline >= 7
            and duplication_under_greedy >= 7), (
        "wins out of 9 r values: detection over greedy %d, detection over "
        "baseline %d, duplication under greedy %d (need 7 of each)"
        % (detection_over_greedy, detection_over_baseline,
           duplication_under_greedy))


def test_one_robot_teams_never_duplicate():
    for seed in range(10):
        config = SimConfig(n_robots=8, n_capabilities=2, seed=seed)
        for report in run_trial(prepare_fleet(config), 8):
            assert report.duplication_rate == 0.0


def test_capability_weight_lowers_duplication():
    def mean_duplication(alphas):
        values = []
        for seed in range(10):
            config = SimConfig(n_robots=20, n_capabilities=3,
                               seed=seed, solver=SolverConfig(alphas=alphas))
            values.append(report_for(run_trial(prepare_fleet(config), 3),
                                     Method.FULL).duplication_rate)
        return float(np.mean(values))

    capability_heavy = mean_duplication((0.1, 0.2, 0.7))
    spatial_heavy = mean_duplication((0.7, 0.2, 0.1))
    assert capability_heavy < spatial_heavy, (
        "mean duplication %.4f with capability-heavy weights vs %.4f with "
        "spatial-heavy weights" % (capability_heavy, spatial_heavy))


def test_identical_seeds_reproduce_csv_bytes(feasibility_runs, recovery_runs,
                                             benchmark_runs):
    assert feasibility_runs["bytes_a"] == feasibility_runs["bytes_b"]
    assert recovery_runs["bytes_a"] == recovery_runs["bytes_b"]
    assert benchmark_runs["bytes_a"] == benchmark_runs["bytes_b"]


def test_iteration_cost_scales_at_most_cubically(monkeypatch):
    # CPU time of this process, so that other processes on a shared machine
    # do not stretch one size's timing and not the other's; the loop runs
    # 30 passes, as it never reaches the tolerance
    monkeypatch.setattr(solver, "TOLERANCE", 1e-15)
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 30)

    def per_iteration_seconds(n_robots):
        graphs = random_fleet_graphs(n_robots, 0)
        best = math.inf
        for _ in range(3):
            start = time.process_time()
            result = solve(graphs, SolverConfig())
            best = min(best, (time.process_time() - start) / result.iterations)
        return best

    t50 = per_iteration_seconds(50)
    t100 = per_iteration_seconds(100)
    assert t100 <= 12.0 * t50, "per-iteration %.5fs at n=100 vs %.5fs at n=50" % (
        t100, t50)
