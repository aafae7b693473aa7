import math
from dataclasses import replace

import numpy as np
import pytest

from hetcover.graphs import build_relation_graphs
from hetcover.partition import TeamAssignment, partition
from hetcover.simulation import (
    CAPABILITY_NAMES,
    METRICS_HEADER,
    Event,
    Method,
    MetricsReport,
    SimConfig,
    append_metrics_csv,
    baseline_assign,
    capability_universe,
    detection_rate,
    duplication_rate,
    fuse_fleet,
    generate_system,
    greedy_assign,
    metrics_rows,
    nearest_robots,
    place_fleet,
    prepare_fleet,
    region_raster,
    run_trial,
    simulate_events,
    trial_rngs,
)
from hetcover.solver import SolverConfig, solve
from hetcover.system import Environment, Position, RobotSpec, RobotSystem, Wall, line_of_sight

from _oracles import greedy_teams_oracle
from _planted import blocks_recovered, planted_system


def make_system(spec, env=None, universe=None):
    """spec: list of ((x, y), capability-or-set) pairs."""
    env = env if env is not None else Environment(1.0, 1.0)
    robots = []
    caps_seen = set()
    for i, ((x, y), caps) in enumerate(spec):
        caps = frozenset({caps}) if isinstance(caps, str) else frozenset(caps)
        caps_seen |= caps
        robots.append(RobotSpec(i, Position(float(x), float(y)), caps))
    universe = universe if universe is not None else tuple(sorted(caps_seen))
    return RobotSystem(tuple(robots), env, universe)


class TestCapabilityUniverse:
    def test_named_prefix(self):
        assert capability_universe(3) == ("rgb", "depth", "audio")

    def test_generic_names_past_the_list(self):
        universe = capability_universe(10)
        assert universe[:8] == CAPABILITY_NAMES
        assert universe[8:] == ("cap8", "cap9")

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            capability_universe(0)


class TestSimConfig:
    def test_derived_defaults(self):
        cfg = SimConfig(n_robots=10, n_capabilities=3, n_regions=3, seed=0)
        assert cfg.environment == Environment(1.0, 1.0)
        assert cfg.comm_radius == pytest.approx(0.4 * math.hypot(1.0, 1.0))
        assert cfg.solver.alphas == (1 / 3, 1 / 3, 1 / 3)
        assert cfg.n_events == 100

    def test_explicit_values_kept(self):
        env = Environment(4.0, 2.0)
        cfg = SimConfig(n_robots=5, n_capabilities=2, n_regions=2, seed=1,
                        comm_radius=1.5, environment=env,
                        solver=SolverConfig(alphas=(0.2, 0.3, 0.5)))
        assert cfg.environment == env
        assert cfg.comm_radius == 1.5
        assert cfg.solver.alphas == (0.2, 0.3, 0.5)

    def test_too_few_robots_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(n_robots=1, n_capabilities=1, n_regions=1, seed=0)

    def test_regions_bounded_by_robots(self):
        with pytest.raises(ValueError):
            SimConfig(n_robots=4, n_capabilities=2, n_regions=5, seed=0)
        with pytest.raises(ValueError):
            SimConfig(n_robots=4, n_capabilities=2, n_regions=0, seed=0)

    def test_events_positive(self):
        with pytest.raises(ValueError):
            SimConfig(n_robots=4, n_capabilities=2, n_regions=2, seed=0, n_events=0)

    def test_seed_non_negative(self):
        with pytest.raises(ValueError):
            SimConfig(n_robots=4, n_capabilities=2, n_regions=2, seed=-1)

    def test_comm_radius_positive(self):
        with pytest.raises(ValueError):
            SimConfig(n_robots=4, n_capabilities=2, n_regions=2, seed=0,
                      comm_radius=0.0)


class TestGenerateSystem:
    def config(self, **kw):
        defaults = dict(n_robots=10, n_capabilities=3, n_regions=3, seed=7)
        defaults.update(kw)
        return SimConfig(**defaults)

    def test_deterministic_for_fixed_seed(self):
        cfg = self.config()
        first = generate_system(cfg, trial_rngs(cfg.seed)[0])
        second = generate_system(cfg, trial_rngs(cfg.seed)[0])
        assert first == second

    def test_one_capability_each_from_universe(self):
        cfg = self.config()
        system = generate_system(cfg, trial_rngs(cfg.seed)[0])
        universe = set(capability_universe(3))
        assert len(system) == 10
        for robot in system.robots:
            assert len(robot.capabilities) == 1
            assert robot.capabilities <= universe

    def test_positions_in_bounds(self):
        env = Environment(3.0, 2.0)
        cfg = self.config(environment=env)
        system = generate_system(cfg, trial_rngs(cfg.seed)[0])
        for robot in system.robots:
            assert 0.0 <= robot.position.x <= 3.0
            assert 0.0 <= robot.position.y <= 2.0

    def test_no_obstacles_means_clear_sight_lines(self):
        cfg = self.config()
        system = generate_system(cfg, trial_rngs(cfg.seed)[0])
        for a in system.robots:
            for b in system.robots:
                assert line_of_sight(a.position, b.position, system.environment)

    def test_wall_rejection_gives_up_eventually(self):
        class OnTheWall:
            # always lands on the vertical wall at x = 0.5
            def uniform(self, low, high):
                return 0.5 * high

            def integers(self, low, high):
                return 0

        env = Environment(1.0, 1.0,
                          obstacles=(Wall(Position(0.5, 0.0), Position(0.5, 1.0)),))
        cfg = self.config(environment=env)
        with pytest.raises(RuntimeError):
            generate_system(cfg, OnTheWall())


class TestSimulateEvents:
    def test_event_count(self):
        cfg = SimConfig(n_robots=4, n_capabilities=3, n_regions=2, seed=3)
        events = simulate_events(cfg, trial_rngs(cfg.seed)[1])
        assert len(events) == 100

    def test_deterministic_for_fixed_seed(self):
        cfg = SimConfig(n_robots=4, n_capabilities=3, n_regions=2, seed=3)
        first = simulate_events(cfg, trial_rngs(cfg.seed)[1])
        second = simulate_events(cfg, trial_rngs(cfg.seed)[1])
        assert first == second

    def test_single_capability_types(self):
        cfg = SimConfig(n_robots=4, n_capabilities=1, n_regions=2, seed=3,
                        n_events=20)
        events = simulate_events(cfg, trial_rngs(cfg.seed)[1])
        assert {e.event_type for e in events} == {"rgb"}

    def test_positions_in_bounds(self):
        env = Environment(5.0, 0.5)
        cfg = SimConfig(n_robots=4, n_capabilities=2, n_regions=2, seed=9,
                        environment=env, n_events=50)
        for event in simulate_events(cfg, trial_rngs(cfg.seed)[1]):
            assert 0.0 <= event.position.x <= 5.0
            assert 0.0 <= event.position.y <= 0.5


class TestDetectionRate:
    def test_fully_equipped_teams_detect_everything(self):
        system = make_system([
            ((0.1, 0.1), "rgb"), ((0.2, 0.1), "depth"),
            ((0.8, 0.9), "rgb"), ((0.9, 0.9), "depth"),
        ])
        asgn = TeamAssignment.from_teams([{0, 1}, {2, 3}], 4)
        events = [Event(Position(0.3, 0.4), "rgb"), Event(Position(0.7, 0.6), "depth")]
        assert detection_rate(system, asgn, events) == 1.0

    def test_single_team_with_all_capabilities(self):
        system = make_system([((0.1, 0.1), "rgb"), ((0.9, 0.9), "depth")])
        asgn = TeamAssignment.from_teams([{0, 1}], 2)
        events = [Event(Position(x / 10, 0.5), t)
                  for x in range(10) for t in ("rgb", "depth")]
        assert detection_rate(system, asgn, events) == 1.0

    def test_missing_type_goes_undetected(self):
        system = make_system([((0.1, 0.5), "rgb"), ((0.9, 0.5), "depth")])
        asgn = TeamAssignment.from_teams([{0}, {1}], 2)
        # both events land nearest the rgb robot; only the rgb one is seen
        events = [Event(Position(0.2, 0.5), "depth"), Event(Position(0.2, 0.5), "rgb")]
        assert detection_rate(system, asgn, events) == 0.5

    def test_distance_tie_goes_to_lower_id(self):
        # the event sits exactly between the two robots
        spec = [((0.25, 0.5), "rgb"), ((0.75, 0.5), "depth")]
        asgn = TeamAssignment.from_teams([{0}, {1}], 2)
        event_rgb = [Event(Position(0.5, 0.5), "rgb")]
        event_depth = [Event(Position(0.5, 0.5), "depth")]
        system = make_system(spec)
        assert detection_rate(system, asgn, event_rgb) == 1.0
        assert detection_rate(system, asgn, event_depth) == 0.0

    def test_empty_event_list_rejected(self):
        system = make_system([((0.1, 0.1), "rgb"), ((0.9, 0.9), "rgb")])
        asgn = TeamAssignment.from_teams([{0, 1}], 2)
        with pytest.raises(ValueError):
            detection_rate(system, asgn, [])

    def test_mismatched_assignment_rejected(self):
        system = make_system([((0.1, 0.1), "rgb"), ((0.9, 0.9), "rgb")])
        asgn = TeamAssignment.from_teams([{0, 1, 2}], 3)
        with pytest.raises(ValueError):
            detection_rate(system, asgn, [Event(Position(0.5, 0.5), "rgb")])

    def test_nearest_robots_is_the_per_event_argmin(self):
        # integer-lattice robots and events put many events at equal distances
        rng = np.random.default_rng(4)
        kinds = ("rgb", "depth")
        system = make_system([((x / 4, y / 4), kinds[(x + y) % 2])
                              for x in range(3) for y in range(3)])
        events = [Event(Position(x / 8, y / 8), kinds[(x * y) % 2])
                  for x in range(9) for y in range(9)]
        pos = system.positions()
        want = []
        for event in events:
            d = [math.hypot(px - event.position.x, py - event.position.y) for px, py in pos]
            want.append(min(range(len(d)), key=lambda i: (d[i], i)))
        assert nearest_robots(system, events) == tuple(want)
        teams = [set(rng.choice(9, size=4, replace=False).tolist())]
        asgn = TeamAssignment.from_teams(teams + [{i} for i in range(9) if i not in teams[0]], 9)
        assert (detection_rate(system, asgn, events, nearest_robots(system, events))
                == detection_rate(system, asgn, events))

    def test_nearest_list_must_match_the_events(self):
        system = make_system([((0.1, 0.1), "rgb"), ((0.9, 0.9), "rgb")])
        asgn = TeamAssignment.from_teams([{0, 1}], 2)
        with pytest.raises(ValueError):
            detection_rate(system, asgn, [Event(Position(0.5, 0.5), "rgb")], (0, 1))


class TestDuplicationRate:
    def test_disjoint_capabilities_no_duplicates(self):
        system = make_system([((0.1, 0.1), "rgb"), ((0.2, 0.1), "depth")])
        asgn = TeamAssignment.from_teams([{0, 1}], 2)
        assert duplication_rate(system, asgn) == 0.0

    def test_repeated_capability_counts(self):
        system = make_system([((0.1, 0.1), "rgb"), ((0.2, 0.1), "rgb")])
        asgn = TeamAssignment.from_teams([{0, 1}], 2)
        assert duplication_rate(system, asgn) == 0.5

    def test_singleton_teams_never_duplicate(self):
        system = make_system([((0.1, 0.1), "rgb"), ((0.2, 0.1), "rgb"),
                              ((0.3, 0.1), "rgb")])
        asgn = TeamAssignment.from_teams([{0}, {1}, {2}], 3)
        assert duplication_rate(system, asgn) == 0.0

    def test_multi_capability_scan_order(self):
        # ids scanned ascending: robot 2's {depth} is already provided by
        # robot 1, so only robot 2 is a duplicate
        system = make_system([
            ((0.1, 0.1), {"rgb"}),
            ((0.2, 0.1), {"rgb", "depth"}),
            ((0.3, 0.1), {"depth"}),
        ])
        asgn = TeamAssignment.from_teams([{0, 1, 2}], 3)
        assert duplication_rate(system, asgn) == pytest.approx(1 / 3)

    def test_unique_capability_robot_does_not_add_duplicates(self):
        pair = [((0.1, 0.1), "rgb"), ((0.2, 0.1), "rgb")]
        small = make_system(pair, universe=("rgb", "depth"))
        big = make_system(pair + [((0.3, 0.1), "depth")], universe=("rgb", "depth"))
        d_small = duplication_rate(small, TeamAssignment.from_teams([{0, 1}], 2))
        d_big = duplication_rate(big, TeamAssignment.from_teams([{0, 1, 2}], 3))
        assert round(d_small * 2) == round(d_big * 3) == 1


class TestGreedyAssign:
    def test_two_tight_clusters(self):
        system = make_system([
            ((0.1, 0.1), "rgb"), ((0.15, 0.1), "rgb"),
            ((0.9, 0.9), "rgb"), ((0.85, 0.9), "rgb"),
        ])
        asgn = greedy_assign(system, 2)
        assert set(asgn.teams) == {frozenset({0, 1}), frozenset({2, 3})}

    def test_r_equals_n_gives_singletons(self):
        system = make_system([((0.1, 0.1), "rgb"), ((0.5, 0.5), "rgb"),
                              ((0.9, 0.9), "rgb")])
        asgn = greedy_assign(system, 3)
        assert all(len(t) == 1 for t in asgn.teams)

    def test_collinear_merge_sequence(self):
        system = make_system(
            [((x, 0.5), "rgb") for x in (0.0, 1.0, 2.0, 10.0, 11.0)],
            env=Environment(12.0, 1.0),
        )
        asgn = greedy_assign(system, 2)
        assert set(asgn.teams) == {frozenset({0, 1, 2}), frozenset({3, 4})}

    def test_r_out_of_range_rejected(self):
        system = make_system([((0.1, 0.1), "rgb"), ((0.9, 0.9), "rgb")])
        with pytest.raises(ValueError):
            greedy_assign(system, 0)
        with pytest.raises(ValueError):
            greedy_assign(system, 3)

    def assert_matches_oracle(self, system, r):
        want = TeamAssignment.from_teams(greedy_teams_oracle(system.positions(), r),
                                         len(system))
        assert greedy_assign(system, r) == want

    @pytest.mark.parametrize("n_robots, seeds, regions", [
        (20, range(5), (2, 5, 10)),
        (50, range(3), (4,)),
    ])
    def test_matches_pairwise_oracle_on_random_fleets(self, n_robots, seeds, regions):
        for seed in seeds:
            config = SimConfig(n_robots=n_robots, n_capabilities=3, n_regions=2,
                               seed=seed)
            system = generate_system(config, trial_rngs(seed)[0])
            for r in regions:
                self.assert_matches_oracle(system, r)

    def test_matches_pairwise_oracle_on_tie_heavy_grids(self):
        # distinct integer lattice points: many centroid distances are exactly
        # equal, so the smallest-member tie key decides many merges
        lattice = [(x, y) for y in range(6) for x in range(6)]
        for size in (12, 20):
            for seed in range(6):
                picks = np.random.default_rng(seed).permutation(len(lattice))[:size]
                system = make_system([(lattice[i], "rgb") for i in picks],
                                     env=Environment(6.0, 6.0))
                for r in range(1, size):
                    self.assert_matches_oracle(system, r)


class TestBaselineAssign:
    def graphs(self):
        system, _ = planted_system((3, 3), seed=0)
        return build_relation_graphs(system, comm_radius=0.4 * math.hypot(1.0, 1.0))

    def test_output_is_valid_assignment(self):
        asgn = baseline_assign(self.graphs(), SolverConfig(alphas=(1 / 3,) * 3), 2)
        assert asgn.r == 2
        assert sorted(i for t in asgn.teams for i in t) == list(range(6))

    def test_deterministic(self):
        cfg = SolverConfig(alphas=(1 / 3,) * 3)
        graphs = self.graphs()
        assert baseline_assign(graphs, cfg, 2) == baseline_assign(graphs, cfg, 2)

    def test_regularizers_recover_noisy_blocks_more_often(self):
        # seeded batch at high placement noise; the regularized objective
        # should win the knife-edge instances
        full_wins = base_wins = 0
        cfg = SolverConfig(alphas=(1 / 3, 1 / 3, 1 / 3))
        for seed in range(30):
            system, blocks = planted_system((5, 5), jitter=0.8, seed=seed)
            graphs = build_relation_graphs(system, comm_radius=0.4 * math.hypot(1.0, 1.0))
            full = partition(solve(graphs, cfg).Z, 2)
            base = baseline_assign(graphs, cfg, 2)
            full_wins += blocks_recovered(full, blocks)
            base_wins += blocks_recovered(base, blocks)
        assert base_wins < full_wins


class TestRunTrial:
    def config(self, seed=5):
        return SimConfig(n_robots=8, n_capabilities=2, n_regions=3, seed=seed,
                         n_events=40)

    def test_three_reports_in_method_order(self):
        reports = run_trial(self.config())
        assert [rep.method for rep in reports] == [Method.FULL, Method.BASELINE,
                                                   Method.GREEDY]

    def test_deterministic_repeat(self):
        assert run_trial(self.config()) == run_trial(self.config())

    def test_rates_within_bounds_and_tagged(self):
        cfg = self.config(seed=11)
        for rep in run_trial(cfg):
            assert 0.0 <= rep.detection_rate <= 1.0
            assert 0.0 <= rep.duplication_rate <= 1.0
            assert rep.r == 3
            assert rep.seed == 11

    def test_singleton_regions_zero_duplication(self):
        cfg = SimConfig(n_robots=6, n_capabilities=2, n_regions=6, seed=2,
                        n_events=20)
        for rep in run_trial(cfg):
            assert rep.duplication_rate == 0.0


class TestFleetReuse:
    def config(self, seed=0, r=2):
        return SimConfig(n_robots=10, n_capabilities=3, n_regions=r, seed=seed,
                         n_events=50)

    def test_shared_fleet_matches_fresh_trials(self):
        for seed in range(3):
            fleet = prepare_fleet(self.config(seed))
            for r in range(2, 11):
                config = self.config(seed, r)
                assert run_trial(config, fleet) == run_trial(config)

    def test_fleet_from_other_config_rejected(self):
        config = self.config()
        fleet = prepare_fleet(config)
        for other in (replace(config, seed=1), replace(config, n_events=51),
                      replace(config, comm_radius=0.5),
                      replace(config, solver=SolverConfig(alphas=(0.5, 0.25, 0.25)))):
            with pytest.raises(ValueError):
                run_trial(other, fleet)

    def test_only_listed_methods_solved_and_scored(self, monkeypatch):
        import hetcover.simulation as simulation

        calls = {"solve": 0, "greedy": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(simulation, "solve", counted("solve", simulation.solve))
        monkeypatch.setattr(simulation, "greedy_assign",
                            counted("greedy", simulation.greedy_assign))
        config = self.config(r=3)
        full_only = run_trial(config, methods=(Method.FULL,))
        assert calls == {"solve": 1, "greedy": 0}
        assert full_only == run_trial(config)[:1]

    def test_nearest_robots_found_once_per_fleet(self, monkeypatch):
        import hetcover.simulation as simulation

        calls = []
        monkeypatch.setattr(simulation, "nearest_robots",
                            lambda *args: calls.append(args) or nearest_robots(*args))
        fleet = prepare_fleet(self.config())
        for r in range(2, 11):
            run_trial(self.config(r=r), fleet)
        assert len(calls) == 1

    def test_refused_fleet_matches_a_fresh_one(self):
        config = self.config(seed=1, r=3)
        placed = place_fleet(config)
        for alphas in ((0.1, 0.2, 0.7), (1.0, 0.0, 0.0)):
            solver = SolverConfig(alphas=alphas)
            other = replace(config, solver=solver)
            fused = fuse_fleet(placed, solver, (Method.FULL,))
            fresh = prepare_fleet(other, (Method.FULL,))
            assert fused.config == other
            assert fused.fused[Method.FULL].tobytes() == fresh.fused[Method.FULL].tobytes()
            assert (run_trial(other, fused, methods=(Method.FULL,))
                    == run_trial(other, methods=(Method.FULL,)))
        assert placed.fused == {}

    def test_fleet_without_a_method_rejected(self):
        config = self.config()
        fleet = prepare_fleet(config, (Method.FULL,))
        assert set(fleet.fused) == {Method.FULL}
        with pytest.raises(ValueError):
            run_trial(config, fleet, methods=(Method.BASELINE,))


class TestMetricsReport:
    def test_method_labels(self):
        assert Method.FULL.value == "Full"
        assert Method.BASELINE.value == "Baseline"
        assert Method.GREEDY.value == "Greedy"

    def test_rate_bounds_enforced(self):
        with pytest.raises(ValueError):
            MetricsReport(Method.FULL, 1.2, 0.0, r=2, seed=0)
        with pytest.raises(ValueError):
            MetricsReport(Method.FULL, 0.5, -0.1, r=2, seed=0)


class TestRegionRaster:
    def test_two_robots_split_half_planes(self):
        system = make_system([((0.25, 0.5), "rgb"), ((0.75, 0.5), "rgb")])
        asgn = TeamAssignment.from_teams([{0}, {1}], 2)
        grid = region_raster(system, asgn, 4)
        assert grid.shape == (4, 4)
        assert np.all(grid[:, :2] == 0)
        assert np.all(grid[:, 2:] == 1)

    def test_single_team_uniform(self):
        system = make_system([((0.2, 0.2), "rgb"), ((0.8, 0.8), "rgb")])
        asgn = TeamAssignment.from_teams([{0, 1}], 2)
        assert np.all(region_raster(system, asgn, 8) == 0)

    def test_robot_cell_owned_by_its_team(self):
        system = make_system([((0.15, 0.2), "rgb"), ((0.8, 0.3), "rgb"),
                              ((0.5, 0.85), "rgb")])
        asgn = TeamAssignment.from_teams([{0}, {1}, {2}], 3)
        res = 32
        grid = region_raster(system, asgn, res)
        for robot in system.robots:
            i = min(int(robot.position.x * res), res - 1)
            j = min(int(robot.position.y * res), res - 1)
            assert grid[j, i] == asgn.team_of[robot.id]

    def test_every_team_owns_cells(self):
        system = make_system([((0.15, 0.2), "rgb"), ((0.8, 0.3), "rgb"),
                              ((0.5, 0.85), "rgb")])
        asgn = TeamAssignment.from_teams([{0}, {1}, {2}], 3)
        assert set(region_raster(system, asgn, 32).flat) == {0, 1, 2}

    def test_low_resolution_rejected(self):
        system = make_system([((0.2, 0.2), "rgb"), ((0.8, 0.8), "rgb")])
        asgn = TeamAssignment.from_teams([{0, 1}], 2)
        with pytest.raises(ValueError):
            region_raster(system, asgn, 1)


class TestMetricsCsv:
    def test_header(self):
        assert METRICS_HEADER == "method,n,k_capabilities,r,seed,detection,duplication"

    def test_row_format_round_trips(self):
        cfg = SimConfig(n_robots=6, n_capabilities=2, n_regions=2, seed=4,
                        n_events=30)
        reports = run_trial(cfg)
        rows = metrics_rows(cfg, reports)
        assert len(rows) == 3
        for row, rep in zip(rows, reports):
            fields = row.split(",")
            assert fields[0] == rep.method.value
            assert fields[1:5] == ["6", "2", "2", "4"]
            assert float(fields[5]) == rep.detection_rate
            assert float(fields[6]) == rep.duplication_rate

    def test_append_writes_header_once(self, tmp_path):
        path = tmp_path / "metrics.csv"
        rows = ["Full,6,2,2,4,0.5,0.25", "Greedy,6,2,2,4,0.75,0.125"]
        append_metrics_csv(path, rows)
        append_metrics_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert lines.count(METRICS_HEADER) == 1
        assert len(lines) == 5

    def test_append_fills_empty_file(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("")
        append_metrics_csv(path, ["Full,2,1,1,0,1.0,0.0"])
        lines = path.read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 2


class TestTrialRngs:
    def test_streams_are_independent_and_reproducible(self):
        sys_rng, event_rng = trial_rngs(42)
        sys_rng2, event_rng2 = trial_rngs(42)
        a, b = sys_rng.uniform(0, 1), event_rng.uniform(0, 1)
        assert a != b  # distinct child streams
        assert a == sys_rng2.uniform(0, 1)
        assert b == event_rng2.uniform(0, 1)
