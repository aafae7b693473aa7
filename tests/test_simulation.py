import gc
import math
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from hetcover.cli import main
from hetcover.graphs import build_relation_graphs
from hetcover.partition import TeamAssignment, partition
from hetcover.simulation import (
    CAPABILITY_NAMES,
    METRICS_HEADER,
    Event,
    Fleet,
    Method,
    MetricsReport,
    SimConfig,
    append_metrics_csv,
    batch_fleets,
    capability_universe,
    detection_rate,
    duplication_rate,
    fuse_fleets,
    generate_system,
    greedy_assign,
    metrics_rows,
    nearest_robots,
    place_fleet,
    prepare_fleet,
    region_raster,
    run_trial,
    simulate_events,
    stack_size,
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
        cfg = SimConfig(n_robots=10, n_capabilities=3, seed=0)
        assert cfg.environment == Environment(1.0, 1.0)
        assert cfg.comm_radius == pytest.approx(0.4 * math.hypot(1.0, 1.0))
        assert cfg.solver == SolverConfig()  # equal weights, filled in by resolved
        assert cfg.solver.resolved(3).alphas == (1 / 3, 1 / 3, 1 / 3)
        assert cfg.n_events == 100

    def test_explicit_values_kept(self):
        env = Environment(4.0, 2.0)
        cfg = SimConfig(n_robots=5, n_capabilities=2, seed=1,
                        comm_radius=1.5, environment=env,
                        solver=SolverConfig(alphas=(0.2, 0.3, 0.5)))
        assert cfg.environment == env
        assert cfg.comm_radius == 1.5
        assert cfg.solver.alphas == (0.2, 0.3, 0.5)

    def test_too_few_robots_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(n_robots=1, n_capabilities=1, seed=0)

    def test_events_positive(self):
        with pytest.raises(ValueError):
            SimConfig(n_robots=4, n_capabilities=2, seed=0, n_events=0)

    def test_seed_non_negative(self):
        with pytest.raises(ValueError):
            SimConfig(n_robots=4, n_capabilities=2, seed=-1)

    @pytest.mark.parametrize("count", [
        dict(n_capabilities=True), dict(seed=False), dict(n_events=True),
    ], ids=["n_capabilities", "seed", "n_events"])
    def test_bool_count_rejected(self, count):
        # a bool is an int to Python, but no count is meant as True or False
        with pytest.raises(ValueError, match=next(iter(count))):
            SimConfig(**{**dict(n_robots=4, n_capabilities=2, seed=0), **count})

    def test_comm_radius_positive(self):
        with pytest.raises(ValueError):
            SimConfig(n_robots=4, n_capabilities=2, seed=0,
                      comm_radius=0.0)


class TestGenerateSystem:
    def config(self, **kw):
        defaults = dict(n_robots=10, n_capabilities=3, seed=7)
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
        pos = system.positions()
        i, j = np.indices((len(system), len(system))).reshape(2, -1)
        assert line_of_sight(pos[i], pos[j], system.environment).all()

    def test_wall_rejection_gives_up_eventually(self):
        class OnTheWall:
            # always lands on the vertical wall at x = 0.5
            def random(self):
                return 0.5

            def integers(self, low, high):
                return 0

        env = Environment(1.0, 1.0,
                          obstacles=(Wall(Position(0.5, 0.0), Position(0.5, 1.0)),))
        cfg = self.config(environment=env)
        with pytest.raises(RuntimeError):
            generate_system(cfg, OnTheWall())


class TestSimulateEvents:
    def test_event_count(self):
        cfg = SimConfig(n_robots=4, n_capabilities=3, seed=3)
        events = simulate_events(cfg, trial_rngs(cfg.seed)[1])
        assert len(events) == 100

    def test_deterministic_for_fixed_seed(self):
        cfg = SimConfig(n_robots=4, n_capabilities=3, seed=3)
        first = simulate_events(cfg, trial_rngs(cfg.seed)[1])
        second = simulate_events(cfg, trial_rngs(cfg.seed)[1])
        assert first == second

    def test_single_capability_types(self):
        cfg = SimConfig(n_robots=4, n_capabilities=1, seed=3,
                        n_events=20)
        events = simulate_events(cfg, trial_rngs(cfg.seed)[1])
        assert {e.event_type for e in events} == {"rgb"}

    def test_positions_in_bounds(self):
        env = Environment(5.0, 0.5)
        cfg = SimConfig(n_robots=4, n_capabilities=2, seed=9,
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
        assert detection_rate(system, asgn, events, nearest_robots(system, events)) == 1.0

    def test_single_team_with_all_capabilities(self):
        system = make_system([((0.1, 0.1), "rgb"), ((0.9, 0.9), "depth")])
        asgn = TeamAssignment.from_teams([{0, 1}], 2)
        events = [Event(Position(x / 10, 0.5), t)
                  for x in range(10) for t in ("rgb", "depth")]
        assert detection_rate(system, asgn, events, nearest_robots(system, events)) == 1.0

    def test_missing_type_goes_undetected(self):
        system = make_system([((0.1, 0.5), "rgb"), ((0.9, 0.5), "depth")])
        asgn = TeamAssignment.from_teams([{0}, {1}], 2)
        # both events land nearest the rgb robot; only the rgb one is seen
        events = [Event(Position(0.2, 0.5), "depth"), Event(Position(0.2, 0.5), "rgb")]
        assert detection_rate(system, asgn, events, nearest_robots(system, events)) == 0.5

    def test_distance_tie_goes_to_lower_id(self):
        # the event sits exactly between the two robots
        spec = [((0.25, 0.5), "rgb"), ((0.75, 0.5), "depth")]
        asgn = TeamAssignment.from_teams([{0}, {1}], 2)
        event_rgb = [Event(Position(0.5, 0.5), "rgb")]
        event_depth = [Event(Position(0.5, 0.5), "depth")]
        system = make_system(spec)
        assert detection_rate(system, asgn, event_rgb, nearest_robots(system, event_rgb)) == 1.0
        assert detection_rate(system, asgn, event_depth,
                              nearest_robots(system, event_depth)) == 0.0

    def test_empty_event_list_rejected(self):
        system = make_system([((0.1, 0.1), "rgb"), ((0.9, 0.9), "rgb")])
        asgn = TeamAssignment.from_teams([{0, 1}], 2)
        with pytest.raises(ValueError):
            detection_rate(system, asgn, [], nearest_robots(system, []))

    def test_mismatched_assignment_rejected(self):
        system = make_system([((0.1, 0.1), "rgb"), ((0.9, 0.9), "rgb")])
        asgn = TeamAssignment.from_teams([{0, 1, 2}], 3)
        with pytest.raises(ValueError):
            detection_rate(system, asgn, [Event(Position(0.5, 0.5), "rgb")], (0,))

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
        seen = [any(e.event_type in system.robots[m].capabilities
                    for m in asgn.teams[asgn.team_of[robot]]) for e, robot in zip(events, want)]
        assert detection_rate(system, asgn, events, tuple(want)) == sum(seen) / len(events)

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
        asgn, = greedy_assign(system, 2)
        assert set(asgn.teams) == {frozenset({0, 1}), frozenset({2, 3})}

    def test_r_equals_n_gives_singletons(self):
        system = make_system([((0.1, 0.1), "rgb"), ((0.5, 0.5), "rgb"),
                              ((0.9, 0.9), "rgb")])
        asgn, = greedy_assign(system, 3)
        assert all(len(t) == 1 for t in asgn.teams)

    def test_collinear_merge_sequence(self):
        system = make_system(
            [((x, 0.5), "rgb") for x in (0.0, 1.0, 2.0, 10.0, 11.0)],
            env=Environment(12.0, 1.0),
        )
        asgn, = greedy_assign(system, 2)
        assert set(asgn.teams) == {frozenset({0, 1, 2}), frozenset({3, 4})}

    def test_r_out_of_range_rejected(self):
        system = make_system([((0.1, 0.1), "rgb"), ((0.9, 0.9), "rgb")])
        with pytest.raises(ValueError):
            greedy_assign(system, 0)
        with pytest.raises(ValueError):
            greedy_assign(system, 3)

    def test_bool_r_rejected(self):
        system = make_system([((0.1, 0.1), "rgb"), ((0.9, 0.9), "rgb")])
        with pytest.raises(ValueError, match="r must be an integer"):
            greedy_assign(system, True)

    def test_levels_in_the_order_given_with_duplicates_kept(self):
        system = make_system([((x, 0.5), "rgb") for x in (0.0, 1.0, 2.0, 10.0, 11.0)],
                             env=Environment(12.0, 1.0))
        three, two, again = greedy_assign(system, 3, 2, 3)
        assert set(three.teams) == {frozenset({0, 1}), frozenset({2}), frozenset({3, 4})}
        assert set(two.teams) == {frozenset({0, 1, 2}), frozenset({3, 4})}
        assert again == three

    def test_every_r_checked_before_any_merge(self, monkeypatch):
        import hetcover.simulation as simulation

        # r = 2 alone would merge once; no centroid distance is taken at all
        calls = []
        monkeypatch.setattr(simulation, "math", SimpleNamespace(
            inf=math.inf, hypot=lambda dx, dy: calls.append((dx, dy)) or math.hypot(dx, dy)))
        system = make_system([((0.1, 0.1), "rgb"), ((0.5, 0.5), "rgb"), ((0.9, 0.9), "rgb")])
        with pytest.raises(ValueError, match=r"r must be an integer in 1\.\.3, got 0"):
            greedy_assign(system, 2, 0)
        assert calls == []

    def test_no_team_count_gives_no_teams(self):
        system = make_system([((0.1, 0.1), "rgb"), ((0.9, 0.9), "rgb")])
        assert greedy_assign(system) == []

    def assert_matches_oracle(self, system, regions):
        # one merge sequence gives every r; each level is the oracle's teams at r
        want = [TeamAssignment.from_teams(greedy_teams_oracle(system.positions(), r),
                                          len(system)) for r in regions]
        assert greedy_assign(system, *regions) == want

    @pytest.mark.parametrize("n_robots, seeds, regions", [
        (20, range(5), (2, 5, 10)),
        (50, range(3), (4,)),
        (100, range(1), (4,)),
    ])
    def test_matches_pairwise_oracle_on_random_fleets(self, n_robots, seeds, regions):
        for seed in seeds:
            config = SimConfig(n_robots=n_robots, n_capabilities=3, seed=seed)
            system = generate_system(config, trial_rngs(seed)[0])
            self.assert_matches_oracle(system, regions)

    def test_merged_centroids_are_the_bit_exact_means_along_the_oracle(self, monkeypatch):
        # a merged cluster's centroid is pos[list(older | newer)].mean(axis=0):
        # averaging its members in another order can move a last bit without
        # changing any team, so compare the centroid differences greedy_assign
        # hands math.hypot with those the oracle's merge sequence gives
        import hetcover.simulation as simulation

        calls = []
        monkeypatch.setattr(simulation, "math", SimpleNamespace(
            inf=math.inf, hypot=lambda dx, dy: calls.append((dx, dy)) or math.hypot(dx, dy)))
        for seed in range(3):
            system = generate_system(SimConfig(n_robots=20, n_capabilities=3, seed=seed),
                                     trial_rngs(seed)[0])
            pos = system.positions()
            calls.clear()
            greedy_assign(system, 1)
            centroid = {frozenset([i]): xy for i, xy in enumerate(pos.tolist())}
            live = list(centroid)  # in creation order
            want = [(xa - xb, ya - yb) for a, (xa, ya) in enumerate(centroid.values())
                    for xb, yb in list(centroid.values())[a + 1:]]
            for r in range(len(system) - 1, 0, -1):
                teams = greedy_teams_oracle(pos, r)
                older, newer = [c for c in live if c not in teams]
                merged = older | newer
                assert merged in teams
                live = [c for c in live if c not in (older, newer)] + [merged]
                centroid[merged] = xa, ya = pos[list(merged)].mean(axis=0).tolist()
                want += [(xa - centroid[c][0], ya - centroid[c][1])
                         for c in sorted(live, key=min) if c is not merged]
            assert calls == want

    def test_matches_pairwise_oracle_on_tie_heavy_grids(self):
        # distinct integer lattice points: many centroid distances are exactly
        # equal, so the smallest-member tie key decides many merges
        lattice = [(x, y) for y in range(6) for x in range(6)]
        for size in (12, 20):
            for seed in range(6):
                picks = np.random.default_rng(seed).permutation(len(lattice))[:size]
                system = make_system([(lattice[i], "rgb") for i in picks],
                                     env=Environment(6.0, 6.0))
                self.assert_matches_oracle(system, range(1, size))


def baseline_assign(graphs, solver_config, r):
    """Baseline teams of the graphs, solved by fuse_fleets as run_trial's fleets are."""
    config = SimConfig(n_robots=len(graphs[0].adjacency), n_capabilities=1, seed=0,
                       solver=solver_config)
    fleet = Fleet(config=config, system=None, graphs=tuple(graphs), events=(), nearest=(),
                  methods=(), fused={}, converged={})
    fused, = fuse_fleets([(fleet, solver_config)], (Method.BASELINE,))
    assignment, = partition(fused.fused[Method.BASELINE], r)
    return assignment


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
            full, = partition(solve(graphs, cfg).Z, 2)
            base = baseline_assign(graphs, cfg, 2)
            full_wins += blocks_recovered(full, blocks)
            base_wins += blocks_recovered(base, blocks)
        assert base_wins < full_wins


class TestRunTrial:
    def trial(self, seed=5):
        return run_trial(prepare_fleet(SimConfig(n_robots=8, n_capabilities=2, seed=seed,
                                                 n_events=40)), 3)

    def test_three_reports_in_method_order(self):
        reports = self.trial()
        assert [rep.method for rep in reports] == [Method.FULL, Method.BASELINE,
                                                   Method.GREEDY]

    def test_deterministic_repeat(self):
        assert self.trial() == self.trial()

    def test_rates_within_bounds_and_tagged(self):
        for rep in self.trial(seed=11):
            assert 0.0 <= rep.detection_rate <= 1.0
            assert 0.0 <= rep.duplication_rate <= 1.0
            assert rep.r == 3
            assert rep.seed == 11

    def test_singleton_regions_zero_duplication(self):
        cfg = SimConfig(n_robots=6, n_capabilities=2, seed=2, n_events=20)
        for rep in run_trial(prepare_fleet(cfg), 6):
            assert rep.duplication_rate == 0.0

    def test_several_team_counts_match_one_at_a_time(self):
        # r ascending and each once; Full and Baseline cut on from the r before
        fleet = prepare_fleet(SimConfig(n_robots=8, n_capabilities=2, seed=5, n_events=40))
        assert run_trial(fleet, 5, 2, 5, 3) == (
            run_trial(fleet, 2) + run_trial(fleet, 3) + run_trial(fleet, 5))

    def test_no_team_count_gives_no_reports(self):
        fleet = prepare_fleet(SimConfig(n_robots=6, n_capabilities=2, seed=2, n_events=20))
        assert run_trial(fleet) == []

    @pytest.mark.parametrize("r", [0, 7])
    def test_team_count_outside_the_fleet_rejected(self, r):
        fleet = prepare_fleet(SimConfig(n_robots=6, n_capabilities=2, seed=2, n_events=20))
        with pytest.raises(ValueError, match=r"r must be an integer in 1\.\.6, got %d" % r):
            run_trial(fleet, r)


class TestFleetReuse:
    def config(self, seed=0):
        return SimConfig(n_robots=10, n_capabilities=3, seed=seed, n_events=50)

    def test_shared_fleet_matches_fresh_trials(self):
        for seed in range(3):
            fleet = prepare_fleet(self.config(seed))
            for r in range(2, 11):
                assert run_trial(fleet, r) == run_trial(prepare_fleet(self.config(seed)), r)

    def test_only_listed_methods_solved_and_scored(self, monkeypatch):
        # a trial scores the fleet's methods in the order it was prepared for;
        # Full and Baseline take one solve each, the greedy baseline none
        import hetcover.simulation as simulation

        every = {rep.method: rep for rep in run_trial(prepare_fleet(self.config()), 3)}
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(simulation, "solve", counted("solve", simulation.solve))
        monkeypatch.setattr(simulation, "greedy_assign",
                            counted("greedy", simulation.greedy_assign))
        for methods in ((Method.FULL,), (Method.GREEDY,), tuple(Method),
                        tuple(reversed(Method))):
            calls.update(solve=0, greedy=0)
            reports = run_trial(prepare_fleet(self.config(), methods), 3)
            assert reports == [every[method] for method in methods]
            assert calls == {"solve": len(set(methods) - {Method.GREEDY}),
                             "greedy": int(Method.GREEDY in methods)}

    def test_nearest_robots_found_once_per_fleet(self, monkeypatch):
        import hetcover.simulation as simulation

        calls = []
        monkeypatch.setattr(simulation, "nearest_robots",
                            lambda *args: calls.append(args) or nearest_robots(*args))
        fleet = prepare_fleet(self.config())
        for r in range(2, 11):
            run_trial(fleet, r)
        assert len(calls) == 1

    def test_refused_fleet_matches_a_fresh_one(self):
        config = self.config(seed=1)
        placed = place_fleet(config)
        for alphas in ((0.1, 0.2, 0.7), (1.0, 0.0, 0.0)):
            solver = SolverConfig(alphas=alphas)
            other = replace(config, solver=solver)
            fused, = fuse_fleets([(placed, solver)], (Method.FULL,))
            fresh = prepare_fleet(other, (Method.FULL,))
            assert fused.config == other
            assert fused.fused[Method.FULL].tobytes() == fresh.fused[Method.FULL].tobytes()
            assert run_trial(fused, 3) == run_trial(fresh, 3)
        assert placed.fused == {}

    def test_weightings_fused_together_match_one_by_one(self, monkeypatch):
        import hetcover.simulation as simulation

        # one fleet's 12 weightings take one Full and one Baseline stack,
        # whatever the entry budget: only batch_fleets cuts stacks
        monkeypatch.setattr(simulation, "STACK_ENTRIES", 4 * 10 * 10)
        stacks = []
        monkeypatch.setattr(simulation, "solve", lambda graph_lists, configs, **kwargs:
                            stacks.append(len(configs)) or solve(graph_lists, configs, **kwargs))
        config = self.config(seed=1)
        placed = place_fleet(config)
        solvers = [SolverConfig(alphas=alphas) for alphas in
                   ((0.1, 0.2, 0.7), (1.0, 0.0, 0.0), (0.2, 0.1, 0.7))] * 4
        fused = fuse_fleets([(placed, solver) for solver in solvers])
        assert stacks == [len(solvers)] * 2
        assert len(fused) == len(solvers)
        for solver, fleet in zip(solvers, fused):
            alone = prepare_fleet(replace(config, solver=solver))
            assert fleet.config == alone.config
            assert set(fleet.fused) == {Method.FULL, Method.BASELINE}
            for method in (Method.FULL, Method.BASELINE):
                assert fleet.fused[method].tobytes() == alone.fused[method].tobytes()

    def test_fleets_fused_together_match_one_by_one(self, monkeypatch):
        import hetcover.simulation as simulation

        stacks = []
        monkeypatch.setattr(simulation, "solve", lambda graph_lists, configs, **kwargs:
                            stacks.append(len(configs)) or solve(graph_lists, configs, **kwargs))
        solvers = [SolverConfig(alphas=alphas) for alphas in ((0.1, 0.2, 0.7), (1.0, 0.0, 0.0))]
        placed = [place_fleet(self.config(seed)) for seed in range(3)]
        pairs = [(fleet, solver) for fleet in placed for solver in solvers]
        fused = fuse_fleets(pairs)
        assert stacks == [6, 6]  # one Full and one Baseline stack of the 3 fleets x 2 weightings
        assert [fleet.config for fleet in fused] == [
            replace(self.config(seed), solver=solver) for seed in range(3) for solver in solvers]
        for fleet in fused:
            alone = prepare_fleet(fleet.config)
            for method in (Method.FULL, Method.BASELINE):
                assert fleet.fused[method].tobytes() == alone.fused[method].tobytes()
            assert fleet.converged == alone.converged == dict.fromkeys(fleet.fused, True)
            assert run_trial(fleet, 3) == run_trial(alone, 3)

    def test_stack_size_follows_the_entry_budget(self):
        assert [stack_size(n) for n in (20, 50, 100, 200)] == [25, 4, 1, 1]

    def test_no_fleets_fuse_to_nothing(self, monkeypatch):
        import hetcover.simulation as simulation

        monkeypatch.setattr(simulation, "solve", None)  # a call would fail
        assert fuse_fleets([]) == []

    def test_fleets_never_compute_the_objective(self, tmp_path, monkeypatch):
        # only a caller that keeps the solver's trace pays for its objective
        import hetcover.solver as solver

        def refuse(*args, **kwargs):
            raise AssertionError("the objective was computed for a fleet")

        monkeypatch.setattr(solver, "objective", refuse)
        config = self.config()
        fleet = prepare_fleet(config)
        assert set(fleet.fused) == {Method.FULL, Method.BASELINE}
        assert len(run_trial(fleet, 3)) == 3
        assert main(["sweep", "--robots", "10", "--capabilities", "3", "--regions", "3",
                     "--seeds", "2", "--alpha-step", "0.5", "--events", "50",
                     "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 6


class TestBatchFleets:
    BASE = SimConfig(n_robots=6, n_capabilities=2, seed=0, n_events=10)
    SOLVERS = [SolverConfig(alphas=alphas) for alphas in ((0.1, 0.2, 0.7), (1.0, 0.0, 0.0))]

    def fused_alone(self, seed, s):
        return prepare_fleet(replace(self.BASE, seed=seed, solver=self.SOLVERS[s]))

    def assert_fused_alone(self, fleet, seed, s):
        alone = self.fused_alone(seed, s)
        assert fleet.config == alone.config
        for method in (Method.FULL, Method.BASELINE):
            assert fleet.fused[method].tobytes() == alone.fused[method].tobytes()

    def test_yields_seed_major_one_group_at_a_time(self, monkeypatch):
        import hetcover.simulation as simulation

        # a budget of four 6 x 6 problems: with two settings, seeds go in
        # groups of two, and a group's fleets are all yielded before the
        # next group is placed
        monkeypatch.setattr(simulation, "STACK_ENTRIES", 4 * 6 * 6)
        log = []
        place = simulation.place_fleet
        monkeypatch.setattr(simulation, "place_fleet",
                            lambda config: log.append(("place", config.seed)) or place(config))
        got = []
        for seed, s, fleet in batch_fleets(self.BASE, range(5), self.SOLVERS):
            log.append(("yield", seed, s))
            got.append((seed, s, fleet))
        want = []
        for seeds in ((0, 1), (2, 3), (4,)):
            want += [("place", seed) for seed in seeds]
            want += [("yield", seed, s) for seed in seeds for s in (0, 1)]
        assert log == want
        monkeypatch.setattr(simulation, "place_fleet", place)
        for seed, s, fleet in got:
            self.assert_fused_alone(fleet, seed, s)

    def test_a_seed_that_fails_to_place_fails_every_setting(self, monkeypatch):
        import hetcover.simulation as simulation

        place = simulation.place_fleet

        def failing(config):
            if config.seed == 1:
                raise RuntimeError("seed 1 cannot be placed")
            return place(config)

        stacks = []
        monkeypatch.setattr(simulation, "place_fleet", failing)
        monkeypatch.setattr(simulation, "solve", lambda graph_lists, configs, **kwargs:
                            stacks.append(len(configs)) or solve(graph_lists, configs, **kwargs))
        got = list(batch_fleets(self.BASE, range(3), self.SOLVERS))
        # seeds 0 and 2 still share one Full and one Baseline stack
        assert stacks == [4, 4]
        assert [(seed, s) for seed, s, _ in got] == [(seed, s) for seed in range(3)
                                                     for s in (0, 1)]
        for seed, s, fleet in got:
            if seed == 1:
                assert isinstance(fleet, RuntimeError)
                assert str(fleet) == "seed 1 cannot be placed"
            else:
                self.assert_fused_alone(fleet, seed, s)

    def test_a_failed_stack_is_fused_again_one_problem_at_a_time(self, monkeypatch):
        import hetcover.simulation as simulation

        bad = [g.adjacency.tobytes() for g in place_fleet(replace(self.BASE, seed=1)).graphs]
        stacks = []

        def failing(graph_lists, configs, **kwargs):
            stacks.append(len(configs))
            if any([g.adjacency.tobytes() for g in graphs] == bad for graphs in graph_lists):
                raise ValueError("the solver refused seed 1")
            return solve(graph_lists, configs, **kwargs)

        monkeypatch.setattr(simulation, "solve", failing)
        got = list(batch_fleets(self.BASE, range(3), self.SOLVERS))
        # the stack of all six problems fails; fused one at a time, each of
        # seeds 0 and 2's takes a Full and a Baseline stack, and each of seed
        # 1's fails at Full
        assert stacks == [6] + [1] * 10
        assert [(seed, s) for seed, s, _ in got] == [(seed, s) for seed in range(3)
                                                     for s in (0, 1)]
        for seed, s, fleet in got:
            if seed == 1:
                assert str(fleet) == "the solver refused seed 1"
            else:
                self.assert_fused_alone(fleet, seed, s)

    def test_a_stack_may_end_inside_a_seed(self, monkeypatch):
        import hetcover.simulation as simulation

        # a budget of three 6 x 6 problems: the 4 seeds x 2 settings take
        # three stacks per method, the first ending inside seed 1's settings
        # and the second after seed 2's
        monkeypatch.setattr(simulation, "STACK_ENTRIES", 3 * 6 * 6)
        placed, alive, stacks = [], {}, []
        place = simulation.place_fleet

        def placing(config):
            gc.collect()
            alive[config.seed] = [seed for seed, fleet in placed if fleet() is not None]
            fleet = place(config)
            placed.append((config.seed, weakref.ref(fleet)))
            return fleet

        monkeypatch.setattr(simulation, "place_fleet", placing)
        monkeypatch.setattr(simulation, "solve", lambda graph_lists, configs, **kwargs:
                            stacks.append(len(configs)) or solve(graph_lists, configs, **kwargs))
        got = [(seed, s, fleet.config, fleet.fused)
               for seed, s, fleet in batch_fleets(self.BASE, range(4), self.SOLVERS)]
        assert [seed for seed, _ in placed] == [0, 1, 2, 3]
        assert stacks == [3, 3, 3, 3, 2, 2]  # Full and Baseline of each stack
        # when a seed is placed, only fleets of the stack being gathered are
        # alive: seed 1's second setting is in the second stack, seed 2's
        # settings all lie in it
        assert alive == {0: [], 1: [0], 2: [1], 3: []}
        assert [(seed, s) for seed, s, _, _ in got] == [(seed, s) for seed in range(4)
                                                        for s in (0, 1)]
        monkeypatch.setattr(simulation, "place_fleet", place)
        for seed, s, config, fused in got:
            alone = self.fused_alone(seed, s)
            assert config == alone.config
            for method in (Method.FULL, Method.BASELINE):
                assert fused[method].tobytes() == alone.fused[method].tobytes()


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

    def test_cells_follow_the_event_nearest_robot_rule(self):
        # lattice robots put many cell centers at equal distances from two robots
        system = make_system([((x / 4, y / 4), "rgb") for x in range(3) for y in range(3)])
        asgn = TeamAssignment.from_teams([{i} for i in range(9)], 9)
        res = 4  # cell centers at odd multiples of 1/8 tie between lattice neighbours
        centers = [Event(Position((i + 0.5) / res, (j + 0.5) / res), "rgb")
                   for j in range(res) for i in range(res)]
        want = np.reshape(nearest_robots(system, centers), (res, res))
        assert np.array_equal(region_raster(system, asgn, res), want)

    def test_low_resolution_rejected(self):
        system = make_system([((0.2, 0.2), "rgb"), ((0.8, 0.8), "rgb")])
        asgn = TeamAssignment.from_teams([{0, 1}], 2)
        with pytest.raises(ValueError):
            region_raster(system, asgn, 1)

    @pytest.mark.parametrize("n", [1, 3])
    def test_assignment_of_another_size_rejected(self, n):
        system = make_system([((0.2, 0.2), "rgb"), ((0.8, 0.8), "rgb")])
        asgn = TeamAssignment.from_teams([set(range(n))], n)
        with pytest.raises(ValueError, match="the system has 2 robots but the assignment "
                                             "covers %d" % n):
            region_raster(system, asgn, 4)


class TestMetricsCsv:
    def test_header(self):
        assert METRICS_HEADER == "method,n,k_capabilities,r,seed,detection,duplication"

    def test_row_format_round_trips(self):
        cfg = SimConfig(n_robots=6, n_capabilities=2, seed=4,
                        n_events=30)
        reports = run_trial(prepare_fleet(cfg), 2)
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

    @pytest.mark.parametrize("width", [1.0, 3.0, 0.37, 1e3])
    def test_scaled_random_draws_uniform_to_the_bit(self, width):
        # placement draws width * random(); uniform(0.0, width) is the same
        # draw, so every fleet and event keeps its bits
        scaled, uniform = np.random.default_rng(17), np.random.default_rng(17)
        for k in range(1, 50_001):
            assert width * scaled.random() == uniform.uniform(0.0, width)
            assert width * scaled.random() == uniform.uniform(0.0, width)
            assert scaled.integers(0, k % 7 + 1) == uniform.integers(0, k % 7 + 1)
        assert scaled.bit_generator.state == uniform.bit_generator.state
