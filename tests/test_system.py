import json
import math

import numpy as np
import pytest

from hetcover.system import (
    Environment,
    Position,
    RobotSpec,
    RobotSystem,
    Wall,
    line_of_sight,
    load_system,
    point_segment_distance,
    save_system,
    system_from_dict,
    system_to_dict,
)

from _oracles import sight_oracle


def make_system(n=3, width=4.0, height=4.0, caps=("rgb", "depth")):
    robots = tuple(
        RobotSpec(i, Position(0.5 + i, 1.0), frozenset({caps[i % len(caps)]}))
        for i in range(n)
    )
    return RobotSystem(robots, Environment(width, height), caps)


class TestPosition:
    def test_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == 5.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Position(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Position(0.0, float("inf"))


class TestEnvironment:
    def test_dimensions_must_be_positive(self):
        with pytest.raises(ValueError):
            Environment(0.0, 1.0)
        with pytest.raises(ValueError):
            Environment(1.0, -2.0)

    @pytest.mark.parametrize("width, height", [(1e200, 1.0), (1.0, 1e155), (1e154, 1e154)])
    def test_dimensions_whose_squared_diagonal_overflows_rejected(self, width, height):
        with pytest.raises(ValueError, match="too large: their squared diagonal overflows"):
            Environment(width, height)

    def test_wall_endpoints_must_be_inside(self):
        with pytest.raises(ValueError):
            Environment(1.0, 1.0, (Wall(Position(0.5, 0.5), Position(1.5, 0.5)),))

    def test_contains_and_diagonal(self):
        env = Environment(3.0, 4.0)
        assert env.contains(Position(3.0, 4.0))
        assert not env.contains(Position(3.1, 0.0))
        assert env.diagonal == 5.0


class TestRobotSpec:
    def test_empty_capabilities_rejected(self):
        with pytest.raises(ValueError):
            RobotSpec(0, Position(0, 0), frozenset())

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            RobotSpec(-1, Position(0, 0), frozenset({"rgb"}))


class TestRobotSystem:
    def test_needs_two_robots(self):
        env = Environment(1.0, 1.0)
        with pytest.raises(ValueError):
            RobotSystem((RobotSpec(0, Position(0.5, 0.5), frozenset({"rgb"})),), env, ("rgb",))

    def test_ids_must_be_contiguous(self):
        env = Environment(1.0, 1.0)
        robots = (
            RobotSpec(0, Position(0.1, 0.1), frozenset({"rgb"})),
            RobotSpec(2, Position(0.2, 0.2), frozenset({"rgb"})),
        )
        with pytest.raises(ValueError):
            RobotSystem(robots, env, ("rgb",))

    def test_capabilities_must_be_in_universe(self):
        env = Environment(1.0, 1.0)
        robots = (
            RobotSpec(0, Position(0.1, 0.1), frozenset({"rgb"})),
            RobotSpec(1, Position(0.2, 0.2), frozenset({"sonar"})),
        )
        with pytest.raises(ValueError):
            RobotSystem(robots, env, ("rgb",))

    def test_positions_must_be_inside(self):
        env = Environment(1.0, 1.0)
        robots = (
            RobotSpec(0, Position(0.1, 0.1), frozenset({"rgb"})),
            RobotSpec(1, Position(2.0, 0.2), frozenset({"rgb"})),
        )
        with pytest.raises(ValueError):
            RobotSystem(robots, env, ("rgb",))

    def test_robots_sorted_by_id(self):
        env = Environment(1.0, 1.0)
        robots = (
            RobotSpec(1, Position(0.2, 0.2), frozenset({"rgb"})),
            RobotSpec(0, Position(0.1, 0.1), frozenset({"rgb"})),
        )
        system = RobotSystem(robots, env, ("rgb",))
        assert [r.id for r in system.robots] == [0, 1]


def room(*walls):
    """A 4 x 4 room with the given walls, each a ((x, y), (x, y)) pair."""
    return Environment(4.0, 4.0, tuple(Wall(Position(*p), Position(*q)) for p, q in walls))


def sight(segments, env):
    """line_of_sight of segments given as ((x, y), (x, y)) pairs."""
    ends = np.array(segments, dtype=float).reshape(-1, 2, 2)
    return line_of_sight(ends[:, 0], ends[:, 1], env)


def oracle_sight(segments, env):
    walls = [((w.start.x, w.start.y), (w.end.x, w.end.y)) for w in env.obstacles]
    return np.array([sight_oracle(a, b, walls) for a, b in segments], dtype=bool)


def crosses_properly(a, b, p, q):
    """Whether each of segments a-b and p-q has its ends strictly on both sides of the other."""
    def side(u, v, w):
        return (v[0] - u[0]) * (w[1] - u[1]) - (v[1] - u[1]) * (w[0] - u[0])
    return side(p, q, a) * side(p, q, b) < 0 and side(a, b, p) * side(a, b, q) < 0


class TestSegments:
    # one segment against one wall, each case also with the two swapped
    def meet(self, segment, wall):
        return [not sight([segment], room(wall))[0], not sight([wall], room(segment))[0]]

    def test_perpendicular_crossing(self):
        assert self.meet(((0, 1), (2, 1)), ((1, 0), (1, 2))) == [True, True]

    def test_disjoint(self):
        assert self.meet(((0, 1), (2, 1)), ((3, 0), (3, 2))) == [False, False]

    def test_endpoint_touch_counts(self):
        # end on end, end on the inside of the other
        assert self.meet(((0, 1), (2, 1)), ((2, 1), (2, 2))) == [True, True]
        assert self.meet(((0, 1), (2, 1)), ((1, 1), (1, 2))) == [True, True]

    def test_collinear_overlap(self):
        assert self.meet(((0, 1), (2, 1)), ((1, 1), (3, 1))) == [True, True]
        assert self.meet(((1.5, 1), (2.5, 1)), ((1, 1), (3, 1))) == [True, True]
        assert self.meet(((0, 1), (0.5, 1)), ((1, 1), (3, 1))) == [False, False]

    def test_one_float_step_decides(self):
        # a segment ending on the diagonal meets it; one ulp above, it does not
        diagonal = ((0, 0), (2, 2))
        for y, meets in [(1.0, True), (math.nextafter(1.0, 2.0), False)]:
            for short in [((0, 2), (1, y)), ((1, y), (0, 2))]:
                assert self.meet(short, diagonal) == [meets, meets]
                assert sight_oracle(*short, [diagonal]) is not meets


class TestLineOfSight:
    # the segment cases, shifted into a positive-quadrant room
    def test_clear_when_no_obstacles(self):
        clear = sight([((0, 2), (2, 2)), ((1, 1), (1, 1))], room())
        assert clear.dtype == bool and clear.tolist() == [True, True]

    def test_blocked_by_crossing_wall(self):
        env = room(((1, 1), (1, 3)))
        assert sight([((0, 2), (2, 2)), ((0, 0), (3, 3))], env).tolist() == [False, False]

    def test_wall_beyond_segment_does_not_block(self):
        # beside it, and on its line past its end
        env = room(((3, 1), (3, 3)), ((3, 2), (4, 2)), ((1, 3), (1, 4)))
        assert sight([((0, 2), (2, 2))], env).tolist() == [True]

    def test_symmetry(self):
        env = room(((1, 1), (1, 3)), ((0, 0), (4, 4)))
        rng = np.random.default_rng(5)
        a, b = rng.uniform(0.0, 4.0, size=(2, 500, 2))
        a[:2], b[:2] = [(0, 2), (0, 0)], [(2, 2), (3, 3)]
        assert np.array_equal(line_of_sight(a, b, env), line_of_sight(b, a, env))

    def test_many_pairs_equal_the_pairs_one_at_a_time(self):
        rng = np.random.default_rng(6)
        env = room(((1, 1), (1, 3)), ((2, 0), (4, 2)), ((0, 3), (3, 3)))
        a, b = rng.uniform(0.0, 4.0, size=(2, 300, 2))
        one_at_a_time = [line_of_sight(a[k:k + 1], b[k:k + 1], env)[0] for k in range(300)]
        assert line_of_sight(a, b, env).tolist() == one_at_a_time

    def test_zero_pairs_give_an_empty_bool_array(self):
        for env in (room(), room(((1, 1), (1, 3)))):
            clear = line_of_sight(np.empty((0, 2)), np.empty((0, 2)), env)
            assert clear.shape == (0,) and clear.dtype == bool

    def test_zero_length_wall_blocks_only_segments_through_it(self):
        env = room(((1, 2), (1, 2)))
        segments = [((0, 2), (2, 2)), ((0, 1), (2, 3)), ((1, 2), (3, 0)), ((0, 3), (2, 3)),
                    ((2, 2), (3, 2))]
        want = [False, False, False, True, True]
        assert sight(segments, env).tolist() == want == oracle_sight(segments, env).tolist()

    def test_zero_length_segment_is_blocked_only_on_a_wall(self):
        # coincident robots: a point on the wall, at its end, off it, and on its line past it
        env = room(((1, 1), (1, 3)))
        segments = [((1, 2), (1, 2)), ((1, 3), (1, 3)), ((2, 2), (2, 2)), ((1, 3.5), (1, 3.5))]
        want = [False, False, True, True]
        assert sight(segments, env).tolist() == want == oracle_sight(segments, env).tolist()

    def test_matches_the_scalar_oracle_on_lattices_and_uniform_segments(self):
        # a 5 x 5 lattice makes collinear and touching pairs common
        rng = np.random.default_rng(7)
        on_lattice = touching = 0
        for trial in range(1000):
            n_walls = int(rng.integers(0, 4))
            lattice = trial % 2 == 0
            draw = ((lambda size: rng.integers(0, 5, size=size).astype(float)) if lattice
                    else (lambda size: rng.uniform(0.0, 4.0, size=size)))
            segments = draw((40, 2, 2))
            walls = draw((n_walls, 2, 2))
            if not lattice and n_walls:
                walls[0, 0] = segments[0, 1]  # a wall that ends on a segment's end
            env = room(*walls.tolist())
            pairs = [tuple(map(tuple, segment)) for segment in segments.tolist()]
            got = line_of_sight(segments[:, 0], segments[:, 1], env)
            assert got.tolist() == oracle_sight(pairs, env).tolist()
            if lattice:
                on_lattice += len(pairs)
                # blocked, yet no wall crosses properly: a touch or a collinear overlap
                touching += sum(not clear and not any(crosses_properly(a, b, p, q)
                                                      for p, q in walls.tolist())
                                for (a, b), clear in zip(pairs, got.tolist()))
        assert on_lattice >= 20_000
        assert touching >= 1_000


def test_point_segment_distance():
    a, b = Position(0, 0), Position(2, 0)
    assert point_segment_distance(Position(1, 1), a, b) == 1.0
    assert point_segment_distance(Position(3, 0), a, b) == 1.0
    assert point_segment_distance(Position(0.5, 0), a, b) == 0.0
    # degenerate segment
    assert point_segment_distance(Position(1, 1), a, a) == math.hypot(1, 1)


class TestSerialization:
    def test_round_trip_dict(self):
        system = make_system()
        again = system_from_dict(system_to_dict(system))
        assert again == system

    def test_round_trip_file(self, tmp_path):
        env = Environment(2.0, 2.0, (Wall(Position(1.0, 0.0), Position(1.0, 1.5)),))
        robots = (
            RobotSpec(0, Position(0.5, 0.5), frozenset({"rgb", "depth"})),
            RobotSpec(1, Position(1.5, 0.5), frozenset({"depth"})),
        )
        system = RobotSystem(robots, env, ("rgb", "depth"))
        path = tmp_path / "system.json"
        save_system(system, path)
        assert load_system(path) == system

    def test_document_shape(self, tmp_path):
        system = make_system()
        path = tmp_path / "system.json"
        save_system(system, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"capabilities", "environment", "robots"}
        assert set(doc["environment"]) == {"width", "height", "obstacles"}
        assert all(set(r) == {"id", "position", "capabilities"} for r in doc["robots"])

    def test_malformed_document_rejected(self):
        with pytest.raises(ValueError):
            system_from_dict({"robots": []})

    def test_save_deterministic(self, tmp_path):
        system = make_system()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_system(system, p1)
        save_system(system, p2)
        assert p1.read_bytes() == p2.read_bytes()
