import json
import math

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
    segments_intersect,
    system_from_dict,
    system_to_dict,
)


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


class TestSegments:
    def test_perpendicular_crossing(self):
        assert segments_intersect(Position(0, 0), Position(2, 0),
                                  Position(1, -1), Position(1, 1))

    def test_disjoint(self):
        assert not segments_intersect(Position(0, 0), Position(2, 0),
                                      Position(3, -1), Position(3, 1))

    def test_endpoint_touch_counts(self):
        assert segments_intersect(Position(0, 0), Position(2, 0),
                                  Position(2, 0), Position(2, 1))

    def test_collinear_overlap(self):
        assert segments_intersect(Position(0, 0), Position(2, 0),
                                  Position(1, 0), Position(3, 0))


class TestLineOfSight:
    # same geometry as the segment cases, shifted into a positive-quadrant room
    def test_clear_when_no_obstacles(self):
        env = Environment(4.0, 4.0)
        assert line_of_sight(Position(0, 2), Position(2, 2), env)

    def test_blocked_by_crossing_wall(self):
        env = Environment(4.0, 4.0, (Wall(Position(1, 1), Position(1, 3)),))
        assert not line_of_sight(Position(0, 2), Position(2, 2), env)

    def test_wall_beyond_segment_does_not_block(self):
        env = Environment(4.0, 4.0, (Wall(Position(3, 1), Position(3, 3)),))
        assert line_of_sight(Position(0, 2), Position(2, 2), env)

    def test_symmetry(self):
        env = Environment(4.0, 4.0, (Wall(Position(1, 1), Position(1, 3)),))
        for a, b in [(Position(0, 2), Position(2, 2)), (Position(0, 0), Position(3, 3))]:
            assert line_of_sight(a, b, env) == line_of_sight(b, a, env)


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
