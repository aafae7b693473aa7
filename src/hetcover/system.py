"""Robot system model: rectangular environment with wall obstacles and robot specs.

A system bundles the environment geometry, the capability universe, and the
robot roster. Everything downstream (relation graphs, the coverage simulator)
reads from this one structure, so validation happens here, once. Line of
sight is tested for many segments in one call, one numpy pass per wall,
since the communication graph asks it of every close pair of robots.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Position:
    """A point in the plane. Coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("position coordinates must be finite, got (%r, %r)" % (self.x, self.y))

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Wall:
    """A line-segment obstacle. Blocks straight-line visibility, nothing else."""

    start: Position
    end: Position


@dataclass(frozen=True)
class Environment:
    """Axis-aligned rectangle [0, width] x [0, height] with wall segments inside."""

    width: float = 1.0
    height: float = 1.0
    obstacles: tuple = ()

    def __post_init__(self):
        if not (self.width > 0 and self.height > 0):
            raise ValueError("environment dimensions must be positive")
        if not (math.isfinite(self.width) and math.isfinite(self.height)):
            raise ValueError("environment dimensions must be finite")
        # nearest-robot queries compare squared distances, at most this sum
        if not math.isfinite(self.width * self.width + self.height * self.height):
            raise ValueError("environment dimensions %r x %r are too large: their squared "
                             "diagonal overflows" % (self.width, self.height))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        for wall in self.obstacles:
            if not isinstance(wall, Wall):
                raise TypeError("obstacles must be Wall instances")
            for p in (wall.start, wall.end):
                if not self.contains(p):
                    raise ValueError("wall endpoint (%r, %r) outside environment" % (p.x, p.y))

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    def contains(self, p: Position) -> bool:
        return 0.0 <= p.x <= self.width and 0.0 <= p.y <= self.height


def is_integer(value) -> bool:
    """An int and not a bool, which Python counts as an int."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class RobotSpec:
    """One robot: integer id, a position, and a non-empty capability set."""

    id: int
    position: Position
    capabilities: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not is_integer(self.id) or self.id < 0:
            raise ValueError("robot id must be a non-negative integer, got %r" % (self.id,))
        object.__setattr__(self, "capabilities", frozenset(self.capabilities))
        if not self.capabilities:
            raise ValueError("robot %d has an empty capability set" % self.id)
        if not all(isinstance(c, str) and c for c in self.capabilities):
            raise ValueError("capabilities must be non-empty strings")


@dataclass(frozen=True)
class RobotSystem:
    """A validated roster of robots in an environment.

    Parameters
    ----------
    robots : sequence of RobotSpec
        At least two robots with ids exactly 0..N-1 (any order on input;
        stored sorted by id).
    environment : Environment
        The shared workspace. Every robot position must lie inside it.
    capabilities : sequence of str
        The capability universe, kept in the given order. Every robot's
        capability set must be a subset.
    """

    robots: tuple
    environment: Environment
    capabilities: tuple

    def __post_init__(self):
        robots = tuple(sorted(self.robots, key=lambda r: r.id))
        object.__setattr__(self, "robots", robots)
        caps = tuple(self.capabilities)
        object.__setattr__(self, "capabilities", caps)

        if len(robots) < 2:
            raise ValueError("a system needs at least two robots")
        ids = [r.id for r in robots]
        if ids != list(range(len(robots))):
            raise ValueError("robot ids must be exactly 0..N-1, got %r" % (ids,))
        if len(set(caps)) != len(caps) or not caps:
            raise ValueError("capability universe must be non-empty and free of duplicates")
        universe = set(caps)
        for r in robots:
            if not r.capabilities <= universe:
                extra = sorted(r.capabilities - universe)
                raise ValueError("robot %d has capabilities outside the universe: %r" % (r.id, extra))
            if not self.environment.contains(r.position):
                raise ValueError("robot %d position outside environment" % r.id)

    def __len__(self):
        return len(self.robots)

    def positions(self):
        """Robot positions as an (N, 2) float array, ordered by id."""
        return np.array([[r.position.x, r.position.y] for r in self.robots], dtype=float)

    def capability_matrix(self):
        """(N, K) bool array, ordered by id: robot i has capabilities[j] at [i, j]."""
        return np.array([[c in r.capabilities for c in self.capabilities] for r in self.robots])


def _orientation(ax, ay, bx, by, cx, cy):
    # sign of the cross product (b - a) x (c - a), elementwise
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(ax, ay, bx, by, px, py):
    # whether p lies on the closed segment ab, assuming a, b, p collinear; elementwise
    return ((np.minimum(ax, bx) <= px) & (px <= np.maximum(ax, bx))
            & (np.minimum(ay, by) <= py) & (py <= np.maximum(ay, by)))


def line_of_sight(a, b, environment: Environment) -> np.ndarray:
    """Which of the k closed segments a[i]-b[i] cross no wall of the environment.

    a and b are (k, 2) arrays of endpoints; the result is a (k,) bool array.
    Segments and walls are both closed, so touching a wall, at its endpoints
    too, counts as blocked, as does a collinear overlap. Each wall is one
    elementwise pass; float64 arrays round every multiply and subtract as
    Python floats do, so the result is exact in floats: each decision is
    the one the scalar expressions would make for that pair.
    """
    ax, ay = np.asarray(a, dtype=float).T
    bx, by = np.asarray(b, dtype=float).T
    clear = np.ones(ax.shape, dtype=bool)
    for wall in environment.obstacles:
        px, py, qx, qy = wall.start.x, wall.start.y, wall.end.x, wall.end.y
        d1 = _orientation(px, py, qx, qy, ax, ay)
        d2 = _orientation(px, py, qx, qy, bx, by)
        d3 = _orientation(ax, ay, bx, by, px, py)
        d4 = _orientation(ax, ay, bx, by, qx, qy)
        crossing = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) \
            & (((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0)))
        touching = ((d1 == 0) & _on_segment(px, py, qx, qy, ax, ay)) \
            | ((d2 == 0) & _on_segment(px, py, qx, qy, bx, by)) \
            | ((d3 == 0) & _on_segment(ax, ay, bx, by, px, py)) \
            | ((d4 == 0) & _on_segment(ax, ay, bx, by, qx, qy))
        clear &= ~(crossing | touching)
    return clear


def point_segment_distance(p: Position, a: Position, b: Position) -> float:
    """Euclidean distance from point p to the closed segment a-b."""
    vx, vy = b.x - a.x, b.y - a.y
    wx, wy = p.x - a.x, p.y - a.y
    vv = vx * vx + vy * vy
    if vv == 0.0:
        return p.distance_to(a)
    t = max(0.0, min(1.0, (wx * vx + wy * vy) / vv))
    return math.hypot(wx - t * vx, wy - t * vy)


# ---------------------------------------------------------------------------
# JSON serialization


def system_to_dict(system: RobotSystem) -> dict:
    """Plain-dict form of a system, suitable for json.dump."""
    return {
        "capabilities": list(system.capabilities),
        "environment": {
            "width": system.environment.width,
            "height": system.environment.height,
            "obstacles": [
                [[w.start.x, w.start.y], [w.end.x, w.end.y]]
                for w in system.environment.obstacles
            ],
        },
        "robots": [
            {
                "id": r.id,
                "position": [r.position.x, r.position.y],
                "capabilities": sorted(r.capabilities),
            }
            for r in system.robots
        ],
    }


def _malformed(what, shape, value) -> ValueError:
    return ValueError("malformed system document: %s must be %s, got %r" % (what, shape, value))


def _is_number(value) -> bool:
    """A JSON int or float: not a bool (which Python counts as an int), not a string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, what) -> float:
    if not _is_number(value):
        raise _malformed(what, "a number", value)
    return float(value)


def _point(value, what) -> Position:
    """A position or wall endpoint: a list of exactly two numbers."""
    if not (isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))):
        raise _malformed(what, "[x, y] of two numbers", value)
    return Position(float(value[0]), float(value[1]))


def _field(mapping, key, what=None):
    """mapping[key], or a malformed-document error naming what (default key) is missing."""
    if key not in mapping:
        raise ValueError("malformed system document: %s is missing" % (what or key))
    return mapping[key]


def _container(value, kind, what):
    """value if it is a kind (dict or list), or an error naming what and the type found."""
    if not isinstance(value, kind):
        raise ValueError("malformed system document: %s must be %s, got %s"
                         % (what, "an object" if kind is dict else "a list",
                            type(value).__name__))
    return value


def _names(value, what) -> list:
    if not (isinstance(value, list) and all(isinstance(name, str) for name in value)):
        raise _malformed(what, "a list of strings", value)
    return value


def system_from_dict(data: dict) -> RobotSystem:
    """Inverse of system_to_dict. Runs full validation.

    Robots and obstacles are named by their index in their list.
    """
    try:
        _container(data, dict, "the top level")
        env_data = _container(_field(data, "environment"), dict, "environment")
        walls = []
        for i, points in enumerate(_container(env_data.get("obstacles", []), list, "obstacles")):
            if not (isinstance(points, list) and len(points) == 2):
                raise _malformed("obstacle %d" % i, "[[x1, y1], [x2, y2]]", points)
            walls.append(Wall(*(_point(p, "obstacle %d endpoint" % i) for p in points)))
        env = Environment(_number(_field(env_data, "width"), "width"),
                          _number(_field(env_data, "height"), "height"), walls)
        robots = []
        for i, r in enumerate(_container(_field(data, "robots"), list, "robots")):
            robot = "robot %d" % i
            position, capabilities = robot + " position", robot + " capabilities"
            _container(r, dict, robot)
            robots.append(RobotSpec(
                id=_field(r, "id", robot + " id"),
                position=_point(_field(r, "position", position), position),
                capabilities=frozenset(_names(_field(r, "capabilities", capabilities),
                                              capabilities)),
            ))
        universe = _names(_field(data, "capabilities"), "capabilities")
        return RobotSystem(robots=tuple(robots), environment=env, capabilities=tuple(universe))
    except (KeyError, IndexError, TypeError, OverflowError) as exc:
        raise ValueError("malformed system document: %s" % exc) from exc


def save_system(system: RobotSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_dict(system), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_system(path) -> RobotSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return system_from_dict(json.load(fh))
