"""Robot system model: rectangular environment with wall obstacles and robot specs.

A system bundles the environment geometry, the capability universe, and the
robot roster. Everything downstream (relation graphs, the coverage simulator)
reads from this one structure, so validation happens here, once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


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

    width: float
    height: float
    obstacles: tuple = ()

    def __post_init__(self):
        if not (self.width > 0 and self.height > 0):
            raise ValueError("environment dimensions must be positive")
        if not (math.isfinite(self.width) and math.isfinite(self.height)):
            raise ValueError("environment dimensions must be finite")
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


@dataclass(frozen=True)
class RobotSpec:
    """One robot: integer id, a position, and a non-empty capability set."""

    id: int
    position: Position
    capabilities: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not isinstance(self.id, int) or self.id < 0:
            raise ValueError("robot id must be a non-negative integer")
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

    @property
    def n_robots(self) -> int:
        return len(self.robots)

    def positions(self):
        """Robot positions as an (N, 2) float array, ordered by id."""
        import numpy as np

        return np.array([[r.position.x, r.position.y] for r in self.robots], dtype=float)


def _orientation(ax, ay, bx, by, cx, cy):
    # sign of the cross product (b - a) x (c - a)
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(ax, ay, bx, by, px, py):
    # whether p lies on the closed segment ab, assuming a, b, p collinear
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def segments_intersect(p1: Position, p2: Position, p3: Position, p4: Position) -> bool:
    """Whether closed segments p1-p2 and p3-p4 share at least one point."""
    d1 = _orientation(p3.x, p3.y, p4.x, p4.y, p1.x, p1.y)
    d2 = _orientation(p3.x, p3.y, p4.x, p4.y, p2.x, p2.y)
    d3 = _orientation(p1.x, p1.y, p2.x, p2.y, p3.x, p3.y)
    d4 = _orientation(p1.x, p1.y, p2.x, p2.y, p4.x, p4.y)

    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and \
       ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True

    if d1 == 0 and _on_segment(p3.x, p3.y, p4.x, p4.y, p1.x, p1.y):
        return True
    if d2 == 0 and _on_segment(p3.x, p3.y, p4.x, p4.y, p2.x, p2.y):
        return True
    if d3 == 0 and _on_segment(p1.x, p1.y, p2.x, p2.y, p3.x, p3.y):
        return True
    if d4 == 0 and _on_segment(p1.x, p1.y, p2.x, p2.y, p4.x, p4.y):
        return True
    return False


def line_of_sight(a: Position, b: Position, environment: Environment) -> bool:
    """True when the closed segment a-b crosses no wall of the environment.

    Touching a wall endpoint counts as blocked: the test is intersection of
    closed segments on both sides.
    """
    for wall in environment.obstacles:
        if segments_intersect(a, b, wall.start, wall.end):
            return False
    return True


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


def system_from_dict(data: dict) -> RobotSystem:
    """Inverse of system_to_dict. Runs full validation."""
    try:
        env_data = data["environment"]
        walls = tuple(
            Wall(Position(float(s[0]), float(s[1])), Position(float(e[0]), float(e[1])))
            for s, e in env_data.get("obstacles", [])
        )
        env = Environment(float(env_data["width"]), float(env_data["height"]), walls)
        robots = tuple(
            RobotSpec(
                id=int(r["id"]),
                position=Position(float(r["position"][0]), float(r["position"][1])),
                capabilities=frozenset(r["capabilities"]),
            )
            for r in data["robots"]
        )
        caps = tuple(data["capabilities"])
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError("malformed system document: %s" % exc) from exc
    return RobotSystem(robots=robots, environment=env, capabilities=caps)


def save_system(system: RobotSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_dict(system), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_system(path) -> RobotSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return system_from_dict(json.load(fh))
