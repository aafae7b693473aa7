"""Seeded coverage experiments: system generation, metrics, and baselines.

A trial generates a random system, fuses its three relation graphs, partitions
the result into teams, and scores the assignment on simulated typed events
(detection) and within-team capability redundancy (duplication). Two
baselines run alongside: the same pipeline with both regularizers off, and
plain agglomerative spatial clustering. Everything in a trial except
forming the r teams and scoring them depends only on the fleet, so it is
kept in a Fleet that serves every r at one seed.

All randomness flows from SimConfig.seed; system generation and event
placement draw from independent child streams so each is reproducible on
its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .graphs import build_relation_graphs
from .partition import TeamAssignment, partition
from .solver import SolverConfig, solve
from .system import (
    Environment,
    Position,
    RobotSpec,
    RobotSystem,
    point_segment_distance,
)

CAPABILITY_NAMES = ("rgb", "depth", "audio", "thermal", "lidar", "radar", "sonar", "uv")


def capability_universe(k: int):
    """The first k capability names (generic names past the built-in list)."""
    if k < 1:
        raise ValueError("need at least one capability")
    names = list(CAPABILITY_NAMES[:k])
    names += ["cap%d" % i for i in range(len(names), k)]
    return tuple(names)


class Method(Enum):
    FULL = "Full"
    BASELINE = "Baseline"
    GREEDY = "Greedy"


@dataclass(frozen=True)
class SimConfig:
    """One trial's knobs. Unset geometry falls back to the unit square,
    communication radius to 0.4 x the environment diagonal, and solver
    weights to equal thirds."""

    n_robots: int
    n_capabilities: int
    n_regions: int
    seed: int
    n_events: int = 100
    comm_radius: float | None = None
    environment: Environment | None = None
    solver: SolverConfig | None = None
    spatial_epsilon: float | None = None

    def __post_init__(self):
        if not (isinstance(self.n_robots, int) and self.n_robots >= 2):
            raise ValueError("n_robots must be an integer >= 2")
        if not (isinstance(self.n_capabilities, int) and self.n_capabilities >= 1):
            raise ValueError("n_capabilities must be a positive integer")
        if not (isinstance(self.n_regions, int) and 1 <= self.n_regions <= self.n_robots):
            raise ValueError("n_regions must lie in 1..n_robots")
        if not (isinstance(self.n_events, int) and self.n_events >= 1):
            raise ValueError("n_events must be a positive integer")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")
        if self.environment is None:
            object.__setattr__(self, "environment", Environment(1.0, 1.0))
        if self.comm_radius is None:
            object.__setattr__(self, "comm_radius", 0.4 * self.environment.diagonal)
        if not self.comm_radius > 0:
            raise ValueError("comm_radius must be positive")
        if self.solver is None:
            object.__setattr__(
                self, "solver", SolverConfig(alphas=(1 / 3, 1 / 3, 1 / 3))
            )


@dataclass(frozen=True)
class Event:
    position: Position
    event_type: str


@dataclass(frozen=True)
class MetricsReport:
    method: Method
    detection_rate: float
    duplication_rate: float
    r: int
    seed: int

    def __post_init__(self):
        for rate in (self.detection_rate, self.duplication_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rates must lie in [0, 1], got %r" % rate)


# a position closer than this fraction of the diagonal to a wall is resampled
_WALL_CLEARANCE_FRACTION = 1e-6
_MAX_PLACEMENT_ATTEMPTS = 10**5


def _sample_position(env: Environment, rng) -> Position:
    clearance = _WALL_CLEARANCE_FRACTION * env.diagonal
    for _ in range(_MAX_PLACEMENT_ATTEMPTS):
        p = Position(rng.uniform(0.0, env.width), rng.uniform(0.0, env.height))
        if all(point_segment_distance(p, w.start, w.end) > clearance for w in env.obstacles):
            return p
    raise RuntimeError(
        "could not place a robot clear of walls after %d attempts" % _MAX_PLACEMENT_ATTEMPTS
    )


def generate_system(config: SimConfig, rng) -> RobotSystem:
    """Uniform random positions (kept off walls), one uniform capability each."""
    universe = capability_universe(config.n_capabilities)
    robots = []
    for i in range(config.n_robots):
        position = _sample_position(config.environment, rng)
        cap = universe[int(rng.integers(0, config.n_capabilities))]
        robots.append(RobotSpec(id=i, position=position, capabilities=frozenset({cap})))
    return RobotSystem(robots=tuple(robots), environment=config.environment,
                       capabilities=universe)


def simulate_events(config: SimConfig, rng):
    """n_events typed events, uniform over the environment and the universe."""
    universe = capability_universe(config.n_capabilities)
    events = []
    for _ in range(config.n_events):
        p = Position(rng.uniform(0.0, config.environment.width),
                     rng.uniform(0.0, config.environment.height))
        events.append(Event(p, universe[int(rng.integers(0, config.n_capabilities))]))
    return events


def nearest_robots(system: RobotSystem, events) -> tuple:
    """Each event's nearest robot id: Euclidean, ties to the lower id.

    The rule makes a team's merged Voronoi cell the region it watches.
    """
    pos = system.positions()
    nearest = []
    for event in events:
        d2 = (pos[:, 0] - event.position.x) ** 2 + (pos[:, 1] - event.position.y) ** 2
        nearest.append(int(np.argmin(d2)))  # argmin keeps the first (lowest id) on ties
    return tuple(nearest)


def detection_rate(system: RobotSystem, assignment: TeamAssignment, events,
                   nearest=None) -> float:
    """Fraction of events whose nearest robot's team can sense the event type.

    nearest, when given, is nearest_robots(system, events), which depends
    only on the fleet and so can serve every assignment of it.
    """
    if len(assignment.team_of) != len(system):
        raise ValueError("assignment does not cover this system")
    if not events:
        raise ValueError("cannot score an empty event list")
    if nearest is None:
        nearest = nearest_robots(system, events)
    elif len(nearest) != len(events):
        raise ValueError("%d nearest robots for %d events" % (len(nearest), len(events)))
    team_caps = [
        frozenset().union(*(system.robots[i].capabilities for i in team))
        for team in assignment.teams
    ]
    team_of = assignment.team_of
    detected = sum(event.event_type in team_caps[team_of[robot]]
                   for event, robot in zip(events, nearest))
    return detected / len(events)


def duplication_rate(system: RobotSystem, assignment: TeamAssignment) -> float:
    """d/N where d counts robots fully covered by lower-id teammates.

    Scanning each team in ascending id, a robot is a duplicate when every
    capability it has was already provided by a previously scanned teammate.
    """
    if len(assignment.team_of) != len(system):
        raise ValueError("assignment does not cover this system")
    duplicates = 0
    for team in assignment.teams:
        provided = set()
        for rid in sorted(team):
            caps = system.robots[rid].capabilities
            if caps <= provided:
                duplicates += 1
            provided |= caps
    return duplicates / len(system)


def greedy_assign(system: RobotSystem, r: int) -> TeamAssignment:
    """Spatial-only baseline: agglomerative merging by centroid distance.

    Repeatedly merges the two clusters whose centroids are closest (ties by
    the lexicographically smallest pair of smallest-member ids) until r
    clusters remain.
    """
    n = len(system)
    if not (isinstance(r, int) and 1 <= r <= n):
        raise ValueError("r must lie in 1..%d, got %r" % (n, r))
    pos = system.positions()

    def cluster(members):
        # a cluster's centroid and smallest member are computed once, when it forms
        return members, pos[list(members)].mean(axis=0).tolist(), min(members)

    clusters = [cluster(frozenset([i])) for i in range(n)]
    while len(clusters) > r:
        best = None
        for a, (_, (xa, ya), low_a) in enumerate(clusters):
            for b in range(a + 1, len(clusters)):
                _, (xb, yb), low_b = clusters[b]
                d = math.hypot(xa - xb, ya - yb)
                label = (low_a, low_b) if low_a < low_b else (low_b, low_a)
                key = (d, label)
                if best is None or key < best[0]:
                    best = (key, a, b)
        _, a, b = best
        merged = cluster(clusters[a][0] | clusters[b][0])
        clusters = [c for i, c in enumerate(clusters) if i not in (a, b)] + [merged]
    return TeamAssignment.from_teams([members for members, _, _ in clusters], n)


def baseline_solver_config(solver_config: SolverConfig) -> SolverConfig:
    """Baseline's solver settings: the same config with lambda1 = lambda2 = 0."""
    return replace(solver_config, lambda1=0.0, lambda2=0.0)


def baseline_assign(graphs, solver_config: SolverConfig, r: int) -> TeamAssignment:
    """Regularizer-free baseline: the same pipeline with lambda1 = lambda2 = 0."""
    return partition(solve(graphs, baseline_solver_config(solver_config)).Z, r)


def trial_rngs(seed: int):
    """Independent child generators (system placement, event placement)."""
    children = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(children[0]), np.random.default_rng(children[1])


@dataclass(frozen=True, eq=False)
class Fleet:
    """The part of a trial that does not depend on the team count r.

    One fleet serves every r at its seed: the generated system, its relation
    graphs, its events with each event's nearest robot, and the fused Z of
    each solved method (Full, Baseline). config is the configuration it was
    prepared from; trials may differ from it only in n_regions. Only the
    fused Z depend on config.solver.
    """

    config: SimConfig
    system: RobotSystem
    graphs: tuple
    events: tuple
    nearest: tuple  # nearest_robots(system, events)
    fused: dict  # Method -> Z


def place_fleet(config: SimConfig) -> Fleet:
    """Generate the system, its graphs and its events, with nothing solved yet."""
    system_rng, event_rng = trial_rngs(config.seed)
    system = generate_system(config, system_rng)
    graphs = tuple(build_relation_graphs(system, config.comm_radius, config.spatial_epsilon))
    events = tuple(simulate_events(config, event_rng))
    return Fleet(config=config, system=system, graphs=graphs, events=events,
                 nearest=nearest_robots(system, events), fused={})


def fuse_fleet(fleet: Fleet, solver: SolverConfig, methods=tuple(Method)) -> Fleet:
    """The fleet under the given solver settings, with only the listed methods solved."""
    solver_config = solver.resolved(len(fleet.graphs))
    fused = {}
    if Method.FULL in methods:
        fused[Method.FULL] = solve(fleet.graphs, solver_config).Z
    if Method.BASELINE in methods:
        fused[Method.BASELINE] = solve(fleet.graphs, baseline_solver_config(solver_config)).Z
    return replace(fleet, config=replace(fleet.config, solver=solver), fused=fused)


def prepare_fleet(config: SimConfig, methods=tuple(Method)) -> Fleet:
    """Generate, fuse and place events once; solves only the listed methods."""
    return fuse_fleet(place_fleet(config), config.solver, methods)


def run_trial(config: SimConfig, fleet: Fleet | None = None, methods=tuple(Method)):
    """One experiment at one seed and team count; one MetricsReport per method.

    Reports come in the order of `methods`. A fleet from prepare_fleet is
    reused as is; without one, the fleet is prepared for this trial alone.
    """
    if fleet is None:
        fleet = prepare_fleet(config, methods)
    elif replace(fleet.config, n_regions=1) != replace(config, n_regions=1):
        raise ValueError("the fleet was prepared from a different configuration")
    r = config.n_regions
    reports = []
    for method in methods:
        if method is Method.GREEDY:
            assignment = greedy_assign(fleet.system, r)
        elif method in fleet.fused:
            assignment = partition(fleet.fused[method], r)
        else:
            raise ValueError("the fleet holds no %s solution" % method.value)
        reports.append(
            MetricsReport(
                method=method,
                detection_rate=detection_rate(fleet.system, assignment, fleet.events,
                                              fleet.nearest),
                duplication_rate=duplication_rate(fleet.system, assignment),
                r=r,
                seed=config.seed,
            )
        )
    return reports


def region_raster(system: RobotSystem, assignment: TeamAssignment, resolution: int) -> np.ndarray:
    """Team id of the nearest robot on a resolution x resolution cell grid.

    Row j, column i holds the team owning the cell centered at
    ((i + 0.5) w / res, (j + 0.5) h / res); merged team Voronoi regions
    appear as constant patches.
    """
    if not (isinstance(resolution, int) and resolution >= 2):
        raise ValueError("resolution must be an integer >= 2")
    env = system.environment
    pos = system.positions()
    xs = (np.arange(resolution) + 0.5) * env.width / resolution
    ys = (np.arange(resolution) + 0.5) * env.height / resolution
    grid = np.empty((resolution, resolution), dtype=int)
    team_of = np.asarray(assignment.team_of)
    for j, y in enumerate(ys):
        d2 = (pos[:, 0][None, :] - xs[:, None]) ** 2 + (pos[:, 1] - y) ** 2
        grid[j, :] = team_of[np.argmin(d2, axis=1)]
    return grid


METRICS_HEADER = "method,n,k_capabilities,r,seed,detection,duplication"


def metrics_rows(config: SimConfig, reports) -> list:
    """CSV lines (no header) for one trial's reports."""
    return [
        "%s,%d,%d,%d,%d,%r,%r"
        % (rep.method.value, config.n_robots, config.n_capabilities,
           rep.r, rep.seed, rep.detection_rate, rep.duplication_rate)
        for rep in reports
    ]


def append_metrics_csv(path, rows) -> None:
    """Append rows to a metrics CSV, writing the header on first touch."""
    import os

    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8") as fh:
        if fresh:
            fh.write(METRICS_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
