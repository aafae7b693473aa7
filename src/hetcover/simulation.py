"""Seeded coverage experiments: system generation, metrics, and baselines.

A SimConfig describes one seeded fleet. place_fleet generates its system,
builds its three relation graphs and places its typed events, once;
fuse_fleets fuses placed fleets of one size, each under its own solver
setting (a sweep's weightings come from sweep_grid), solving each method's
problems together as one stack; prepare_fleet places and fuses one fleet
under its config's own setting.
A trial, run_trial(fleet, *regions), builds each method's teams at every
team count r given in one pass and scores them on the events (detection)
and on within-team capability redundancy (duplication): one Fiedler cut
sequence of a fused Z gives every r. Two baselines run alongside: the same
pipeline with both regularizers off, and agglomerative spatial clustering,
whose one merge sequence gives every r.
One fused fleet serves every r at its seed, for the methods it was fused for.

A batch, as the CLI's simulate and sweep run it, is batch_fleets over
consecutive seeds: a seed-major stream of (seed, setting) problems, each
seed's fleet placed when the stream reaches it, cut into stacks of about
STACK_ENTRIES matrix entries whatever the fleet size, each fused and yielded
before the next is placed. The caller scores each fused fleet in one
run_trial call at all the batch's team counts.

All randomness flows from SimConfig.seed; system generation and event
placement draw from independent child streams, each reproducible alone.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .graphs import build_relation_graphs, communication_radius
from .partition import TeamAssignment, check_team_count, partition
from .solver import SolverConfig, solve
from .system import (
    Environment,
    Position,
    RobotSpec,
    RobotSystem,
    is_integer,
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
    """One seeded fleet's settings; each trial gives its own team count r.
    The environment defaults to Environment(), the solver to SolverConfig(),
    and the communication radius to the default of
    graphs.communication_radius, which also checks a given one."""

    n_robots: int
    n_capabilities: int
    seed: int
    n_events: int = 100
    comm_radius: float | None = None
    environment: Environment = field(default_factory=Environment)
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not (is_integer(self.n_robots) and self.n_robots >= 2):
            raise ValueError("n_robots must be an integer >= 2")
        if not (is_integer(self.n_capabilities) and self.n_capabilities >= 1):
            raise ValueError("n_capabilities must be a positive integer")
        if not (is_integer(self.n_events) and self.n_events >= 1):
            raise ValueError("n_events must be a positive integer")
        if not (is_integer(self.seed) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")
        object.__setattr__(self, "comm_radius",
                           communication_radius(self.environment, self.comm_radius))


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
        # width * random() is uniform(0.0, width) to the bit, and draws faster
        p = Position(env.width * rng.random(), env.height * rng.random())
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
        p = Position(config.environment.width * rng.random(),
                     config.environment.height * rng.random())
        events.append(Event(p, universe[int(rng.integers(0, config.n_capabilities))]))
    return events


def _nearest(pos, points) -> np.ndarray:
    """The row of pos nearest each point: Euclidean, ties to the lower row."""
    d2 = (points[:, 0, None] - pos[:, 0]) ** 2 + (points[:, 1, None] - pos[:, 1]) ** 2
    return np.argmin(d2, axis=1)  # argmin keeps the first (lowest row) on ties


def nearest_robots(system: RobotSystem, events) -> np.ndarray:
    """Each event's nearest robot id, as an array: Euclidean, ties to the lower id.

    The rule makes a team's merged Voronoi cell the region it watches;
    region_raster applies the same rule to cells.
    """
    points = np.array([[e.position.x, e.position.y] for e in events], dtype=float)
    return _nearest(system.positions(), points.reshape(-1, 2))


def event_codes(system: RobotSystem, events) -> np.ndarray:
    """Each event type's column of system.capability_matrix(); a type outside it fails."""
    return np.array([system.capabilities.index(e.event_type) for e in events], dtype=np.intp)


def detection_rate(assignment: TeamAssignment, capable, nearest, codes) -> float:
    """Fraction of events whose nearest robot's team can sense the event type.

    The tables depend only on the fleet, so one set serves every assignment
    of it: capable is system.capability_matrix(), and nearest and codes hold
    each event's nearest_robots and event_codes. A team's row of capabilities
    is the union of its members' rows of capable.
    """
    if len(assignment.team_of) != len(capable):
        raise ValueError("assignment does not cover this system")
    if not len(codes):
        raise ValueError("cannot score an empty event list")
    if len(nearest) != len(codes):
        raise ValueError("%d nearest robots for %d events" % (len(nearest), len(codes)))
    team_of = np.array(assignment.team_of)
    team_can = (team_of == np.arange(assignment.r)[:, None]) @ capable  # bool @ is any-of-and
    return int(np.count_nonzero(team_can[team_of[np.asarray(nearest)], codes])) / len(codes)


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


def greedy_assign(system: RobotSystem, *regions) -> list:
    """Spatial-only baseline: agglomerative merging by centroid distance.

    Repeatedly merges the two clusters whose centroids are closest (ties by the
    lexicographically smallest pair of smallest-member ids) down to the smallest
    r of regions, and labels each robot with its cluster's slot, the slot of its
    smallest member: one TeamAssignment per r, in the order given, comes from
    the labels at r. A matrix holds the centroid distance of every live pair of
    slots, so a merge computes only the merged cluster's row over the live slots
    (Muellner, "Modern hierarchical, agglomerative clustering algorithms",
    arXiv:1109.2378). It is symmetric with an infinite diagonal, so its
    row-major argmin is the closest pair with the smallest (low, high) slots.
    """
    n = len(system)
    for r in regions:
        check_team_count(r, n)
    pos = system.positions()
    members = [frozenset([i]) for i in range(n)]
    label = list(range(n))  # label[i]: the slot of robot i's cluster
    born = list(range(n))  # creation order: a union takes the older cluster first
    centroids = pos.tolist()  # the mean of one row is that row
    dist = np.full((n, n), np.inf)
    for a, (xa, ya) in enumerate(centroids):
        dist[a, a + 1:] = [math.hypot(xa - xb, ya - yb) for xb, yb in centroids[a + 1:]]
    dist = np.minimum(dist, dist.T)  # x - y is exactly -(y - x), so d is symmetric
    live = [True] * n
    wanted, levels = set(regions), {}  # levels: r -> the teams while r clusters live
    for birth in range(n, 2 * n):  # 2n - birth clusters live before this merge
        if 2 * n - birth in wanted:
            levels[2 * n - birth] = TeamAssignment.from_labels(label)
        if levels.keys() == wanted:  # the smallest r is read: no merge is left to make
            break
        low, high = divmod(int(dist.argmin()), n)
        for member in members[high]:
            label[member] = low
        older, newer = (low, high) if born[low] < born[high] else (high, low)
        members[low] = merged = members[older] | members[newer]
        born[low] = birth
        # a centroid is computed once, when its cluster forms
        centroids[low] = xa, ya = pos[list(merged)].mean(axis=0).tolist()
        live[high] = False
        dist[high] = dist[:, high] = np.inf
        dist[low] = dist[:, low] = [math.hypot(xa - xb, ya - yb) if live[s] and s != low
                                    else math.inf for s, (xb, yb) in enumerate(centroids)]
    return [levels[r] for r in regions]


def baseline_solver_config(solver_config: SolverConfig) -> SolverConfig:
    """Baseline's solver settings: the same config with lambda1 = lambda2 = 0."""
    return replace(solver_config, lambda1=0.0, lambda2=0.0)


def trial_rngs(seed: int):
    """Independent child generators (system placement, event placement)."""
    children = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(children[0]), np.random.default_rng(children[1])


@dataclass(frozen=True, eq=False)
class Fleet:
    """The part of a trial that does not depend on the team count r.

    One fleet serves every r at its seed: the generated system, its relation
    graphs, its events with detection_rate's tables of them, the methods it is
    scored for, in order, and the fused Z of each of them that is solved
    (Full, Baseline), with whether its solve converged. config is the
    configuration it was prepared from; only the fused Z depend on
    config.solver, and a placed fleet has none yet.
    """

    config: SimConfig
    system: RobotSystem
    graphs: tuple
    events: tuple
    nearest: np.ndarray  # nearest_robots(system, events)
    codes: np.ndarray  # event_codes(system, events)
    capable: np.ndarray  # system.capability_matrix()
    methods: tuple  # the methods run_trial scores
    fused: dict  # Method -> Z
    converged: dict  # Method -> SolveResult.converged of its Z


def place_fleet(config: SimConfig) -> Fleet:
    """Generate the system, its graphs and its events, with nothing solved yet."""
    system_rng, event_rng = trial_rngs(config.seed)
    system = generate_system(config, system_rng)
    graphs = tuple(build_relation_graphs(system, config.comm_radius))
    events = tuple(simulate_events(config, event_rng))
    return Fleet(config=config, system=system, graphs=graphs, events=events,
                 nearest=nearest_robots(system, events), codes=event_codes(system, events),
                 capable=system.capability_matrix(), methods=(), fused={}, converged={})


def sweep_grid(alpha_step):
    """The ternary grid over the three graph weights at alpha_step resolution."""
    if not (0 < alpha_step <= 1 and math.isfinite(1.0 / alpha_step)
            and abs(round(1.0 / alpha_step) - 1.0 / alpha_step) <= 1e-9):
        raise ValueError("alpha_step must lie in (0, 1] and divide 1 evenly, got %r" % alpha_step)
    steps = round(1.0 / alpha_step)
    return [(i / steps, j / steps, (steps - i - j) / steps)
            for i in range(steps + 1) for j in range(steps + 1 - i)]


# one solver stack holds about this many matrix entries, k problems of n x n
# each: stacking spends numpy's per-call overhead once per iteration for the
# whole stack, while at n = 50 and above a deeper stack no longer pays for
# its memory (k is 25 at n = 20, 4 at n = 50 and 1 at n = 100)
STACK_ENTRIES = 10_000


def stack_size(n_robots: int) -> int:
    """How many problems of n_robots robots one solver stack holds: at least 1."""
    return max(1, STACK_ENTRIES // (n_robots * n_robots))


def fuse_fleets(pairs, methods=tuple(Method)):
    """Each (placed fleet, solver) pair fused under its solver, in order, to
    be scored for methods in their order.

    The fleets must share their robot count and the solvers every setting
    but alphas. Full solves the solvers and Baseline their
    baseline_solver_config, each as one stack, which gives each Z, and
    whether its solve converged, as a solve of it alone. An error of any
    solve is raised; the caller can fuse the pairs one at a time to find the
    pair it belongs to.
    """
    graphs = [fleet.graphs for fleet, _ in pairs]
    stacks = {Method.FULL: [solver for _, solver in pairs],
              Method.BASELINE: [baseline_solver_config(solver) for _, solver in pairs]}
    solved = {method: solve(graphs, settings, trace=False).results
              for method, settings in stacks.items() if method in methods and pairs}
    return [replace(fleet, config=replace(fleet.config, solver=solver), methods=tuple(methods),
                    fused={method: results[i].Z for method, results in solved.items()},
                    converged={method: results[i].converged for method, results in solved.items()})
            for i, (fleet, solver) in enumerate(pairs)]


def attempt(fn, *args):
    """fn(*args), or the ValueError or RuntimeError that failed it."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return exc


def batch_fleets(base: SimConfig, seeds, solvers, methods=tuple(Method)):
    """(seed, setting index, the fused fleet or the error that failed it), seed-major.

    Each seed's fleet is base at that seed, placed once when the stream of
    (seed, setting) problems reaches it and fused for methods under each of
    solvers: stack_size(n) problems together, or one at a time if that
    raises, so a problem that fails to place or fuse loses only itself.
    """
    def problems():
        for seed in seeds:
            fleet = None  # frees the last seed's fleet before this one is placed
            fleet = attempt(place_fleet, replace(base, seed=seed))
            for s in range(len(solvers)):
                yield seed, s, fleet

    stream = problems()
    while stack := list(itertools.islice(stream, stack_size(base.n_robots))):
        ready = [(fleet, solvers[s]) for _, s, fleet in stack if not isinstance(fleet, Exception)]
        fused = attempt(fuse_fleets, ready, methods)
        if isinstance(fused, Exception):
            fused = [attempt(lambda pair: fuse_fleets([pair], methods)[0], pair) for pair in ready]
        fused = iter(fused)
        for seed, s, fleet in stack:
            yield seed, s, fleet if isinstance(fleet, Exception) else next(fused)
        stack = ready = fused = fleet = None  # frees this stack's fleets before the next is placed


def prepare_fleet(config: SimConfig, methods=tuple(Method)) -> Fleet:
    """Generate, fuse and place events once, for the listed methods only."""
    fleet, = fuse_fleets([(place_fleet(config), config.solver)], methods)
    return fleet


def run_trial(fleet: Fleet, *regions):
    """The fleet's teams at each distinct team count of regions, scored.

    One MetricsReport per (r, method): r ascending, then the methods the
    fleet was fused for, in order. Each method builds its teams at every r in
    one pass: one greedy merge sequence, or one Fiedler cut sequence of its Z.
    """
    for r in regions:
        check_team_count(r, len(fleet.system))
    regions = sorted(set(regions))
    levels = [greedy_assign(fleet.system, *regions) if method is Method.GREEDY
              else partition(fleet.fused[method], *regions) for method in fleet.methods]
    return [MetricsReport(method=method, r=r, seed=fleet.config.seed,
                          detection_rate=detection_rate(assignment, fleet.capable, fleet.nearest,
                                                        fleet.codes),
                          duplication_rate=duplication_rate(fleet.system, assignment))
            for r, assignments in zip(regions, zip(*levels))
            for method, assignment in zip(fleet.methods, assignments)]


def region_raster(system: RobotSystem, assignment: TeamAssignment, resolution: int) -> np.ndarray:
    """Team id of the nearest robot on a resolution x resolution cell grid.

    Row j, column i holds the team owning the cell centered at
    ((i + 0.5) w / res, (j + 0.5) h / res); merged team Voronoi regions
    appear as constant patches.
    """
    if not (is_integer(resolution) and resolution >= 2):
        raise ValueError("resolution must be an integer >= 2")
    if len(assignment.team_of) != len(system):
        raise ValueError("the system has %d robots but the assignment covers %d"
                         % (len(system), len(assignment.team_of)))
    grid = np.empty((resolution, resolution), dtype=int)  # before xs and ys, the largest first
    env = system.environment
    pos = system.positions()
    xs = (np.arange(resolution) + 0.5) * env.width / resolution
    ys = (np.arange(resolution) + 0.5) * env.height / resolution
    team_of = np.asarray(assignment.team_of)
    for j, y in enumerate(ys):  # one row at a time keeps memory at resolution x n
        grid[j, :] = team_of[_nearest(pos, np.column_stack((xs, np.full(resolution, y))))]
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
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8") as fh:
        if fresh:
            fh.write(METRICS_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
