"""Seeded coverage experiments: system generation, metrics, and baselines.

A SimConfig describes one seeded fleet. place_fleet generates its system,
builds its three relation graphs and places its events, once, each a point
and the capability index of its type; fuse_fleets fuses placed fleets of one
size, each under its own solver setting (a sweep's weightings come from
sweep_grid), solving each method's problems together as one stack;
prepare_fleet places and fuses one fleet under its config's own setting.
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
    """The (n_events, 2) points and intp capability indices of n_events events,
    uniform over the environment and the universe; each draws x, y, then its type."""
    width, height, k = config.environment.width, config.environment.height, config.n_capabilities
    xs, ys, codes = zip(*[(width * rng.random(), height * rng.random(), int(rng.integers(0, k)))
                          for _ in range(config.n_events)])
    return np.column_stack((xs, ys)), np.array(codes, dtype=np.intp)


def _nearest(pos, points) -> np.ndarray:
    """The row of pos nearest each point: Euclidean, ties to the lower row."""
    d2 = (points[:, 0, None] - pos[:, 0]) ** 2 + (points[:, 1, None] - pos[:, 1]) ** 2
    return np.argmin(d2, axis=1)  # argmin keeps the first (lowest row) on ties


def nearest_robots(system: RobotSystem, points) -> np.ndarray:
    """The nearest robot id to each (x, y) row of points: Euclidean, ties to the lower id.

    The rule makes a team's merged Voronoi cell the region it watches;
    region_raster applies the same rule to cells.
    """
    return _nearest(system.positions(), np.asarray(points, dtype=float).reshape(-1, 2))


def detection_rate(assignment: TeamAssignment, capable, nearest, codes) -> float:
    """Fraction of events whose nearest robot's team can sense the event type.

    The tables depend only on the fleet, so one set serves every assignment
    of it: capable is system.capability_matrix(), nearest holds each event's
    nearest_robots, and codes each event's capability index, a column of
    capable, as simulate_events draws it. A team's row of capabilities is
    the union of its members' rows of capable.
    """
    if len(assignment.team_of) != len(capable):
        raise ValueError("assignment does not cover this system")
    if not len(codes):
        raise ValueError("cannot score an empty event list")
    if len(nearest) != len(codes):
        raise ValueError("%d nearest robots for %d events" % (len(nearest), len(codes)))
    codes = np.asarray(codes)
    if codes.astype(np.uintp).max() >= capable.shape[1]:  # a negative code wraps past them all
        raise ValueError("event code %d outside the capabilities 0..%d" % (
            codes.min() if codes.min() < 0 else codes.max(), capable.shape[1] - 1))
    team_of = np.array(assignment.team_of)
    team_can = (team_of == np.arange(assignment.r)[:, None]) @ capable  # bool @ is any-of-and
    return int(np.count_nonzero(team_can[team_of[np.asarray(nearest)], codes])) / len(codes)


def duplication_rate(system: RobotSystem, assignment: TeamAssignment) -> float:
    """d/N where d counts robots fully covered by lower-id teammates.

    Scanning the robots in ascending id, a robot is a duplicate when every
    capability it has was already provided by a previously scanned teammate.
    """
    if len(assignment.team_of) != len(system):
        raise ValueError("assignment does not cover this system")
    duplicates = 0
    provided = [set() for _ in range(assignment.r)]  # provided[t]: team t's capabilities so far
    for robot, team in zip(system.robots, assignment.team_of):
        if robot.capabilities <= provided[team]:
            duplicates += 1
        provided[team] |= robot.capabilities
    return duplicates / len(system)


# greedy_assign's screen: np.hypot and math.hypot each lie within a few ulps
# of the distance of the same differences, so a pair that math.hypot puts at
# or below the screen's minimum m screens at or below
# m * (1 + SCREEN_SLACK) + 2**-1000; the absolute term covers separations
# that underflow to subnormals. The screen is built _SCREEN_BLOCK_ROWS rows at
# a time, over the slots from the block's first on: its temporaries stay small.
SCREEN_SLACK = 1e-12
_SCREEN_BLOCK_ROWS = 32


def greedy_assign(system: RobotSystem, *regions) -> list:
    """Spatial-only baseline: agglomerative merging by centroid distance.

    Repeatedly merges the two clusters whose centroids are closest by
    math.hypot (ties by the lexicographically smallest pair of smallest-member
    ids) down to the smallest r of regions, and labels each robot with its
    cluster's slot, the slot of its smallest member: one TeamAssignment per r,
    in the order given, comes from the labels at r.

    The screen is an upper-triangular matrix of np.hypot over every pair of
    slots, taken of the same differences math.hypot is given. The two can
    differ in the last bit, so the screen only proposes: its minimum m decides
    the merge when no other pair screens at or below
    m * (1 + SCREEN_SLACK) + 2**-1000, and otherwise math.hypot decides among
    the pairs that do (see SCREEN_SLACK). Each row keeps a lower bound on its
    minimum over the live slots above it. Only the row whose bound is smallest
    is rescanned, with its dead slots masked to inf, until that bound is the
    row's true minimum; a merge writes the merged cluster's row and column and
    lowers the bounds of the rows below it from that column. Each merge is
    then O(n) numpy work, not an n x n argmin (Muellner's generic algorithm,
    "Modern hierarchical, agglomerative clustering algorithms",
    arXiv:1109.2378). A merged centroid sums its members in their frozenset's
    order, from the first member, and divides by the count: the bits of
    pos[list(merged)].mean(axis=0).
    """
    n = len(system)
    for r in regions:
        check_team_count(r, n)
    pos = system.positions()
    px, py = pos[:, 0].tolist(), pos[:, 1].tolist()
    cx, cy = pos[:, 0].copy(), pos[:, 1].copy()  # each slot's centroid; inf once dead
    gone = np.zeros(n)  # inf once a slot is dead; a row is masked with it when read
    members = [frozenset([i]) for i in range(n)]
    label = list(range(n))  # label[i]: the slot of robot i's cluster
    born = list(range(n))  # creation order: a union takes the older cluster first
    screen = np.full((n, n), np.inf)
    for start in range(0, n, _SCREEN_BLOCK_ROWS):
        rows = slice(start, start + _SCREEN_BLOCK_ROWS)
        block = screen[rows, start:]
        np.hypot(np.subtract.outer(cx[rows], cx[start:]),
                 np.subtract.outer(cy[rows], cy[start:]), out=block)
        block[np.tri(*block.shape, dtype=bool)] = np.inf  # the diagonal and below
    bound = screen.min(axis=1)
    wanted, levels = set(regions), {}  # levels: r -> the teams while r clusters live
    for birth in range(n, 2 * n):  # 2n - birth clusters live before this merge
        if 2 * n - birth in wanted:
            levels[2 * n - birth] = TeamAssignment.from_labels(label)
        if levels.keys() == wanted:  # the smallest r is read: no merge is left to make
            break
        low, high = _closest_pair(screen, bound, gone, cx, cy)
        for member in members[high]:
            label[member] = low
        older, newer = (low, high) if born[low] < born[high] else (high, low)
        members[low] = merged = members[older] | members[newer]
        born[low] = birth
        cx[low], cy[low] = xa, ya = _centroid(merged, px, py)
        cx[high] = cy[high] = bound[high] = gone[high] = np.inf
        new = np.hypot(xa - cx, ya - cy)
        screen[low, low + 1:] = new[low + 1:]
        screen[:low, low] = new[:low]
        bound[low] = new[low + 1 + int(new[low + 1:].argmin())]
        below = bound[:low]
        np.minimum(below, new[:low], out=below)
    return [levels[r] for r in regions]


def _centroid(members, px, py):
    """The members' mean (px, py) with the bits of pos[list(members)].mean(axis=0):
    summed in the frozenset's order from the first member, divided by the count."""
    first, *rest = members
    sx, sy = px[first], py[first]
    for member in rest:
        sx += px[member]
        sy += py[member]
    return sx / len(members), sy / len(members)


def _closest_pair(screen, bound, gone, cx, cy):
    """The live (low, high) slot pair greedy_assign merges next.

    That is the screen's minimum when no other pair screens within the slack
    of it; the pair's screen value is then left at inf and its row's bound at
    the row's next value, both of which the merge writes over. Otherwise
    math.hypot decides among the pairs within the slack, ties to the smallest
    pair, and the screen is left as it was.
    """
    while True:
        a = int(bound.argmin())
        row = np.maximum(screen[a], gone, out=screen[a])
        b = int(row.argmin())
        if row[b] == bound[a]:  # the bound is met, so it is row a's minimum
            break
        bound[a] = row[b]
    m = float(row[b])
    limit = m * (1 + SCREEN_SLACK) + 2.0 ** -1000
    row[b] = math.inf
    bound[a] = row[row.argmin()]
    if bound[bound.argmin()] > limit:
        return a, b
    row[b] = bound[a] = m
    pairs = [(int(low), int(high)) for low in np.flatnonzero(bound <= limit)
             for high in np.flatnonzero(np.maximum(screen[low], gone, out=screen[low]) <= limit)]
    return min(pairs, key=lambda pair: (math.hypot(cx[pair[0]] - cx[pair[1]],
                                                   cy[pair[0]] - cy[pair[1]]), pair))


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
    graphs, detection_rate's tables of its events, the methods it is scored
    for, in order, and the fused Z of each of them that is solved (Full,
    Baseline), with whether its solve converged. config is the configuration
    it was prepared from; only the fused Z depend on config.solver, and a
    placed fleet has none yet.
    """

    config: SimConfig
    system: RobotSystem
    graphs: tuple
    nearest: np.ndarray  # each event's nearest robot: nearest_robots(system, points)
    codes: np.ndarray  # each event's capability index, from simulate_events
    capable: np.ndarray  # system.capability_matrix()
    methods: tuple  # the methods run_trial scores
    fused: dict  # Method -> Z
    converged: dict  # Method -> SolveResult.converged of its Z


def place_fleet(config: SimConfig) -> Fleet:
    """Generate the system, its graphs and its events, with nothing solved yet."""
    system_rng, event_rng = trial_rngs(config.seed)
    system = generate_system(config, system_rng)
    graphs = tuple(build_relation_graphs(system, config.comm_radius))
    points, codes = simulate_events(config, event_rng)
    return Fleet(config=config, system=system, graphs=graphs,
                 nearest=nearest_robots(system, points), codes=codes,
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
