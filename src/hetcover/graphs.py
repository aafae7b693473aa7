"""Relation graphs: one weighted adjacency matrix per robot relationship.

Three builders cover the relationships the paper fuses: inverse-distance
proximity, line-of-sight communication within a radius, and capability
overlap. The communication builder tests all close pairs against the walls
in one line_of_sight call. Builders return raw weights; call normalize_graph
before handing a set of graphs to the solver so their scales are
commensurable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .system import RobotSystem, line_of_sight


class GraphKind(Enum):
    SPATIAL = "spatial"
    COMMUNICATION = "communication"
    CAPABILITY = "capability"


class AllZeroGraphError(ValueError):
    """A graph with no non-zero entry: the relationship is degenerate."""


@dataclass(frozen=True)
class RelationGraph:
    """A non-negative, zero-diagonal, square adjacency matrix with a kind tag."""

    kind: GraphKind
    adjacency: np.ndarray

    def __post_init__(self):
        a = np.array(self.adjacency, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be square, got shape %r" % (a.shape,))
        if not np.all(np.isfinite(a)):
            raise ValueError("adjacency entries must be finite")
        if np.any(a < 0):
            raise ValueError("adjacency entries must be non-negative")
        if np.any(np.diagonal(a) != 0):
            raise ValueError("adjacency diagonal must be zero")
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


def _pairwise_distances(pos: np.ndarray) -> np.ndarray:
    diff = pos[:, None, :] - pos[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


# defaults that scale with the environment: the communication radius and the
# spatial graph's guard against coincident robots, per unit of diagonal
COMM_RADIUS_PER_DIAGONAL = 0.4
SPATIAL_EPSILON_PER_DIAGONAL = 1e-3


def communication_radius(environment, radius: float | None = None) -> float:
    """radius, which must be positive; None means COMM_RADIUS_PER_DIAGONAL x the diagonal."""
    if radius is None:
        return COMM_RADIUS_PER_DIAGONAL * environment.diagonal
    if not radius > 0:
        raise ValueError("comm_radius must be positive, got %r" % (radius,))
    return radius


def build_spatial_graph(system: RobotSystem, epsilon: float | None = None) -> RelationGraph:
    """Proximity weights a_ij = 1 / (d_ij + epsilon).

    Parameters
    ----------
    system : RobotSystem
    epsilon : float, optional
        Additive guard against coincident robots. Defaults to
        SPATIAL_EPSILON_PER_DIAGONAL x the environment diagonal. epsilon = 0
        is allowed only when all positions are distinct.
    """
    return _spatial_graph(system, _pairwise_distances(system.positions()), epsilon)


def _spatial_graph(system: RobotSystem, dist, epsilon) -> RelationGraph:
    if epsilon is None:
        epsilon = SPATIAL_EPSILON_PER_DIAGONAL * system.environment.diagonal
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValueError("epsilon must be finite and non-negative, got %r" % (epsilon,))
    n = len(system)
    off = ~np.eye(n, dtype=bool)
    if epsilon == 0 and np.any(dist[off] == 0):
        raise ValueError("coincident robot positions require epsilon > 0")
    a = np.zeros((n, n))
    a[off] = 1.0 / (dist[off] + epsilon)
    return RelationGraph(GraphKind.SPATIAL, a)


def build_communication_graph(system: RobotSystem, radius: float | None = None) -> RelationGraph:
    """Binary links: a_ij = 1 iff d_ij <= radius and no wall blocks the pair."""
    pos = system.positions()
    return _communication_graph(system, pos, _pairwise_distances(pos), radius)


def _communication_graph(system: RobotSystem, pos, dist, radius) -> RelationGraph:
    radius = communication_radius(system.environment, radius)
    n = len(system)
    i, j = np.nonzero(np.triu(dist <= radius, 1))
    linked = line_of_sight(pos[i], pos[j], system.environment)
    a = np.zeros((n, n))
    a[i[linked], j[linked]] = a[j[linked], i[linked]] = 1.0
    return RelationGraph(GraphKind.COMMUNICATION, a)


def build_capability_graph(system: RobotSystem) -> RelationGraph:
    """Overlap weights a_ij = |C_i & C_j| (shared capability count): C C^T off
    the diagonal, for the robot x capability 0/1 matrix C, exact in floats."""
    C = system.capability_matrix().astype(float)
    a = C @ C.T
    np.fill_diagonal(a, 0.0)
    return RelationGraph(GraphKind.CAPABILITY, a)


def normalize_graph(g: RelationGraph) -> RelationGraph:
    """Scale so the maximum off-diagonal entry is 1; rejects all-zero graphs."""
    a = g.adjacency
    off = ~np.eye(g.n, dtype=bool)
    peak = a[off].max() if g.n > 1 else 0.0
    if peak == 0:
        raise AllZeroGraphError("graph of kind %s has no non-zero entry" % g.kind.value)
    return RelationGraph(g.kind, a / peak)


def build_relation_graphs(system: RobotSystem, comm_radius: float | None = None,
                          spatial_epsilon: float | None = None):
    """The standard normalized triple: [spatial, communication, capability]."""
    pos = system.positions()
    dist = _pairwise_distances(pos)
    return [
        normalize_graph(_spatial_graph(system, dist, spatial_epsilon)),
        normalize_graph(_communication_graph(system, pos, dist, comm_radius)),
        normalize_graph(build_capability_graph(system)),
    ]


def save_matrix_csv(matrix, path) -> None:
    """Write a matrix as plain CSV, one row per line, full float64 precision."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        for row in m:
            fh.write(",".join(format(v, ".16e") for v in row))
            fh.write("\n")


def load_matrix_csv(path) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty file is refused below
        matrix = np.loadtxt(path, delimiter=",", ndmin=2)
    if matrix.size == 0:
        raise ValueError("the file holds no rows")
    return matrix
