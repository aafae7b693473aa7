"""Recursive Fiedler-cut partitioning of a fused affinity matrix into r teams.

A cut bisects a vertex set, given as an ascending array of indices. A
connected set splits by the sign pattern of its Laplacian's second
eigenvector; a disconnected one splits off the connected component holding
its smallest index, never cutting a component. Applying the cut repeatedly
to the largest remaining group yields r teams, so one cut sequence gives the
teams at every r, each a refinement of the teams at any smaller r; each
level is read off one label array of the groups live at it.
Cuts on subsets use the subset's own degree matrix (D - W on the principal
submatrix), which keeps row sums zero where the bistochastic identity
L = I - Z no longer holds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .system import is_integer


@dataclass(frozen=True)
class TeamAssignment:
    """Disjoint, exhaustive grouping of robots 0..N-1 into r non-empty teams.

    Teams are numbered by their smallest member: team 0 contains robot 0.
    """

    teams: tuple
    team_of: tuple
    r: int

    @classmethod
    def from_teams(cls, teams, n: int) -> "TeamAssignment":
        ordered = tuple(sorted((frozenset(t) for t in teams), key=min))
        team_of = [-1] * n
        seen = 0
        for tid, team in enumerate(ordered):
            if not team:
                raise ValueError("teams must be non-empty")
            for member in team:
                if not 0 <= member < n:
                    raise ValueError("member %r outside 0..%d" % (member, n - 1))
                if team_of[member] != -1:
                    raise ValueError("robot %d assigned to two teams" % member)
                team_of[member] = tid
            seen += len(team)
        if seen != n:
            raise ValueError("teams must cover all %d robots" % n)
        return cls(teams=ordered, team_of=tuple(team_of), r=len(ordered))

    @classmethod
    def from_labels(cls, labels) -> "TeamAssignment":
        """Robot i on the team labeled labels[i] (any hashable); teams go by smallest member."""
        number = {}
        team_of = tuple(number.setdefault(label, len(number)) for label in labels)
        teams = [[] for _ in number]
        for member, team in enumerate(team_of):
            teams[team].append(member)
        return cls(teams=tuple(map(frozenset, teams)), team_of=team_of, r=len(teams))


def _minor(Z, indices):
    """Ascending intp indices, each a distinct row of Z, and D - W on their principal minor W."""
    Z = np.asarray(Z, dtype=float)
    idx = np.asarray(indices if isinstance(indices, np.ndarray) else list(indices))
    if not idx.size:
        raise ValueError("index set must be non-empty")
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError("indices must be a flat sequence of integers, got %r" % (indices,))
    idx = np.sort(idx.astype(np.intp))
    if idx[0] < 0 or idx[-1] >= len(Z):
        raise ValueError("index %d outside 0..%d"
                         % (idx[0] if idx[0] < 0 else idx[-1], len(Z) - 1))
    if (repeated := idx[1:][idx[1:] == idx[:-1]]).size:
        raise ValueError("index %d given more than once" % repeated[0])
    W = Z[idx[:, None], idx]  # the entries of Z[np.ix_(idx, idx)]
    return idx, np.diag(W.sum(axis=1)) - W  # 0 - W keeps +0 where -W gives -0, which eigh sees


def minor_laplacian(Z, indices) -> np.ndarray:
    """Graph Laplacian D - W of the principal submatrix W of a symmetric Z."""
    return _minor(Z, indices)[1]


def fiedler_vector(laplacian) -> np.ndarray:
    """Unit eigenvector of the second-smallest eigenvalue.

    The sign is fixed so the first non-zero component (|x| > 1e-12) is
    positive, making the cut deterministic.
    """
    L = np.asarray(laplacian, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError("laplacian must be square")
    n = L.shape[0]
    if n < 2:
        raise ValueError("need dimension >= 2 for a Fiedler vector")
    if np.max(np.abs(L - L.T)) > 1e-8:
        raise ValueError("laplacian must be symmetric")
    if np.max(np.abs(L.sum(axis=1))) > 1e-8:
        raise ValueError("laplacian rows must sum to zero")
    v = np.linalg.eigh(L)[1][:, 1]
    return v * np.sign(v[np.abs(v) > 1e-12][0])  # a unit vector has such an entry


def fiedler_cut(Z, indices):
    """Split an index set of a symmetric Z in two without cutting a connected component.

    A disconnected minor's zero eigenvectors mix its component indicators
    arbitrarily (von Luxburg, "A Tutorial on Spectral Clustering", 2007,
    Prop. 2), so the component holding the smallest index is split from the
    rest. Components are sought only when lambda_2 <= n * eps * lambda_max, the
    eigensolver's resolution, and a link no heavier than that counts as
    absent. Otherwise the signs of the Fiedler vector, oriented as
    fiedler_vector orients it, split the set, entries within 1e-10 of zero
    joining the non-negative side; the vector is orthogonal to the constant
    vector, so both sides are non-empty. The two sides come back as
    ascending intp arrays, the first holding the smallest index.
    """
    idx, L = _minor(Z, indices)
    n = len(idx)
    if n < 2:
        raise ValueError("cannot cut fewer than two indices")
    values, vectors = np.linalg.eigh(L)
    resolution = n * np.finfo(float).eps * values[-1]
    if values[1] <= resolution:
        linked = -L > resolution
        reached = frontier = np.arange(n) == 0
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~reached
            reached = reached | frontier
        if not reached.all():
            return idx[reached], idx[~reached]
    v = vectors[:, 1]  # negation is exact: this is the oriented vector's side below -1e-10
    negative = v < -1e-10 if v[np.abs(v) > 1e-12][0] > 0 else v > 1e-10
    return idx[~negative], idx[negative]


def check_team_count(r, n: int) -> None:
    """Raise ValueError unless r is a team count that n robots allow: an integer in 1..n."""
    if not (is_integer(r) and 1 <= r <= n):
        raise ValueError("r must be an integer in 1..%d, got %r" % (n, r))


def partition(Z, *regions) -> list:
    """Cut the full index set down to each team count r of regions.

    Each round splits the largest group (ties go to the group holding the
    smallest index), up to the largest r of regions, and gives the groups
    live at each r: one TeamAssignment per r, in the order given. Team
    numbering follows ascending smallest member. Z must be square, finite,
    non-negative and symmetric up to 1e-12 of its largest entry, and every r
    is checked before any cut.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise ValueError("Z must be square, got shape %r" % (Z.shape,))
    if not np.isfinite(Z).all():
        raise ValueError("Z must be finite, but it holds NaN or infinite entries")
    if (Z < 0).any():
        raise ValueError("Z must be non-negative, but its smallest entry is %r" % float(Z.min()))
    asymmetry = float(np.abs(Z - Z.T).max(initial=0.0))
    if asymmetry > 1e-12 * Z.max(initial=0.0):
        raise ValueError("Z must be symmetric, but max |Z - Z^T| is %r, above 1e-12 of its "
                         "largest entry %r" % (asymmetry, float(Z.max())))
    n = Z.shape[0]
    for r in regions:
        check_team_count(r, n)
    groups, levels = [np.arange(n)], {}  # levels: r -> the teams at r groups
    label = np.zeros(n, dtype=np.intp)  # label[i]: the position in groups of robot i's group
    for r in sorted(set(regions)):
        while len(groups) < r:
            target = max(range(len(groups)), key=lambda g: (len(groups[g]), -groups[g][0]))
            groups[target], side = fiedler_cut(Z, groups[target])
            label[side] = len(groups)
            groups.append(side)
        levels[r] = TeamAssignment.from_labels(label.tolist())
    return [levels[r] for r in regions]


def save_assignment(assignment: TeamAssignment, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"r": assignment.r, "team_of": list(assignment.team_of)}, fh, indent=2)
        fh.write("\n")
