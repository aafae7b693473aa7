"""Recursive Fiedler-cut partitioning of a fused affinity matrix into r teams.

The sign pattern of the Laplacian's second eigenvector bisects a vertex set;
applying the cut repeatedly to the largest remaining group yields r teams.
Cuts on subsets use the subset's own degree matrix (D - W on the principal
submatrix), which keeps row sums zero where the bistochastic identity
L = I - Z no longer holds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


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
    def from_team_of(cls, team_of) -> "TeamAssignment":
        team_of = list(team_of)
        groups = {}
        for robot, tid in enumerate(team_of):
            groups.setdefault(tid, set()).add(robot)
        return cls.from_teams(groups.values(), len(team_of))


def minor_laplacian(Z, indices) -> np.ndarray:
    """Graph Laplacian D - W of the principal submatrix of (symmetrized) Z."""
    idx = sorted(indices)
    if not idx:
        raise ValueError("index set must be non-empty")
    Z = np.asarray(Z, dtype=float)
    W = 0.5 * (Z + Z.T)
    W = W[np.ix_(idx, idx)]
    return np.diag(W.sum(axis=1)) - W


def fiedler_vector(laplacian) -> np.ndarray:
    """Unit eigenvector of the second-smallest eigenvalue.

    The sign is fixed so the first non-zero component is positive, making
    the cut deterministic.
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
    _, vectors = np.linalg.eigh(L)
    v = vectors[:, 1].copy()
    for x in v:
        if abs(x) > 1e-12:
            if x < 0:
                v = -v
            break
    return v


def fiedler_cut(Z, indices):
    """Split an index set by the sign of its minor's Fiedler vector.

    Zero components join the non-negative side. If the sign split leaves a
    side empty, falls back to splitting at the median component (values at
    the median go low); if that still leaves one side empty the top value
    level is split off, which keeps equal components together; a fully
    constant vector is split by component order as the last resort. All
    comparisons use the eigensolver tolerance so that components equal up
    to rounding noise land on the same side.
    """
    idx = sorted(indices)
    if len(idx) < 2:
        raise ValueError("cannot cut fewer than two indices")
    v = fiedler_vector(minor_laplacian(Z, idx))
    tol = 1e-10
    negative = {idx[i] for i in range(len(idx)) if v[i] < -tol}
    non_negative = set(idx) - negative
    if negative and non_negative:
        return non_negative, negative
    med = float(np.median(v))
    low = {idx[i] for i in range(len(idx)) if v[i] <= med + tol}
    high = set(idx) - low
    if not high:
        vmax = float(np.max(v))
        low = {idx[i] for i in range(len(idx)) if v[i] < vmax - tol}
        high = set(idx) - low
        if not low:
            order = sorted(range(len(idx)), key=lambda i: (v[i], i))
            half = (len(idx) + 1) // 2
            low = {idx[i] for i in order[:half]}
            high = set(idx) - low
    return low, high


def partition(Z, r: int) -> TeamAssignment:
    """Cut the full index set down to r teams.

    Each round splits the largest group (ties go to the group holding the
    smallest index). Team numbering follows ascending smallest member. Z
    must be square, finite and non-negative.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise ValueError("Z must be square, got shape %r" % (Z.shape,))
    if not np.isfinite(Z).all():
        raise ValueError("Z must be finite, but it holds NaN or infinite entries")
    if (Z < 0).any():
        raise ValueError("Z must be non-negative, but its smallest entry is %r" % float(Z.min()))
    n = Z.shape[0]
    if not (isinstance(r, int) and 1 <= r <= n):
        raise ValueError("r must be an integer in 1..%d, got %r" % (n, r))
    groups = [frozenset(range(n))]
    while len(groups) < r:
        target = max(groups, key=lambda g: (len(g), -min(g)))
        groups.remove(target)
        a, b = fiedler_cut(Z, target)
        groups.append(frozenset(a))
        groups.append(frozenset(b))
    return TeamAssignment.from_teams(groups, n)


def save_assignment(assignment: TeamAssignment, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"r": assignment.r, "team_of": list(assignment.team_of)}, fh, indent=2)
        fh.write("\n")


def load_assignment(path) -> TeamAssignment:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        team_of = [int(t) for t in doc["team_of"]]
        r = int(doc["r"])
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed assignment document: %s" % exc) from exc
    assignment = TeamAssignment.from_team_of(team_of)
    if assignment.r != r:
        raise ValueError("declared r=%d but team_of uses %d teams" % (r, assignment.r))
    return assignment
