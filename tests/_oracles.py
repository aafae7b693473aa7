"""Independent numerical oracles used by the test suites.

Each oracle reaches a reference answer by a different route than the library
code under test: proximal results via plain subgradient descent, gradients
via central finite differences, eigenpairs via characteristic-polynomial
roots plus a nullspace extraction, partitions via exhaustive enumeration,
and greedy teams via the plain pairwise merge loop.
"""

import itertools
import math

import numpy as np


def nuclear_prox_oracle(G, tau, iters=100_000, step0=0.5, step_final=1e-5):
    """Minimize tau*||L||_* + 0.5*||L - G||_F^2 by subgradient descent.

    Uses a geometrically diminishing step. The subgradient of the nuclear
    norm at L is U V^T restricted to the non-zero singular values (the zero
    block contributes nothing). The objective is 1-strongly convex, so the
    final iterate sits within roughly step * tau of the true minimizer.
    """
    G = np.asarray(G, dtype=float)
    L = G.copy()
    decay = (step_final / step0) ** (1.0 / max(iters - 1, 1))
    step = step0
    for _ in range(iters):
        U, s, Vt = np.linalg.svd(L, full_matrices=False)
        support = s > 1e-12
        subgrad = tau * (U[:, support] @ Vt[support, :]) + (L - G)
        L = L - step * subgrad
        step *= decay
    return L


def numeric_gradient(f, X, h=1e-6):
    """Central-difference gradient of a scalar function of a matrix."""
    X = np.asarray(X, dtype=float)
    g = np.zeros_like(X)
    it = np.nditer(X, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        Xp = X.copy()
        Xm = X.copy()
        Xp[idx] += h
        Xm[idx] -= h
        g[idx] = (f(Xp) - f(Xm)) / (2.0 * h)
        it.iternext()
    return g


def _charpoly_coefficients(A):
    """Faddeev-LeVerrier recursion: det(xI - A) coefficients, leading 1."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    coeffs = [1.0]
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[-1] * np.eye(n)
        c = -(A * M.T).sum() / k  # trace(A M) / k
        coeffs.append(c)
    return np.array(coeffs)


def second_eigenpair_oracle(L, degenerate_gap=1e-6):
    """Second-smallest eigenvalue and eigenvector without a symmetric solver.

    Eigenvalues come from the roots of the characteristic polynomial
    (companion-matrix roots); the eigenvector is the smallest right singular
    vector of L - lambda I. Returns (value, vector, gap) where gap is the
    distance to the nearest other eigenvalue; callers should discard test
    cases with gap below degenerate_gap since the eigenvector is then not
    unique.
    """
    L = np.asarray(L, dtype=float)
    roots = np.roots(_charpoly_coefficients(L))
    eigs = np.sort(roots.real)
    lam = eigs[1]
    gap = min(abs(lam - eigs[0]), abs(eigs[2] - lam)) if len(eigs) > 2 else abs(lam - eigs[0])
    _, _, Vt = np.linalg.svd(L - lam * np.eye(L.shape[0]))
    v = Vt[-1]
    return lam, v / np.linalg.norm(v), gap


def set_partitions(items, k):
    """All ways to split items into exactly k non-empty unlabeled groups."""
    items = list(items)
    n = len(items)
    if k < 1 or k > n:
        return
    if k == 1:
        yield [set(items)]
        return
    first, rest = items[0], items[1:]
    # first in its own group
    for smaller in set_partitions(rest, k - 1):
        yield [{first}] + smaller
    # first joins an existing group
    for smaller in set_partitions(rest, k):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] | {first}] + smaller[i + 1:]


def best_partition_by_mass(Z, k):
    """Exhaustively find the k-partition maximizing within-team Z mass."""
    Z = np.asarray(Z, dtype=float)
    W = 0.5 * (Z + Z.T)
    n = W.shape[0]
    best_score, best = -np.inf, None
    for groups in set_partitions(list(range(n)), k):
        score = sum(W[np.ix_(sorted(g), sorted(g))].sum() for g in groups)
        if score > best_score:
            best_score = score
            best = groups
    return frozenset(frozenset(g) for g in best)


def greedy_teams_oracle(positions, r):
    """Greedy centroid merging with every centroid recomputed for every pair.

    The reference for greedy_assign: the same distances, tie keys and merge
    order, computed the slow way. Returns the clusters as frozensets.
    """
    pos = np.asarray(positions, dtype=float)
    clusters = [frozenset([i]) for i in range(pos.shape[0])]
    while len(clusters) > r:
        best = None
        for a in range(len(clusters)):
            ca = pos[list(clusters[a])].mean(axis=0)
            for b in range(a + 1, len(clusters)):
                cb = pos[list(clusters[b])].mean(axis=0)
                d = math.hypot(ca[0] - cb[0], ca[1] - cb[1])
                label = tuple(sorted((min(clusters[a]), min(clusters[b]))))
                key = (d, label)
                if best is None or key < best[0]:
                    best = (key, a, b)
        _, a, b = best
        merged = clusters[a] | clusters[b]
        clusters = [c for i, c in enumerate(clusters) if i not in (a, b)]
        clusters.append(merged)
    return clusters
