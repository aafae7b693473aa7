"""Independent numerical oracles used by the test suites.

Each oracle reaches a reference answer by a different route than the library
code under test: proximal results via plain subgradient descent, gradients
via central finite differences, eigenpairs via characteristic-polynomial
roots plus a nullspace extraction, partitions via exhaustive enumeration,
greedy teams via the plain pairwise merge loop, the communication and
capability graphs via their pair loops (set intersection for the
capability overlap), and the solver's loop via
its original form (a second SVD for the objective, per-step set-up, and a
frozen state rebuilt after every step).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from hetcover.solver import IterationRecord, Residuals, SolveResult, SolverConfig


def nuclear_prox_oracle(G, tau, iters=100_000, step0=0.5, step_final=1e-5):
    """Minimize tau*||L||_* + 0.5*||L - G||_F^2 by subgradient descent.

    Uses a geometrically diminishing step. The subgradient of the nuclear
    norm at L is U V^T restricted to the non-zero singular values (the zero
    block contributes nothing). The objective is 1-strongly convex, so the
    final iterate sits within roughly step * tau of the true minimizer.

    G may be a stack of matrices (leading axes) with tau a scalar or one
    value per matrix; every matrix then descends on its own, in one loop.
    """
    G = np.asarray(G, dtype=float)
    tau = np.asarray(tau, dtype=float)[..., None, None]
    L = G.copy()
    decay = (step_final / step0) ** (1.0 / max(iters - 1, 1))
    step = step0
    for _ in range(iters):
        U, s, Vt = np.linalg.svd(L, full_matrices=False)
        support = (s > 1e-12)[..., None, :]  # drops the columns of U outside the support
        subgrad = tau * ((U * support) @ Vt) + (L - G)
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


def communication_graph_oracle(system, radius, line_of_sight):
    """Links a_ij = 1 for i < j within radius whose line_of_sight holds, pair by pair."""
    pos = system.positions()
    n = len(system)
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            close = np.hypot(pos[i, 0] - pos[j, 0], pos[i, 1] - pos[j, 1]) <= radius
            if close and line_of_sight(system.robots[i].position, system.robots[j].position,
                                       system.environment):
                a[i, j] = a[j, i] = 1.0
    return a


def capability_graph_oracle(system):
    """Overlap a_ij = |C_i & C_j| by set intersection, pair by pair."""
    n = len(system)
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            shared = len(system.robots[i].capabilities & system.robots[j].capabilities)
            a[i, j] = a[j, i] = float(shared)
    return a


# ---------------------------------------------------------------------------
# the solver loop as first written: solve() must reproduce its Z bit for bit


@dataclass(frozen=True)
class _ReferenceState:
    Z: np.ndarray
    Zhat: np.ndarray
    L: np.ndarray
    phi1: np.ndarray
    Phi2: np.ndarray
    Phi3: np.ndarray
    Phi4: np.ndarray
    mu: float
    k: int


def _adjacency(graph):
    a = getattr(graph, "adjacency", graph)
    return np.asarray(a, dtype=float)


def _objective(Z, L, graphs, config):
    Z = np.asarray(Z, dtype=float)
    L = np.asarray(L, dtype=float)
    adjs = [_adjacency(g) for g in graphs]
    config = config.resolved(len(adjs))
    for a in adjs:
        if a.shape != Z.shape:
            raise ValueError("graph shape %r does not match Z shape %r" % (a.shape, Z.shape))
    fit = sum(alpha * np.sum((Z - a) ** 2) for alpha, a in zip(config.alphas, adjs))
    nuclear = float(np.linalg.svd(L, compute_uv=False).sum())
    return float(fit + config.lambda1 * np.sum(Z**2) + config.lambda2 * nuclear)


def _svt(G, tau):
    G = np.asarray(G, dtype=float)
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if tau == 0:
        return G.copy()
    U, s, Vt = np.linalg.svd(G, full_matrices=False)
    return (U * np.maximum(s - tau, 0.0)) @ Vt


def _initial_state(graphs, config):
    adjs = [_adjacency(g) for g in graphs]
    config = config.resolved(len(adjs))
    n = adjs[0].shape[0]
    Z0 = sum(alpha * a for alpha, a in zip(config.alphas, adjs))
    return _ReferenceState(
        Z=Z0,
        Zhat=Z0.T.copy(),
        L=np.eye(n) - Z0,
        phi1=np.zeros(n),
        Phi2=np.zeros((n, n)),
        Phi3=np.zeros((n, n)),
        Phi4=np.zeros((n, n)),
        mu=config.mu0,
        k=0,
    )


def _update_z(state, graphs, config):
    adjs = [_adjacency(g) for g in graphs]
    config = config.resolved(len(adjs))
    n = state.Z.shape[0]
    mu = state.mu
    ones = np.ones((n, n))
    eye = np.eye(n)
    rhs = sum(2.0 * alpha * a for alpha, a in zip(config.alphas, adjs))
    rhs = rhs + mu * (ones + state.Zhat.T + state.Zhat + eye - state.L)
    rhs = rhs - np.outer(state.phi1, np.ones(n)) - state.Phi2.T - state.Phi3 + state.Phi4
    c = 2.0 * sum(config.alphas) + 2.0 * config.lambda1 + 3.0 * mu
    B = c * eye + mu * ones
    return np.maximum(np.linalg.solve(B, rhs.T).T, 0.0)


def _update_zhat(state, config):
    mu = state.mu
    return (mu * (state.Z.T + state.Z) + state.Phi2 + state.Phi4) / (2.0 * mu)


def _update_laplacian(state, config):
    n = state.Z.shape[0]
    target = np.eye(n) - state.Z - state.Phi3 / state.mu
    return _svt(target, config.lambda2 / state.mu)


def _update_multipliers(state, config):
    n = state.Z.shape[0]
    ones = np.ones(n)
    mu = state.mu
    k = state.k + 1
    return replace(
        state,
        phi1=state.phi1 + mu * (state.Z @ ones - ones),
        Phi2=state.Phi2 + mu * (state.Z.T - state.Zhat),
        Phi3=state.Phi3 + mu * (state.L - np.eye(n) + state.Z),
        Phi4=state.Phi4 + mu * (state.Zhat - state.Z),
        mu=config.mu0 * config.rho**k,
        k=k,
    )


def _constraint_residuals(state):
    n = state.Z.shape[0]
    ones = np.ones(n)
    return Residuals(
        r1=float(np.max(np.abs(state.Z @ ones - ones))),
        r2=float(np.max(np.abs(state.Z.T - state.Zhat))),
        r3=float(np.max(np.abs(state.L - np.eye(n) + state.Z))),
        r4=float(np.max(np.abs(state.Zhat - state.Z))),
    )


def reference_solve(graphs, config=None):
    """The original solver loop, kept as the reference for solve()."""
    if config is None:
        config = SolverConfig()
    adjs = [_adjacency(g) for g in graphs]
    config = config.resolved(len(adjs))

    state = _initial_state(adjs, config)
    trace = []
    converged = False
    for _ in range(config.max_iterations):
        state = replace(state, Z=_update_z(state, adjs, config))
        state = replace(state, Zhat=_update_zhat(state, config))
        state = replace(state, L=_update_laplacian(state, config))
        res = _constraint_residuals(state)
        trace.append(IterationRecord(res, _objective(state.Z, state.L, adjs, config)))
        state = _update_multipliers(state, config)
        if res.max_residual <= config.tolerance:
            converged = True
            break

    Z = 0.5 * (state.Z + state.Z.T)
    sums = Z.sum(axis=1, keepdims=True)
    sums[sums <= 0] = 1.0
    Z = Z / sums
    return SolveResult(Z=Z, converged=converged, iterations=state.k,
                       residual_trace=tuple(trace))
