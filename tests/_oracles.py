"""Independent numerical oracles used by the test suites.

Each oracle reaches a reference answer by a different route than the library
code under test: the nuclear-norm prox via an SVD, the non-negative Z step
via projected gradient descent, the fusion problem's exact optimum via
semismooth Newton on its dual (itself checked against Dykstra's alternating
projections), gradients via central finite differences, eigenpairs via
characteristic-polynomial roots plus a nullspace extraction, partitions via
exhaustive enumeration and the cut loop on index sets, greedy teams via the
plain pairwise merge loop, the communication and capability graphs via their
pair loops (scalar segment tests for the walls, set intersection for the
capability overlap), event draws via a loop over event objects, duplication
via a scan of each team's member set, and the solver's loop via a reference
form (linear solves on a shrinking support for the Z step, the exact optimum
from scratch for the finish, per-step set-up, and a frozen state rebuilt
after every step).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from hetcover.solver import IterationRecord, SolveResult, SolverConfig


def singular_value_thresholding(G, tau):
    """The nuclear-norm prox argmin tau ||L||_* + ||L - G||_F^2 / 2, in closed form by an SVD.

    Cai, Candes and Shen (SIAM J. Optim. 20, 2010): G's singular values,
    each lowered by tau and clamped at zero.
    """
    U, s, Vt = np.linalg.svd(np.asarray(G, dtype=float), full_matrices=False)
    return (U * np.maximum(s - tau, 0.0)) @ Vt


def nonnegative_qp_oracle(B, rhs, max_steps=100_000):
    """Rows z minimizing z B z^T / 2 - rhs z over z >= 0, by projected gradient descent.

    B is symmetric positive definite, or a stack of such matrices matching
    rhs's leading axes. The step is one over B's largest absolute row sum,
    which bounds its largest eigenvalue, and the descent runs until no entry
    moves by more than 1e-15 of the largest, or max_steps.
    """
    B = np.asarray(B, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    step = 1.0 / np.abs(B).sum(axis=-1).max(axis=-1)[..., None, None]
    Z = np.zeros_like(rhs)
    for _ in range(max_steps):
        new = np.maximum(Z - step * (Z @ B - rhs), 0.0)
        done = np.abs(new - Z).max() <= 1e-15 * np.abs(new).max()
        Z = new
        if done:
            break
    return Z


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


def _fiedler_cut_oracle(Z, indices):
    """The two sides of one Fiedler cut, as sets: partition's rule, cut on sorted index lists."""
    idx = sorted(indices)
    n = len(idx)
    W = Z[np.ix_(idx, idx)]
    L = np.diag(W.sum(axis=1)) - W
    values, vectors = np.linalg.eigh(L)
    resolution = n * np.finfo(float).eps * values[-1]
    if values[1] <= resolution:
        linked = -L > resolution
        reached = frontier = np.arange(n) == 0
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~reached
            reached = reached | frontier
        if not reached.all():
            first = {idx[i] for i in np.flatnonzero(reached)}
            return first, set(idx) - first
    v = vectors[:, 1]
    v = v * np.sign(v[np.abs(v) > 1e-12][0])
    negative = {idx[i] for i in np.flatnonzero(v < -1e-10)}
    return set(idx) - negative, negative


def partition_oracle(Z, *regions):
    """The teams at each r of regions, as lists of frozensets, by the set-based cut loop.

    The reference for partition: the same cuts on sets of indices, the
    largest group cut first (ties to the smallest index), with every team
    set rebuilt from the cut's sides.
    """
    Z = np.asarray(Z, dtype=float)
    groups, levels = [frozenset(range(len(Z)))], {}
    for r in sorted(set(regions)):
        while len(groups) < r:
            target = max(groups, key=lambda g: (len(g), -min(g)))
            groups.remove(target)
            groups += map(frozenset, _fiedler_cut_oracle(Z, target))
        levels[r] = list(groups)
    return [levels[r] for r in regions]


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


@dataclass(frozen=True)
class Event:
    """One typed event: a point and the name of the sensor type that detects it."""

    x: float
    y: float
    event_type: str


def event_draws_oracle(width, height, universe, n_events, rng):
    """n_events Event objects, one per pass: x, y, then a type uniform over universe.

    The reference for simulate_events: the same draws from rng, in the same
    order, made one event object at a time.
    """
    events = []
    for _ in range(n_events):
        x, y = width * rng.random(), height * rng.random()
        events.append(Event(x, y, universe[int(rng.integers(0, len(universe)))]))
    return events


def duplication_oracle(capabilities, teams):
    """The share of robots whose capabilities lower-id teammates already provide.

    The reference for duplication_rate: capabilities[i] is robot i's set, and
    each team's member set is scanned alone, in ascending id.
    """
    duplicates = 0
    for team in teams:
        provided = set()
        for rid in sorted(team):
            if capabilities[rid] <= provided:
                duplicates += 1
            provided |= capabilities[rid]
    return duplicates / len(capabilities)


def _orientation(a, b, c):
    # sign of the cross product (b - a) x (c - a)
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, p):
    # whether p lies on the closed segment ab, assuming a, b, p collinear
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def segments_intersect(p1, p2, p3, p4):
    """Whether closed segments p1-p2 and p3-p4, as (x, y) tuples, share at least one point."""
    d1 = _orientation(p3, p4, p1)
    d2 = _orientation(p3, p4, p2)
    d3 = _orientation(p1, p2, p3)
    d4 = _orientation(p1, p2, p4)

    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and \
       ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
    return ((d1 == 0 and _on_segment(p3, p4, p1)) or (d2 == 0 and _on_segment(p3, p4, p2))
            or (d3 == 0 and _on_segment(p1, p2, p3)) or (d4 == 0 and _on_segment(p1, p2, p4)))


def sight_oracle(a, b, walls):
    """Whether segment a-b meets none of walls, each an ((x, y), (x, y)) pair, wall by wall."""
    return not any(segments_intersect(a, b, start, end) for start, end in walls)


def communication_graph_oracle(system, radius):
    """Links a_ij = 1 for i < j within radius that no wall blocks, pair by pair."""
    pos = system.positions()
    walls = [((w.start.x, w.start.y), (w.end.x, w.end.y)) for w in system.environment.obstacles]
    n = len(system)
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            close = np.hypot(pos[i, 0] - pos[j, 0], pos[i, 1] - pos[j, 1]) <= radius
            if close and sight_oracle(tuple(pos[i].tolist()), tuple(pos[j].tolist()), walls):
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
# the fusion problem's exact optimum


def doubly_stochastic_projection(M, max_steps=100):
    """The Frobenius projection of a symmetric M onto the symmetric, non-negative,
    row-stochastic matrices, by damped semismooth Newton on the dual.

    The projection is Z(y)_ij = max(M_ij - y_i - y_j, 0) for the y solving
    F(y) = Z(y) 1 - 1 = 0, the stationary point of the convex dual
    phi(y) = ||Z(y)||^2 / 2 + 2 sum y, whose gradient is -2 F. Each Newton
    step solves (diag(P 1) + P) d = F, with P the support of Z(y), by least
    squares (the matrix is singular on a bipartite support), and halves d
    until phi falls (Qi and Sun, SIAM J. Matrix Anal. Appl. 28, 2006; Li,
    Sun and Toh, Math. Program. 179, 2020). Runs until every row sum is
    within n eps of 1, then checks the KKT conditions; returns (Z, y).
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    tol = n * np.finfo(float).eps

    def at(y):
        Z = np.maximum(M - (y[:, None] + y[None, :]), 0.0)
        return Z, 0.5 * np.sum(Z**2) + 2.0 * y.sum()

    # where nothing clamps, Z(y) 1 = 1 is linear in y and this solves it
    y = (M.sum(axis=1) - 1.0 - (M.sum() - n) / (2.0 * n)) / n
    Z, phi = at(y)
    for _ in range(max_steps):
        F = Z.sum(axis=1) - 1.0
        if np.abs(F).max() <= tol:
            break
        P = (Z > 0).astype(float)
        d = np.linalg.lstsq(np.diag(P.sum(axis=1)) + P, F)[0]
        step = 1.0
        while True:
            Z_new, phi_new = at(y + step * d)
            if phi_new <= phi or step < 1e-12:
                break
            step *= 0.5
        y, Z, phi = y + step * d, Z_new, phi_new
    # KKT: primal feasibility, and Z - M + y 1^T + 1 y^T is the non-negative
    # multiplier of Z >= 0, zero wherever Z is positive
    slack = Z - (M - (y[:, None] + y[None, :]))
    assert np.abs(Z.sum(axis=1) - 1.0).max() <= tol, "the projection did not converge"
    assert Z.min() >= 0.0 and np.array_equal(Z, Z.T)
    assert slack.min() >= 0.0 and np.abs(slack[Z > 0]).max(initial=0.0) == 0.0
    return Z, y


def dykstra_projection(M, steps=2000):
    """The same projection by Dykstra's alternating projections onto
    {Z = Z^T, Z 1 = 1} (an affine set) and {Z >= 0}, for small M."""
    n = M.shape[0]
    X = np.asarray(M, dtype=float)
    P = Q = np.zeros_like(X)
    for _ in range(steps):
        A = X + P
        A = 0.5 * (A + A.T)
        r = A.sum(axis=1) - 1.0
        u = (r - r.sum() / (2.0 * n)) / n
        Y = A - u[:, None] - u[None, :]
        P = X + P - Y
        X = np.maximum(Y + Q, 0.0)
        Q = Y + Q - X
    return X


def projection_oracle(graphs, config):
    """The exact optimum Z of the fusion problem of graphs under config.

    Over symmetric Z, the objective sum_m alpha_m ||Z - A_m||^2 +
    lambda1 ||Z||^2 + lambda2 tr(I - Z) is (sum alpha + lambda1) ||Z - M||^2
    plus a constant, for M = (sum_m alpha_m A_m + (lambda2 / 2) I) /
    (sum alpha + lambda1), and tr(I - Z) = ||I - Z||_* wherever Z is
    feasible: the optimum is the projection of sym M.
    """
    adjs = [_adjacency(g) for g in graphs]
    config = config.resolved(len(adjs))
    weighted = sum(alpha * a for alpha, a in zip(config.alphas, adjs))
    M = weighted + 0.5 * config.lambda2 * np.eye(weighted.shape[0])
    M = M / (sum(config.alphas) + config.lambda1)
    return doubly_stochastic_projection(0.5 * (M + M.T))[0]


# ---------------------------------------------------------------------------
# the solver loop in its reference form: solve() must follow it to 1e-12


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


@dataclass(frozen=True)
class ReferenceResiduals:
    """The infinity norms of all four constraint gaps, each computed from its
    own constraint, where solve reports r1 and r2 alone."""

    r1: float  # |Z 1 - 1|
    r2: float  # |Z^T - Zhat|
    r3: float  # |L - I + Z|
    r4: float  # |Zhat - Z|

    @property
    def max_residual(self):
        return max(self.r1, self.r2, self.r3, self.r4)


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
    return float(fit + config.lambda1 * np.sum(Z**2) + config.lambda2 * np.trace(L))


def _initial_state(graphs, config):
    adjs = [_adjacency(g) for g in graphs]
    config = config.resolved(len(adjs))
    n = adjs[0].shape[0]
    Z0 = sum(alpha * a for alpha, a in zip(config.alphas, adjs))
    Zhat0 = (Z0 + Z0.T) / 2.0  # Z0 itself for symmetric graphs
    return _ReferenceState(
        Z=Z0,
        Zhat=Zhat0,
        L=np.eye(n) - Zhat0,
        phi1=np.zeros(n),
        Phi2=np.zeros((n, n)),
        Phi3=-config.lambda2 * np.eye(n),  # its value at every KKT point
        Phi4=np.zeros((n, n)),
        mu=1.0,
        k=0,
    )


def _update_z(state, graphs, config):
    # the exact step over Z >= 0, row by row: solve row i's system B z = rhs_i
    # on a support, drop the entries that come out negative, and solve again
    # until none does. Each drop raises the row's sum, which lowers every
    # entry, so a dropped entry would stay negative. Off the support, row j
    # of B is c e_j and the right-hand side 0, so the entry solves to 0.
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
    support = np.ones((n, n), dtype=bool)
    while True:
        B = c * eye + mu * (support[:, :, None] & support[:, None, :])
        Z = np.linalg.solve(B, (rhs * support)[..., None])[..., 0]
        negative = support & (Z < 0)
        if not negative.any():
            return Z
        support &= ~negative


def _update_zhat(state, config):
    mu = state.mu
    return (mu * (state.Z.T + state.Z) + state.Phi2 - state.Phi4) / (2.0 * mu)


def _update_laplacian(state, config):
    # the prox of tau tr L over symmetric L: the target's symmetric part (the
    # skew part only adds a constant to the step's objective) with every
    # eigenvalue lowered by tau
    n = state.Z.shape[0]
    target = np.eye(n) - state.Z - state.Phi3 / state.mu
    tau = config.lambda2 / state.mu
    return (target + target.T) / 2.0 - np.diag(np.full(n, tau))


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
        mu=1.0 * 1.9**k,
        k=k,
    )


def _constraint_residuals(state):
    n = state.Z.shape[0]
    ones = np.ones(n)
    return ReferenceResiduals(
        r1=float(np.max(np.abs(state.Z @ ones - ones))),
        r2=float(np.max(np.abs(state.Z.T - state.Zhat))),
        r3=float(np.max(np.abs(state.L - np.eye(n) + state.Z))),
        r4=float(np.max(np.abs(state.Zhat - state.Z))),
    )


def reference_solve(graphs, config=None, *, tolerance=1e-2, max_iterations=1000):
    """The reference solver loop, which solve() follows to 1e-12, run until its
    residuals reach tolerance or for max_iterations passes; its Z is the
    projection of its own sym M, whatever the loop's last iterate."""
    if config is None:
        config = SolverConfig()
    adjs = [_adjacency(g) for g in graphs]
    config = config.resolved(len(adjs))

    state = _initial_state(adjs, config)
    trace = []
    converged = False
    for _ in range(max_iterations):
        state = replace(state, Z=_update_z(state, adjs, config))
        state = replace(state, Zhat=_update_zhat(state, config))
        state = replace(state, L=_update_laplacian(state, config))
        res = _constraint_residuals(state)
        trace.append(IterationRecord(res, _objective(state.Z, state.L, adjs, config)))
        state = _update_multipliers(state, config)
        if res.max_residual <= tolerance:
            converged = True
            break

    return SolveResult(Z=projection_oracle(adjs, config), converged=converged,
                       iterations=state.k, residual_trace=tuple(trace))

