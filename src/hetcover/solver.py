"""Augmented-Lagrangian fusion of relation graphs into a bistochastic matrix.

Minimizes

    sum_m alpha_m ||Z - A_m||_F^2 + lambda1 ||Z||_F^2 + lambda2 ||L||_*

subject to L = I - Z, Z 1 = 1, Z = Z^T, Z >= 0, by alternating exact
minimizations of the augmented Lagrangian in Z (over Z >= 0, by a
thresholded closed form), in an auxiliary transpose copy Zhat (sym Z), and
in the Laplacian iterate L (I - Zhat), with multiplier estimates and a
geometrically growing penalty mu, until the residuals reach the tolerance.
The loop only hands a starting support to the finish below, so its default
schedule climbs fast, mu = mu0 rho**k with mu0 = 1 and rho = 1.9: 6 or 7 passes
reach the default tolerance 1e-2 at n = 20, and 4 for fleets of 400 and
1000 robots behind a wall.
Over symmetric Z the objective is (sum alpha + lambda1) ||Z - M||_F^2 plus a
constant, M = (sum_m alpha_m A_m + (lambda2 / 2) I) / (sum alpha + lambda1),
so the optimum projects sym M onto the feasible set: a Newton finish from
each problem's last Zhat computes it exactly, for the whole stack at once.

The L step minimizes lambda2 tr L for lambda2 ||L||_*, which keeps the
optimum: a feasible Z is symmetric with unit row sums and no negative entry,
so its eigenvalues lie in [-1, 1] (its spectral radius is its largest row
sum), L = I - Z is positive semidefinite and ||L||_* = tr L = n - tr Z.

Entries of the result are pairwise same-team affinities: row-stochastic,
exactly symmetric, non-negative.

The solver has one shape, the stack: prepare_problem puts problems along a
leading axis and every step advances them all, a single problem being a
stack of one. A stack holds problems of one size n: the graph lists of one
or more fleets, each under settings that differ only in alphas (a sweep's
weightings, or the one setting of a simulate batch), which spends numpy's
per-call overhead once per iteration for the whole stack; each problem's Z
and iteration count are those of its own solve, bit for bit. The
per-iteration objective is only computed for a trace someone asks for
(solve(..., trace=True), the default).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .system import is_integer


@dataclass(frozen=True)
class SolverConfig:
    """Weights, regularization strengths, and penalty schedule.

    alphas may be None, meaning equal weights 1/M resolved when the graph
    list is known. When given, they must be non-negative and sum to 1.
    """

    alphas: tuple | None = None
    lambda1: float = 0.1
    lambda2: float = 0.1
    mu0: float = 1.0
    rho: float = 1.9
    tolerance: float = 1e-2
    max_iterations: int = 1000

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "mu0", "rho", "tolerance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite, got %r" % (name, getattr(self, name)))
        if self.alphas is not None:
            a = tuple(float(x) for x in self.alphas)
            object.__setattr__(self, "alphas", a)
            if len(a) == 0:
                raise ValueError("alphas must be non-empty when given")
            if not all(math.isfinite(x) for x in a):
                raise ValueError("alphas must be finite, got %r" % (a,))
            if any(x < 0 for x in a):
                raise ValueError("alphas must be non-negative")
            if abs(sum(a) - 1.0) > 1e-12:
                raise ValueError("alphas must sum to 1, got %r" % (sum(a),))
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda1 and lambda2 must be non-negative")
        if not self.mu0 > 0:
            raise ValueError("mu0 must be positive")
        if not 1.0 < self.rho < 2.0:
            raise ValueError("rho must lie strictly between 1 and 2")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not (is_integer(self.max_iterations) and self.max_iterations >= 1):
            raise ValueError("max_iterations must be a positive integer")
        # mu grows to mu0 * rho**max_iterations, and the Z step's right-hand side
        # holds mu (1 + Zhat^T + Zhat + I - L), about 4 mu, before the step
        # divides it by mu
        try:
            peak = 4.0 * self.mu0 * self.rho**self.max_iterations
        except OverflowError:
            peak = math.inf
        if not math.isfinite(peak):
            raise ValueError("the penalty overflows before max_iterations: mu0=%r, rho=%r, "
                             "max_iterations=%r" % (self.mu0, self.rho, self.max_iterations))
        # the Z step's c = z_weight / mu + 3 and the lambda2 / mu on the diagonal
        # of its R must be finite at the first mu, where z_weight = 2 sum(alphas)
        # + 2 lambda1 and the alphas sum to 1 up to rounding; twice the sum leaves room
        if not math.isfinite((4.0 * (1.0 + self.lambda1) + 2.0 * self.lambda2) / self.mu0):
            raise ValueError("mu0 is too small: the Z step's weight over mu0 overflows: mu0=%r, "
                             "lambda1=%r, lambda2=%r" % (self.mu0, self.lambda1, self.lambda2))

    def resolved(self, m: int) -> "SolverConfig":
        """Fill in equal alphas for m graphs; check the count otherwise."""
        if m < 1:
            raise ValueError("need at least one graph")
        if self.alphas is None:
            return replace(self, alphas=(1.0 / m,) * m)
        if len(self.alphas) != m:
            raise ValueError("%d alphas for %d graphs" % (len(self.alphas), m))
        return self


@dataclass
class SolverState:
    """All iterates of a stack of solver runs at some iteration k.

    solve advances one state in place: each step's result is assigned to
    its field, and update_multipliers adds to the multipliers in place and
    moves mu and k. Every array carries the leading stack axis; mu and k
    are shared. The L link's multiplier, -Phi2 - lambda2 I, is not stored.
    """

    Z: np.ndarray
    Zhat: np.ndarray
    L: np.ndarray
    phi1: np.ndarray
    Phi2: np.ndarray
    mu: float
    k: int


@dataclass(frozen=True)
class Problem:
    """What stays fixed over the solve of a stack: the settings and the steps' constants.

    config holds the settings the stack's k problems share, with alphas
    None. Slice i of weighted_sum (k x n x n) is problem i's
    sum_m 2 alpha_m A_m, exactly twice its warm start sum_m alpha_m A_m, and
    slice i of z_weight (k x 1 x 1) its 2 sum alpha + 2 lambda1, the part of
    the Z step's diagonal that mu does not scale; eye is I.
    """

    config: SolverConfig
    weighted_sum: np.ndarray
    z_weight: np.ndarray
    eye: np.ndarray


@dataclass(frozen=True)
class Residuals:
    """Infinity-norm violations of the four equality constraints, of which two
    are independent: r3 and r4 repeat r2 (see constraint_residuals).

    constraint_residuals gives each as an array over a stack's problems; an
    IterationRecord holds one problem's, as floats.
    """

    r1: float  # |Z 1 - 1|_inf       (row sums)
    r2: float  # max |Z^T - Zhat|    (transpose copy)
    r3: float  # max |L - I + Z| = r2 (Laplacian link)
    r4: float  # max |Zhat - Z| = r2 (symmetry via the copy)

    @property
    def max_residual(self):
        return np.maximum(np.maximum(self.r1, self.r2), np.maximum(self.r3, self.r4))


@dataclass(frozen=True)
class IterationRecord:
    """One iteration's constraint residuals and objective value."""

    residuals: Residuals
    objective: float


@dataclass(frozen=True)
class SolveResult:
    Z: np.ndarray
    converged: bool
    iterations: int
    residual_trace: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class StackResult:
    """One SolveResult per problem of a stack, in the order given.

    iterations counts the loop's passes (the most any problem ran), and
    converged holds when every problem converged.
    """

    results: tuple

    @property
    def iterations(self) -> int:
        return max(result.iterations for result in self.results)

    @property
    def converged(self) -> bool:
        return all(result.converged for result in self.results)


# the most Newton steps the finish takes; the last copies of seeded 20-robot
# fleets (seeds 0-9, Full and Baseline, loops capped at 1 to 6 iterations)
# need at most 5, and those the loop hands over at the default 1e-2, 4
FINISH_STEPS = 8


def _adjacency(graph) -> np.ndarray:
    a = getattr(graph, "adjacency", graph)
    return np.asarray(a, dtype=float)


def prepare_problem(graph_lists, configs) -> Problem:
    """The stack of each graph list under its config, with the loop invariants fixed.

    Each list's graphs are checked against each other and its config. The
    lists may differ but must share the size n, and the configs must share
    every setting but alphas, since one loop advances them with one penalty
    mu and one lambda2 on the Z step's diagonal.
    """
    if len(graph_lists) != len(configs):
        raise ValueError("a stack needs one graph list per config, got %d for %d"
                         % (len(graph_lists), len(configs)))
    if not configs:
        raise ValueError("a stack needs at least one config")
    shared, weighted_sums, z_weights = [], [], []
    for graphs, config in zip(graph_lists, configs):
        adjs = tuple(_adjacency(g) for g in graphs)
        config = config.resolved(len(adjs))
        n = adjs[0].shape[0] if adjs[0].ndim else None  # a 0-d graph fails the check below
        for m, a in enumerate(adjs):
            if a.shape != (n, n):
                raise ValueError("all graphs must share the same square shape")
            if not np.isfinite(a).all():
                raise ValueError("graph %d has a non-finite entry" % m)
        shared.append(replace(config, alphas=None))
        weighted_sums.append(sum(2.0 * alpha * a for alpha, a in zip(config.alphas, adjs)))
        z_weights.append(2.0 * sum(config.alphas) + 2.0 * config.lambda1)
    sizes = sorted({w.shape[0] for w in weighted_sums})
    if len(sizes) > 1:
        raise ValueError("stacked problems must share n, got n = %s"
                         % ", ".join(map(str, sizes)))
    if len(set(shared)) > 1:
        raise ValueError("stacked problems may differ only in alphas")
    return Problem(
        config=shared[0],
        weighted_sum=np.stack(weighted_sums),
        z_weight=np.array(z_weights)[:, None, None],
        eye=np.eye(sizes[0]),
    )


def objective(Z, L, graphs, config: SolverConfig) -> float:
    """sum_m alpha_m ||Z - A_m||_F^2 + lambda1 ||Z||_F^2 + lambda2 tr L.

    The L step's term, equal to lambda2 ||L||_* wherever L = I - Z for a
    feasible Z (see the module docstring); scaling L's diagonal by lambda2
    before the sum keeps it finite at tiny penalties, where tr L overflows.
    """
    Z = np.asarray(Z, dtype=float)
    adjs = [_adjacency(g) for g in graphs]
    config = config.resolved(len(adjs))
    for a in adjs:
        if a.shape != Z.shape:
            raise ValueError("graph shape %r does not match Z shape %r" % (a.shape, Z.shape))
    fit = sum(alpha * np.sum((Z - a) ** 2) for alpha, a in zip(config.alphas, adjs))
    nuclear = np.sum(config.lambda2 * np.diagonal(np.asarray(L, dtype=float)))
    return float(fit + config.lambda1 * np.sum(Z**2) + nuclear)


def initial_state(problem: Problem) -> SolverState:
    """Warm start at the weighted graph average; phi1 = Phi2 = 0, so Phi3 = -lambda2 I."""
    Z0 = 0.5 * problem.weighted_sum
    return SolverState(
        Z=Z0,
        Zhat=Z0.mT.copy(),
        L=problem.eye - Z0,
        phi1=np.zeros(Z0.shape[:-1]),
        Phi2=np.zeros(Z0.shape),
        mu=problem.config.mu0,
        k=0,
    )


def update_z(state: SolverState, problem: Problem) -> np.ndarray:
    """The Z step: the exact minimizer of the smooth penalized objective over Z >= 0.

    The Z-gradient of the augmented objective is Z B - RHS with
    B = (2 sum alpha + 2 lambda1 + 3 mu) I + mu 1 1^T and RHS = weighted_sum
    + mu (1 1^T + Zhat^T + Zhat + I - L) - phi1 1^T - Phi2^T + Phi2 - Phi3,
    where -Phi3 = Phi2 + lambda2 I (see update_laplacian). In units of mu,
    B / mu = c I + 1 1^T with c = z_weight / mu + 3, and with R = RHS / mu
    each row z of Z is its own problem,

        min over z >= 0 of  c |z|^2 / 2 + (1^T z)^2 / 2 - R_i z.

    Its KKT conditions give z = max(R_i - theta, 0) / c with theta = 1^T z,
    that is c theta = sum_j max(R_ij - theta, 0). The left side rises and
    the right side falls in theta, so theta is the one root. For any index
    set A, theta_A = sum_{j in A} R_ij / (c + |A|) lies at or below it, as
    c theta - sum_j max(R_ij - theta, 0) is at most 0 at theta_A, and
    A = {j : R_ij > theta_A} holds at the root alone (Michelot's fixed
    point; Condat, Math. Program. 158, 2016). So the step starts from the
    previous iterate's support, takes A = {j : R_ij > theta_A} once, which
    holds the root's set, then shrinks A to A & {j : R_ij > theta_A}, which
    raises theta_A, until A holds still, and thresholds at theta_A of that
    last set. No sort is needed, and the start set does not reach Z's bits.
    A row with no positive R_ij ends with A empty and theta = 0: a zero row.
    Where no entry clamps, this is the Sherman-Morrison solve
    Z = (R - (R 1) 1^T / (c + n)) / c of Z B = RHS.

    Working in units of mu keeps R finite for any penalty SolverConfig
    admits, where sums of RHS or mu / (c + n mu) would overflow. The sums
    are taken of R / s with s = 2**ceil(log2 n), divided by c + |A| and
    scaled back by s, so they stay finite wherever R is; scaling by a power
    of two is exact for normal floats, so Z does not move.
    """
    mu = state.mu
    # R = RHS / mu, formed in place, the mu term first and the rest in the
    # order written above, in one C-ordered array, so that the row sums below
    # take each row in the same order whatever the inputs' layout
    R = np.add(1.0, state.Zhat.mT, out=np.empty(state.Zhat.shape))
    R += state.Zhat
    R += problem.eye
    R -= state.L
    R *= mu
    R += problem.weighted_sum
    R -= state.phi1[..., None]
    R -= state.Phi2.mT
    R += state.Phi2
    R += state.Phi2
    R += problem.config.lambda2 * problem.eye
    R /= mu
    c = problem.z_weight / mu + 3.0
    s = 2.0 ** (R.shape[-1] - 1).bit_length()
    scaled = R / s

    def theta_of(support):
        total = np.where(support, scaled, 0.0).sum(axis=-1, keepdims=True)
        return total / (c + support.sum(axis=-1, keepdims=True)) * s

    support = R > theta_of(state.Z > 0)
    while True:
        theta = theta_of(support)
        kept = support & (R > theta)
        if np.array_equal(kept, support):
            R -= theta
            np.maximum(R, 0.0, out=R)
            R /= c
            return R
        support = kept


def update_zhat(state: SolverState) -> np.ndarray:
    """The transpose-copy step: Zhat = sym Z = (Z + Z^T) / 2.

    A multiplier Phi4 of its own for Zhat = Z would give (Z^T + Z + (Phi2 - Phi4) / mu) / 2,
    but from zero multipliers Phi4 stays Phi2, by induction: the step is then sym Z, both
    gaps are (Z^T - Z) / 2, and both updates add the same. So Phi2 serves both penalties.
    """
    return 0.5 * (state.Z + state.Z.mT)


def update_laplacian(state: SolverState, problem: Problem) -> np.ndarray:
    """The L step: L = I - Zhat.

    For T = I - Z - Phi3/mu, Phi3 the L link's multiplier, the minimizer of
    lambda2 tr L + (mu/2) ||L - T||_F^2 over symmetric L is sym T - (lambda2/mu) I.
    Both restrictions keep the problem's optimum: every feasible L = I - Z is
    symmetric, and positive semidefinite, as Z's eigenvalues lie in [-1, 1],
    so there ||L||_* = tr L. Phi3 starts at -lambda2 I, where stationarity
    lambda2 I + sym Phi3 = 0 puts it at every KKT point, and stays
    -Phi2 - lambda2 I by induction: with Phi2 antisymmetric (see update_zhat),
    sym T - (lambda2/mu) I is I - Zhat for every lambda2, and the link's gap
    L - I + Z = Z - Zhat is the copy's gap negated. So Phi3 is not stored.
    """
    return problem.eye - state.Zhat


def constraint_residuals(state: SolverState):
    """The two independent constraint gaps and their infinity norms, per problem of a stack.

    Returns (Residuals, gaps) with gaps = (Z 1 - 1, Z^T - Zhat); the multiplier
    update ascends along them. r3 and r4 repeat r2, as L - I + Z and Zhat - Z
    are Z - Zhat (see update_zhat and update_laplacian).
    """
    ones = np.ones(state.Z.shape[-1])
    gaps = (state.Z @ ones - ones, state.Z.mT - state.Zhat)
    stack = state.Z.shape[:-2]
    r1, r2 = (np.abs(g).reshape(stack + (-1,)).max(axis=-1) for g in gaps)
    return Residuals(r1, r2, r2, r2), gaps


def update_multipliers(state: SolverState, gaps, config: SolverConfig) -> None:
    """Multiplier ascent along the constraint gaps with the pre-update mu, then the mu step.

    Advances state in place; mu is mu0 * rho**k in Python floats.
    """
    mu = state.mu
    g1, g2 = gaps
    state.phi1 += mu * g1
    state.Phi2 += mu * g2
    state.k += 1
    state.mu = config.mu0 * config.rho**state.k


def _project(M: np.ndarray, Zhat: np.ndarray):
    """The slices of a stack M projected onto the symmetric doubly stochastic
    matrices: Z(y) = max(M - y 1^T - 1 y^T, 0) for the y where F(y) = Z(y) 1 - 1
    is 0, the minimizer of the dual phi(y) = ||Z(y)||^2 / 2 + 2 sum y.

    y starts from the support P of the last copy Zhat, by (diag(P 1) + P) y =
    (P o (M - Zhat)) 1. Damped semismooth Newton steps (Qi and Sun, SIAM J.
    Matrix Anal. Appl. 28, 2006) solve (diag(P 1) + P) d = F, P the support
    of Z(y), and halve d per slice until phi falls. Each solve is one batched
    LU over the live slices, or, where LU finds a slice exactly singular (a
    bipartite support), slice by slice, by least squares for the singular
    ones, so a slice's bits do not depend on the stack. A slice is certified
    when its row sums lie within n eps of 1: Z(y), exactly symmetric and
    non-negative, then meets the KKT conditions at rounding. One that
    FINISH_STEPS steps leave short keeps its last Z(y). Returns (Z, certified).
    """
    n = M.shape[-1]
    diagonal = np.arange(n)

    def newton_solve(P, b):  # (diag(P 1) + P) x = b, slice by slice
        A = P.astype(float)
        A[:, diagonal, diagonal] += A.sum(axis=-1)
        try:
            return np.linalg.solve(A, b[..., None])[..., 0]
        except np.linalg.LinAlgError:
            return np.stack([_solve_or_lstsq(a, v) for a, v in zip(A, b)])

    def at(M, y):
        Z = np.maximum(M - (y[..., :, None] + y[..., None, :]), 0.0)
        return Z, 0.5 * (Z * Z).sum(axis=(-2, -1)) + 2.0 * y.sum(axis=-1)

    y = newton_solve(Zhat > 0, np.where(Zhat > 0, M - Zhat, 0.0).sum(axis=-1))
    Z, phi = at(M, y)
    result, certified, live = Z.copy(), np.zeros(len(M), dtype=bool), np.arange(len(M))
    for step in range(FINISH_STEPS + 1):
        F = Z.sum(axis=-1) - 1.0
        done = np.abs(F).max(axis=-1) <= n * np.finfo(float).eps
        result[live] = Z
        certified[live[done]] = True
        live, M, y, Z, phi, F = (a[~done] for a in (live, M, y, Z, phi, F))
        if step == FINISH_STEPS or not live.size:
            break
        d = newton_solve(Z > 0, F)
        t, trying = np.ones(len(live)), np.arange(len(live))
        while trying.size:  # ends: once y + t d rounds to y, phi cannot rise
            Z[trying], trial = at(M[trying], y[trying] + t[trying, None] * d[trying])
            rose = trial > phi[trying]
            phi[trying[~rose]] = trial[~rose]
            trying = trying[rose]
            t[trying] *= 0.5
        y += t[:, None] * d
    return result, certified


def _solve_or_lstsq(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """M x = b by LU, or by least squares where M is exactly singular."""
    try:
        return np.linalg.solve(M, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(M, b)[0]


def solve(graphs, config=None, *, trace: bool = True):
    """Run the alternating loop to the tolerance, then finish at the exact optimum.

    Parameters
    ----------
    graphs : list of RelationGraph or array-like, or a sequence of such lists
        The relation graphs A_m, all N x N with N >= 2. Pass normalized
        graphs so the alphas stay interpretable. With a sequence of
        configs, one graph list per config.
    config : SolverConfig, or a sequence of them, optional
        A sequence solves each config's graph list under it, all as one
        stack. The graph lists must share N and the configs every setting
        but alphas; one loop advances them all, and each problem leaves the
        stack at the iteration its own residuals pass, with the Z, count
        and trace a solve of it alone would give.
    trace : bool
        Record each iteration's residuals and objective. The objective
        costs a pass over the graphs per iteration, so leave it off when
        only Z is kept.

    Returns
    -------
    SolveResult, or a StackResult for a stack
        Final Z (the optimum, from the first iteration on), a converged
        flag, the iteration count, and the loop's per-iteration
        residual/objective trace (empty without trace). Converged means the
        loop reached the tolerance, where the finish takes over, and the
        finish certified the KKT conditions at rounding; a run short of
        either is reported through the flag, not raised.
    """
    single = config is None or isinstance(config, SolverConfig)
    if single:
        graph_lists, configs = [graphs], [SolverConfig() if config is None else config]
    else:
        graph_lists, configs = list(graphs), list(config)
    problem = prepare_problem(graph_lists, configs)
    if problem.eye.shape[0] < 2:
        raise ValueError("graphs must be at least 2x2")
    config = problem.config
    M = (problem.weighted_sum + config.lambda2 * problem.eye) / problem.z_weight

    state = initial_state(problem)
    active = np.arange(len(configs))  # the problem at each slice of the stack
    traces = [[] for _ in configs]
    last_zhat = np.empty_like(state.Zhat)  # each problem's Zhat as it leaves
    iterations = np.zeros(len(configs), dtype=int)
    converged = np.zeros(len(configs), dtype=bool)
    for _ in range(config.max_iterations):
        state.Z = update_z(state, problem)
        state.Zhat = update_zhat(state)
        state.L = update_laplacian(state, problem)
        res, gaps = constraint_residuals(state)
        if trace:
            for i, p in enumerate(active):
                traces[p].append(IterationRecord(
                    Residuals(*(float(r[i]) for r in (res.r1, res.r2, res.r3, res.r4))),
                    objective(state.Z[i], state.L[i], graph_lists[p], configs[p])))
        update_multipliers(state, gaps, config)
        done = res.max_residual <= config.tolerance
        if done.any():
            last_zhat[active[done]] = state.Zhat[done]
            iterations[active[done]] = state.k
            converged[active[done]] = True
            keep = ~done
            active = active[keep]
            if not active.size:
                break
            problem = replace(problem, weighted_sum=problem.weighted_sum[keep],
                              z_weight=problem.z_weight[keep])
            state = replace(state, **{name: value[keep] for name, value in vars(state).items()
                                      if isinstance(value, np.ndarray)})
    if active.size:  # the problems the iteration cap stopped
        last_zhat[active] = state.Zhat
        iterations[active] = state.k
    Z, certified = _project(0.5 * (M + M.mT), last_zhat)
    results = [SolveResult(Z=Z[p], converged=bool(converged[p] and certified[p]),
                           iterations=int(iterations[p]), residual_trace=tuple(traces[p]))
               for p in range(len(configs))]
    return results[0] if single else StackResult(tuple(results))


def save_solve_trace(result: SolveResult, final_objective: float, path) -> None:
    """Emit the convergence record: converged, iterations, Z's objective, per-iteration records."""
    doc = {
        "converged": result.converged,
        "iterations": result.iterations,
        "objective": final_objective,
        "residuals": [
            dict(asdict(record.residuals), objective=record.objective)
            for record in result.residual_trace
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
