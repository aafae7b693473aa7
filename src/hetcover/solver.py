"""Augmented-Lagrangian fusion of relation graphs into a bistochastic matrix.

Minimizes

    sum_m alpha_m ||Z - A_m||_F^2 + lambda1 ||Z||_F^2 + lambda2 ||L||_*

subject to L = I - Z, Z 1 = 1, Z = Z^T, Z >= 0, by alternating exact
minimizations of the augmented Lagrangian in Z (over Z >= 0, by a
thresholded closed form), in an auxiliary transpose copy Zhat (sym Z), and
in the Laplacian iterate L (an affine step), with multiplier estimates and
a geometrically growing penalty mu. The last Z is finished by symmetric
balancing.

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
    mu0: float = 0.1
    rho: float = 1.1
    tolerance: float = 1e-6
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
        # the Z step's c = z_weight / mu + 3 must be finite at the first mu,
        # where z_weight = 2 sum(alphas) + 2 lambda1 and the alphas sum to 1 up
        # to rounding; twice that weight leaves room for the rounding
        if not math.isfinite(4.0 * (1.0 + self.lambda1) / self.mu0):
            raise ValueError("mu0 is too small: the Z step's weight over mu0 overflows: "
                             "mu0=%r, lambda1=%r" % (self.mu0, self.lambda1))

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
    its field, and update_multipliers moves the multipliers, mu and k. Every
    array carries the leading stack axis; mu and k are shared.
    """

    Z: np.ndarray
    Zhat: np.ndarray
    L: np.ndarray
    phi1: np.ndarray
    Phi2: np.ndarray
    Phi3: np.ndarray
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
    """Infinity-norm violations of the four equality constraints.

    constraint_residuals gives each as an array over a stack's problems; an
    IterationRecord holds one problem's, as floats.
    """

    r1: float  # |Z 1 - 1|_inf       (row sums)
    r2: float  # max |Z^T - Zhat|    (transpose copy)
    r3: float  # max |L - I + Z|     (Laplacian link)
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


# the most Newton steps the finish takes; the iterates of seeded 20-robot
# fleets need at most 6 from the first iteration on
FINISH_STEPS = 8


def _adjacency(graph) -> np.ndarray:
    a = getattr(graph, "adjacency", graph)
    return np.asarray(a, dtype=float)


def prepare_problem(graph_lists, configs) -> Problem:
    """The stack of each graph list under its config, with the loop invariants fixed.

    Each list's graphs are checked against each other and its config. The
    lists may differ but must share the size n, and the configs must share
    every setting but alphas, since one loop advances them with one penalty
    mu and one L-step shift lambda2 / mu.
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
    """Warm start at the weighted graph average with zero multipliers."""
    Z0 = 0.5 * problem.weighted_sum
    return SolverState(
        Z=Z0,
        Zhat=Z0.mT.copy(),
        L=problem.eye - Z0,
        phi1=np.zeros(Z0.shape[:-1]),
        Phi2=np.zeros(Z0.shape),
        Phi3=np.zeros(Z0.shape),
        mu=problem.config.mu0,
        k=0,
    )


def update_z(state: SolverState, problem: Problem) -> np.ndarray:
    """The Z step: the exact minimizer of the smooth penalized objective over Z >= 0.

    The Z-gradient of the augmented objective is Z B - RHS with
    B = (2 sum alpha + 2 lambda1 + 3 mu) I + mu 1 1^T. In units of mu,
    B / mu = c I + 1 1^T with c = z_weight / mu + 3, and with R = RHS / mu
    each row z of Z is its own problem,

        min over z >= 0 of  c |z|^2 / 2 + (1^T z)^2 / 2 - R_i z.

    Its KKT conditions give z = max(R_i - theta, 0) / c with theta = 1^T z,
    that is c theta = sum_j max(R_ij - theta, 0). The left side rises and
    the right side falls in theta, so theta is the one root, found by
    sorting as in the Euclidean projection onto the simplex (Duchi et al.,
    ICML 2008): with u = R_i in descending order,
    theta_k = (u_1 + ... + u_k) / (c + k) and K = #{k : u_k > theta_k},
    theta = theta_K, or theta_1 when K = 0, which gives a zero row. Where no
    entry clamps, this is the Sherman-Morrison solve
    Z = (R - (R 1) 1^T / (c + n)) / c of Z B = RHS.

    Working in units of mu keeps R finite for any penalty SolverConfig
    admits, where sums of RHS or mu / (c + n mu) would overflow. The partial sums
    are taken of u / s with s = 2**ceil(log2 n), divided by c + k and scaled
    back by s, so they stay finite wherever R is; scaling by a power of two
    is exact for normal floats, so Z does not move.
    """
    mu = state.mu
    rhs = problem.weighted_sum + mu * (
        1.0 + state.Zhat.mT + state.Zhat + problem.eye - state.L)
    rhs = rhs - state.phi1[..., None] - state.Phi2.mT - state.Phi3 + state.Phi2
    R = rhs / mu
    c = problem.z_weight / mu + 3.0
    n = R.shape[-1]
    s = 2.0 ** (n - 1).bit_length()
    u = np.sort(R, axis=-1)[..., ::-1]
    thetas = np.cumsum(u / s, axis=-1) / (c + np.arange(1, n + 1)) * s
    K = (u > thetas).sum(axis=-1, keepdims=True)
    theta = np.take_along_axis(thetas, np.maximum(K - 1, 0), axis=-1)
    return np.maximum(R - theta, 0.0) / c


def update_zhat(state: SolverState) -> np.ndarray:
    """The transpose-copy step: Zhat = sym Z = (Z + Z^T) / 2.

    A multiplier Phi4 of its own for Zhat = Z would give (Z^T + Z + (Phi2 - Phi4) / mu) / 2,
    but from zero multipliers Phi4 stays Phi2, by induction: the step is then sym Z, both
    gaps are (Z^T - Z) / 2, and both updates add the same. So Phi2 serves both penalties.
    """
    return 0.5 * (state.Z + state.Z.mT)


def update_laplacian(state: SolverState, problem: Problem) -> np.ndarray:
    """The L step: L = sym T - tau I, for T = I - Z - Phi3/mu and tau = lambda2/mu.

    The exact minimizer of lambda2 tr L + (mu/2) ||L - T||_F^2 over symmetric L,
    where ||L - T||^2 = ||L - sym T||^2 + ||skew T||^2 and the stationarity
    condition lambda2 I + mu (L - sym T) = 0 gives L. Both restrictions keep
    the problem's optimum: every feasible L = I - Z is symmetric, and
    positive semidefinite, as Z's eigenvalues lie in [-1, 1], so there
    ||L||_* = tr L. Returns T itself at tau = 0.
    """
    target = problem.eye - state.Z - state.Phi3 / state.mu
    tau = problem.config.lambda2 / state.mu
    if tau == 0:
        return target
    return 0.5 * (target + target.mT) - tau * problem.eye


def constraint_residuals(state: SolverState, problem: Problem):
    """The three constraint gaps and their infinity norms, per problem of a stack.

    Returns (Residuals, gaps) with gaps = (Z 1 - 1, Z^T - Zhat, L - I + Z);
    the multiplier update ascends along them. r4 repeats r2 (see update_zhat).
    """
    ones = np.ones(state.Z.shape[-1])
    gaps = (
        state.Z @ ones - ones,
        state.Z.mT - state.Zhat,
        state.L - problem.eye + state.Z,
    )
    stack = state.Z.shape[:-2]
    r1, r2, r3 = (np.abs(g).reshape(stack + (-1,)).max(axis=-1) for g in gaps)
    return Residuals(r1, r2, r3, r2), gaps


def update_multipliers(state: SolverState, gaps, config: SolverConfig) -> None:
    """Multiplier ascent along the constraint gaps with the pre-update mu, then the mu step.

    Advances state in place; mu is mu0 * rho**k in Python floats.
    """
    mu = state.mu
    g1, g2, g3 = gaps
    state.phi1 = state.phi1 + mu * g1
    state.Phi2 = state.Phi2 + mu * g2
    state.Phi3 = state.Phi3 + mu * g3
    state.k += 1
    state.mu = config.mu0 * config.rho**state.k


def _result(state: SolverState, i: int, converged: bool, trace) -> SolveResult:
    """The result of the problem at slice i: its last Zhat finished by symmetric balancing.

    Newton's method on d * (S d) = 1 for S = Zhat = sym Z, from d = 1 (Knight
    and Ruiz, IMA J. Numer. Anal. 33, 2013), finds the positive d for which
    D S D, with D = diag(d), has unit row sums. Each step solves
    (diag(S d / d) + S) delta = 1 / d and sets d = d / 2 + delta; the solve
    is a least-squares one, since that matrix is singular at the balance of
    a bipartite S, such as [[0, 1], [1, 0]], which is still balanced. The
    result Z = sym(D S D) equals its transpose exactly. A Z that
    FINISH_STEPS steps cannot balance to rounding, such as one with a zero
    row, is returned as sym Z and reported unconverged; balanced means within
    n eps, the rounding bound of a row sum.
    """
    S = state.Zhat[i]
    n = S.shape[0]
    Z, d, balanced = S, np.ones(n), False
    for _ in range(FINISH_STEPS + 1):
        Sd = S @ d
        if np.abs(d * Sd - 1.0).max() <= n * np.finfo(float).eps:
            DSD = d[:, None] * S * d
            Z, balanced = 0.5 * (DSD + DSD.T), True
            break
        d = 0.5 * d + np.linalg.lstsq(np.diag(Sd / d) + S, 1.0 / d)[0]
        if not (d > 0).all():
            break
    return SolveResult(Z=Z, converged=converged and balanced, iterations=state.k,
                       residual_trace=tuple(trace))


def solve(graphs, config=None, *, trace: bool = True):
    """Run the alternating loop until the constraints hold.

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
        Final Z (symmetric and row-stochastic, by the balancing finish),
        a converged flag, the iteration count, and the per-iteration
        residual/objective trace (empty without trace). Non-convergence,
        of the loop or of the finish, is reported through the flag, not
        raised.
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

    state = initial_state(problem)
    active = list(range(len(configs)))  # the problem at each slice of the stack
    traces = [[] for _ in configs]
    results = [None] * len(configs)
    for _ in range(config.max_iterations):
        state.Z = update_z(state, problem)
        state.Zhat = update_zhat(state)
        state.L = update_laplacian(state, problem)
        res, gaps = constraint_residuals(state, problem)
        if trace:
            for i, p in enumerate(active):
                traces[p].append(IterationRecord(
                    Residuals(*(float(r[i]) for r in (res.r1, res.r2, res.r3, res.r4))),
                    objective(state.Z[i], state.L[i], graph_lists[p], configs[p])))
        update_multipliers(state, gaps, config)
        done = res.max_residual <= config.tolerance
        if done.any():
            for i in np.flatnonzero(done):
                results[active[i]] = _result(state, i, True, traces[active[i]])
            active = [p for p, finished in zip(active, done) if not finished]
            if not active:
                break
            keep = ~done
            problem = replace(problem, weighted_sum=problem.weighted_sum[keep],
                              z_weight=problem.z_weight[keep])
            state = replace(state, **{name: value[keep] for name, value in vars(state).items()
                                      if isinstance(value, np.ndarray)})
    for i, p in enumerate(active):
        results[p] = _result(state, i, False, traces[p])
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
