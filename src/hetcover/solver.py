"""Augmented-Lagrangian fusion of relation graphs into a bistochastic matrix.

Minimizes

    sum_m alpha_m ||Z - A_m||_F^2 + lambda1 ||Z||_F^2 + lambda2 ||L||_*

subject to L = I - Z, Z 1 = 1, Z = Z^T, Z >= 0, by alternating closed-form
updates of Z, an auxiliary transpose copy Zhat, and the Laplacian iterate L
(via singular-value thresholding), with multiplier estimates and a
geometrically growing penalty mu.

Entries of the result are pairwise same-team affinities: row-stochastic,
symmetric, non-negative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np


class NumericalSolverError(RuntimeError):
    """An internal linear-algebra failure; carries the offending matrix."""

    def __init__(self, message, iterate=None):
        super().__init__(message)
        self.iterate = iterate


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
        if self.alphas is not None:
            a = tuple(float(x) for x in self.alphas)
            object.__setattr__(self, "alphas", a)
            if len(a) == 0:
                raise ValueError("alphas must be non-empty when given")
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
        if not (isinstance(self.max_iterations, int) and self.max_iterations >= 1):
            raise ValueError("max_iterations must be a positive integer")

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
    """All iterates of one solver run at some iteration k.

    solve advances one state in place: each step's result is assigned to
    its field, and update_multipliers moves the multipliers, mu and k.
    """

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
class Problem:
    """What stays fixed over one solve: the graphs, the config and the Z step's constants.

    adjs are the graphs as arrays and config has its alphas resolved.
    weighted_sum is sum_m 2 alpha_m A_m; z_weight is 2 sum alpha + 2 lambda1,
    the part of the Z step's diagonal that mu does not scale; eye and ones
    are I and 1 1^T.
    """

    adjs: tuple
    config: SolverConfig
    weighted_sum: np.ndarray
    z_weight: float
    eye: np.ndarray
    ones: np.ndarray


@dataclass(frozen=True)
class Residuals:
    """Infinity-norm violations of the four equality constraints."""

    r1: float  # |Z 1 - 1|_inf       (row sums)
    r2: float  # max |Z^T - Zhat|    (transpose copy)
    r3: float  # max |L - I + Z|     (Laplacian link)
    r4: float  # max |Zhat - Z|      (symmetry via the copy)

    @property
    def max_residual(self) -> float:
        return max(self.r1, self.r2, self.r3, self.r4)


@dataclass(frozen=True)
class IterationRecord:
    r1: float
    r2: float
    r3: float
    r4: float
    objective: float


@dataclass(frozen=True)
class SolveResult:
    Z: np.ndarray
    converged: bool
    iterations: int
    residual_trace: tuple = field(default_factory=tuple)


def _adjacency(graph) -> np.ndarray:
    a = getattr(graph, "adjacency", graph)
    return np.asarray(a, dtype=float)


def prepare_problem(graphs, config: SolverConfig) -> Problem:
    """Check the graphs against each other and the config, and fix the loop invariants."""
    adjs = tuple(_adjacency(g) for g in graphs)
    if not adjs:
        raise ValueError("need at least one graph")
    n = adjs[0].shape[0]
    for a in adjs:
        if a.shape != (n, n):
            raise ValueError("all graphs must share the same square shape")
    config = config.resolved(len(adjs))
    return Problem(
        adjs=adjs,
        config=config,
        weighted_sum=sum(2.0 * alpha * a for alpha, a in zip(config.alphas, adjs)),
        z_weight=2.0 * sum(config.alphas) + 2.0 * config.lambda1,
        eye=np.eye(n),
        ones=np.ones((n, n)),
    )


def objective(Z, L, graphs, config: SolverConfig, singular_values=None) -> float:
    """sum_m alpha_m ||Z - A_m||_F^2 + lambda1 ||Z||_F^2 + lambda2 ||L||_*.

    singular_values, when given, are L's and spare an SVD of L; solve passes
    the ones the L step has just shrunk. With lambda2 = 0 the nuclear term
    is skipped.
    """
    Z = np.asarray(Z, dtype=float)
    adjs = [_adjacency(g) for g in graphs]
    config = config.resolved(len(adjs))
    for a in adjs:
        if a.shape != Z.shape:
            raise ValueError("graph shape %r does not match Z shape %r" % (a.shape, Z.shape))
    fit = sum(alpha * np.sum((Z - a) ** 2) for alpha, a in zip(config.alphas, adjs))
    value = fit + config.lambda1 * np.sum(Z**2)
    if config.lambda2:
        if singular_values is None:
            singular_values = np.linalg.svd(np.asarray(L, dtype=float), compute_uv=False)
        value = value + config.lambda2 * float(singular_values.sum())
    return float(value)


def _shrink(G, tau):
    """svt(G, tau) and its singular values; None for the values when tau = 0 (no SVD runs)."""
    G = np.asarray(G, dtype=float)
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if tau == 0:
        return G.copy(), None
    try:
        U, s, Vt = np.linalg.svd(G, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalSolverError("SVD failed during thresholding: %s" % exc, iterate=G) from exc
    shrunk = np.maximum(s - tau, 0.0)
    return (U * shrunk) @ Vt, shrunk


def svt(G, tau: float) -> np.ndarray:
    """Singular-value thresholding: shrink each singular value by tau, floor at 0.

    This is the proximal operator of tau * ||.||_*; svt(G, 0) returns G
    unchanged.
    """
    return _shrink(G, tau)[0]


def initial_state(problem: Problem) -> SolverState:
    """Warm start at the weighted graph average with zero multipliers."""
    n = problem.eye.shape[0]
    Z0 = sum(alpha * a for alpha, a in zip(problem.config.alphas, problem.adjs))
    return SolverState(
        Z=Z0,
        Zhat=Z0.T.copy(),
        L=problem.eye - Z0,
        phi1=np.zeros(n),
        Phi2=np.zeros((n, n)),
        Phi3=np.zeros((n, n)),
        Phi4=np.zeros((n, n)),
        mu=problem.config.mu0,
        k=0,
    )


def update_z_unclamped(state: SolverState, problem: Problem) -> np.ndarray:
    """Closed-form minimizer of the smooth penalized objective in Z.

    Setting the Z-gradient of the augmented objective to zero gives
    Z ((2 sum alpha + 2 lambda1 + 3 mu) I + mu 1 1^T) = RHS, solved as a
    linear system against the SPD right factor rather than by explicit
    inverse.
    """
    mu = state.mu
    rhs = problem.weighted_sum + mu * (
        problem.ones + state.Zhat.T + state.Zhat + problem.eye - state.L)
    rhs = rhs - state.phi1[:, None] - state.Phi2.T - state.Phi3 + state.Phi4
    B = (problem.z_weight + 3.0 * mu) * problem.eye + mu * problem.ones
    try:
        # Z B = rhs with B symmetric, so solve B Z^T = rhs^T
        return np.linalg.solve(B, rhs.T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalSolverError("Z-update solve failed: %s" % exc, iterate=B) from exc


def update_z(state: SolverState, problem: Problem) -> np.ndarray:
    """The Z step: closed-form solve followed by the elementwise max{Z, 0} clamp."""
    return np.maximum(update_z_unclamped(state, problem), 0.0)


def update_zhat(state: SolverState) -> np.ndarray:
    """The transpose-copy step: Zhat = (mu Z^T + mu Z + Phi2 + Phi4) / (2 mu)."""
    mu = state.mu
    return (mu * (state.Z.T + state.Z) + state.Phi2 + state.Phi4) / (2.0 * mu)


def update_laplacian(state: SolverState, problem: Problem):
    """The L step: proximal shrinkage toward I - Z.

    Minimizes lambda2 ||L||_* + (mu/2) ||L - (I - Z - Phi3/mu)||_F^2, i.e.
    svt of the target with threshold lambda2/mu. Returns L and its
    singular values, or None for them when lambda2 = 0 and L is the target.
    """
    target = problem.eye - state.Z - state.Phi3 / state.mu
    return _shrink(target, problem.config.lambda2 / state.mu)


def constraint_residuals(state: SolverState, problem: Problem):
    """The four constraint gaps and their infinity norms.

    Returns (Residuals, gaps) with gaps = (Z 1 - 1, Z^T - Zhat, L - I + Z,
    Zhat - Z); the multiplier update ascends along the same gaps.
    """
    ones = problem.ones[0]  # a row of 1 1^T is the all-ones vector
    gaps = (
        state.Z @ ones - ones,
        state.Z.T - state.Zhat,
        state.L - problem.eye + state.Z,
        state.Zhat - state.Z,
    )
    return Residuals(*(float(np.max(np.abs(g))) for g in gaps)), gaps


def update_multipliers(state: SolverState, gaps, config: SolverConfig) -> None:
    """Multiplier ascent along the constraint gaps with the pre-update mu, then the mu step.

    Advances state in place; mu is mu0 * rho**k in Python floats.
    """
    mu = state.mu
    g1, g2, g3, g4 = gaps
    state.phi1 = state.phi1 + mu * g1
    state.Phi2 = state.Phi2 + mu * g2
    state.Phi3 = state.Phi3 + mu * g3
    state.Phi4 = state.Phi4 + mu * g4
    state.k += 1
    state.mu = config.mu0 * config.rho**state.k


def solve(graphs, config: SolverConfig | None = None) -> SolveResult:
    """Run the full alternating loop until the constraints hold.

    Parameters
    ----------
    graphs : list of RelationGraph or array-like
        The relation graphs A_m, all N x N with N >= 2. Pass normalized
        graphs so the alphas stay interpretable.
    config : SolverConfig, optional

    Returns
    -------
    SolveResult
        Final Z (symmetrized and row-renormalized), a converged flag,
        the iteration count, and the per-iteration residual/objective
        trace. Non-convergence is reported through the flag, not raised.
    """
    problem = prepare_problem(graphs, SolverConfig() if config is None else config)
    if problem.eye.shape[0] < 2:
        raise ValueError("graphs must be at least 2x2")
    config = problem.config

    state = initial_state(problem)
    trace = []
    converged = False
    for _ in range(config.max_iterations):
        state.Z = update_z(state, problem)
        state.Zhat = update_zhat(state)
        state.L, singular_values = update_laplacian(state, problem)
        res, gaps = constraint_residuals(state, problem)
        trace.append(
            IterationRecord(res.r1, res.r2, res.r3, res.r4,
                            objective(state.Z, state.L, problem.adjs, config, singular_values))
        )
        update_multipliers(state, gaps, config)
        if res.max_residual <= config.tolerance:
            converged = True
            break

    Z = 0.5 * (state.Z + state.Z.T)
    sums = Z.sum(axis=1, keepdims=True)
    sums[sums <= 0] = 1.0  # only possible on wildly non-converged runs
    Z = Z / sums
    return SolveResult(Z=Z, converged=converged, iterations=state.k,
                       residual_trace=tuple(trace))


def save_solve_trace(result: SolveResult, path) -> None:
    """Emit the convergence record: converged flag, iterations, residuals."""
    doc = {
        "converged": result.converged,
        "iterations": result.iterations,
        "residuals": [
            {"r1": r.r1, "r2": r.r2, "r3": r.r3, "r4": r.r4, "objective": r.objective}
            for r in result.residual_trace
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
