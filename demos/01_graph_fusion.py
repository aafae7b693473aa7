"""Fuse three relationship graphs of a small fleet into one soft grouping.

Eight robots sit in two spatial clumps with mixed sensors. The spatial,
communication and capability graphs each tell a different story; the solver
blends them into a single bistochastic matrix Z whose entries read as
"probability these two belong together".
"""

import numpy as np

from hetcover.graphs import build_relation_graphs
from hetcover.solver import solve
from hetcover.system import Environment, Position, RobotSpec, RobotSystem

np.set_printoptions(precision=3, suppress=True)

positions = [(0.15, 0.2), (0.2, 0.25), (0.25, 0.15), (0.2, 0.1),
             (0.8, 0.8), (0.85, 0.75), (0.75, 0.85), (0.8, 0.9)]
sensors = ["rgb", "depth", "rgb", "depth", "rgb", "depth", "rgb", "depth"]

robots = tuple(
    RobotSpec(i, Position(x, y), frozenset({s}))
    for i, ((x, y), s) in enumerate(zip(positions, sensors))
)
system = RobotSystem(robots, Environment(1.0, 1.0), ("rgb", "depth"))

graphs = build_relation_graphs(system)  # the default communication radius
for g in graphs:
    print(g.kind.value, "graph:")
    print(g.adjacency)
    print()

result = solve(graphs)
print("converged:", result.converged, "after", result.iterations, "iterations")
print("fused Z:")
print(result.Z)

# the constraints we asked for actually hold at the solution
print()
print("row sums:", result.Z.sum(axis=1))
print("max asymmetry:", np.abs(result.Z - result.Z.T).max())
print("min entry:", result.Z.min())

# the loop hands over at its tolerance; the finish returns the exact optimum
last = result.residual_trace[-1].residuals
print("loop's last residuals: %.2e %.2e" % (last.r1, last.r2))
print("returned Z's largest row-sum error: %.2e" % np.abs(result.Z.sum(axis=1) - 1.0).max())

# entries inside a spatial clump end up far above the cross-clump ones
same = result.Z[:4, :4][~np.eye(4, dtype=bool)].mean()
cross = result.Z[:4, 4:].mean()
print("mean within-clump weight %.3f vs cross-clump %.3f" % (same, cross))
