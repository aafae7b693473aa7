"""Sweep the blend weights and watch the coverage metrics move.

The three weights decide how much the fused matrix listens to position,
radio reachability, and shared sensors. A coarse lattice over the weight
simplex is enough to see the trade-off on a small fleet. As in the sweep
subcommand, each seed's fleet is placed once, and the fleets are fused
under every weighting together; the subcommand runs the same loop at a
finer step and writes sweep.csv.
"""

import numpy as np

from hetcover.simulation import (
    Method,
    SimConfig,
    fuse_fleets,
    place_fleet,
    run_trial,
    sweep_grid,
)
from hetcover.solver import SolverConfig

n_teams = 3
seeds = (0, 1, 2)
grid = sweep_grid(0.5)  # lattice of i/2, j/2, k/2 with i+j+k = 2
solvers = [SolverConfig(alphas=alphas) for alphas in grid]

det = [[] for _ in grid]
dup = [[] for _ in grid]
placed = [place_fleet(SimConfig(n_robots=10, n_capabilities=2, seed=seed)) for seed in seeds]
for fleets in fuse_fleets(placed, solvers, (Method.FULL,)):
    for fleet, fleet_det, fleet_dup in zip(fleets, det, dup):
        full, = run_trial(fleet, n_teams)
        fleet_det.append(full.detection_rate)
        fleet_dup.append(full.duplication_rate)

print("alpha1 alpha2 alpha3   detection  duplication   (Full method, %d seeds)"
      % len(seeds))
for alphas, alpha_det, alpha_dup in zip(grid, det, dup):
    print("  %.1f    %.1f    %.1f      %.3f      %.3f"
          % (alphas + (float(np.mean(alpha_det)), float(np.mean(alpha_dup)))))

print()
print("the CLI equivalent, at a finer 0.1 step over the full lattice:")
print("  hetcover sweep --robots 10 --capabilities 2 --regions 3"
      " --seeds 3 --alpha-step 0.1 --out results/")
