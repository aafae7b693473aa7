"""Sweep the blend weights and watch the coverage metrics move.

The three weights decide how much the fused matrix listens to position,
radio reachability, and shared sensors. A coarse lattice over the weight
simplex is enough to see the trade-off on a small fleet; the sweep
subcommand runs the same loop at a finer step and writes sweep.csv.
"""

import numpy as np

from hetcover.simulation import Method, SimConfig, prepare_fleet, run_trial
from hetcover.solver import SolverConfig

base = dict(n_robots=10, n_capabilities=2)
n_teams = 3
seeds = (0, 1, 2)
step = 2  # lattice of i/2, j/2, k/2 with i+j+k = 2

print("alpha1 alpha2 alpha3   detection  duplication   (Full method, %d seeds)"
      % len(seeds))
for i in range(step + 1):
    for j in range(step + 1 - i):
        k = step - i - j
        alphas = (i / step, j / step, k / step)
        det, dup = [], []
        for seed in seeds:
            config = SimConfig(seed=seed, solver=SolverConfig(alphas=alphas), **base)
            full, = run_trial(prepare_fleet(config, (Method.FULL,)), n_teams)
            det.append(full.detection_rate)
            dup.append(full.duplication_rate)
        print("  %.1f    %.1f    %.1f      %.3f      %.3f"
              % (alphas + (float(np.mean(det)), float(np.mean(dup)))))

print()
print("the CLI equivalent, at a finer 0.1 step over the full lattice:")
print("  hetcover sweep --robots 10 --capabilities 2 --regions 3"
      " --seeds 3 --alpha-step 0.1 --out results/")
