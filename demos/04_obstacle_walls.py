"""Walls block line of sight, and that reshapes the fused teams.

Six robots in a ring, all within radio range of each other. Without
obstacles the communication graph is dense and the teams follow sensor
types. A wall down the middle removes every cross-wall link, and the same
pipeline then groups robots by which side of the wall they stand on.
"""

import numpy as np

from hetcover.graphs import build_communication_graph, build_relation_graphs
from hetcover.partition import partition
from hetcover.solver import solve
from hetcover.system import Environment, Position, RobotSpec, RobotSystem, Wall

np.set_printoptions(precision=2, suppress=True)

positions = [(0.3, 0.25), (0.35, 0.5), (0.3, 0.75),
             (0.7, 0.25), (0.65, 0.5), (0.7, 0.75)]
sensors = ["rgb", "depth", "audio", "rgb", "depth", "audio"]
radius = 0.8

def make_system(obstacles):
    env = Environment(1.0, 1.0, obstacles=obstacles)
    robots = tuple(
        RobotSpec(i, Position(x, y), frozenset({s}))
        for i, ((x, y), s) in enumerate(zip(positions, sensors))
    )
    return RobotSystem(robots, env, ("rgb", "depth", "audio"))

wall = Wall(Position(0.5, 0.05), Position(0.5, 0.95))

open_system = make_system(())
walled_system = make_system((wall,))

print("communication graph, open floor:")
print(build_communication_graph(open_system, radius).adjacency)
print()
print("communication graph, wall from (%.2f, %.2f) to (%.2f, %.2f):"
      % (wall.start.x, wall.start.y, wall.end.x, wall.end.y))
print(build_communication_graph(walled_system, radius).adjacency)

for label, system in (("open floor", open_system), ("with wall", walled_system)):
    graphs = build_relation_graphs(system, comm_radius=radius)
    result = solve(graphs)
    assignment, = partition(result.Z, 2)
    teams = assignment.teams
    print()
    print("%s -> teams %s" % (label, [sorted(t) for t in teams]))
