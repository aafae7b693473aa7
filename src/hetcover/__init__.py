"""Heterogeneous multi-robot team assignment by graph fusion and spectral cuts.

The package exports what the README quick start uses; everything else is
imported from its module (hetcover.partition, hetcover.solver, ...).
"""

from .system import Environment, Position, RobotSpec, RobotSystem
from .graphs import build_relation_graphs
from .solver import solve
from .simulation import Method, SimConfig, prepare_fleet, run_trial

__version__ = "0.1.0"
