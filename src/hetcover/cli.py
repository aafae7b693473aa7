"""Command-line pipeline: generate, solve, partition, simulate, sweep.

Each option is declared once, as an Option: its flag, its type, whether it
is required or its default, its help, and the library field it sets, if
any. The declaration makes the flag, and main resolves every option of the
command once, as flag > JSON config file (--config, keys named after the
option with underscores) > default. The option's type checks a config
value exactly as it checks the flag's text, so {"robots": 4.7}, {"out": 7}
or {"alpha": "100"} exits 2 like --robots 4.7 does; a key that no
subcommand's option uses, such as {"event": 5}, exits 2 too. A setting's
library default and its check live in the library type it sets
(SimConfig, SolverConfig, Environment, graphs.communication_radius); _build
makes each type from the fields that a flag or the config file gives.
SolverConfig caps --max-iters below the point where the penalty
mu0 * rho**k overflows, and floors --mu0 where the Z step would overflow.
simulate and sweep check every setting once, before any trial, a team
count above the robot count included; then each runs a batch as the
simulation module describes it, scoring each fused fleet of
simulation.batch_fleets in one run_trial call at the batch's team counts.
simulate names each failed trial, one line per r listed; sweep, which sets
the alphas of each weighting itself and so has no --alpha, stops at its
first failed trial. All outputs are plain JSON/CSV files named after their
role, written under --out.

Exit codes: 0 success; 2 usage or validation problems (including unreadable
inputs); 3 solver ran but did not converge (outputs still written); 4 output
I/O failure, a simulate batch in which every trial failed, or a failed sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from typing import NamedTuple

import numpy as np

from .graphs import (
    COMM_RADIUS_PER_DIAGONAL,
    SPATIAL_EPSILON_PER_DIAGONAL,
    build_relation_graphs,
    load_matrix_csv,
    save_matrix_csv,
)
from .partition import check_team_count, partition, save_assignment
from .simulation import (
    Method,
    SimConfig,
    append_metrics_csv,
    attempt,
    batch_fleets,
    generate_system,
    metrics_rows,
    region_raster,
    run_trial,
    sweep_grid,
    trial_rngs,
)
from .solver import FINISH_STEPS, SolverConfig, objective, save_solve_trace, solve
from .system import Environment, Position, Wall, load_system, save_system

ALPHA_STEP = 0.1  # sweep's default simplex grid step


# ---------------------------------------------------------------------------
# option declarations


def _integer(value):
    """int(value) without truncation: a fractional or non-finite number, or a bool, is refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("not an integer: %r" % (value,))
    return int(value)


def _real(value):
    """float(value), refusing a bool as _integer does: a flag cannot spell one."""
    if isinstance(value, bool):
        raise ValueError("not a number: %r" % (value,))
    return float(value)


def _reals(value, count):
    """A list of exactly count numbers, each read by _real; a string is not a list."""
    if not isinstance(value, list) or len(value) != count:
        raise ValueError("not a list of %d numbers: %r" % (count, value))
    return tuple(map(_real, value))


def _alphas(value):
    """Three graph weights; SolverConfig checks that they are finite and sum to 1."""
    return _reals(value, 3)


def _walls(value):
    """Wall segments from a list of [x1, y1, x2, y2] lists of numbers."""
    if not isinstance(value, list):
        raise ValueError("not a list of wall segments: %r" % (value,))
    return tuple(Wall(Position(x1, y1), Position(x2, y2))
                 for x1, y1, x2, y2 in (_reals(segment, 4) for segment in value))


def _path(value):
    """A path: the flag's text, or a string in the config file."""
    if not isinstance(value, str):
        raise TypeError("not a path: %r" % (value,))
    return value


def _parse_regions(text):
    """Team counts: "a..b" as a range, which stays lazy so that checking it
    against the robot count stops at the first r too large, or "a,b,c"."""
    text = str(text).strip()
    if ".." in text:
        lo, hi = (int(part) for part in text.split("..", 1))
        if not 1 <= lo <= hi:
            raise ValueError("a..b needs 1 <= a <= b, got %r" % text)
        return range(lo, hi + 1)
    values = [int(part) for part in text.split(",")]
    if any(v < 1 for v in values):
        raise ValueError("region counts must be positive")
    return values


class Option(NamedTuple):
    """One option: flag --name (dashes for underscores) and config key name.

    kind turns the flag's text (a list of texts for nargs) or the config
    value into the option's value, raising TypeError or ValueError on a bad
    one. An option that is not given is an error if required, else takes
    default, which help quotes. field names the field of SimConfig,
    Environment or SolverConfig that the option sets, if any.
    """

    name: str
    kind: object
    help: str | None = None
    required: bool = False
    default: object = None
    field: str | None = None
    extra: dict = {}  # further add_argument settings: nargs, action, metavar

    @property
    def flag(self):
        return "--" + self.name.replace("_", "-")


def _field_options(cls, *specs):
    """Options from (option, field, type, help) that each set a field of cls.

    An option that neither a flag nor the config file sets leaves its field
    at cls's default, which its help quotes.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    return tuple(Option(name, kind, "%s (default %g)" % (text, defaults[field]), field=field)
                 for name, field, kind, text in specs)


ENVIRONMENT_OPTIONS = _field_options(Environment, ("width", "width", _real, "environment width"),
                                     ("height", "height", _real, "environment height"))
SOLVER_OPTIONS = _field_options(
    SolverConfig,
    ("lambda1", "lambda1", _real, "Frobenius regularizer weight"),
    ("lambda2", "lambda2", _real, "nuclear-norm regularizer weight"),
    ("mu0", "mu0", _real, "initial penalty"),
    ("rho", "rho", _real, "penalty growth factor in (1,2)"),
    ("tol", "tolerance", _real, "loop residual at which the exact finish takes over"),
    ("max_iters", "max_iterations", _integer, "iteration cap"),
)
TRIAL_OPTIONS = _field_options(SimConfig, ("events", "n_events", _integer, "events per trial"))

OUT = Option("out", _path, "output directory", default=".")
ROBOTS = Option("robots", _integer, "number of robots (>= 2)", required=True, field="n_robots")
CAPABILITIES = Option("capabilities", _integer, "capability universe size", required=True,
                      field="n_capabilities")
TEAMS = Option("regions", _integer, "team count r", required=True)
WALL = Option("wall", _walls, "wall segment; repeatable", field="obstacles",
              extra=dict(nargs=4, action="append", metavar=("X1", "Y1", "X2", "Y2")))
ALPHA = Option("alpha", _alphas, "graph weights, must sum to 1 (default equal)",
               field="alphas", extra=dict(nargs=3, metavar=("A1", "A2", "A3")))
COMM_RADIUS = Option("comm_radius", _real,
                     "communication radius (default %g x diagonal)" % COMM_RADIUS_PER_DIAGONAL,
                     field="comm_radius")

ENVIRONMENT_FLAGS = ENVIRONMENT_OPTIONS + (WALL,)
FUSION_FLAGS = (COMM_RADIUS,) + SOLVER_OPTIONS  # solve, simulate and sweep
FLEET_FLAGS = (  # the seeded fleet of simulate and sweep
    ROBOTS, CAPABILITIES,
    Option("seeds", _integer, "number of consecutive seeds", required=True),
    Option("seed", _integer, "base seed", default=0, field="seed"),
) + TRIAL_OPTIONS + ENVIRONMENT_FLAGS + FUSION_FLAGS


def _resolve(args, parser):
    """Set each option of args' command on args as flag > --config key > default.

    A flag's text and a config value go through the same type; a value it
    refuses, or a required option that is not given, exits 2 naming the flag.
    """
    config = _read(parser, "config file", _load_json, args.config) if args.config else {}
    if not isinstance(config, dict):
        parser.error("config file must hold a JSON object")
    # a key of another subcommand's option is kept, so one file can serve several
    unknown = set(config) - {option.name for _, _, options in COMMANDS.values()
                             for option in options + (OUT,)}
    if unknown:
        parser.error("unknown key in config file: %s" % ", ".join(map(repr, sorted(unknown))))
    for option in args.options:
        value = getattr(args, option.name)
        if value is None:
            value = config.get(option.name)
        if value is None:
            if option.required:
                parser.error("%s is required" % option.flag)
            value = option.default
        else:
            try:
                value = option.kind(value)
            except (TypeError, ValueError, OverflowError):
                parser.error("invalid value for %s: %r" % (option.flag, value))
        setattr(args, option.name, value)
    return args


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read(parser, what, load, path):
    """load(path), or exit 2 naming what could not be read and why."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        parser.error("cannot read %s %s: %s" % (what, path, exc))


def _build(cls, args, parser, what, **parts):
    """cls(**parts) with each field of cls that an option of args' command
    sets, if a flag or the config file gives it; a field left out keeps
    cls's default. A value cls refuses exits 2 with "invalid <what>: ..."."""
    names = {f.name for f in fields(cls)}
    settings = {option.field: getattr(args, option.name) for option in args.options
                if option.field in names and getattr(args, option.name) is not None}
    try:
        return cls(**settings, **parts)
    except ValueError as exc:
        parser.error("invalid %s: %s" % (what, exc))


def _write_outputs(out, outputs) -> int:
    """Write each (file name, write(path)) pair under out, then print the paths.

    Returns 0, or 4 after a stderr line naming the path that could not be
    made or written; files written before the failure stay.
    """
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        print("cannot create output directory %s: %s" % (out, exc), file=sys.stderr)
        return 4
    paths = []
    for name, write in outputs:
        path = os.path.join(out, name)
        try:
            write(path)
        except OSError as exc:
            print("cannot write %s: %s" % (path, exc), file=sys.stderr)
            return 4
        paths.append(path)
    for path in paths:
        print(path)
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args, parser):
    config = _build(SimConfig, args, parser, "trial configuration",
                    environment=_build(Environment, args, parser, "environment"))
    try:
        system = generate_system(config, trial_rngs(config.seed)[0])
    except (ValueError, RuntimeError) as exc:
        parser.error(str(exc))
    return _write_outputs(args.out, [("system.json", lambda path: save_system(system, path))])


def cmd_solve(args, parser):
    system = _read(parser, "system", load_system, args.system)
    solver_config = _build(SolverConfig, args, parser, "solver settings")
    try:
        graphs = build_relation_graphs(system, args.comm_radius, args.epsilon)
    except ValueError as exc:  # an AllZeroGraphError among them
        parser.error("cannot build graphs: %s" % exc)
    result = solve(graphs, solver_config, trace=True)
    final = objective(result.Z, np.eye(len(result.Z)) - result.Z, graphs, solver_config)
    code = _write_outputs(args.out, [
        ("Z.csv", lambda path: save_matrix_csv(result.Z, path)),
        ("trace.json", lambda path: save_solve_trace(result, final, path)),
    ])
    if code == 0 and not result.converged:
        # the loop stops at the tolerance or at its cap; a loop that reached
        # the tolerance leaves only the finish to fall short
        passes = "%d iteration%s" % (result.iterations, "" if result.iterations == 1 else "s")
        if result.residual_trace[-1].residuals.max_residual > solver_config.tolerance:
            stage = "the loop reached its cap of %s before the tolerance %g" % (
                passes, solver_config.tolerance)
        else:
            stage = ("the loop reached the tolerance %g in %s, but the finish did not "
                     "certify the optimum within %d Newton steps"
                     % (solver_config.tolerance, passes, FINISH_STEPS))
        print("solver did not converge: %s" % stage, file=sys.stderr)
        return 3
    return code


def cmd_partition(args, parser):
    Z = _read(parser, "matrix", load_matrix_csv, args.z)
    try:
        assignment, = partition(Z, args.regions)
    except ValueError as exc:
        parser.error(str(exc))
    outputs = [("assignment.json", lambda path: save_assignment(assignment, path))]
    if args.raster is not None:
        if args.system is None:
            parser.error("--raster needs --system for robot positions")
        system = _read(parser, "system", load_system, args.system)
        try:
            grid = region_raster(system, assignment, args.raster)
        except ValueError as exc:
            parser.error(str(exc))
        except MemoryError:  # numpy's ArrayMemoryError among them
            parser.error("invalid value for --raster: a %d x %d grid does not fit in memory"
                         % (args.raster, args.raster))

        def save_regions(path):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"resolution": args.raster, "teams": grid.tolist()}, fh)
                fh.write("\n")

        outputs.append(("regions.json", save_regions))
    return _write_outputs(args.out, outputs)


def _batch(args, parser, regions):
    """The checked base SimConfig of a simulate or sweep batch, at its first seed,
    and the batch's seeds; any invalid setting, a team count of regions above
    the robot count included, exits here, before a trial runs."""
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    base = _build(SimConfig, args, parser, "trial configuration",
                  environment=_build(Environment, args, parser, "environment"),
                  solver=_build(SolverConfig, args, parser, "solver settings"))
    for r in regions:
        try:
            check_team_count(r, base.n_robots)
        except ValueError as exc:
            parser.error("invalid value for --regions: %s" % exc)
    return base, range(args.seed, args.seed + args.seeds)


def _trials(base, seeds, solvers, regions, methods=tuple(Method)):
    """(seed, setting index, the fleet's run_trial(fleet, *regions) or the error
    that failed it), for each fused fleet of simulation.batch_fleets."""
    for seed, s, outcome in batch_fleets(base, seeds, solvers, methods):
        if not isinstance(outcome, Exception):  # the fleet is dropped once scored
            outcome = attempt(run_trial, outcome, *regions)
        yield seed, s, outcome


def cmd_simulate(args, parser):
    base, seeds = _batch(args, parser, args.regions)
    # rows are kept per --regions entry so the file stays r-major in the order given
    rows_at = [[] for _ in args.regions]
    failures = 0
    for seed, _, outcome in _trials(base, seeds, [base.solver], args.regions):
        for i, r in enumerate(args.regions):
            if isinstance(outcome, Exception):
                failures += 1
                print("trial r=%d seed=%d failed: %s" % (r, seed, outcome), file=sys.stderr)
            else:
                rows_at[i] += metrics_rows(base, [rep for rep in outcome if rep.r == r])
    rows = [row for r_rows in rows_at for row in r_rows]
    if not rows:
        print("all %d trials failed" % failures, file=sys.stderr)
        return 4
    return _write_outputs(args.out, [("metrics.csv", lambda path: append_metrics_csv(path, rows))])


def cmd_sweep(args, parser):
    try:
        grid = sweep_grid(args.alpha_step)
    except ValueError as exc:
        parser.error("invalid value for --alpha-step: %s" % exc)
    base, seeds = _batch(args, parser, [args.regions])
    solvers = [replace(base.solver, alphas=alphas) for alphas in grid]
    rates = [[] for _ in grid]  # each weighting's Full (detection, duplication), in seed order
    for _, s, outcome in _trials(base, seeds, solvers, [args.regions], (Method.FULL,)):
        if isinstance(outcome, Exception):
            print("sweep failed: %s" % outcome, file=sys.stderr)
            return 4
        full, = outcome
        rates[s].append((full.detection_rate, full.duplication_rate))

    def save_sweep(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("alpha1,alpha2,alpha3,detection,duplication\n")
            for alphas, pairs in zip(grid, rates):
                means = tuple(sum(values) / len(values) for values in zip(*pairs))
                fh.write("%r,%r,%r,%r,%r\n" % (alphas + means))

    return _write_outputs(args.out, [("sweep.csv", save_sweep)])


# ---------------------------------------------------------------------------
# parser


# each subcommand: (help, function, its options before --out)
COMMANDS = {
    "generate": ("write a random system JSON", cmd_generate, (
        ROBOTS, CAPABILITIES, Option("seed", _integer, "RNG seed", required=True, field="seed"),
    ) + ENVIRONMENT_FLAGS),
    "solve": ("fuse a system's graphs into Z", cmd_solve, (
        Option("system", _path, "system JSON path", required=True),
        Option("epsilon", _real, "spatial distance guard (default %g x diagonal)"
               % SPATIAL_EPSILON_PER_DIAGONAL),
        ALPHA,
    ) + FUSION_FLAGS),
    "partition": ("split a solved Z into teams", cmd_partition, (
        Option("z", _path, "Z matrix CSV path", required=True),
        TEAMS,
        Option("raster", _integer, "also write the team region grid at this resolution"),
        Option("system", _path, "system JSON (needed with --raster)"),
    )),
    "simulate": ("batch trials into metrics.csv", cmd_simulate, (
        Option("regions", _parse_regions, "team counts: one value, a..b, or a,b,c",
               required=True),
        ALPHA,
    ) + FLEET_FLAGS),
    "sweep": ("ternary weight sweep into sweep.csv", cmd_sweep, (
        TEAMS, Option("alpha_step", _real, "simplex grid step", default=ALPHA_STEP),
    ) + FLEET_FLAGS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetcover", allow_abbrev=False,
        description="Fuse robot relationship graphs, partition into teams, "
                    "and score coverage assignments.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, options) in COMMANDS.items():
        sub = commands.add_parser(name, help=text, allow_abbrev=False)
        options += (OUT,)
        for option in options:
            quoted = option.help if option.default is None else "%s (default %s)" % (
                option.help, option.default)
            sub.add_argument(option.flag, help=quoted, **option.extra)
        sub.add_argument("--config", help="JSON file supplying defaults for any option")
        sub.set_defaults(func=func, options=options, parser=sub)  # sub reports its errors
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(_resolve(args, args.parser), args.parser)


if __name__ == "__main__":
    sys.exit(main())
