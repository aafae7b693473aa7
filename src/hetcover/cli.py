"""Command-line pipeline: generate, solve, partition, simulate, sweep.

Every value option layers as flag > JSON config file (--config, keys named
after the option with underscores) > default. A setting's default and its
check live in the library type it sets (SimConfig, SolverConfig,
Environment, graphs.communication_radius); the CLI passes on only what a
flag or the config file gives. All outputs are plain JSON/CSV files named
after their role, written under --out.

Exit codes: 0 success; 2 usage or validation problems (including unreadable
inputs); 3 solver ran but did not converge (outputs still written); 4 output
I/O failure, or a batch in which every trial failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

from .graphs import (
    COMM_RADIUS_PER_DIAGONAL,
    SPATIAL_EPSILON_PER_DIAGONAL,
    build_relation_graphs,
    load_matrix_csv,
    save_matrix_csv,
)
from .partition import partition, save_assignment
from .simulation import (
    Method,
    SimConfig,
    append_metrics_csv,
    fuse_fleet,
    generate_system,
    metrics_rows,
    place_fleet,
    prepare_fleet,
    region_raster,
    run_trial,
    trial_rngs,
)
from .solver import SolverConfig, save_solve_trace, solve
from .system import Environment, Position, Wall, load_system, save_system

ALPHA_STEP = 0.1  # sweep's default simplex grid step


def sweep_grid(alpha_step):
    """The ternary grid over the three graph weights at alpha_step resolution."""
    steps = round(1.0 / alpha_step)
    return [(i / steps, j / steps, (steps - i - j) / steps)
            for i in range(steps + 1) for j in range(steps + 1 - i)]


def run_sweep(base: SimConfig, seeds, alpha_step):
    """Rows (a1, a2, a3, mean detection, mean duplication) for the full method.

    Each seed's system, graphs and events are made once from base at that
    seed; only the Full Z is solved again for each weighting.
    """
    grid = sweep_grid(alpha_step)
    detections = [[] for _ in grid]
    duplications = [[] for _ in grid]
    for seed in seeds:
        fleet = place_fleet(replace(base, seed=seed))
        for alphas, det, dup in zip(grid, detections, duplications):
            fused = fuse_fleet(fleet, replace(base.solver, alphas=alphas), (Method.FULL,))
            report, = run_trial(fused.config, fused, methods=(Method.FULL,))
            det.append(report.detection_rate)
            dup.append(report.duplication_rate)
    return [
        (alphas[0], alphas[1], alphas[2], sum(det) / len(det), sum(dup) / len(dup))
        for alphas, det, dup in zip(grid, detections, duplications)
    ]


# ---------------------------------------------------------------------------
# option plumbing


class _Options:
    """Resolves each option as flag > config file (--config) > default."""

    def __init__(self, args, parser):
        self.args = args
        self.parser = parser
        self.file = {}
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    self.file = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                parser.error("cannot read config file %s: %s" % (args.config, exc))
            if not isinstance(self.file, dict):
                parser.error("config file must hold a JSON object")

    def get(self, name, default=None, cast=None, required=False):
        value = getattr(self.args, name, None)
        if value is None:
            value = self.file.get(name)
        if value is None:
            value = default
        if value is None:
            if required:
                self.parser.error("--%s is required" % name.replace("_", "-"))
            return None
        if cast is not None:
            try:
                value = cast(value)
            except (TypeError, ValueError):
                self.parser.error("invalid value for --%s: %r" % (name.replace("_", "-"), value))
        return value


def _integer(value):
    """int(value) without truncation: a fractional or non-finite number, or a bool, is refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("not an integer: %r" % (value,))
    return int(value)


def _alpha_triple(value):
    try:
        alphas = tuple(float(v) for v in value)
    except TypeError:
        raise ValueError("alpha must be a list of three weights, got %r" % (value,)) from None
    if len(alphas) != 3:
        raise ValueError("need exactly three weights")
    return alphas


# The options that set a field of a library type, as (option, field, type,
# help). An option that neither a flag nor the config file sets leaves its
# field at the type's default, which --help quotes.
ENVIRONMENT_OPTIONS = (("width", "width", float, "environment width"),
                       ("height", "height", float, "environment height"))
SOLVER_OPTIONS = (
    ("lambda1", "lambda1", float, "Frobenius regularizer weight"),
    ("lambda2", "lambda2", float, "nuclear-norm regularizer weight"),
    ("mu0", "mu0", float, "initial penalty"),
    ("rho", "rho", float, "penalty growth factor in (1,2)"),
    ("tol", "tolerance", float, "residual tolerance"),
    ("max_iters", "max_iterations", int, "iteration cap"),
)
TRIAL_OPTIONS = (("events", "n_events", int, "events per trial"),)


def _given(opts, options) -> dict:
    """{field: value} for each of options that a flag or the config file sets."""
    values = {name: opts.get(option, cast=_integer if kind is int else kind)
              for option, name, kind, _ in options}
    return {name: value for name, value in values.items() if value is not None}


def _environment(opts) -> Environment:
    walls = opts.get("wall", default=[])
    try:
        obstacles = tuple(
            Wall(Position(float(w[0]), float(w[1])), Position(float(w[2]), float(w[3])))
            for w in walls
        )
        return Environment(obstacles=obstacles, **_given(opts, ENVIRONMENT_OPTIONS))
    except (ValueError, TypeError, IndexError) as exc:
        opts.parser.error("invalid environment: %s" % exc)


def _solver_config(opts) -> SolverConfig:
    settings = _given(opts, SOLVER_OPTIONS)
    alpha = opts.get("alpha")
    try:
        if alpha is not None:
            settings["alphas"] = _alpha_triple(alpha)
        return SolverConfig(**settings)
    except ValueError as exc:
        opts.parser.error("invalid solver settings: %s" % exc)


def _write_outputs(opts, outputs) -> int:
    """Write each (file name, write(path)) pair under --out, then print the paths.

    Returns 0, or 4 after a stderr line naming the path that could not be
    made or written; files written before the failure stay.
    """
    out = str(opts.get("out", default="."))
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


def _parse_regions(text):
    text = str(text).strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(part) for part in text.split(",")]
    if not values or any(v < 1 for v in values):
        raise ValueError("region counts must be positive")
    return values


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args, parser):
    opts = _Options(args, parser)
    try:
        config = SimConfig(n_robots=opts.get("robots", cast=_integer, required=True),
                           n_capabilities=opts.get("capabilities", cast=_integer, required=True),
                           n_regions=1, seed=opts.get("seed", cast=_integer, required=True),
                           environment=_environment(opts))
        system = generate_system(config, trial_rngs(config.seed)[0])
    except (ValueError, RuntimeError) as exc:
        parser.error(str(exc))
    return _write_outputs(opts, [("system.json", lambda path: save_system(system, path))])


def cmd_solve(args, parser):
    opts = _Options(args, parser)
    system_path = opts.get("system", required=True)
    try:
        system = load_system(system_path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        parser.error("cannot read system %s: %s" % (system_path, exc))
    solver_config = _solver_config(opts)
    try:
        graphs = build_relation_graphs(system, opts.get("comm_radius", cast=float),
                                       opts.get("epsilon", cast=float))
    except ValueError as exc:  # an AllZeroGraphError among them
        parser.error("cannot build graphs: %s" % exc)
    result = solve(graphs, solver_config)
    code = _write_outputs(opts, [
        ("Z.csv", lambda path: save_matrix_csv(result.Z, path)),
        ("trace.json", lambda path: save_solve_trace(result, path)),
    ])
    if code == 0 and not result.converged:
        print("solver did not converge within %d iterations"
              % solver_config.max_iterations, file=sys.stderr)
        return 3
    return code


def cmd_partition(args, parser):
    opts = _Options(args, parser)
    z_path = opts.get("z", required=True)
    r = opts.get("regions", cast=_integer, required=True)
    raster = opts.get("raster", cast=_integer)
    system_path = opts.get("system")
    try:
        Z = load_matrix_csv(z_path)
    except (OSError, ValueError) as exc:
        parser.error("cannot read matrix %s: %s" % (z_path, exc))
    try:
        assignment = partition(Z, r)
    except ValueError as exc:
        parser.error(str(exc))
    outputs = [("assignment.json", lambda path: save_assignment(assignment, path))]
    if raster is not None:
        if system_path is None:
            parser.error("--raster needs --system for robot positions")
        try:
            system = load_system(system_path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            parser.error("cannot read system %s: %s" % (system_path, exc))
        try:
            grid = region_raster(system, assignment, raster)
        except ValueError as exc:
            parser.error(str(exc))

        def save_regions(path):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"resolution": raster, "teams": grid.tolist()}, fh)
                fh.write("\n")

        outputs.append(("regions.json", save_regions))
    return _write_outputs(opts, outputs)


def _batch(opts, n_regions):
    """The checked base SimConfig of a simulate or sweep batch, at its first seed,
    and the batch's seeds; any invalid setting exits here, before a trial runs."""
    n = opts.get("robots", cast=_integer, required=True)
    k = opts.get("capabilities", cast=_integer, required=True)
    n_seeds = opts.get("seeds", cast=_integer, required=True)
    base_seed = opts.get("seed", default=0, cast=_integer)
    if n_seeds < 1:
        opts.parser.error("--seeds must be at least 1")
    try:
        base = SimConfig(n_robots=n, n_capabilities=k, n_regions=n_regions, seed=base_seed,
                         comm_radius=opts.get("comm_radius", cast=float),
                         environment=_environment(opts), solver=_solver_config(opts),
                         **_given(opts, TRIAL_OPTIONS))
    except ValueError as exc:
        opts.parser.error("invalid trial configuration: %s" % exc)
    return base, range(base_seed, base_seed + n_seeds)


def cmd_simulate(args, parser):
    opts = _Options(args, parser)
    try:
        regions = _parse_regions(opts.get("regions", required=True))
    except ValueError as exc:
        parser.error("invalid --regions: %s" % exc)
    # r is checked per trial, so an r above the robot count fails only its trials
    base, seeds = _batch(opts, n_regions=1)
    # one fleet per seed serves every r; rows are kept per --regions entry so
    # the file stays r-major in the order given
    rows_at = [[] for _ in regions]
    failures = 0
    for seed in seeds:
        fleet = None  # frees the last seed's fleet before this one is prepared
        try:
            fleet = prepare_fleet(replace(base, seed=seed))
        except (ValueError, RuntimeError) as exc:
            failure = exc
        for r_rows, r in zip(rows_at, regions):
            if fleet is not None:
                try:
                    config = replace(base, seed=seed, n_regions=r)
                    r_rows.extend(metrics_rows(config, run_trial(config, fleet)))
                    continue
                except (ValueError, RuntimeError) as exc:
                    failure = exc
            failures += 1
            print("trial r=%d seed=%d failed: %s" % (r, seed, failure), file=sys.stderr)
    rows = [row for r_rows in rows_at for row in r_rows]
    if not rows:
        print("all %d trials failed" % failures, file=sys.stderr)
        return 4
    return _write_outputs(opts, [("metrics.csv", lambda path: append_metrics_csv(path, rows))])


def cmd_sweep(args, parser):
    opts = _Options(args, parser)
    r = opts.get("regions", cast=_integer, required=True)
    step = opts.get("alpha_step", default=ALPHA_STEP, cast=float)
    if not 0 < step <= 1 or abs(round(1.0 / step) - 1.0 / step) > 1e-9:
        parser.error("--alpha-step must divide 1 evenly")
    base, seeds = _batch(opts, n_regions=r)
    try:
        rows = run_sweep(base, seeds, step)
    except (ValueError, RuntimeError) as exc:
        print("sweep failed: %s" % exc, file=sys.stderr)
        return 4

    def save_sweep(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("alpha1,alpha2,alpha3,detection,duplication\n")
            for row in rows:
                fh.write("%r,%r,%r,%r,%r\n" % row)

    return _write_outputs(opts, [("sweep.csv", save_sweep)])


# ---------------------------------------------------------------------------
# parser


def _add_common(sub):
    sub.add_argument("--out", help="output directory (default .)")
    sub.add_argument("--config", help="JSON file supplying defaults for any option")


def _add_options(sub, cls, options):
    """One flag per (option, field, type, help); each help quotes cls's default of field."""
    defaults = {f.name: f.default for f in fields(cls)}
    for option, name, kind, text in options:
        sub.add_argument("--" + option.replace("_", "-"), type=kind,
                         help="%s (default %g)" % (text, defaults[name]))


def _add_env_flags(sub):
    _add_options(sub, Environment, ENVIRONMENT_OPTIONS)
    sub.add_argument("--wall", type=float, nargs=4, action="append",
                     metavar=("X1", "Y1", "X2", "Y2"),
                     help="wall segment; repeatable")


def _add_fusion_flags(sub):
    """The communication radius and solver flags of solve, simulate and sweep."""
    sub.add_argument("--comm-radius", type=float,
                     help="communication radius (default %g x diagonal)" % COMM_RADIUS_PER_DIAGONAL)
    sub.add_argument("--alpha", type=float, nargs=3, metavar=("A1", "A2", "A3"),
                     help="graph weights, must sum to 1 (default equal)")
    _add_options(sub, SolverConfig, SOLVER_OPTIONS)


def _add_fleet_flags(sub):
    """The seeded-fleet, environment and solver flags of simulate and sweep."""
    sub.add_argument("--robots", type=int)
    sub.add_argument("--capabilities", type=int)
    sub.add_argument("--seeds", type=int, help="number of consecutive seeds")
    sub.add_argument("--seed", type=int, help="base seed (default 0)")
    _add_options(sub, SimConfig, TRIAL_OPTIONS)
    _add_env_flags(sub)
    _add_fusion_flags(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetcover",
        description="Fuse robot relationship graphs, partition into teams, "
                    "and score coverage assignments.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("generate", help="write a random system JSON")
    p.add_argument("--robots", type=int, help="number of robots (>= 2)")
    p.add_argument("--capabilities", type=int, help="capability universe size")
    p.add_argument("--seed", type=int, help="RNG seed")
    _add_env_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = commands.add_parser("solve", help="fuse a system's graphs into Z")
    p.add_argument("--system", help="system JSON path")
    p.add_argument("--epsilon", type=float,
                   help="spatial distance guard (default %g x diagonal)"
                        % SPATIAL_EPSILON_PER_DIAGONAL)
    _add_fusion_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = commands.add_parser("partition", help="split a solved Z into teams")
    p.add_argument("--z", help="Z matrix CSV path")
    p.add_argument("--regions", type=int, help="team count r")
    p.add_argument("--raster", type=int,
                   help="also write the team region grid at this resolution")
    p.add_argument("--system", help="system JSON (needed with --raster)")
    _add_common(p)
    p.set_defaults(func=cmd_partition)

    p = commands.add_parser("simulate", help="batch trials into metrics.csv")
    p.add_argument("--regions", help="team counts: one value, a..b, or a,b,c")
    _add_fleet_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = commands.add_parser("sweep", help="ternary weight sweep into sweep.csv")
    p.add_argument("--regions", type=int, help="team count r")
    p.add_argument("--alpha-step", type=float,
                   help="simplex grid step (default %g)" % ALPHA_STEP)
    _add_fleet_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
