"""Command-line pipeline: generate, solve, partition, simulate, sweep.

Every value option layers as flag > JSON config file (--config, keys named
after the option with underscores) > built-in default. All outputs are
plain JSON/CSV files named after their role, written under --out.

Exit codes: 0 success; 2 usage or validation problems (including unreadable
inputs); 3 solver ran but did not converge (outputs still written); 4 output
I/O failure, or a batch in which every trial failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

from .graphs import (
    AllZeroGraphError,
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


@dataclass(frozen=True)
class SweepSpec:
    """A ternary grid over the three graph weights, averaged over seeds."""

    base: SimConfig
    seeds: tuple
    alpha_step: float = 0.1

    def grid(self):
        steps = round(1.0 / self.alpha_step)
        points = []
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                k = steps - i - j
                points.append((i / steps, j / steps, k / steps))
        return points


def run_sweep(spec: SweepSpec):
    """Rows (a1, a2, a3, mean detection, mean duplication) for the full method.

    Each seed's system, graphs and events are made once; only the Full Z is
    solved again for each weighting.
    """
    grid = spec.grid()
    detections = [[] for _ in grid]
    duplications = [[] for _ in grid]
    for seed in spec.seeds:
        fleet = place_fleet(replace(spec.base, seed=seed))
        for alphas, det, dup in zip(grid, detections, duplications):
            solver = replace(spec.base.solver, alphas=alphas)
            config = replace(spec.base, seed=seed, solver=solver)
            report, = run_trial(config, fuse_fleet(fleet, solver, (Method.FULL,)),
                                methods=(Method.FULL,))
            det.append(report.detection_rate)
            dup.append(report.duplication_rate)
    return [
        (alphas[0], alphas[1], alphas[2], sum(det) / len(det), sum(dup) / len(dup))
        for alphas, det, dup in zip(grid, detections, duplications)
    ]


# ---------------------------------------------------------------------------
# option plumbing


def _load_config_file(path, parser):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error("cannot read config file %s: %s" % (path, exc))
    if not isinstance(doc, dict):
        parser.error("config file must hold a JSON object")
    return doc


class _Options:
    """Resolves each option as flag > config file > default."""

    def __init__(self, args, parser):
        self.args = args
        self.parser = parser
        self.file = _load_config_file(args.config, parser) if args.config else {}

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


def _environment(opts) -> Environment:
    width = opts.get("width", default=1.0, cast=float)
    height = opts.get("height", default=1.0, cast=float)
    walls = opts.get("wall", default=[])
    try:
        obstacles = tuple(
            Wall(Position(float(w[0]), float(w[1])), Position(float(w[2]), float(w[3])))
            for w in walls
        )
        return Environment(width, height, obstacles)
    except (ValueError, TypeError, IndexError) as exc:
        opts.parser.error("invalid environment: %s" % exc)


def _solver_config(opts) -> SolverConfig:
    alpha = opts.get("alpha")
    try:
        alphas = _alpha_triple(alpha) if alpha is not None else None
        return SolverConfig(
            alphas=alphas,
            lambda1=opts.get("lambda1", default=0.1, cast=float),
            lambda2=opts.get("lambda2", default=0.1, cast=float),
            mu0=opts.get("mu0", default=0.1, cast=float),
            rho=opts.get("rho", default=1.1, cast=float),
            tolerance=opts.get("tol", default=1e-6, cast=float),
            max_iterations=opts.get("max_iters", default=1000, cast=_integer),
        )
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
    elif "," in text:
        values = [int(part) for part in text.split(",")]
    else:
        values = [int(text)]
    if not values or any(v < 1 for v in values):
        raise ValueError("region counts must be positive")
    return values


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args, parser):
    opts = _Options(args, parser)
    n = opts.get("robots", cast=_integer, required=True)
    k = opts.get("capabilities", cast=_integer, required=True)
    seed = opts.get("seed", cast=_integer, required=True)
    if n < 2:
        parser.error("--robots must be at least 2")
    if k < 1:
        parser.error("--capabilities must be at least 1")
    if seed < 0:
        parser.error("--seed must be non-negative")
    env = _environment(opts)
    try:
        config = SimConfig(n_robots=n, n_capabilities=k, n_regions=1, seed=seed,
                           environment=env)
        system_rng, _ = trial_rngs(seed)
        system = generate_system(config, system_rng)
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
    comm_radius = opts.get("comm_radius", cast=float,
                           default=0.4 * system.environment.diagonal)
    epsilon = opts.get("epsilon", cast=float)
    try:
        graphs = build_relation_graphs(system, comm_radius, epsilon)
    except (AllZeroGraphError, ValueError) as exc:
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
        if len(system) != Z.shape[0]:
            parser.error("system has %d robots but Z is %dx%d"
                         % (len(system), Z.shape[0], Z.shape[1]))
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


def _sim_config(opts, n, k, r, seed):
    try:
        return SimConfig(
            n_robots=n,
            n_capabilities=k,
            n_regions=r,
            seed=seed,
            n_events=opts.get("events", default=100, cast=_integer),
            comm_radius=opts.get("comm_radius", cast=float),
            environment=_environment(opts),
            solver=_solver_config(opts),
        )
    except ValueError as exc:
        raise ValueError("invalid trial configuration: %s" % exc) from exc


def cmd_simulate(args, parser):
    opts = _Options(args, parser)
    n = opts.get("robots", cast=_integer, required=True)
    k = opts.get("capabilities", cast=_integer, required=True)
    regions_text = opts.get("regions", required=True)
    n_seeds = opts.get("seeds", cast=_integer, required=True)
    base_seed = opts.get("seed", default=0, cast=_integer)
    try:
        regions = _parse_regions(regions_text)
    except ValueError as exc:
        parser.error("invalid --regions: %s" % exc)
    if n_seeds < 1:
        parser.error("--seeds must be at least 1")
    # one fleet per seed serves every r; rows are kept per --regions entry so
    # the file stays r-major in the order given
    rows_at = [[] for _ in regions]
    failures = 0
    for seed in range(base_seed, base_seed + n_seeds):
        fleet = None
        for r_rows, r in zip(rows_at, regions):
            try:
                config = _sim_config(opts, n, k, r, seed)
                if fleet is None:
                    fleet = prepare_fleet(config)
                r_rows.extend(metrics_rows(config, run_trial(config, fleet)))
            except (ValueError, RuntimeError) as exc:
                failures += 1
                print("trial r=%d seed=%d failed: %s" % (r, seed, exc), file=sys.stderr)
    rows = [row for r_rows in rows_at for row in r_rows]
    if not rows:
        print("all %d trials failed" % failures, file=sys.stderr)
        return 4
    return _write_outputs(opts, [("metrics.csv", lambda path: append_metrics_csv(path, rows))])


def cmd_sweep(args, parser):
    opts = _Options(args, parser)
    n = opts.get("robots", cast=_integer, required=True)
    k = opts.get("capabilities", cast=_integer, required=True)
    r = opts.get("regions", cast=_integer, required=True)
    n_seeds = opts.get("seeds", cast=_integer, required=True)
    base_seed = opts.get("seed", default=0, cast=_integer)
    step = opts.get("alpha_step", default=0.1, cast=float)
    if not 0 < step <= 1 or abs(round(1.0 / step) - 1.0 / step) > 1e-9:
        parser.error("--alpha-step must divide 1 evenly")
    if n_seeds < 1:
        parser.error("--seeds must be at least 1")
    try:
        base = _sim_config(opts, n, k, r, base_seed)
    except ValueError as exc:
        parser.error(str(exc))
    spec = SweepSpec(base=base, seeds=tuple(base_seed + i for i in range(n_seeds)),
                     alpha_step=step)
    try:
        rows = run_sweep(spec)
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


def _add_env_flags(sub):
    sub.add_argument("--width", type=float, help="environment width (default 1)")
    sub.add_argument("--height", type=float, help="environment height (default 1)")
    sub.add_argument("--wall", type=float, nargs=4, action="append",
                     metavar=("X1", "Y1", "X2", "Y2"),
                     help="wall segment; repeatable")


def _add_solver_flags(sub):
    sub.add_argument("--alpha", type=float, nargs=3, metavar=("A1", "A2", "A3"),
                     help="graph weights, must sum to 1 (default equal)")
    sub.add_argument("--lambda1", type=float, help="Frobenius regularizer weight (default 0.1)")
    sub.add_argument("--lambda2", type=float, help="nuclear-norm regularizer weight (default 0.1)")
    sub.add_argument("--mu0", type=float, help="initial penalty (default 0.1)")
    sub.add_argument("--rho", type=float, help="penalty growth factor in (1,2) (default 1.1)")
    sub.add_argument("--tol", type=float, help="residual tolerance (default 1e-6)")
    sub.add_argument("--max-iters", type=int, help="iteration cap (default 1000)")


def _add_fleet_flags(sub):
    """The seeded-fleet, environment and solver flags of simulate and sweep."""
    sub.add_argument("--robots", type=int)
    sub.add_argument("--capabilities", type=int)
    sub.add_argument("--seeds", type=int, help="number of consecutive seeds")
    sub.add_argument("--seed", type=int, help="base seed (default 0)")
    sub.add_argument("--events", type=int, help="events per trial (default 100)")
    sub.add_argument("--comm-radius", type=float)
    _add_env_flags(sub)
    _add_solver_flags(sub)


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
    p.add_argument("--comm-radius", type=float,
                   help="communication radius (default 0.4 x diagonal)")
    p.add_argument("--epsilon", type=float,
                   help="spatial distance guard (default 1e-3 x diagonal)")
    _add_solver_flags(p)
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
    p.add_argument("--alpha-step", type=float, help="simplex grid step (default 0.1)")
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
