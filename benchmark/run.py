"""hetcover benchmark: times the batches users run through the CLI and checks their outputs.

Run from the repository root:

    python3 benchmark/run.py --workload coverage --seed 1 --seconds 36 --trace 0

Workloads (see README.md in this directory for why each was chosen):

  coverage  simulate --robots 20 --capabilities 3 --regions 2..10, 20 seeds
  sweep     sweep --robots 20 --capabilities 3 --regions 3 --alpha-step 0.1,
            3 seeds
  ladder    simulate --capabilities 3 --regions 4 with one wall across the
            square, 24 seeds at 50 robots and 3 seeds at 100 robots

Every call keeps the CLI's default of 100 events per trial.

Every batch calls ``hetcover.cli.main`` in this process, into a fresh output
directory.  After set-up the batch runs once, then again while the next run
would end within ``--seconds``, and the median batch time is reported.  Set-up
and batch times are scaled to a fixed machine speed by speed.py.  With ``--trace 1`` untraced and
traced batches alternate and the per-layer metrics of spans.py are reported
instead.

The batch inputs come from ``--seed`` alone.  Every output is validated, and
every repetition must give byte-identical files.  The second-to-last line of
standard output holds the machine block, the output digests and the batch
times; the last line is the result as one JSON object.
"""

import os

# One BLAS thread, fixed before numpy loads, so that timings do not depend on
# how many cores happen to be free; the machine block records the value.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import csv
import glob
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")

CAPABILITIES = 3
# Fleets per batch. The work a fleet takes and its detection rate vary from
# fleet to fleet, so a batch holds enough fleets that its time and its mean
# rates stay steady from one --seed to the next.
COVERAGE_FLEETS = 20
SWEEP_FLEETS = 3
LADDER_FLEETS = ((50, 24), (100, 3))  # (robots, fleets)
LADDER_SIZES = tuple(n for n, _ in LADDER_FLEETS)
WORKLOADS = ("coverage", "sweep", "ladder")
# per-layer metrics are reported over all spans and again per ladder fleet size
GROUP_SUFFIXES = [(None, "")] + [("n%d" % n, ".n%d" % n) for n in LADDER_SIZES]
# one wall across the whole square, so line-of-sight and wall clearance run
WALL = ("--wall", "0.5", "0.0", "0.5", "1.0")
ALPHA_STEPS = 10
SETUP_SAMPLES = 9
WARMUP_SEED = 0

# Layers whose work reaches the workload's output file. A traced batch in which
# one of them records no call has lost the layer's call site, so the batch is
# not correct; its layer metrics would read 0 and look like a gain. (Sweep
# writes no metrics.csv and discards the Greedy result.)
PIPELINE = ("simulation.run_trial", "simulation.generate_system", "simulation.simulate_events",
            "simulation.detection_rate", "simulation.duplication_rate",
            "graphs.build_relation_graphs", "solver.solve", "partition.partition")
REQUIRED_LAYERS = {
    "coverage": PIPELINE + ("simulation.greedy_assign", "simulation.append_metrics_csv"),
    "sweep": PIPELINE,
    "ladder": PIPELINE + ("simulation.greedy_assign", "simulation.append_metrics_csv",
                          "system.line_of_sight"),
}

METHODS = frozenset({"Full", "Baseline", "Greedy"})
METRICS_HEADER = ["method", "n", "k_capabilities", "r", "seed", "detection", "duplication"]
SWEEP_HEADER = ["alpha1", "alpha2", "alpha3", "detection", "duplication"]

# (name, unit) of the end-to-end metrics, in report order
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("detection_full", "ratio"),
    ("duplication_full", "ratio"),
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a batch, and the rows its output must hold."""

    label: str
    command: str  # "simulate" or "sweep"
    robots: int
    regions: tuple
    seeds: tuple
    extra: tuple = ()

    @property
    def output(self):
        return "sweep.csv" if self.command == "sweep" else "metrics.csv"

    @property
    def trials(self):
        per_seed = len(sweep_grid()) if self.command == "sweep" else len(self.regions)
        return per_seed * len(self.seeds)

    def argv(self, out):
        lo, hi = self.regions[0], self.regions[-1]
        regions = str(lo) if lo == hi else "%d..%d" % (lo, hi)
        argv = [self.command, "--robots", str(self.robots), "--capabilities", str(CAPABILITIES),
                "--regions", regions, "--seeds", str(len(self.seeds)), "--seed", str(self.seeds[0])]
        if self.command == "sweep":
            argv += ["--alpha-step", repr(1.0 / ALPHA_STEPS)]
        return argv + list(self.extra) + ["--out", out]


def workload_calls(workload, seed):
    """The batch of one workload; distinct --seed values give disjoint CLI seeds."""

    def seeds(count):
        return tuple(range(seed * 100, seed * 100 + count))

    if workload == "coverage":
        return [Call("n20", "simulate", 20, tuple(range(2, 11)), seeds(COVERAGE_FLEETS))]
    if workload == "sweep":
        return [Call("n20", "sweep", 20, (3,), seeds(SWEEP_FLEETS))]
    return [Call("n%d" % n, "simulate", n, (4,), seeds(count), WALL) for n, count in LADDER_FLEETS]


def warmup_call(workload):
    """One trial shaped like the workload's first: same fleet size, walls and events.

    Its CLI seed is fixed, so every run of a workload warms up on the same
    fleet and the set-up time does not vary with --seed.
    """
    first = workload_calls(workload, 0)[0]
    return Call(first.label, "simulate", first.robots, first.regions[:1], (WARMUP_SEED,),
                first.extra)


def sweep_grid():
    steps = ALPHA_STEPS
    return [(i, j, steps - i - j) for i in range(steps + 1) for j in range(steps + 1 - i)]


# ---------------------------------------------------------------------------
# output validation


def _rate(text):
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError("rate %r outside [0, 1]" % text)
    return value


def check_metrics_csv(call, rows):
    """Failed trial count and the Full rows' (detection, duplication) pairs."""
    expected = {(r, s) for r in call.regions for s in call.seeds}
    methods, full = {}, []
    for row in rows:
        try:
            if len(row) != len(METRICS_HEADER):
                raise ValueError("row has %d fields" % len(row))
            method, n, k, r, s = row[0], int(row[1]), int(row[2]), int(row[3]), int(row[4])
            det, dup = _rate(row[5]), _rate(row[6])
            if method not in METHODS or (n, k) != (call.robots, CAPABILITIES):
                raise ValueError("unexpected method or shape")
            if (r, s) not in expected or method in methods.get((r, s), ()):
                raise ValueError("unexpected or repeated (method, r, seed)")
        except ValueError:
            return call.trials, []  # a file with a stray row cannot be trusted at all
        methods.setdefault((r, s), set()).add(method)
        if method == "Full":
            full.append((det, dup))
    failed = sum(1 for key in expected if methods.get(key) != METHODS)
    return failed, full


def check_sweep_csv(call, rows):
    """Failed trial count and every row's (detection, duplication) pair."""
    grid = {point: None for point in sweep_grid()}
    for row in rows:
        try:
            if len(row) != len(SWEEP_HEADER):
                raise ValueError("row has %d fields" % len(row))
            alphas = [float(a) for a in row[:3]]
            point = tuple(round(a * ALPHA_STEPS) for a in alphas)
            if (point not in grid or grid[point] is not None or abs(sum(alphas) - 1.0) > 1e-9
                    or any(abs(a * ALPHA_STEPS - p) > 1e-9 for a, p in zip(alphas, point))):
                raise ValueError("alphas off the grid or repeated")
            grid[point] = (_rate(row[3]), _rate(row[4]))
        except ValueError:
            return call.trials, []
    missing = sum(1 for value in grid.values() if value is None)
    return missing * len(call.seeds), [v for v in grid.values() if v is not None]


def check_output(call, out_dir):
    """(failed trials, quality pairs, sha256) of one call's output file."""
    path = os.path.join(out_dir, call.output)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return call.trials, [], None
    rows = list(csv.reader(io.StringIO(data.decode("utf-8", errors="replace"))))
    header = METRICS_HEADER if call.command == "simulate" else SWEEP_HEADER
    if not rows or rows[0] != header:
        return call.trials, [], hashlib.sha256(data).hexdigest()
    check = check_sweep_csv if call.command == "sweep" else check_metrics_csv
    failed, quality = check(call, rows[1:])
    return failed, quality, hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# running batches


def invoke(main, argv):
    """Exit code of main(argv) with its printing captured; None when it raised."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a trial that raises is a failed trial, not a failed benchmark
        traceback.print_exc()
        code = None
    if code != 0:
        sys.stderr.write("hetcover %s exited with %r\n%s" % (" ".join(argv), code, sink.getvalue()))
    return code


def run_batch(main, calls, tracer=None):
    """Run every call once into fresh directories.

    Returns (seconds, seconds at the reference speed, graded outcome). A traced
    batch is not metered, because the meter's samples would land in its spans;
    its second value is None.
    """
    os.makedirs(RUNS, exist_ok=True)
    rep_dir = tempfile.mkdtemp(prefix="rep-", dir=RUNS)

    def calls_in_turn():
        codes = []
        for call in calls:
            if tracer is not None:
                tracer.group = call.label
            codes.append(invoke(main, call.argv(os.path.join(rep_dir, call.label))))
        return codes

    try:
        if tracer is None:
            codes, seconds, scaled = speed.metered(calls_in_turn)
        else:
            start = time.perf_counter()
            codes, scaled = calls_in_turn(), None
            seconds = time.perf_counter() - start
        return seconds, scaled, grade(calls, codes, rep_dir)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def grade(calls, codes, rep_dir):
    attempted = failed = 0
    quality, digests = [], {}
    for call, code in zip(calls, codes):
        attempted += call.trials
        if code != 0:
            failed += call.trials
            digests[call.label] = None
            continue
        bad, pairs, sha = check_output(call, os.path.join(rep_dir, call.label))
        failed += bad
        quality += pairs
        digests[call.label] = sha
    return {"attempted": attempted, "failed": failed, "digests": digests, "quality": quality}


def setup_once(workload):
    """Import the package, build the parser, run one warm-up trial.

    Returns (seconds, seconds at the reference speed, the cli module).
    """

    def set_up():
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        from hetcover import cli

        cli.build_parser()
        os.makedirs(RUNS, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="warmup-", dir=RUNS) as out:
            return cli, invoke(cli.main, warmup_call(workload).argv(out))

    (cli, code), seconds, scaled = speed.metered(set_up)
    if code != 0:
        raise BenchmarkError("the warm-up trial failed with exit code %r" % code)
    return seconds, scaled, cli


def setup_probe(workload):
    """(seconds, seconds at the reference speed) of a set-up in a fresh interpreter.

    There the imports are not cached, as for a user who starts the CLI.
    """
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup",
         "--workload", workload, "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise BenchmarkError("set-up probe failed:\n%s" % proc.stderr)
    seconds, scaled = proc.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(scaled)


def repeat_for(seconds, batch):
    """Call batch() once, then again while the next call would end within `seconds`."""
    times = []
    start = time.perf_counter()
    while True:
        times.append(batch())
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return


# ---------------------------------------------------------------------------
# machine block


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD of the checkout the benchmark runs in, or None outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # do not report the commit of an enclosing repository
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def machine():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# one benchmark run


def run(workload, seed, seconds, trace):
    if seed < 0:
        raise BenchmarkError("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "hetcover", "cli.py")):
        raise BenchmarkError("no hetcover sources under %s" % SRC)
    *first_setup, cli = setup_once(workload)
    setups = [tuple(first_setup)] + [setup_probe(workload) for _ in range(SETUP_SAMPLES - 1)]

    import spans

    calls = workload_calls(workload, seed)
    plain, traced, layers, uncovered = [], [], [], []
    tracer = None

    def untraced_batch():
        plain.append(run_batch(cli.main, calls))
        return plain[-1][0]

    def traced_pair():
        nonlocal tracer
        pair = untraced_batch()
        tracer = spans.Tracer()
        try:
            with tracer.installed():
                traced.append(run_batch(tracer.wrap("cli.main", cli.main), calls, tracer))
        except spans.MissingSite as exc:
            raise BenchmarkError("cannot trace: %s" % exc) from exc
        wall = traced[-1][0]
        problems = tracer.problems() + tracer.idle(REQUIRED_LAYERS[workload])
        for problem in problems[:5]:
            sys.stderr.write("trace: %s\n" % problem)
        traced[-1][2]["span_problems"] = len(problems)
        uncovered.append((wall - tracer.covered_seconds()) / wall)
        layers.append({name + suffix: value
                       for group, suffix in GROUP_SUFFIXES
                       for name, value in tracer.layer_metrics(group).items()})
        return pair + wall

    repeat_for(seconds, traced_pair if trace else untraced_batch)

    outcomes = [g for _, _, g in plain + traced]
    attempted = sum(g["attempted"] for g in outcomes)
    failed = sum(g["failed"] for g in outcomes)
    digest_sets = {json.dumps(g["digests"], sort_keys=True) for g in outcomes}
    correct = (failed == 0 and len(digest_sets) == 1
               and all(g.get("span_problems", 0) == 0 for g in outcomes))
    quality = outcomes[0]["quality"] or [(0.0, 0.0)]
    if trace:
        metrics = spans.median_metrics(layers)
        metrics["trace_overhead"] = (statistics.median(t for t, _, _ in traced)
                                     / statistics.median(t for t, _, _ in plain))
        metrics["untraced_share"] = statistics.median(uncovered)
        units = layer_units()
        os.makedirs(RUNS, exist_ok=True)
        with open(os.path.join(RUNS, "spans-%s-%d.json" % (workload, seed)), "w") as fh:
            json.dump(tracer.dump(), fh)
    else:
        metrics = {
            "wall_s": statistics.median(scaled for _, scaled, _ in plain),
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - failed / attempted,
            "detection_full": statistics.fmean(d for d, _ in quality),
            "duplication_full": statistics.fmean(d for _, d in quality),
        }
        units = dict(END_TO_END)

    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(),
        "argv": [call.argv("OUT") for call in calls],
        "digests": outcomes[0]["digests"],
        "failed_ratio": failed / attempted,
        "setup_samples_s": [t for t, _ in setups],
        "setup_scaled_s": [scaled for _, scaled in setups],
        "batch_s": [t for t, _, _ in plain],
        "batch_scaled_s": [scaled for _, scaled, _ in plain],
        "traced_batch_s": [t for t, _, _ in traced],
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    os.makedirs(RUNS, exist_ok=True)
    with open(os.path.join(RUNS, "result-%s-%d-trace%d.json" % (workload, seed, trace)), "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    return info, result


def layer_units():
    import spans

    units = {}
    for _, suffix in GROUP_SUFFIXES:
        for layer, stat, unit, _ in spans.LAYER_STATS:
            units["%s.%s%s" % (layer, stat, suffix)] = unit
    units["trace_overhead"] = "ratio"
    units["untraced_share"] = "ratio"
    return units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.probe_setup:
            print("%r %r" % setup_once(args.workload)[:2])
            return 0
        info, result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchmarkError, OSError, subprocess.SubprocessError, ImportError) as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
