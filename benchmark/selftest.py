"""Tiny-size checks of the benchmark harness itself.

    python3 benchmark/selftest.py
    python3 -m pytest benchmark/selftest.py

The workloads are shrunk to a few small fleets, so the checks take seconds.
The structural counts they expect (2 solves per trial, 1 distinct solve in 9
on coverage, 1 report in 3 used on sweep) describe the pipeline as it stood
when the benchmark was defined; a change that removes that redundant work
changes them on purpose.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def tiny_calls(workload, seed):
    seeds = (seed * 100,)
    if workload == "coverage":
        return [run.Call("n20", "simulate", 10, tuple(range(2, 11)), seeds)]
    if workload == "sweep":
        return [run.Call("n20", "sweep", 6, (3,), seeds)]
    return [run.Call("n%d" % n, "simulate", size, (4,), seeds, run.WALL)
            for n, size in zip(run.LADDER_SIZES, (12, 16))]


@contextlib.contextmanager
def tiny():
    saved = run.workload_calls, run.ALPHA_STEPS, run.SETUP_SAMPLES
    run.workload_calls, run.ALPHA_STEPS, run.SETUP_SAMPLES = tiny_calls, 2, 1
    try:
        yield
    finally:
        run.workload_calls, run.ALPHA_STEPS, run.SETUP_SAMPLES = saved


def tiny_run(workload, trace, seed=3):
    with tiny():
        return run.run(workload, seed, 0.0, trace)


def declared(section):
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_every_declared_metric_prints_with_its_unit():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        _, result = tiny_run("ladder", trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared(section), section
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_layer_table_matches_declared_directions():
    import spans

    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["per_layer"]}
    for _, suffix in run.GROUP_SUFFIXES:
        for layer, stat, _, direction in spans.LAYER_STATS:
            assert better["%s.%s%s" % (layer, stat, suffix)] == direction


def test_two_runs_give_identical_counts_and_digests():
    runs = [tiny_run("coverage", 1) for _ in range(2)]
    (info_a, a), (info_b, b) = runs
    assert info_a["digests"] == info_b["digests"] and None not in info_a["digests"].values()
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    counts = [name for name in a["metrics"]
              if name.split(".")[-1] in ("calls", "iterations", "unconverged", "distinct_ratio",
                                         "used_ratio")]
    assert counts and all(values(a)[name] == values(b)[name] for name in counts)


def test_tracer_reproduces_known_structure():
    _, coverage = tiny_run("coverage", 1)
    m = values(coverage)
    assert m["solver.solve.calls"] == 2 * m["simulation.run_trial.calls"] == 18
    assert abs(m["solver.solve.distinct_ratio"] - 1 / 9) < 1e-12
    assert abs(m["partition.fiedler_cut.distinct_ratio"] - 1 / 5) < 1e-12
    assert m["simulation.reports.used_ratio"] == 1.0
    assert m["solver.solve.calls.n50"] == 0  # no fleet of that size in this workload

    _, sweep = tiny_run("sweep", 1)
    assert abs(values(sweep)["simulation.reports.used_ratio"] - 1 / 3) < 1e-12

    _, ladder = tiny_run("ladder", 1)
    m = values(ladder)
    assert m["solver.solve.distinct_ratio"] == 1.0
    assert m["solver.solve.calls.n50"] + m["solver.solve.calls.n100"] == m["solver.solve.calls"]
    assert m["system.line_of_sight.calls.n50"] > 0
    assert m["untraced_share"] >= 0 and m["trace_overhead"] > 0


def test_tracer_nests_spans_and_keeps_self_times_non_negative():
    import spans

    tracer = spans.Tracer()
    outer = tracer.wrap("outer", lambda: inner())
    inner = tracer.wrap("inner", lambda: None)
    outer()
    assert tracer.problems() == []
    assert [s.parent for s in tracer.spans] == [None, 0]
    tracer.spans[1].end = tracer.spans[0].end + 1.0  # a child that outlives its parent
    assert tracer.problems()


def test_tracer_refuses_a_missing_site_and_flags_idle_layers():
    import spans

    sys.path.insert(0, run.SRC)
    from hetcover import simulation

    solve = simulation.solve
    saved = spans.SITES
    spans.SITES = saved + (("hetcover.simulation", "no_such_function", "simulation.gone"),)
    try:
        with spans.Tracer().installed():
            raise AssertionError("a missing site was traced")
    except spans.MissingSite:
        pass
    finally:
        spans.SITES = saved
    assert simulation.solve is solve  # the sites wrapped before the failure are restored

    tracer = spans.Tracer()
    tracer.wrap("called", lambda: None)()
    assert tracer.idle(["called"]) == [] and len(tracer.idle(["called", "never"])) == 1

    saved = dict(run.REQUIRED_LAYERS)
    run.REQUIRED_LAYERS["sweep"] += ("simulation.append_metrics_csv",)  # sweep never calls it
    try:
        _, sweep = tiny_run("sweep", 1)
    finally:
        run.REQUIRED_LAYERS.update(saved)
    assert not sweep["correct"]


def test_checks_count_missing_and_invalid_rows_as_failed_trials():
    call = run.Call("n20", "simulate", 4, (2, 3), (0,))
    rows = [[m, "4", "3", str(r), "0", "0.5", "0.25"]
            for r in (2, 3) for m in sorted(run.METHODS)]
    assert run.check_metrics_csv(call, rows)[0] == 0
    assert run.check_metrics_csv(call, rows[1:])[0] == 1
    assert run.check_metrics_csv(call, rows + rows[:1])[0] == call.trials
    bad_rate = [rows[0][:5] + ["1.5", "0.25"]] + rows[1:]
    assert run.check_metrics_csv(call, bad_rate)[0] == call.trials

    sweep = run.Call("n20", "sweep", 4, (3,), (0, 1))
    grid = [["%r" % (i / 10), "%r" % (j / 10), "%r" % (k / 10), "0.5", "0.5"]
            for i, j, k in run.sweep_grid()]
    assert len(grid) == 66 and run.check_sweep_csv(sweep, grid)[0] == 0
    assert run.check_sweep_csv(sweep, grid[:-1])[0] == 2
    assert run.check_sweep_csv(sweep, grid + grid[:1])[0] == sweep.trials


def test_setup_probe_reports_seconds():
    seconds, scaled = run.setup_probe("coverage")
    assert 0 < seconds < 60 and scaled > 0


def test_meter_scales_wall_time_by_the_reference_speed():
    import time

    import speed

    _, seconds, scaled = speed.metered(lambda: [speed.reference() for _ in range(200)])
    assert seconds > 0 and scaled > 0
    saved = speed.time_reference
    speed.time_reference = lambda: 2 * speed.REFERENCE_S  # a machine at half speed
    try:
        _, seconds, scaled = speed.metered(lambda: time.sleep(0.3))
    finally:
        speed.time_reference = saved
    assert 0.25 < seconds < 1.0 and abs(scaled - seconds / 2) < 1e-9


def test_fails_without_printing_where_there_are_no_sources():
    os.makedirs(run.RUNS, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.RUNS)
    try:
        shutil.copy(BENCHMARK_JSON, bare)
        here = os.path.dirname(os.path.abspath(__file__))
        shutil.copytree(here, os.path.join(bare, os.path.basename(here)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(here), "run.py"),
             "--workload", "coverage", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0 and proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print("ok", name)
    print("%d checks passed" % len(tests))
