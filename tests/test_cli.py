import json
import math
import os

import numpy as np
import pytest

from hetcover.cli import ALPHA_STEP, COMMANDS, _real, main
from hetcover.graphs import build_relation_graphs, load_matrix_csv, save_matrix_csv
from hetcover.simulation import (
    METRICS_HEADER,
    Method,
    SimConfig,
    metrics_rows,
    prepare_fleet,
    place_fleet,
    run_trial,
    stack_size,
    sweep_grid,
)
from hetcover.solver import FINISH_STEPS, SolverConfig, objective
from hetcover.system import load_system, save_system

from _oracles import reference_solve
from _planted import planted_system


def run_cli(*argv):
    """Invoke the CLI and normalize argparse SystemExit into a return code."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def write_planted_system(path, sizes=(3, 3), seed=0):
    system, blocks = planted_system(sizes, seed=seed)
    save_system(system, path)
    return system, blocks


def write_block_z(path, sizes=(3, 3)):
    n = sum(sizes)
    Z = np.zeros((n, n))
    start = 0
    blocks = []
    for s in sizes:
        Z[start:start + s, start:start + s] = 1.0 / s
        blocks.append(frozenset(range(start, start + s)))
        start += s
    save_matrix_csv(Z, path)
    return blocks


# a small run of each subcommand that succeeds; {inputs} holds system.json and Z.csv
SMALL_RUNS = {
    "generate": ("--robots", "4", "--capabilities", "2", "--seed", "0"),
    "solve": ("--system", "{inputs}/system.json"),
    "partition": ("--z", "{inputs}/Z.csv", "--regions", "2", "--raster", "4",
                  "--system", "{inputs}/system.json"),
    "simulate": ("--robots", "6", "--capabilities", "2", "--regions", "2",
                 "--seeds", "1", "--events", "10"),
    "sweep": ("--robots", "5", "--capabilities", "2", "--regions", "2", "--seeds", "1",
              "--alpha-step", "0.5", "--events", "10"),
}


@pytest.fixture
def small_run(tmp_path):
    """run(command, out, *extra): the command's small run, writing under out."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    write_planted_system(inputs / "system.json")
    write_block_z(inputs / "Z.csv")

    def run(command, out, *extra):
        argv = [arg.format(inputs=inputs) for arg in SMALL_RUNS[command]]
        return run_cli(command, *argv, *extra, "--out", str(out))

    return run


class TestGenerate:
    def test_writes_system_json(self, tmp_path):
        code = run_cli("generate", "--robots", "20", "--capabilities", "3",
                       "--seed", "7", "--out", str(tmp_path))
        assert code == 0
        system = load_system(tmp_path / "system.json")
        assert len(system) == 20
        assert all(len(r.capabilities) == 1 for r in system.robots)
        assert set(system.capabilities) == {"rgb", "depth", "audio"}

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("generate", "--robots", "8", "--capabilities", "2",
                           "--seed", "3", "--out", str(out)) == 0
        assert (a / "system.json").read_bytes() == (b / "system.json").read_bytes()

    def test_single_robot_rejected(self, tmp_path, capsys):
        code = run_cli("generate", "--robots", "1", "--capabilities", "2",
                       "--seed", "0", "--out", str(tmp_path))
        assert code == 2
        assert ("invalid trial configuration: n_robots must be an integer >= 2"
                in capsys.readouterr().err)

    def test_missing_required_flag_rejected(self, tmp_path):
        code = run_cli("generate", "--capabilities", "2", "--seed", "0",
                       "--out", str(tmp_path))
        assert code == 2

    def test_wall_outside_environment_rejected(self, tmp_path):
        code = run_cli("generate", "--robots", "4", "--capabilities", "2",
                       "--seed", "0", "--wall", "0", "0", "5", "5",
                       "--out", str(tmp_path))
        assert code == 2

    def test_walls_accepted_and_recorded(self, tmp_path):
        code = run_cli("generate", "--robots", "6", "--capabilities", "2",
                       "--seed", "1", "--wall", "0.5", "0.1", "0.5", "0.9",
                       "--out", str(tmp_path))
        assert code == 0
        system = load_system(tmp_path / "system.json")
        assert len(system.environment.obstacles) == 1


class TestSolve:
    def test_planted_system_converges(self, tmp_path):
        system_path = tmp_path / "system.json"
        write_planted_system(system_path)
        code = run_cli("solve", "--system", str(system_path), "--out", str(tmp_path))
        assert code == 0
        Z = load_matrix_csv(tmp_path / "Z.csv")
        assert Z.shape == (6, 6)
        assert np.abs(Z.sum(axis=1) - 1.0).max() < 1e-9
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert trace["converged"] is True
        assert trace["iterations"] <= 1000
        assert len(trace["residuals"]) == trace["iterations"]
        assert set(trace) == {"converged", "iterations", "objective", "residuals"}
        assert set(trace["residuals"][0]) == {"r1", "r2", "r3", "r4", "objective"}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_objective_is_that_of_the_written_z(self, tmp_path, seed):
        # each record's objective is that of the loop's unfinished iterate
        # (Z, L); the top-level one is the finished Z's, with L = I - Z, and
        # Z.csv holds Z at full precision, so a fresh call reproduces it exactly
        assert run_cli("generate", "--robots", "20", "--capabilities", "3",
                       "--seed", str(seed), "--out", str(tmp_path)) == 0
        system_path = tmp_path / "system.json"
        assert run_cli("solve", "--system", str(system_path), "--out", str(tmp_path)) == 0
        Z = load_matrix_csv(tmp_path / "Z.csv")
        graphs = build_relation_graphs(load_system(system_path))
        want = objective(Z, np.eye(len(Z)) - Z, graphs, SolverConfig())
        assert json.loads((tmp_path / "trace.json").read_text())["objective"] == want

    def test_paper_weight_combination_accepted(self, tmp_path):
        system_path = tmp_path / "system.json"
        write_planted_system(system_path)
        code = run_cli("solve", "--system", str(system_path),
                       "--alpha", "0.2", "0.1", "0.7", "--out", str(tmp_path))
        assert code == 0

    def test_weights_must_sum_to_one(self, tmp_path):
        system_path = tmp_path / "system.json"
        write_planted_system(system_path)
        code = run_cli("solve", "--system", str(system_path),
                       "--alpha", "0.5", "0.5", "0.5", "--out", str(tmp_path))
        assert code == 2

    def test_missing_system_file(self, tmp_path):
        code = run_cli("solve", "--system", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path))
        assert code == 2

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        system_path = tmp_path / "system.json"
        write_planted_system(system_path)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("solve", "--system", str(system_path),
                           "--out", str(out)) == 0
        assert (a / "Z.csv").read_bytes() == (b / "Z.csv").read_bytes()
        assert (a / "trace.json").read_bytes() == (b / "trace.json").read_bytes()

    def test_outputs_match_the_reference_loop(self, tmp_path):
        # the CLI asks for the trace that fleets skip; it keeps every record. The
        # reference loop's Z step and finish are its own, so Z and the residuals
        # agree to 1e-12 and the counts exactly
        system_path = tmp_path / "system.json"
        system, _ = write_planted_system(system_path)
        assert run_cli("solve", "--system", str(system_path), "--out", str(tmp_path)) == 0
        want = reference_solve(build_relation_graphs(system))
        assert np.abs(load_matrix_csv(tmp_path / "Z.csv") - want.Z).max() <= 1e-12
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert (trace["converged"], trace["iterations"]) == (want.converged, want.iterations)
        assert len(trace["residuals"]) == len(want.residual_trace) == want.iterations
        for mine, ref in zip(trace["residuals"], want.residual_trace):
            for name in ("r1", "r2", "r3", "r4"):
                assert abs(mine[name] - getattr(ref.residuals, name)) <= 1e-12
            assert abs(mine["objective"] - ref.objective) <= 1e-12 * abs(ref.objective)

    @pytest.mark.parametrize("environment, capabilities, defect", [
        ([], ["rgb"], "environment must be an object"),
        ("unit square", ["rgb"], "environment must be an object"),
        ({"width": 1, "height": 1}, [["rgb"]], "capabilities must be a list of strings"),
        ({"width": 10**400, "height": 1}, ["rgb"], "int too large to convert to float"),
    ], ids=["environment-list", "environment-string", "capability-list", "huge-width"])
    def test_malformed_system_rejected_with_its_defect(self, tmp_path, capsys,
                                                       environment, capabilities, defect):
        system_path = tmp_path / "system.json"
        system_path.write_text(json.dumps({
            "environment": environment, "capabilities": capabilities,
            "robots": [{"id": i, "position": [0.1 * (i + 1), 0.5], "capabilities": ["rgb"]}
                       for i in range(2)],
        }))
        code = run_cli("solve", "--system", str(system_path), "--out", str(tmp_path))
        assert code == 2
        assert "malformed system document: %s" % defect in capsys.readouterr().err

    @pytest.mark.parametrize("edit, defect", [
        (lambda doc: doc["robots"][0].update(id=0.5),
         "robot id must be a non-negative integer, got 0.5"),
        (lambda doc: doc["environment"].update(obstacles=[[0.5, 0, 0.5, 1]]),
         "malformed system document: obstacle 0 must be [[x1, y1], [x2, y2]], "
         "got [0.5, 0, 0.5, 1]"),
        (lambda doc: doc["environment"].update(width=True),
         "malformed system document: width must be a number, got True"),
        (lambda doc: doc["environment"].update(width="2"),
         "malformed system document: width must be a number, got '2'"),
        (lambda doc: doc["robots"][0].update(position=["0.5", "0.5"]),
         "malformed system document: robot 0 position must be [x, y] of two numbers, "
         "got ['0.5', '0.5']"),
        (lambda doc: doc["robots"][0].update(position=[True, 0.5]),
         "malformed system document: robot 0 position must be [x, y] of two numbers, "
         "got [True, 0.5]"),
        (lambda doc: doc["robots"][0].update(position=[0.5, 0.5, 0.5]),
         "malformed system document: robot 0 position must be [x, y] of two numbers, "
         "got [0.5, 0.5, 0.5]"),
        (lambda doc: doc["environment"].update(obstacles=[[["0.5", 0], [0.5, 1]]]),
         "malformed system document: obstacle 0 endpoint must be [x, y] of two numbers, "
         "got ['0.5', 0]"),
        (lambda doc: doc["robots"][0].update(capabilities="rgb"),
         "malformed system document: robot 0 capabilities must be a list of strings, "
         "got 'rgb'"),
        (lambda doc: doc.update(capabilities="rgbdepth"),
         "malformed system document: capabilities must be a list of strings, "
         "got 'rgbdepth'"),
    ], ids=["fractional-id", "flat-wall", "bool-width", "string-width", "string-position",
            "bool-position", "three-coordinate-position", "string-wall-endpoint",
            "string-robot-capabilities", "string-universe"])
    def test_malformed_field_is_named(self, tmp_path, capsys, edit, defect):
        system_path = tmp_path / "system.json"
        write_planted_system(system_path)
        doc = json.loads(system_path.read_text())
        edit(doc)
        system_path.write_text(json.dumps(doc))
        code = run_cli("solve", "--system", str(system_path), "--out", str(tmp_path))
        assert code == 2
        assert defect in capsys.readouterr().err
        assert not (tmp_path / "Z.csv").exists()

    @pytest.mark.parametrize("document, defect", [
        (lambda doc: dict(doc, environment=dict(doc["environment"], obstacles="ab")),
         "obstacles must be a list, got str"),
        (lambda doc: dict(doc, robots={"a": 1}), "robots must be a list, got dict"),
        (lambda doc: dict(doc, robots=["ab", "cd"]), "robot 0 must be an object, got str"),
        (lambda doc: [doc], "the top level must be an object, got list"),
        (lambda doc: dict(doc, environment={"width": 1.0}), "height is missing"),
        (lambda doc: dict(doc, robots=[{"id": 0, "capabilities": ["rgb"]}]),
         "robot 0 position is missing"),
    ], ids=["string-obstacles", "object-robots", "string-robots", "list-document",
            "missing-height", "missing-position"])
    def test_malformed_container_is_named(self, tmp_path, capsys, document, defect):
        system_path = tmp_path / "system.json"
        write_planted_system(system_path)
        system_path.write_text(json.dumps(document(json.loads(system_path.read_text()))))
        code = run_cli("solve", "--system", str(system_path), "--out", str(tmp_path))
        assert code == 2
        assert "malformed system document: %s\n" % defect in capsys.readouterr().err
        assert not (tmp_path / "Z.csv").exists()

    def test_non_convergence_exits_3_with_outputs(self, tmp_path):
        system_path = tmp_path / "system.json"
        write_planted_system(system_path)
        code = run_cli("solve", "--system", str(system_path),
                       "--max-iters", "2", "--out", str(tmp_path))
        assert code == 3
        assert (tmp_path / "Z.csv").exists()
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert trace["converged"] is False
        assert trace["iterations"] == 2

    def solve_unconverged(self, tmp_path, capsys, *settings):
        """Solve seed 0's 20-robot fleet under settings, expecting exit 3; the
        trace and the stderr message."""
        assert run_cli("generate", "--robots", "20", "--capabilities", "3", "--seed", "0",
                       "--out", str(tmp_path)) == 0
        code = run_cli("solve", "--system", str(tmp_path / "system.json"), *settings,
                       "--out", str(tmp_path))
        assert code == 3
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert trace["converged"] is False
        return trace, capsys.readouterr().err

    def test_non_convergence_at_the_loop_cap_is_named(self, tmp_path, capsys):
        trace, err = self.solve_unconverged(tmp_path, capsys, "--max-iters", "1")
        assert trace["iterations"] == 1
        assert err.endswith("solver did not converge: the loop reached its cap of "
                            "1 iteration before the tolerance 0.01\n")

    def test_non_convergence_in_the_finish_is_named(self, tmp_path, capsys):
        # the optimum is I, but Z's diagonal M_ii - 2 y_i cancels at duals of
        # order lambda2; the loop reaches the tolerance well before its cap
        trace, err = self.solve_unconverged(tmp_path, capsys, "--lambda2", "1e18")
        assert trace["iterations"] < 1000
        assert err.endswith("solver did not converge: the loop reached the tolerance 0.01 "
                            "in %d iterations, but the finish did not certify the optimum "
                            "within %d Newton steps\n" % (trace["iterations"], FINISH_STEPS))

    def test_non_converged_z_is_symmetric_and_row_stochastic(self, tmp_path):
        system_path = tmp_path / "system.json"
        write_planted_system(system_path)
        code = run_cli("solve", "--system", str(system_path),
                       "--max-iters", "3", "--out", str(tmp_path))
        assert code == 3
        Z = load_matrix_csv(tmp_path / "Z.csv")
        assert np.array_equal(Z, Z.T)
        assert np.abs(Z.sum(axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
    def test_bad_epsilon_named_with_its_value(self, small_run, tmp_path, capsys, epsilon):
        code = small_run("solve", tmp_path / "out", "--epsilon", epsilon)
        assert code == 2
        assert ("cannot build graphs: epsilon must be finite and non-negative, got %r"
                % float(epsilon)) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestPartition:
    def test_single_region(self, tmp_path):
        z_path = tmp_path / "Z.csv"
        write_block_z(z_path)
        code = run_cli("partition", "--z", str(z_path), "--regions", "1",
                       "--out", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "assignment.json").read_text())
        assert doc == {"r": 1, "team_of": [0] * 6}

    def test_block_fixture_recovered(self, tmp_path):
        z_path = tmp_path / "Z.csv"
        write_block_z(z_path)  # blocks {0, 1, 2} and {3, 4, 5}
        code = run_cli("partition", "--z", str(z_path), "--regions", "2",
                       "--out", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "assignment.json").read_text())
        assert doc == {"r": 2, "team_of": [0, 0, 0, 1, 1, 1]}

    def test_all_singletons(self, tmp_path):
        z_path = tmp_path / "Z.csv"
        write_block_z(z_path)
        code = run_cli("partition", "--z", str(z_path), "--regions", "6",
                       "--out", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "assignment.json").read_text())
        assert doc == {"r": 6, "team_of": list(range(6))}

    def test_too_many_regions_rejected(self, tmp_path):
        z_path = tmp_path / "Z.csv"
        write_block_z(z_path)
        code = run_cli("partition", "--z", str(z_path), "--regions", "7",
                       "--out", str(tmp_path))
        assert code == 2

    def test_raster_with_system(self, tmp_path):
        z_path = tmp_path / "Z.csv"
        system_path = tmp_path / "system.json"
        write_block_z(z_path)
        write_planted_system(system_path)
        code = run_cli("partition", "--z", str(z_path), "--regions", "2",
                       "--raster", "8", "--system", str(system_path),
                       "--out", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "regions.json").read_text())
        assert doc["resolution"] == 8
        grid = np.asarray(doc["teams"])
        assert grid.shape == (8, 8)
        assert set(grid.flat) <= {0, 1}

    def test_raster_without_system_rejected(self, tmp_path):
        z_path = tmp_path / "Z.csv"
        write_block_z(z_path)
        code = run_cli("partition", "--z", str(z_path), "--regions", "2",
                       "--raster", "8", "--out", str(tmp_path))
        assert code == 2

    def test_raster_system_size_mismatch_rejected(self, tmp_path):
        z_path = tmp_path / "Z.csv"
        system_path = tmp_path / "system.json"
        write_block_z(z_path, sizes=(2, 2))
        write_planted_system(system_path, sizes=(3, 3))
        code = run_cli("partition", "--z", str(z_path), "--regions", "2",
                       "--raster", "8", "--system", str(system_path),
                       "--out", str(tmp_path))
        assert code == 2

    def test_raster_grid_that_cannot_be_allocated_rejected(self, tmp_path, capsys):
        # 10**14 cells of 8 bytes exceed any 64-bit address space, so the
        # allocation fails at once, whatever the memory overcommit policy
        z_path = tmp_path / "Z.csv"
        system_path = tmp_path / "system.json"
        write_block_z(z_path)
        write_planted_system(system_path)
        code = run_cli("partition", "--z", str(z_path), "--regions", "2",
                       "--raster", "10000000", "--system", str(system_path),
                       "--out", str(tmp_path))
        assert code == 2
        assert ("invalid value for --raster: a 10000000 x 10000000 grid does not fit in memory"
                in capsys.readouterr().err)
        assert not (tmp_path / "regions.json").exists()

    def test_empty_matrix_rejected_without_a_warning(self, tmp_path, capsys):
        z_path = tmp_path / "Z.csv"
        z_path.write_text("")
        code = run_cli("partition", "--z", str(z_path), "--regions", "1",
                       "--out", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot read matrix %s: the file holds no rows" % z_path in err
        assert "Warning" not in err

    def test_missing_matrix_rejected(self, tmp_path):
        code = run_cli("partition", "--z", str(tmp_path / "none.csv"),
                       "--regions", "2", "--out", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("rows, defect", [
        (["0.5,0.5,0.0", "0.5,0.5,0.0"], "square"),
        (["nan,0.5", "0.5,0.5"], "finite"),
        (["inf,0.5", "0.5,0.5"], "finite"),
        (["1.5,-0.5", "-0.5,1.5"], "non-negative"),
    ])
    def test_malformed_matrix_rejected_with_its_defect(self, tmp_path, capsys, rows, defect):
        z_path = tmp_path / "Z.csv"
        z_path.write_text("\n".join(rows) + "\n")
        code = run_cli("partition", "--z", str(z_path), "--regions", "1",
                       "--out", str(tmp_path))
        assert code == 2
        assert "Z must be %s" % defect in capsys.readouterr().err
        assert not (tmp_path / "assignment.json").exists()

    def test_asymmetric_matrix_rejected(self, tmp_path, capsys):
        # each cut once read (Z + Z^T) / 2, so this Z was cut as if Z[0, 1] were 0.3
        z_path = tmp_path / "Z.csv"
        z_path.write_text("0.5,0.5,0.0\n0.1,0.5,0.4\n0.0,0.4,0.6\n")
        code = run_cli("partition", "--z", str(z_path), "--regions", "2",
                       "--out", str(tmp_path))
        assert code == 2
        assert "Z must be symmetric, but max |Z - Z^T| is 0.4" in capsys.readouterr().err
        assert not (tmp_path / "assignment.json").exists()

    def test_unconverged_solve_output_partitions(self, tmp_path):
        # solve's finish makes Z equal its transpose at exit 3 too
        system_path = tmp_path / "system.json"
        write_planted_system(system_path)
        assert run_cli("solve", "--system", str(system_path), "--max-iters", "3",
                       "--out", str(tmp_path)) == 3
        assert run_cli("partition", "--z", str(tmp_path / "Z.csv"), "--regions", "2",
                       "--out", str(tmp_path)) == 0
        assert json.loads((tmp_path / "assignment.json").read_text())["r"] == 2


class TestSimulate:
    def test_batch_row_count_and_ranges(self, tmp_path):
        code = run_cli("simulate", "--robots", "6", "--capabilities", "2",
                       "--regions", "2..3", "--seeds", "2", "--events", "10",
                       "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2 * 2 * 3  # regions x seeds x methods
        for fields in rows:
            assert fields[0] in ("Full", "Baseline", "Greedy")
            assert fields[1] == "6"
            assert int(fields[3]) in (2, 3)
            assert 0.0 <= float(fields[5]) <= 1.0
            assert 0.0 <= float(fields[6]) <= 1.0

    def test_append_on_second_run(self, tmp_path):
        args = ("simulate", "--robots", "6", "--capabilities", "2",
                "--regions", "2", "--seeds", "1", "--events", "10",
                "--out", str(tmp_path))
        assert run_cli(*args) == 0
        assert run_cli(*args) == 0
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines.count(METRICS_HEADER) == 1
        assert len(lines) == 1 + 6

    def test_region_list_syntax(self, tmp_path):
        code = run_cli("simulate", "--robots", "6", "--capabilities", "2",
                       "--regions", "2,4", "--seeds", "1", "--events", "10",
                       "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        assert {line.split(",")[3] for line in lines} == {"2", "4"}

    def test_rows_match_per_trial_runs_in_listed_order(self, tmp_path, capsys):
        code = run_cli("simulate", "--robots", "6", "--capabilities", "2",
                       "--regions", "3,2,3", "--seeds", "3", "--out", str(tmp_path))
        assert code == 0
        assert capsys.readouterr().err == ""
        want = [METRICS_HEADER]
        for r in (3, 2, 3):
            for seed in range(3):
                config = SimConfig(n_robots=6, n_capabilities=2, seed=seed,
                                   solver=SolverConfig())
                want += metrics_rows(config, run_trial(prepare_fleet(config), r))
        assert (tmp_path / "metrics.csv").read_text().splitlines() == want

    def test_all_trials_failing_exits_4(self, tmp_path, capsys):
        # no two robots lie within the radius, so no seed's fleet is built
        code = run_cli("simulate", "--robots", "6", "--capabilities", "2",
                       "--regions", "2", "--seeds", "2", "--events", "10",
                       "--comm-radius", "1e-9", "--out", str(tmp_path))
        assert code == 4
        assert capsys.readouterr().err.splitlines()[-1] == "all 2 trials failed"
        assert not (tmp_path / "metrics.csv").exists()

    def test_a_failed_fleet_fails_every_listed_r(self, tmp_path, capsys):
        # no two robots lie within the radius, so no fleet is built; each
        # listed r, a repeated one too, names its failed trial
        code = run_cli("simulate", "--robots", "6", "--capabilities", "2",
                       "--regions", "2,3,2", "--seeds", "2", "--comm-radius", "1e-9",
                       "--out", str(tmp_path))
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            "trial r=%d seed=%d failed: graph of kind communication has no non-zero entry"
            % (r, seed) for seed in (0, 1) for r in (2, 3, 2)] + ["all 6 trials failed"]
        assert not (tmp_path / "metrics.csv").exists()

    def test_team_count_above_the_robot_count_rejected_before_any_solve(
            self, tmp_path, capsys, monkeypatch):
        import hetcover.simulation as simulation

        solves = []
        monkeypatch.setattr(simulation, "solve", lambda *args, **kwargs: solves.append(args))
        code = run_cli("simulate", "--robots", "6", "--capabilities", "2",
                       "--regions", "2,7", "--seeds", "1", "--out", str(tmp_path))
        assert code == 2
        assert solves == []
        assert "invalid value for --regions: r must be an integer in 1..6, got 7" in (
            capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_bad_region_spec_rejected(self, tmp_path):
        code = run_cli("simulate", "--robots", "6", "--capabilities", "2",
                       "--regions", "0", "--seeds", "1", "--out", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("spec", ["0..3", "3..2", "2..x"])
    def test_bad_region_range_rejected(self, tmp_path, capsys, spec):
        code = run_cli("simulate", "--robots", "6", "--capabilities", "2",
                       "--regions", spec, "--seeds", "1", "--out", str(tmp_path))
        assert code == 2
        assert "invalid value for --regions: %r" % spec in capsys.readouterr().err

    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_a_long_region_range_is_checked_without_being_built(self, tmp_path, capsys,
                                                                 given):
        import tracemalloc

        regions = ("--regions", "2..2000000")
        if given == "config":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"regions": "2..2000000"}))
            regions = ("--config", str(config))
        tracemalloc.start()
        try:
            code = run_cli("simulate", "--robots", "6", "--capabilities", "2", *regions,
                           "--seeds", "1", "--out", str(tmp_path / "out"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "invalid value for --regions: r must be an integer in 1..6, got 7" in (
            capsys.readouterr().err)
        assert peak < 2**20  # as a list, the range's 1,999,999 ints take about 80 MB

    @pytest.mark.parametrize("flag, value, defect", [
        ("--events", "0", "n_events must"),
        ("--robots", "1", "n_robots must"),
        ("--comm-radius", "-1", "comm_radius must"),
        ("--seed", "-1", "seed must"),
    ])
    def test_invalid_setting_rejected_before_any_trial(self, tmp_path, capsys,
                                                       flag, value, defect):
        argv = {"--robots": "6", "--capabilities": "2", "--regions": "2..3",
                "--seeds": "2", "--events": "10"}
        argv[flag] = value
        code = run_cli("simulate", *(arg for item in argv.items() for arg in item),
                       "--out", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err.count(defect) == 1
        assert not (tmp_path / "metrics.csv").exists()

    def test_failing_fleet_is_prepared_once(self, tmp_path, capsys, monkeypatch):
        import hetcover.simulation as simulation

        calls = {"generate_system": 0, "build_relation_graphs": 0}
        for name in calls:
            def counted(*args, fn=getattr(simulation, name), name=name, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(simulation, name, counted)
        # no two robots lie within the radius, so the communication graph is empty
        code = run_cli("simulate", "--robots", "6", "--capabilities", "2",
                       "--regions", "2..4", "--seeds", "1", "--events", "10",
                       "--comm-radius", "1e-9", "--out", str(tmp_path))
        assert code == 4
        assert calls == {"generate_system": 1, "build_relation_graphs": 1}
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("trial ")]
        assert [line.split(" failed: ")[0] for line in failed] == [
            "trial r=%d seed=0" % r for r in (2, 3, 4)]

    SIMULATE = ("simulate", "--robots", "6", "--capabilities", "2", "--regions", "2..3",
                "--seeds", "5", "--events", "10")

    def test_seeds_share_stacks_within_the_entry_budget(self, tmp_path, monkeypatch):
        import hetcover.cli as cli
        import hetcover.simulation as simulation

        assert run_cli(*self.SIMULATE, "--out", str(tmp_path / "want")) == 0
        # a budget of two 6 x 6 problems: a stack holds two seeds' problems,
        # and its seeds are placed, fused in one Full and one Baseline solve,
        # and scored before the next stack's seeds are placed
        monkeypatch.setattr(simulation, "STACK_ENTRIES", 2 * 6 * 6)
        log = []
        place, solve = simulation.place_fleet, simulation.solve
        monkeypatch.setattr(simulation, "place_fleet",
                            lambda config: log.append(("place", config.seed)) or place(config))
        monkeypatch.setattr(simulation, "solve", lambda graph_lists, configs, **kwargs:
                            log.append(("solve", len(configs))) or solve(graph_lists, configs,
                                                                         **kwargs))
        monkeypatch.setattr(cli, "run_trial", lambda fleet, *regions:
                            log.append(("trial", fleet.config.seed, regions))
                            or run_trial(fleet, *regions))
        assert run_cli(*self.SIMULATE, "--out", str(tmp_path / "got")) == 0
        want = []
        for seeds in ((0, 1), (2, 3), (4,)):
            want += [("place", seed) for seed in seeds]
            want += [("solve", len(seeds))] * 2
            want += [("trial", seed, (2, 3)) for seed in seeds]
        assert log == want
        assert (tmp_path / "got" / "metrics.csv").read_bytes() == (
            tmp_path / "want" / "metrics.csv").read_bytes()

    def test_a_fleet_whose_solve_fails_fails_only_its_trials(self, tmp_path, capsys,
                                                               monkeypatch):
        import hetcover.simulation as simulation

        argv = self.SIMULATE[:-4] + ("--seeds", "3", "--events", "10")
        assert run_cli(*argv, "--out", str(tmp_path / "want")) == 0
        capsys.readouterr()
        bad = [g.adjacency.tobytes() for g in
               place_fleet(SimConfig(n_robots=6, n_capabilities=2, seed=1, n_events=10)).graphs]
        stacks = []
        solve = simulation.solve

        def failing(graph_lists, configs, **kwargs):
            stacks.append(len(configs))
            if any([g.adjacency.tobytes() for g in graphs] == bad for graphs in graph_lists):
                raise ValueError("the solver refused seed 1")
            return solve(graph_lists, configs, **kwargs)

        monkeypatch.setattr(simulation, "solve", failing)
        assert run_cli(*argv, "--out", str(tmp_path / "got")) == 0
        # the stack of all three fleets fails; fused one at a time, seeds 0
        # and 2 take a Full and a Baseline solve each, and seed 1 fails at Full
        assert stacks == [3, 1, 1, 1, 1, 1]
        assert capsys.readouterr().err.splitlines() == [
            "trial r=%d seed=1 failed: the solver refused seed 1" % r for r in (2, 3)]
        want = (tmp_path / "want" / "metrics.csv").read_text().splitlines()
        assert (tmp_path / "got" / "metrics.csv").read_text().splitlines() == [
            line for line in want if line.split(",")[4] != "1"]

    def test_each_distinct_r_is_scored_once_per_fleet(self, tmp_path, monkeypatch):
        import hetcover.cli as cli
        import hetcover.simulation as simulation

        calls, greedy = [], []
        monkeypatch.setattr(cli, "run_trial", lambda fleet, *regions:
                            calls.append((fleet.config.seed, regions))
                            or run_trial(fleet, *regions))
        assign = simulation.greedy_assign
        monkeypatch.setattr(simulation, "greedy_assign",
                            lambda system, *regions: greedy.append(regions)
                            or assign(system, *regions))
        code = run_cli("simulate", "--robots", "6", "--capabilities", "2",
                       "--regions", "3,2,3", "--seeds", "2", "--out", str(tmp_path))
        assert code == 0
        # one call per fleet, which scores each distinct r once, ascending,
        # reading the greedy teams at every r off one merge pass
        assert calls == [(seed, (3, 2, 3)) for seed in (0, 1)]
        assert greedy == [(2, 3), (2, 3)]
        # a repeated r still writes its rows again
        want = [METRICS_HEADER]
        for r in (3, 2, 3):
            for seed in range(2):
                config = SimConfig(n_robots=6, n_capabilities=2, seed=seed)
                want += metrics_rows(config, run_trial(prepare_fleet(config), r))
        assert (tmp_path / "metrics.csv").read_text().splitlines() == want


class TestSweep:
    def test_half_step_grid(self, tmp_path):
        code = run_cli("sweep", "--robots", "5", "--capabilities", "2",
                       "--regions", "2", "--seeds", "1", "--alpha-step", "0.5",
                       "--events", "10", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha1,alpha2,alpha3,detection,duplication"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 6  # simplex lattice with step 1/2
        for fields in rows:
            alphas = [float(v) for v in fields[:3]]
            assert abs(sum(alphas) - 1.0) < 1e-12
            assert all(a >= 0 for a in alphas)
            assert 0.0 <= float(fields[3]) <= 1.0
            assert 0.0 <= float(fields[4]) <= 1.0

    def test_overwrites_instead_of_appending(self, tmp_path):
        args = ("sweep", "--robots", "5", "--capabilities", "2",
                "--regions", "2", "--seeds", "1", "--alpha-step", "0.5",
                "--events", "10", "--out", str(tmp_path))
        assert run_cli(*args) == 0
        first = (tmp_path / "sweep.csv").read_text()
        assert run_cli(*args) == 0
        assert (tmp_path / "sweep.csv").read_text() == first

    SWEEP = ("sweep", "--robots", "6", "--capabilities", "2", "--regions", "2",
             "--seeds", "2", "--alpha-step", "0.5", "--events", "20")

    def test_rows_are_means_of_full_trial_reports(self, tmp_path):
        want = []
        for alphas in sweep_grid(0.5):
            full = []
            for seed in (0, 1):
                config = SimConfig(n_robots=6, n_capabilities=2, seed=seed,
                                   n_events=20, solver=SolverConfig(alphas=alphas))
                full.append(next(rep for rep in run_trial(prepare_fleet(config), 2)
                                 if rep.method is Method.FULL))
            want.append(alphas + (sum(rep.detection_rate for rep in full) / len(full),
                                  sum(rep.duplication_rate for rep in full) / len(full)))
        assert run_cli(*self.SWEEP, "--out", str(tmp_path)) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        # each value is written as its repr, so it reads back as the same float
        assert [tuple(float(v) for v in line.split(",")) for line in lines] == want

    def test_each_seed_fleet_is_built_once(self, tmp_path, monkeypatch):
        import hetcover.simulation as simulation

        calls = {"generate_system": 0, "build_relation_graphs": 0,
                 "simulate_events": 0, "solve": 0}
        for name in calls:
            def counted(*args, fn=getattr(simulation, name), name=name, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(simulation, name, counted)
        assert run_cli(*self.SWEEP, "--out", str(tmp_path)) == 0
        # each solve call is one stack of up to stack_size(6) (seed, weighting)
        # problems, so the 2 seeds x 6 weightings share one
        stacks = math.ceil(2 * len(sweep_grid(0.5)) / stack_size(6))
        assert calls == {"generate_system": 2, "build_relation_graphs": 2,
                         "simulate_events": 2, "solve": stacks}

    def test_weightings_fill_stacks_across_seeds(self, tmp_path, monkeypatch):
        import hetcover.simulation as simulation

        assert run_cli(*self.SWEEP, "--out", str(tmp_path / "want")) == 0
        # a budget of four 6 x 6 problems: the 2 seeds x 6 weightings fill
        # three stacks, the second holding both seeds' problems, and each
        # seed's fleet is placed once
        monkeypatch.setattr(simulation, "STACK_ENTRIES", 4 * 6 * 6)
        log = []
        place, solve = simulation.place_fleet, simulation.solve
        monkeypatch.setattr(simulation, "place_fleet",
                            lambda config: log.append(("place", config.seed)) or place(config))
        monkeypatch.setattr(simulation, "solve", lambda graph_lists, configs, **kwargs:
                            log.append(("solve", len(configs))) or solve(graph_lists, configs,
                                                                         **kwargs))
        assert run_cli(*self.SWEEP, "--out", str(tmp_path / "got")) == 0
        assert log == [("place", 0), ("solve", 4), ("place", 1), ("solve", 4), ("solve", 4)]
        assert (tmp_path / "got" / "sweep.csv").read_bytes() == (
            tmp_path / "want" / "sweep.csv").read_bytes()

    def test_team_count_above_the_robot_count_rejected_before_any_solve(
            self, tmp_path, capsys, monkeypatch):
        import hetcover.simulation as simulation

        solves = []
        monkeypatch.setattr(simulation, "solve", lambda *args, **kwargs: solves.append(args))
        code = run_cli("sweep", "--robots", "6", "--capabilities", "2",
                       "--regions", "7", "--seeds", "1", "--out", str(tmp_path))
        assert code == 2
        assert solves == []
        assert "invalid value for --regions: r must be an integer in 1..6, got 7" in (
            capsys.readouterr().err)
        assert not (tmp_path / "sweep.csv").exists()

    def test_failing_fleet_stops_the_sweep(self, tmp_path, capsys):
        # no two robots lie within the radius, so the communication graph is empty
        code = run_cli("sweep", "--robots", "6", "--capabilities", "2",
                       "--regions", "2", "--seeds", "2", "--alpha-step", "0.5",
                       "--events", "10", "--comm-radius", "1e-9", "--out", str(tmp_path))
        assert code == 4
        assert "sweep failed: graph of kind communication has no non-zero entry" in (
            capsys.readouterr().err.splitlines())
        assert not (tmp_path / "sweep.csv").exists()

    def test_step_must_divide_one(self, tmp_path):
        code = run_cli("sweep", "--robots", "5", "--capabilities", "2",
                       "--regions", "2", "--seeds", "1", "--alpha-step", "0.3",
                       "--out", str(tmp_path))
        assert code == 2

    # round(1 / step) would give the 1/3 grid for 0.3 and the 1/2 grid for 0.4,
    # 0 steps for 2.0, and no integer for the smallest float, whose inverse is inf
    @pytest.mark.parametrize("step", [0.3, 0.4, 2.0, 5e-324])
    def test_grid_refuses_a_step_that_does_not_divide_one(self, step):
        with pytest.raises(ValueError, match=r"alpha_step must lie in \(0, 1\] and divide 1"):
            sweep_grid(step)

    def test_alpha_is_not_an_option(self, small_run, tmp_path, capsys):
        # each weighting of the grid sets the alphas; nor is --alpha read as
        # a prefix of --alpha-step
        for alpha in (["1", "0", "0"], ["0.5"]):
            assert small_run("sweep", tmp_path / "out", "--alpha", *alpha) == 2
            assert "unrecognized arguments: --alpha %s" % " ".join(alpha) in (
                capsys.readouterr().err)
            assert not (tmp_path / "out").exists()

    def test_default_grid_has_66_points_with_paper_combination(self):
        grid = sweep_grid(ALPHA_STEP)
        assert len(grid) == 66
        assert (0.2, 0.1, 0.7) in grid
        for alphas in grid:
            assert abs(sum(alphas) - 1.0) < 1e-12


# mu = mu0 * rho**k overflows a float before k reaches --max-iters; in the
# third case the last mu is finite, but the Z step's 4 mu is not
@pytest.mark.parametrize("command, settings", [
    ("solve", ("--tol", "1e-300", "--rho", "1.99", "--max-iters", "2000")),
    ("simulate", ("--tol", "1e-300", "--rho", "1.99", "--max-iters", "2000")),
    ("solve", ("--mu0", "1", "--rho", "1.99", "--max-iters", "1031")),
], ids=["solve", "simulate", "solve-last-mu-finite"])
def test_penalty_schedule_that_overflows_rejected_before_any_work(small_run, tmp_path, capsys,
                                                                  command, settings):
    out = tmp_path / "out"
    assert small_run(command, out, *settings) == 2
    err = capsys.readouterr().err
    assert "invalid solver settings: " in err
    assert all(name in err for name in ("mu0=", "rho=", "max_iterations="))
    assert not out.exists()


# the Z step divides its weight 2 + 2 lambda1 by mu0, which overflows a float at 1e-308
@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_penalty_too_small_for_the_z_step_rejected_before_any_work(small_run, tmp_path, capsys,
                                                                   command):
    out = tmp_path / "out"
    assert small_run(command, out, "--mu0", "1e-308") == 2
    err = capsys.readouterr().err
    assert "invalid solver settings: mu0 is too small" in err
    assert "mu0=1e-308" in err
    assert not out.exists()


# lambda2 / mu0 enters the Z step's diagonal from the first iteration; these
# once ran to the iteration cap and exited 3 after numpy overflow warnings
@pytest.mark.parametrize("settings", [
    ("--mu0", "1e-300", "--lambda2", "1e10"),
    ("--mu0", "1e-307", "--lambda2", "1000"),
    ("--mu0", "2.5e-308", "--lambda2", "1"),
], ids=["lambda2-1e10", "lambda2-1000", "lambda2-1"])
def test_penalty_too_small_for_lambda2_rejected_before_any_work(small_run, tmp_path, capsys,
                                                                settings):
    out = tmp_path / "out"
    assert small_run("solve", out, *settings) == 2
    err = capsys.readouterr().err
    assert "invalid solver settings: mu0 is too small" in err
    assert "mu0=%r" % float(settings[1]) in err
    assert not out.exists()


# a NaN weight passes the sum check (abs(nan - 1) > 1e-12 is False), and an
# infinite tolerance would stop after one iteration
@pytest.mark.parametrize("command, settings", [
    ("solve", ("--lambda1", "nan")),
    ("solve", ("--lambda2", "nan")),
    ("solve", ("--lambda1", "inf")),
    ("solve", ("--alpha", "nan", "0.5", "0.5")),
    ("solve", ("--tol", "inf")),
    ("simulate", ("--lambda2", "nan")),
    ("sweep", ("--lambda1", "inf")),
], ids=["solve-lambda1-nan", "solve-lambda2-nan", "solve-lambda1-inf", "solve-alpha-nan",
        "solve-tol-inf", "simulate-lambda2-nan", "sweep-lambda1-inf"])
def test_non_finite_solver_setting_rejected_before_any_work(small_run, tmp_path, capsys,
                                                            command, settings):
    out = tmp_path / "out"
    assert small_run(command, out, *settings) == 2
    assert "invalid solver settings: " in capsys.readouterr().err
    assert not out.exists()


class TestEnvironmentSize:
    """Nearest-robot queries compare squared distances, so an environment whose
    squared diagonal overflows is refused wherever it enters."""

    DEFECT = "environment dimensions 1e+200 x 1.0 are too large"

    @pytest.mark.parametrize("command", ["generate", "simulate"])
    def test_width_whose_square_overflows_rejected(self, small_run, tmp_path, capsys,
                                                   command):
        assert small_run(command, tmp_path / "out", "--width", "1e200") == 2
        assert "invalid environment: %s" % self.DEFECT in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_system_document_with_that_width_rejected(self, tmp_path, capsys):
        system_path = tmp_path / "system.json"
        write_planted_system(system_path)
        doc = json.loads(system_path.read_text())
        doc["environment"]["width"] = 1e200
        system_path.write_text(json.dumps(doc))
        code = run_cli("solve", "--system", str(system_path), "--out", str(tmp_path))
        assert code == 2
        assert ("cannot read system %s: %s" % (system_path, self.DEFECT)
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["generate", "simulate"])
    def test_width_whose_square_is_finite_runs(self, small_run, tmp_path, command):
        assert small_run(command, tmp_path, "--width", "1e150") == 0


class TestConfigLayering:
    def test_config_file_supplies_values(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"robots": 4, "capabilities": 2, "seed": 1}))
        code = run_cli("generate", "--config", str(config), "--out", str(tmp_path))
        assert code == 0
        assert len(load_system(tmp_path / "system.json")) == 4

    def test_flag_overrides_config_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"robots": 4, "capabilities": 2, "seed": 1}))
        code = run_cli("generate", "--config", str(config), "--robots", "6",
                       "--out", str(tmp_path))
        assert code == 0
        assert len(load_system(tmp_path / "system.json")) == 6

    @pytest.mark.parametrize("robots", [4.7, math.inf])
    def test_count_that_is_not_an_integer_rejected(self, tmp_path, capsys, robots):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"robots": robots, "capabilities": 2, "seed": 1}))
        code = run_cli("generate", "--config", str(config), "--out", str(tmp_path))
        assert code == 2
        assert "invalid value for --robots: %r" % robots in capsys.readouterr().err
        assert not (tmp_path / "system.json").exists()

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_alpha_that_is_not_a_list_rejected(self, small_run, tmp_path, capsys, command):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 5}))
        assert small_run(command, tmp_path / "out", "--config", str(config)) == 2
        assert "invalid value for --alpha: 5" in capsys.readouterr().err

    # before --alpha and --wall had a type, "100" ran as the weights (1, 0, 0),
    # the fifth number was dropped, and the string made a zero-length wall at
    # (0, 1), each exiting 0; the three-number segment exited 2 as
    # "invalid environment: list index out of range"
    @pytest.mark.parametrize("command, setting", [
        ("solve", {"alpha": "100"}),
        ("simulate", {"alpha": "100"}),
        ("solve", {"alpha": [0.5, 0.5]}),
        ("generate", {"wall": [[0.5, 0.1, 0.5, 0.9, 7]]}),
        ("simulate", {"wall": [[0.5, 0.1, 0.5, 0.9, 7]]}),
        ("generate", {"wall": ["0101"]}),
        ("sweep", {"wall": ["0101"]}),
        ("generate", {"wall": [[0.5, 0.1, 0.5]]}),
    ], ids=["solve-alpha-string", "simulate-alpha-string", "alpha-pair",
            "generate-wall-five-numbers", "simulate-wall-five-numbers",
            "generate-wall-string", "sweep-wall-string", "wall-three-numbers"])
    def test_malformed_alpha_or_wall_rejected(self, small_run, tmp_path, capsys,
                                              command, setting):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(setting))
        assert small_run(command, tmp_path / "out", "--config", str(config)) == 2
        (name, value), = setting.items()
        assert "invalid value for --%s: %r" % (name, value) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_key_that_no_option_uses_rejected(self, small_run, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"event": 5}))  # a typo for "events"
        assert small_run("simulate", tmp_path / "out", "--config", str(config)) == 2
        assert "unknown key in config file: 'event'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_one_file_serves_simulate_and_sweep(self, small_run, tmp_path, command):
        # alpha is simulate's option and alpha_step sweep's; each ignores the other's
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": [0.5, 0.25, 0.25], "alpha_step": 0.5}))
        assert small_run(command, tmp_path / "out", "--config", str(config)) == 0

    @pytest.mark.parametrize("command, setting, argv", [
        ("solve", {"system": 1}, ("--out", "out")),
        ("partition", {"z": 0}, ("--regions", "2", "--out", "out")),
        ("simulate", {"out": 7}, SMALL_RUNS["simulate"]),
    ], ids=["solve-system", "partition-z", "simulate-out"])
    def test_config_value_is_checked_like_its_flag(self, tmp_path, capsys, monkeypatch,
                                                   command, setting, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps(setting))
        assert run_cli(command, *argv, "--config", "config.json") == 2
        (name, value), = setting.items()
        assert "invalid value for --%s: %r" % (name, value) in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]

    # a flag cannot spell a bool, so a config file may not give one for a number
    @pytest.mark.parametrize("command, setting, message", [
        ("generate", {"width": True}, "invalid value for --width: True"),
        ("solve", {"tol": False}, "invalid value for --tol: False"),
        ("simulate", {"comm_radius": True}, "invalid value for --comm-radius: True"),
        ("solve", {"alpha": [True, False, False]},
         "invalid value for --alpha: [True, False, False]"),
        ("generate", {"wall": [[True, 0, 0.5, 1]]},
         "invalid value for --wall: [[True, 0, 0.5, 1]]"),
    ], ids=["width", "tol", "comm-radius", "alpha", "wall"])
    def test_bool_for_a_number_rejected(self, small_run, tmp_path, capsys,
                                        command, setting, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(setting))
        assert small_run(command, tmp_path / "out", "--config", str(config)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_every_number_option_refuses_a_bool(self):
        numbers = [option for _, _, options in COMMANDS.values() for option in options
                   if option.kind in (float, _real)]
        assert numbers and all(option.kind is _real for option in numbers)
        with pytest.raises(ValueError):
            _real(True)
        assert _real("0.5") == _real(0.5) == 0.5

    def test_unreadable_config_rejected(self, tmp_path):
        code = run_cli("generate", "--config", str(tmp_path / "none.json"),
                       "--robots", "4", "--capabilities", "2", "--seed", "0",
                       "--out", str(tmp_path))
        assert code == 2


class TestOutputErrors:
    """Exit 4 and a stderr line naming the path when an output cannot be written."""

    @pytest.mark.parametrize("command, name", [
        ("generate", "system.json"),
        ("solve", "Z.csv"),
        ("solve", "trace.json"),
        ("partition", "assignment.json"),
        ("partition", "regions.json"),
        ("simulate", "metrics.csv"),
        ("sweep", "sweep.csv"),
    ])
    def test_directory_on_an_output_name(self, small_run, tmp_path, capsys, command, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert small_run(command, out) == 4
        path = os.path.join(str(out), name)
        assert any(line.startswith("cannot write %s: " % path)
                   for line in capsys.readouterr().err.splitlines())

    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_out_that_is_a_file(self, small_run, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("")
        assert small_run(command, out) == 4
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == ""


class TestParser:
    def test_no_subcommand_is_usage_error(self):
        assert run_cli() == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli("frobnicate") == 2

    def test_a_prefix_of_an_option_is_not_the_option(self, tmp_path, capsys):
        code = run_cli("simulate", "--rob", "6", "--capabilities", "2", "--regions", "2",
                       "--seeds", "1", "--events", "10", "--out", str(tmp_path))
        assert code == 2
        assert "unrecognized arguments: --rob 6" in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()
        assert run_cli("--he") == 2  # the top parser's --help is not abbreviated either

    @pytest.mark.parametrize("robots, regions, message", [
        ("6", "3,7", "invalid value for --regions: r must be an integer in 1..6, got 7"),
        ("4.7", "3", "invalid value for --robots: '4.7'"),  # found while resolving options
    ], ids=["handler", "resolve"])
    def test_an_error_prints_the_usage_of_its_subcommand(self, tmp_path, capsys, robots,
                                                           regions, message):
        code = run_cli("simulate", "--robots", robots, "--capabilities", "2",
                       "--regions", regions, "--seeds", "2", "--out", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: hetcover simulate [-h] ")
        assert err.splitlines()[-1] == "hetcover simulate: error: " + message
        assert list(tmp_path.iterdir()) == []
