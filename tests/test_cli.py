import json
import math

import numpy as np
import pytest

from hetcover.cli import SweepSpec, main, run_sweep
from hetcover.graphs import load_matrix_csv, save_matrix_csv
from hetcover.partition import load_assignment
from hetcover.simulation import METRICS_HEADER, Method, SimConfig, metrics_rows, run_trial
from hetcover.solver import SolverConfig
from hetcover.system import load_system, save_system

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

    def test_single_robot_rejected(self, tmp_path):
        code = run_cli("generate", "--robots", "1", "--capabilities", "2",
                       "--seed", "0", "--out", str(tmp_path))
        assert code == 2

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
        assert set(trace["residuals"][0]) == {"r1", "r2", "r3", "r4", "objective"}

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


class TestPartition:
    def test_single_region(self, tmp_path):
        z_path = tmp_path / "Z.csv"
        write_block_z(z_path)
        code = run_cli("partition", "--z", str(z_path), "--regions", "1",
                       "--out", str(tmp_path))
        assert code == 0
        asgn = load_assignment(tmp_path / "assignment.json")
        assert asgn.r == 1
        assert asgn.team_of == (0,) * 6

    def test_block_fixture_recovered(self, tmp_path):
        z_path = tmp_path / "Z.csv"
        blocks = write_block_z(z_path)
        code = run_cli("partition", "--z", str(z_path), "--regions", "2",
                       "--out", str(tmp_path))
        assert code == 0
        asgn = load_assignment(tmp_path / "assignment.json")
        assert set(asgn.teams) == set(blocks)

    def test_all_singletons(self, tmp_path):
        z_path = tmp_path / "Z.csv"
        write_block_z(z_path)
        code = run_cli("partition", "--z", str(z_path), "--regions", "6",
                       "--out", str(tmp_path))
        assert code == 0
        asgn = load_assignment(tmp_path / "assignment.json")
        assert all(len(t) == 1 for t in asgn.teams)

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
        # r = 7 exceeds the robot count: those trials fail, the others run
        code = run_cli("simulate", "--robots", "6", "--capabilities", "2",
                       "--regions", "3,2,3,7", "--seeds", "3", "--out", str(tmp_path))
        assert code == 0
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("trial ")]
        assert len(failed) == 3
        assert all(line.startswith("trial r=7 ") for line in failed)
        want = [METRICS_HEADER]
        for r in (3, 2, 3):
            for seed in range(3):
                config = SimConfig(n_robots=6, n_capabilities=2, n_regions=r,
                                   seed=seed, solver=SolverConfig())
                want += metrics_rows(config, run_trial(config))
        assert (tmp_path / "metrics.csv").read_text().splitlines() == want

    def test_all_trials_failing_exits_4(self, tmp_path):
        # r = 7 exceeds the robot count, so every trial is invalid
        code = run_cli("simulate", "--robots", "6", "--capabilities", "2",
                       "--regions", "7", "--seeds", "2", "--events", "10",
                       "--out", str(tmp_path))
        assert code == 4
        assert not (tmp_path / "metrics.csv").exists()

    def test_bad_region_spec_rejected(self, tmp_path):
        code = run_cli("simulate", "--robots", "6", "--capabilities", "2",
                       "--regions", "0", "--seeds", "1", "--out", str(tmp_path))
        assert code == 2


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

    def test_rows_are_means_of_full_trial_reports(self):
        base = SimConfig(n_robots=6, n_capabilities=2, n_regions=2, seed=0,
                         n_events=20, solver=SolverConfig())
        spec = SweepSpec(base=base, seeds=(0, 1), alpha_step=0.5)
        want = []
        for alphas in spec.grid():
            full = []
            for seed in spec.seeds:
                config = SimConfig(n_robots=6, n_capabilities=2, n_regions=2, seed=seed,
                                   n_events=20, solver=SolverConfig(alphas=alphas))
                full.append(next(rep for rep in run_trial(config)
                                 if rep.method is Method.FULL))
            want.append(alphas + (sum(rep.detection_rate for rep in full) / len(full),
                                  sum(rep.duplication_rate for rep in full) / len(full)))
        assert run_sweep(spec) == want

    def test_each_seed_fleet_is_built_once(self, monkeypatch):
        import hetcover.simulation as simulation

        calls = {"generate_system": 0, "build_relation_graphs": 0,
                 "simulate_events": 0, "solve": 0}
        for name in calls:
            def counted(*args, fn=getattr(simulation, name), name=name, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(simulation, name, counted)
        base = SimConfig(n_robots=6, n_capabilities=2, n_regions=2, seed=0,
                         n_events=20, solver=SolverConfig())
        spec = SweepSpec(base=base, seeds=(0, 1), alpha_step=0.5)
        run_sweep(spec)
        assert calls == {"generate_system": 2, "build_relation_graphs": 2,
                         "simulate_events": 2, "solve": 2 * len(spec.grid())}

    def test_step_must_divide_one(self, tmp_path):
        code = run_cli("sweep", "--robots", "5", "--capabilities", "2",
                       "--regions", "2", "--seeds", "1", "--alpha-step", "0.3",
                       "--out", str(tmp_path))
        assert code == 2

    def test_default_grid_has_66_points_with_paper_combination(self):
        base = SimConfig(n_robots=5, n_capabilities=2, n_regions=2, seed=0)
        spec = SweepSpec(base=base, seeds=(0,))
        grid = spec.grid()
        assert len(grid) == 66
        assert (0.2, 0.1, 0.7) in grid
        for alphas in grid:
            assert abs(sum(alphas) - 1.0) < 1e-12


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

    def test_unreadable_config_rejected(self, tmp_path):
        code = run_cli("generate", "--config", str(tmp_path / "none.json"),
                       "--robots", "4", "--capabilities", "2", "--seed", "0",
                       "--out", str(tmp_path))
        assert code == 2


class TestParser:
    def test_no_subcommand_is_usage_error(self):
        assert run_cli() == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli("frobnicate") == 2
