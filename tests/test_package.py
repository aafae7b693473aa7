"""The package surface: the README quick start, the exported names, and imports."""

import ast
import importlib
import importlib.util
import pathlib
import re
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src" / "hetcover"

QUICK_START_NAMES = {
    "Environment", "Position", "RobotSpec", "RobotSystem", "build_relation_graphs",
    "solve", "Method", "SimConfig", "run_trial",
}


def quick_start_blocks():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_readme_quick_start_runs_as_written(capsys):
    namespace = {}
    for block in quick_start_blocks():
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["teams"].teams == ({0, 1}, {2, 3})
    assert len(capsys.readouterr().out.splitlines()) == 3  # one line per method


def test_package_exports_the_quick_start_names():
    import hetcover

    exported = {name for name, value in vars(hetcover).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == QUICK_START_NAMES
    assert hetcover.__version__


def test_partition_is_the_submodule():
    import hetcover.partition as P

    assert isinstance(P, types.ModuleType)
    assert callable(P.fiedler_cut)


def unused_imports(source):
    """Names a module imports but never reads, in sorted order."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_finder():
    source = "import os\nimport numpy as np\nimport a.b\nfrom c import d, e\nnp.f(d, a.g)\n"
    assert unused_imports(source) == ["e", "os"]


# __init__.py imports only to export
@pytest.mark.parametrize("module", sorted(p.name for p in SOURCES.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_reads_every_name_it_imports(module):
    assert unused_imports((SOURCES / module).read_text(encoding="utf-8")) == []


def test_every_benchmark_trace_site_is_callable():
    # benchmark/spans.py wraps functions by module and name; a renamed or moved
    # function must fail here rather than stop a traced benchmark run
    spec = importlib.util.spec_from_file_location("benchmark_spans",
                                                  ROOT / "benchmark" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(module, attr) for module, attr, _ in spans.SITES
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert spans.SITES and missing == []


def parsed_options(*argv):
    from hetcover import cli

    parser = cli.build_parser()
    return cli._Options(parser.parse_args(list(argv)), parser)


def first_trial_config(monkeypatch, tmp_path, *flags):
    """The config of the first trial that `hetcover simulate` runs with flags."""
    from hetcover import cli

    configs = []
    monkeypatch.setattr(cli, "prepare_fleet", lambda config: object())
    monkeypatch.setattr(cli, "run_trial", lambda config, fleet: configs.append(config) or [])
    cli.main(["simulate", *flags, "--out", str(tmp_path)])
    return configs[0]


# the CLI's settings have no defaults of their own: with no option set it
# builds the library's default config, and each field has an option that sets it
def test_cli_solver_config_defaults_to_the_library_default():
    from hetcover.cli import _solver_config
    from hetcover.solver import SolverConfig

    assert _solver_config(parsed_options("solve")) == SolverConfig()


def test_every_config_field_is_set_by_a_cli_option(monkeypatch, tmp_path):
    from dataclasses import fields

    from hetcover.simulation import SimConfig
    from hetcover.solver import SolverConfig

    plain = first_trial_config(monkeypatch, tmp_path, "--robots", "6", "--capabilities", "2",
                               "--regions", "2", "--seeds", "1")
    custom = first_trial_config(
        monkeypatch, tmp_path, "--robots", "7", "--capabilities", "3", "--regions", "3",
        "--seeds", "1", "--seed", "2", "--events", "9", "--comm-radius", "0.3",
        "--width", "2", "--height", "3", "--wall", "0.5", "0", "0.5", "1",
        "--alpha", "0.2", "0.1", "0.7", "--lambda1", "0.2", "--lambda2", "0.3",
        "--mu0", "0.2", "--rho", "1.5", "--tol", "1e-5", "--max-iters", "50")
    unset = [f.name for f in fields(SimConfig)
             if getattr(plain, f.name) == getattr(custom, f.name)]
    unset += [f.name for f in fields(SolverConfig)
              if getattr(plain.solver, f.name) == getattr(custom.solver, f.name)]
    assert unset == []
