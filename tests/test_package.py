"""The package surface: the README quick start, the exported names, and imports."""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src" / "hetcover"

QUICK_START_NAMES = {
    "Environment", "Position", "RobotSpec", "RobotSystem", "build_relation_graphs",
    "solve", "Method", "SimConfig", "prepare_fleet", "run_trial",
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
    assert len(capsys.readouterr().out.splitlines()) == 9  # one line per (r, method)


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


def test_readme_names_resolve():
    # a backticked `<module>.<name>` in the README names what a hetcover
    # submodule defines, so a rename cannot leave the docs pointing at nothing;
    # file names such as `system.json` share the shape and are skipped
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    submodules = {p.stem for p in SOURCES.glob("*.py") if p.name != "__init__.py"}
    named = {(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)`", readme)
             if module in submodules and name not in ("json", "csv", "py")}
    missing = [(module, name) for module, name in sorted(named)
               if not hasattr(importlib.import_module("hetcover." + module), name)]
    assert named and missing == []


def test_readme_names_every_trace_key(tmp_path):
    # each key of the trace.json that `hetcover solve` writes, top-level and
    # per record, appears backticked in the README, so the output format and
    # its description cannot drift apart
    from hetcover.cli import main

    assert main(["generate", "--robots", "6", "--capabilities", "2", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    assert main(["solve", "--system", str(tmp_path / "system.json"),
                 "--out", str(tmp_path)]) == 0
    trace = json.loads((tmp_path / "trace.json").read_text(encoding="utf-8"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    keys = set(trace) | {key for record in trace["residuals"] for key in record}
    assert [key for key in sorted(keys) if "`%s`" % key not in readme] == []


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


# the package's modules by file name, the tests' and demos' by folder/name;
# __init__.py imports only to export
MODULES = {p.name: p for p in SOURCES.glob("*.py") if p.name != "__init__.py"}
MODULES.update(("%s/%s" % (folder, p.name), p)
               for folder in ("tests", "demos") for p in (ROOT / folder).glob("*.py"))


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_reads_every_name_it_imports(module):
    assert unused_imports(MODULES[module].read_text(encoding="utf-8")) == []


def unread_definitions(defining, reading):
    """Public names the defining sources define but no reading source reads.

    defining and reading map a label to a module's source. A definition is a
    top-level def or class, or a def in a top-level class, whose name starts
    with a letter; it is read when an ast.Name or ast.Attribute of its name
    is loaded outside the definition itself. Definitions are given as
    "label.name" or "label.Class.name", in sorted order.
    """
    reads = {}  # name -> ids of the nodes that load it
    trees = {label: ast.parse(source) for label, source in reading.items()}
    trees.update((label, ast.parse(source)) for label, source in defining.items())
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, set()).add(id(node))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unread = []
    for label in defining:
        found = [(label, node) for node in trees[label].body if isinstance(node, defs)]
        found += [("%s.%s" % (label, cls.name), node) for _, cls in found
                  if isinstance(cls, ast.ClassDef) for node in cls.body
                  if isinstance(node, defs)]
        for prefix, node in found:
            inside = {id(n) for n in ast.walk(node)}
            if node.name[0].isalpha() and not reads.get(node.name, set()) - inside:
                unread.append("%s.%s" % (prefix, node.name))
    return sorted(unread)


def test_unread_definition_finder():
    defining = {"m": ("def used(): pass\n"
                      "def recursive(): return recursive()\n"
                      "def _private(): pass\n"
                      "class C:\n"
                      "    def __init__(self): self.method()\n"
                      "    def method(self): pass\n"
                      "    def unused(self): pass\n"
                      "class Unread:\n"
                      "    def make(cls): return Unread()\n")}
    reading = {"r": "from m import used, C\nused = used\nC().unused\n"}
    assert unread_definitions(defining, reading) == ["m.Unread", "m.Unread.make", "m.recursive"]
    assert unread_definitions(defining, {}) == ["m.C", "m.C.unused", "m.Unread",
                                                "m.Unread.make", "m.recursive", "m.used"]


# what the package defines that only tests read, each with the reason it stays
UNREAD_BY_DESIGN = {
    "graphs.build_spatial_graph": "the public builder of one graph, as build_communication_graph "
                                  "is; build_relation_graphs shares one distance matrix instead",
    "partition.TeamAssignment.from_teams": "the validating constructor from team sets, the "
                                           "reference that from_labels is checked against",
}


def test_package_definitions_are_read_outside_tests():
    defining = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES.glob("*.py")}
    reading = {"%s/%s" % (folder, p.name): p.read_text(encoding="utf-8")
               for folder in ("demos", "benchmark") for p in (ROOT / folder).glob("*.py")}
    assert unread_definitions(defining, reading) == sorted(UNREAD_BY_DESIGN)


# the reference loop in tests/_oracles.py is an independent check of solve's
# steps: it may share the solver's data types, but none of its code
ORACLE_IMPORTS = {"IterationRecord", "SolveResult", "SolverConfig"}


def test_reference_loop_imports_only_solver_data_types():
    tree = ast.parse((ROOT / "tests" / "_oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "hetcover" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hetcover":
            assert node.module == "hetcover.solver"
            imported.update(alias.name for alias in node.names)
    assert imported and imported <= ORACLE_IMPORTS


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    # the unused-import check reads a demo's source only; running it also
    # checks every library name the demo calls
    path = os.pathsep.join(filter(None, [str(SOURCES.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def benchmark_spans():
    """benchmark/spans.py, the benchmark's tracer, loaded by path."""
    spec = importlib.util.spec_from_file_location("benchmark_spans",
                                                  ROOT / "benchmark" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_benchmark_trace_site_is_callable():
    # benchmark/spans.py wraps functions by module and name; a renamed or moved
    # function must fail here rather than stop a traced benchmark run
    spans = benchmark_spans()
    missing = [(module, attr) for module, attr, _ in spans.SITES
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert spans.SITES and missing == []


def test_benchmark_tracer_reads_a_sweep_of_stacked_solves(tmp_path):
    # the tracer adds up result.iterations and counts `not result.converged`
    # for each hetcover.simulation.solve call, which a sweep makes per stack
    from hetcover.cli import main

    with benchmark_spans().Tracer().installed() as tracer:
        assert main(["sweep", "--robots", "5", "--capabilities", "2", "--regions", "2",
                     "--seeds", "2", "--alpha-step", "0.5", "--events", "10",
                     "--out", str(tmp_path)]) == 0
    metrics = tracer.layer_metrics()
    assert metrics["solver.solve.calls"] > 0
    assert type(metrics["solver.solve.iterations"]) is int
    assert metrics["solver.solve.unconverged"] == 0
    assert metrics["solver.objective.s"] == 0.0  # a sweep keeps no trace
    assert tracer.problems() == []


def test_benchmark_traced_layers_fire_on_simulate_and_sweep(tmp_path):
    # the benchmark marks a run incorrect when a traced layer records no call,
    # so a fusion or trial path that stops calling the traced names fails here
    from hetcover.cli import main

    spans = benchmark_spans()
    with spans.Tracer().installed() as tracer:
        assert main(["simulate", "--robots", "6", "--capabilities", "2", "--regions", "2..3",
                     "--seeds", "3", "--events", "10", "--out", str(tmp_path / "simulate")]) == 0
        assert main(["sweep", "--robots", "6", "--capabilities", "2", "--regions", "2",
                     "--seeds", "2", "--alpha-step", "0.5", "--events", "10",
                     "--out", str(tmp_path / "sweep")]) == 0
        # ladder's fleets stand behind a wall, so their graphs test line of sight
        assert main(["simulate", "--robots", "6", "--capabilities", "2", "--regions", "2",
                     "--seeds", "1", "--events", "10", "--wall", "0.5", "0", "0.5", "1",
                     "--out", str(tmp_path / "walled")]) == 0
    metrics = tracer.layer_metrics()
    for layer in ("solver.solve", "partition.partition", "simulation.run_trial",
                  "simulation.greedy_assign", "system.line_of_sight"):
        assert metrics[layer + ".calls"] >= 1, layer
    # one partition call per fused Z, whatever its team counts: simulate's 3
    # seeds x (Full, Baseline), sweep's 2 seeds x 6 weightings, and the
    # walled fleet's (Full, Baseline)
    assert metrics["partition.partition.calls"] == 20
    # each fused Z is cut once up to its largest r: simulate's 3 seeds x
    # (Full, Baseline) x 2 cuts, sweep's 2 seeds x 6 weightings x 1 cut, and
    # the walled fleet's (Full, Baseline) x 1 cut
    assert metrics["partition.fiedler_cut.calls"] == 26
    # one greedy merge pass per scored fleet, whatever its team counts: the 3
    # simulate fleets and the walled one (a sweep scores Full only)
    assert metrics["simulation.greedy_assign.calls"] == 4
    # one detection and one duplication score per (r, method) of each scored
    # fleet: simulate's 3 seeds x 2 team counts x 3 methods, sweep's 2 seeds x
    # 6 weightings x Full, and the walled fleet's 3 methods; the benchmark
    # requires both layers, so scoring batched across r must fail here
    for layer in ("simulation.detection_rate", "simulation.duplication_rate"):
        assert sum(span.name == layer for span in tracer.spans) == 18 + 12 + 3, layer
    assert tracer.problems() == []


def parsed_options(*argv):
    """The options of argv after config layering, and the parser that reports their errors."""
    from hetcover import cli

    args = cli.build_parser().parse_args(list(argv))
    return cli._resolve(args, args.parser), args.parser


def first_trial_config(monkeypatch, tmp_path, *flags):
    """The config of the first fleet that `hetcover simulate` places with flags."""
    from hetcover import cli, simulation

    configs = []

    def place_fleet(config):
        configs.append(config)
        raise ValueError("placed")  # fails the seed's trials before any work

    monkeypatch.setattr(simulation, "place_fleet", place_fleet)
    cli.main(["simulate", *flags, "--out", str(tmp_path)])
    return configs[0]


# a value other than the default for every simulate option but --out, as a
# config file holds it
CUSTOM_SIMULATE = {
    "regions": 3, "robots": 7, "capabilities": 3, "seeds": 1, "seed": 2, "events": 9,
    "width": 2, "height": 3, "wall": [[0.5, 0, 0.5, 1]], "comm_radius": 0.3,
    "alpha": [0.2, 0.1, 0.7], "lambda1": 0.2, "lambda2": 0.3,
}


def as_flags(settings):
    """The command line that sets each config-file setting by its flag."""
    argv = []
    for name, value in settings.items():
        for item in value if name == "wall" else [value]:  # one --wall per segment
            argv += ["--" + name.replace("_", "-")]
            argv += [str(v) for v in item] if isinstance(item, list) else [str(item)]
    return argv


# the CLI's settings have no defaults of their own: with no option set it
# builds the library's default config, and each field has an option that sets it
def test_cli_solver_config_defaults_to_the_library_default():
    from hetcover.cli import _build
    from hetcover.simulation import SimConfig
    from hetcover.solver import SolverConfig
    from hetcover.system import Environment

    assert _build(SolverConfig, *parsed_options("solve", "--system", "system.json"),
                  "solver settings") == SolverConfig()
    # simulate builds its SimConfig as _batch does, from the environment and
    # solver its options build
    args, parser = parsed_options("simulate", "--robots", "6", "--capabilities", "2",
                                  "--regions", "2", "--seeds", "1")
    environment = _build(Environment, args, parser, "environment")
    solver = _build(SolverConfig, args, parser, "solver settings")
    assert (environment, solver) == (Environment(), SolverConfig())
    assert (_build(SimConfig, args, parser, "trial configuration", environment=environment,
                   solver=solver)
            == SimConfig(n_robots=6, n_capabilities=2, seed=0))


def test_every_config_field_is_set_by_a_cli_option(monkeypatch, tmp_path):
    from dataclasses import fields

    from hetcover.simulation import SimConfig
    from hetcover.solver import SolverConfig

    plain = first_trial_config(monkeypatch, tmp_path, "--robots", "6", "--capabilities", "2",
                               "--regions", "2", "--seeds", "1")
    custom = first_trial_config(monkeypatch, tmp_path, *as_flags(CUSTOM_SIMULATE))
    unset = [f.name for f in fields(SimConfig)
             if getattr(plain, f.name) == getattr(custom, f.name)]
    unset += [f.name for f in fields(SolverConfig)
              if getattr(plain.solver, f.name) == getattr(custom.solver, f.name)]
    assert unset == []


def test_every_option_sets_the_same_config_from_the_config_file(monkeypatch, tmp_path):
    from hetcover.cli import COMMANDS

    _, _, options = COMMANDS["simulate"]
    assert set(CUSTOM_SIMULATE) == {option.name for option in options}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CUSTOM_SIMULATE))
    assert (first_trial_config(monkeypatch, tmp_path, "--config", str(config))
            == first_trial_config(monkeypatch, tmp_path, *as_flags(CUSTOM_SIMULATE)))


def test_every_option_has_a_kind_and_sets_a_field_of_one_library_type():
    from dataclasses import fields

    from hetcover.cli import COMMANDS, OUT
    from hetcover.simulation import SimConfig
    from hetcover.solver import SolverConfig
    from hetcover.system import Environment

    owners = {}  # field name: the library types that have it
    for cls in (SimConfig, Environment, SolverConfig):
        for f in fields(cls):
            owners.setdefault(f.name, []).append(cls.__name__)
    for command, (_, _, options) in COMMANDS.items():
        options += (OUT,)
        assert [option.name for option in options if not callable(option.kind)] == [], command
        declared = [option.field for option in options if option.field is not None]
        assert len(declared) == len(set(declared)), command
        assert [name for name in declared if len(owners.get(name, ())) != 1] == [], command


def readme_command_lines():
    """The `hetcover ...` lines of README §Command line, each split into its words."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line) for block in re.findall(r"```\n(.*?)```", section, re.S)
            for line in block.splitlines() if line.startswith("hetcover ")]


def test_readme_command_lines_parse():
    # each example parses and resolves, so a renamed flag or a bad value in
    # the README fails here; none of them runs
    lines = readme_command_lines()
    assert len({argv[1] for argv in lines}) == 5  # one per subcommand at least
    for argv in lines:
        args, _ = parsed_options(*argv[1:])
        assert args.command == argv[1]
