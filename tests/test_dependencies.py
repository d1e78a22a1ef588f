"""The package needs numpy and click at run time and nothing else outside the
standard library; the tests add pytest, hypothesis and their own modules.

Every import statement in ``src/`` and ``tests/`` is checked, including
imports inside functions, so that an undeclared dependency (scipy is a common
one to have installed) cannot creep in unnoticed.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import histwalk.cli
from histwalk import experiments, simulator, theory
from test_report_bytes import LATTICE_LADDER, RADEMACHER_LADDER

ROOT = Path(__file__).resolve().parent.parent
RUNTIME = {"numpy", "click", "histwalk"}
ALLOWED = {
    "src": RUNTIME,
    "tests": RUNTIME | {"pytest", "hypothesis", "conftest", "test_report_bytes"},
}


def imported_packages(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("tree", sorted(ALLOWED))
def test_imports_are_declared_dependencies(tree):
    files = sorted((ROOT / tree).rglob("*.py"))
    assert files
    allowed = ALLOWED[tree] | set(sys.stdlib_module_names)
    stray = {
        str(path.relative_to(ROOT)): sorted(imported_packages(path) - allowed) for path in files
    }
    assert {path: names for path, names in stray.items() if names} == {}


def fresh_run(args: list[str], env: dict | None = None) -> subprocess.CompletedProcess:
    """A new interpreter on ``src`` run with ``args``, its output captured."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True)


def fresh_stdout(probe: str, env: dict | None = None) -> bytes:
    """The stdout of ``probe`` run by a new interpreter on ``src``."""
    res = fresh_run(["-c", probe], env)
    res.check_returncode()
    return res.stdout


def fresh_python(probe: str, env: dict | None = None) -> list[str]:
    """The stdout lines of ``probe`` run by a new interpreter on ``src``."""
    return fresh_stdout(probe, env).decode().splitlines()


def test_cli_import_loads_no_process_or_executor_machinery():
    # replicas run in children forked with os.fork; these modules would add
    # start-up time to every command
    probe = "import sys, histwalk.cli; print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    assert fresh_python(probe) == ["[]"]


def test_theory_commands_load_no_monte_carlo_code(tmp_path):
    # validate, predict and ratefn on a Gaussian, a lattice and a Rademacher
    # ladder load neither the Monte Carlo layer nor numpy; simulate loads both
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps(LATTICE_LADDER))
    rademacher = tmp_path / "rademacher.json"
    rademacher.write_text(json.dumps(RADEMACHER_LADDER))
    runs = []
    for config in (str(ROOT / "configs" / "l1_gaussian.json"), str(lattice), str(rademacher)):
        runs += [["validate", config], ["predict", config], ["ratefn", config, "--dist", "1", "--r-grid", "-1:3:0.5"]]
    simulate = ["simulate", str(lattice), "--steps", "2000", "--replicas", "2", "--output", str(tmp_path / "sim.json")]
    theory = f"""
import contextlib, io, sys, histwalk.cli
for argv in {runs!r}:
    histwalk.cli.main(argv, standalone_mode=False)
"""
    modules = (
        "numpy", "histwalk.sampling", "histwalk.fitting", "histwalk.simulator", "histwalk.experiments", "histwalk.pool",
        "mmap", "select",
    )
    probe = theory + f"""
print(sorted(m for m in {modules!r} if m in sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    histwalk.cli.main({simulate!r}, standalone_mode=False)
print("histwalk.experiments" in sys.modules, "numpy" in sys.modules)
"""
    # with numpy unimportable the same commands write the same bytes
    blocked = fresh_stdout('import sys\nsys.modules["numpy"] = None' + theory)
    assert fresh_stdout(probe) == blocked + b"[]\nTrue True\n"


def test_simulate_loads_no_masked_arrays(tmp_path):
    # np.unique imports numpy.ma on first use, which costs simulate and sweep
    # start-up time and memory
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps(LATTICE_LADDER))
    simulate = ["simulate", str(lattice), "--steps", "2000", "--replicas", "2", "--output", str(tmp_path / "sim.json")]
    probe = f"""
import sys, histwalk.cli
histwalk.cli.main({simulate!r}, standalone_mode=False)
print("numpy.ma" in sys.modules)
"""
    assert fresh_python(probe)[-1] == "False"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc to count threads")
def test_cli_runs_blas_on_one_thread_unless_told_otherwise():
    # the CLI imports no numpy itself; the Monte Carlo layer loads it later
    probe = "import os, histwalk.cli, numpy; print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    assert fresh_python(probe, env) == ["1 1"]
    assert fresh_python(probe, {**env, "OPENBLAS_NUM_THREADS": "2"})[0].split()[1] == "2"


def test_rule_names_are_defined_once_and_deferred_names_keep_their_targets_names():
    assert histwalk.cli.VERSIONS is theory.VERSIONS is simulator.VERSIONS
    assert "VERSIONS" in simulator.__all__
    targets = {
        "estimate_speed": experiments.estimate_speed,
        "sweep_window": experiments.sweep_window,
        "fit_block_exponents": experiments.fit_block_exponents,
        "fit_exit_statistics": experiments.fit_exit_statistics,
        "estimate_persistence_constant": experiments.estimate_persistence_constant,
        "run_walk": simulator.run,
    }
    for name, target in targets.items():
        assert getattr(histwalk.cli, name).__name__ == target.__name__, name


L1_CONFIG = str(ROOT / "configs" / "l1_gaussian.json")
L1_DOC = json.loads(Path(L1_CONFIG).read_text())

# the program's two entries, and click's runner: an in-process caller of
# ``main``, as bench/tracing.py is
ENTRIES = {
    "script": "import histwalk.cli\nsys.argv = ['histwalk', 'predict', CONFIG]\nhistwalk.cli.run()",
    "module": "sys.argv = ['histwalk', 'predict', CONFIG]\nrunpy.run_module('histwalk.cli', run_name='__main__', alter_sys=True)",
    "runner": """
import histwalk.cli
for args in (['predict', CONFIG], ['validate', CONFIG], ['ratefn', CONFIG, '--dist', '1', '--r-grid', '0:1:0.5']):
    assert CliRunner().invoke(histwalk.cli.main, args).exit_code == 0
print("in process", gc.get_freeze_count())
""",
}


@pytest.mark.parametrize("entry, frozen", [("script", True), ("module", True), ("runner", False)])
def test_only_the_program_entries_freeze_the_collector_at_exit(entry, frozen):
    # registered first, the probe runs after every hook the program registers
    probe = f"""
import atexit, gc, runpy, sys
from click.testing import CliRunner
atexit.register(lambda: print("at exit", gc.get_freeze_count() > 0))
CONFIG = {L1_CONFIG!r}
{ENTRIES[entry]}
"""
    lines = fresh_python(probe)
    assert lines[-1] == f"at exit {frozen}"
    if entry == "runner":
        assert lines[0] == "in process 0"


@pytest.mark.parametrize(
    "command, doc, status",
    [
        ("predict", None, 0),
        ("predict", {"bogus": 1}, 2),
        ("validate", {"model": {**L1_DOC["model"], "thresholds": [1.5]}}, 1),
    ],
    ids=["predict", "unknown-key", "unreachable-threshold"],
)
def test_the_module_exits_as_the_in_process_command(tmp_path, command, doc, status):
    config = L1_CONFIG
    if doc is not None:
        config = str(tmp_path / "model.json")
        Path(config).write_text(json.dumps({**L1_DOC, **doc}))
    res = fresh_run(["-m", "histwalk.cli", command, config])
    inproc = CliRunner().invoke(histwalk.cli.main, [command, config])
    assert inproc.exit_code == status
    assert (res.returncode, res.stdout.decode(), res.stderr.decode()) == (status, inproc.stdout, inproc.stderr)
