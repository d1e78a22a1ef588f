"""The package needs numpy and click at run time and nothing else outside the
standard library; the tests add pytest, hypothesis and their own modules.

Every import statement in ``src/`` and ``tests/`` is checked, including
imports inside functions, so that an undeclared dependency (scipy is a common
one to have installed) cannot creep in unnoticed.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_cli_import_loads_no_process_or_executor_machinery():
    # replicas run in children forked with os.fork; these modules would add
    # start-up time to every command
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    probe = "import sys, histwalk.cli; print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
