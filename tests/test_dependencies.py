"""The package imports only the standard library, its declared runtime
dependencies and itself: test-only packages (scipy, hypothesis, pytest)
stay out of `src/`."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tokentune"


def declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().replace("-", "_")
            for spec in project["dependencies"]}


def imported_packages(path: Path) -> set[str]:
    """The top-level name of every absolute import in the module,
    function-level ones included; a relative import is the package's."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_every_module_imports_only_stdlib_declared_dependencies_or_itself():
    allowed = set(sys.stdlib_module_names) | declared_dependencies() \
        | {PACKAGE.name}
    assert "numpy" in allowed
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    stray = {path.name: sorted(imported_packages(path) - allowed)
             for path in modules}
    assert not {name: found for name, found in stray.items() if found}


def test_the_guard_sees_a_function_level_test_only_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import os\nfrom . import engine\n\n\n"
                      "def f():\n    from scipy import special\n")
    assert imported_packages(module) == {"os", "scipy"}
