"""The package needs nothing beyond the standard library."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def imported_modules(path):
    """The top-level name of every module ``path`` imports, at any depth
    (inside functions too); a relative import names the package."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "conewalks" if node.level else node.module.split(".")[0]


def test_the_package_imports_only_the_standard_library():
    """Every import of every module names the package or a standard
    library module, and ``pyproject.toml`` declares no runtime
    dependency (checked where ``tomllib`` exists, Python 3.11 on)."""
    outside = sorted(
        (path.name, name)
        for path in (ROOT / "src" / "conewalks").glob("*.py")
        for name in imported_modules(path)
        if name != "conewalks" and name not in sys.stdlib_module_names)
    assert outside == []
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []
