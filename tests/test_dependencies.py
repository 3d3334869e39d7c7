"""NumPy stays the only runtime dependency of the package.

Every import in ``src/iqcradius`` must name the standard library, NumPy
or a module of the package itself; anything else would be a new
dependency, and its import time would count against every run.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "iqcradius"
SOURCES = sorted(PACKAGE.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def imported_roots(path: Path) -> list[str]:
    """The top-level module of each absolute import in ``path``."""
    roots = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.split(".")[0])
    return roots


def test_package_imports_only_stdlib_and_numpy():
    assert SOURCES
    foreign = {f"{path.name}: {root}" for path in SOURCES
               for root in imported_roots(path) if root not in ALLOWED}
    assert not foreign
