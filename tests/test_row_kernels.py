"""Orbit-length quadratic forms stay on the two-operand row kernel.

A three-operand ``einsum`` such as ``"ki,ij,kj->k"`` is several times
slower than ``model._row_forms`` (a matrix product, then a two-operand
row einsum) on the 10^4-row orbits that ``verify`` re-checks.  Every
``einsum`` call in ``src/iqcradius`` must therefore take at most two
operands, and its subscripts must be a string literal so that this can
be read off the source.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "iqcradius"
SOURCES = sorted(PACKAGE.glob("*.py"))


def einsum_calls(path: Path) -> list[tuple[int, str | None, int]]:
    """Line, literal subscripts (or None) and operand count of each call."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "attr", None) or getattr(func, "id", None)
        if name != "einsum" or not node.args:
            continue
        first = node.args[0]
        literal = first.value if isinstance(first, ast.Constant) \
            and isinstance(first.value, str) else None
        calls.append((node.lineno, literal, len(node.args) - 1))
    return calls


def test_every_einsum_takes_at_most_two_operands():
    assert SOURCES
    calls = {f"{path.name}:{line}": (literal, operands)
             for path in SOURCES for line, literal, operands in einsum_calls(path)}
    assert calls
    slow = {where: literal for where, (literal, operands) in calls.items()
            if literal is None or operands > 2
            or len(literal.split("->")[0].split(",")) > 2}
    assert not slow
