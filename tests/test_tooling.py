"""Checks on the source tree itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "varpois"


def test_no_assert_statements_in_the_package():
    """Invariants raise named exceptions: python -O strips assert."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == []
