"""Rules on the package source itself."""

import ast
from pathlib import Path

import degstab


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a checked result must raise a
    # DegstabError (InvariantViolationError for a broken guarantee) instead
    root = Path(degstab.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
