"""Rules on the package source itself."""

import ast
import re
from pathlib import Path

import pytest

import degstab


def _offending_lines(is_offence) -> list[str]:
    root = Path(degstab.__file__).parent
    return [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if is_offence(node)
    ]


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a checked result must raise a
    # DegstabError (InvariantViolationError for a broken guarantee) instead
    assert _offending_lines(lambda node: isinstance(node, ast.Assert)) == []


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_raise_assertion_error_in_the_package():
    # a broken guarantee, even on an unreachable branch, is a DegstabError
    assert _offending_lines(_raises_assertion_error) == []


def test_declared_numpy_floor_has_bitwise_count():
    # bits.popcount_table and subspaces.codim_rank call np.bitwise_count,
    # which numpy added in 2.0
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).resolve().parent.parent / "pyproject.toml").open("rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    floors = [re.fullmatch(r"numpy\s*>=\s*(\d+)\.(\d+)\S*", d) for d in deps if d.startswith("numpy")]
    assert len(floors) == 1 and floors[0], deps
    assert (int(floors[0][1]), int(floors[0][2])) >= (2, 0), deps
