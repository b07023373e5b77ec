"""Rules on the package source itself."""

import ast
import importlib
import inspect
import pkgutil
import re
import sys
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


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of the modules a file imports, pytest.importorskip
    calls included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "importorskip" and node.args
              and isinstance(node.args[0], ast.Constant)):
            names.add(node.args[0].value)
    return {name.partition(".")[0] for name in names}


def test_test_extra_declares_every_third_party_test_import():
    # pip install -e .[test] must bring what the tests import, or
    # importorskip silently skips their property tests
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with (root / "pyproject.toml").open("rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req)[0].lower().replace("-", "_")
        for req in [*project["dependencies"], *project["optional-dependencies"]["test"]]
    }
    tests = Path(__file__).resolve().parent
    local = {path.stem for path in tests.glob("*.py")} | {"degstab"}
    imported = set().union(*map(_imported_modules, tests.glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - local
    assert {"hypothesis", "numpy", "pytest"} <= third_party
    assert third_party <= declared, sorted(third_party - declared)


def _signatures():
    """(qualified name, signature) of every function, class and method
    defined in a degstab module."""
    for info in pkgutil.iter_modules(degstab.__path__):
        module = importlib.import_module(f"degstab.{info.name}")
        for name, obj in vars(module).items():
            if not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [
                    (f"{name}.{attr}", getattr(obj, attr))
                    for attr in vars(obj)
                    if inspect.isroutine(getattr(obj, attr))
                ]
            for qualname, member in members:
                try:
                    yield f"{info.name}.{qualname}", inspect.signature(member)
                except (TypeError, ValueError):  # exception classes have none
                    continue


def test_only_the_benchmarked_functions_take_threads():
    # every scan runs in one thread; the two functions that perfbench calls
    # with a positional thread count keep the ignored parameter until the
    # benchmark stops passing it
    takes = {name for name, sig in _signatures() if "threads" in sig.parameters}
    assert takes == {"degreedrop.dd_hyperplane_normal_space", "degreedrop.check_dd_fast_duality"}
