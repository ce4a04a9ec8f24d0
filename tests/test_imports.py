"""Package modules share only public names and raise only domain errors, and
the benchmark's imports exist.

A module of `kn3genus` that needs another module's underscore name should
get a public entry point instead; this keeps private helpers private to the
module that defines them.  No module raises a bare `ValueError` or
`KeyError`: refusals are `Kn3Error`s.  The benchmark harness in `perfbench/` imports
public names of the package; one that is renamed or deleted would surface
only as failed benchmark operations, so its imports are checked here.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kn3genus"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private_uses(tree: ast.Module) -> list[str]:
    """Underscore names imported from, or read off, another package module."""
    found = []
    modules = set()  # local names bound to package modules
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("kn3genus"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"line {node.lineno}: imports {alias.name}")
            elif node.module is None or node.module == "kn3genus":
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    assert _private_uses(ast.parse(path.read_text())) == []


def test_private_uses_are_detected():
    tree = ast.parse(
        "from .scheme import _build, trace\n"
        "from . import fileio\n"
        "fileio._helper(1)\n"
        "from kn3genus.circuits import _index\n"
    )
    assert _private_uses(tree) == [
        "line 1: imports _build",
        "line 4: imports _index",
        "line 3: reads fileio._helper",
    ]


def _bare_raises(tree: ast.Module) -> list[str]:
    """`raise ValueError`/`raise KeyError`, called or not: the package
    raises its own `Kn3Error` types instead."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in ("ValueError", "KeyError"):
            found.append(f"line {node.lineno}: raises {exc.id}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_value_or_key_errors(path):
    assert _bare_raises(ast.parse(path.read_text())) == []


def test_bare_raises_are_detected():
    tree = ast.parse(
        "raise ValueError('no')\n"
        "raise KeyError\n"
        "raise InvalidParameter('fine')\n"
        "try:\n"
        "    pass\n"
        "except ValueError:\n"
        "    raise\n"
    )
    assert _bare_raises(tree) == ["line 1: raises ValueError", "line 2: raises KeyError"]


def test_perfbench_imports_only_names_the_package_has():
    imported, missing = 0, []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and (node.module or "").split(".")[0] == "kn3genus"
            ):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported += 1
                if not hasattr(module, alias.name):
                    missing.append(f"{path.name}:{node.lineno}: {node.module}.{alias.name}")
    assert imported and missing == []


def test_hashlib_is_imported_only_where_census_digests_are_made():
    # `build`, `verify`, `genus` and `formula` make no digest, so they should
    # not pay for importing hashlib.
    code = "import sys, kn3genus.cli; print('hashlib' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
