"""Package modules share only public names and raise only domain errors, the
benchmark's imports exist, and each command loads only what it runs.

A module of `kn3genus` that needs another module's underscore name should
get a public entry point instead; this keeps private helpers private to the
module that defines them.  Every import, and every module-level underscore
def, is read in its module, so a helper or an import left behind by a
deletion shows.  No module raises a bare `ValueError` or `KeyError`:
refusals are `Kn3Error`s.  No module imports `array` or `dataclasses`,
whose costs every process would pay, and no command loads `dataclasses`.
The benchmark harness in `perfbench/` imports public names of the package;
one that is renamed or deleted would surface only as failed benchmark
operations, so its imports are checked here.  The package loads its public
names on first use, and the CLI imports per command, so `formula` loads no
module but `levi` and `genus` none but the reader and the trace; the public
names and the modules each command loads are pinned here.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kn3genus
from kn3genus import build_multi, format_scheme, format_set, set_to_scheme

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


def _unread_names(tree: ast.Module) -> list[str]:
    """Imports, and module-level underscore defs, that the module never reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`.
                bound.append((node.lineno, "imports", (alias.asname or alias.name).split(".")[0]))
    for node in tree.body:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not node.name.endswith("__")
        ):
            bound.append((node.lineno, "defines", node.name))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {verb} {name}" for line, verb, name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_and_private_def_is_read(path):
    assert _unread_names(ast.parse(path.read_text())) == []


def test_unread_names_are_detected():
    tree = ast.parse(
        "from operator import add, mul, xor\n"
        "import os.path\n"
        "from . import fileio as io\n"
        "def _helper():\n"
        "    return xor(1, 0)\n"
        "def _unused():\n"
        "    import json\n"
        "    return _helper() + io.x\n"
        "def __getattr__(name):\n"
        "    pass\n"
        "class _Spare:\n"
        "    pass\n"
        "add = 1\n"
    )
    assert _unread_names(tree) == [
        "line 1: imports add",
        "line 1: imports mul",
        "line 2: imports os",
        "line 7: imports json",
        "line 6: defines _unused",
        "line 11: defines _Spare",
    ]


def _imports_of(module: str, tree: ast.Module) -> list[str]:
    """Imports of `module` (not of a package module of that name), at any
    depth of the tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [f"line {node.lineno}: imports {name}" for name in names
                  if name.split(".")[0] == module]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_array(path):
    # `array` costs 128 KiB of RSS in every process that loads it: typed
    # buffers are memoryviews of bytearrays.
    assert _imports_of("array", ast.parse(path.read_text())) == []


def test_array_imports_are_detected():
    tree = ast.parse(
        "import array\n"
        "from array import array as typed\n"
        "import os, array as arr\n"
        "from . import array_helpers\n"
        "import arrays\n"
        "def fill():\n"
        "    import array\n"
    )
    assert _imports_of("array", tree) == [
        "line 1: imports array",
        "line 2: imports array",
        "line 3: imports array",
        "line 7: imports array",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # Importing `dataclasses` costs about 8 ms in every process that loads
    # it, and each decorated class about 0.5 ms more: the value classes are
    # written by hand.
    assert _imports_of("dataclasses", ast.parse(path.read_text())) == []


def test_dataclasses_imports_are_detected():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "import dataclasses as dc\n"
        "from .dataclasses import helper\n"
        "class Report:\n"
        "    def copy(self):\n"
        "        import dataclasses\n"
        "        return dataclasses.replace(self)\n"
    )
    assert _imports_of("dataclasses", tree) == [
        "line 1: imports dataclasses",
        "line 2: imports dataclasses",
        "line 6: imports dataclasses",
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


def _run(args: list[str], cwd) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )


# Runs `cli.main` on its arguments, then prints the exit code, the package
# modules loaded and whether hashlib and dataclasses were.
FOOTPRINT = """
import contextlib, io, json, sys
from kn3genus import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
modules = sorted(name for name in sys.modules if name.split(".")[0] == "kn3genus")
loaded = {name: name in sys.modules for name in ("hashlib", "dataclasses")}
print(json.dumps([code, modules, loaded]))
"""


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    where = tmp_path_factory.mktemp("footprint")
    s = build_multi(6, 1, seed=1)
    (where / "tiny.kn3set").write_text(format_set(s))
    (where / "tiny.kn3scheme").write_text(format_scheme(set_to_scheme(s)))
    return where


def _footprint(argv: list[str], cwd, hashlib: bool = False) -> set[str]:
    """The package modules a command loads; it must succeed, load no
    dataclasses, and hashlib only when it writes a census."""
    code, modules, loaded = json.loads(_run(["-c", FOOTPRINT, *argv], cwd).stdout)
    assert code == 0 and loaded == {"hashlib": hashlib, "dataclasses": False}
    return set(modules)


def test_formula_loads_only_levi(tiny_files):
    assert _footprint(["formula", "--n", "4"], tiny_files) == {
        "kn3genus", "kn3genus.cli", "kn3genus.exceptions", "kn3genus.levi",
    }


@pytest.mark.parametrize(
    "argv",
    [["genus", "tiny.kn3scheme"], ["verify", "tiny.kn3set", "--strict-strong"]],
    ids=lambda argv: argv[0],
)
def test_reading_commands_load_no_builder_or_census(tiny_files, argv):
    loaded = _footprint(argv, tiny_files)
    assert "kn3genus.fileio" in loaded
    assert loaded.isdisjoint({"kn3genus.builder", "kn3genus.census"})


def test_genus_loads_only_the_reader_and_the_trace(tiny_files):
    assert _footprint(["genus", "tiny.kn3scheme"], tiny_files) == {
        "kn3genus", "kn3genus.cli", "kn3genus.exceptions", "kn3genus.fileio",
        "kn3genus.levi", "kn3genus.scheme",
    }


def test_enumerate_loads_hashlib_for_its_digests(tiny_files):
    loaded = _footprint(["enumerate", "--n", "6", "--count", "2"], tiny_files, hashlib=True)
    assert {"kn3genus.census", "kn3genus.builder"} <= loaded


def test_build_loads_no_census(tiny_files):
    loaded = _footprint(["build", "--n", "6", "--out", "built.kn3set"], tiny_files)
    assert "kn3genus.builder" in loaded and "kn3genus.census" not in loaded
    assert (tiny_files / "built.kn3set").exists()


PUBLIC = [
    "InsertionTrail", "TransitionChoice", "base_set", "build_apex_circuits", "build_even",
    "build_insertion", "build_multi", "build_sigma", "fixture_set",
    "CanonicalSet", "EnumerationResult", "canonical_rewrite", "canonicalize",
    "count_lower_bound", "count_upper_bound", "double_factorial", "enumerate_variants",
    "exhaustive_classes_order4", "sets_isomorphic",
    "Circuit", "EmbeddingSet", "Transition", "ValidationReport", "is_compatible",
    "is_embedding_set", "is_strongly_compatible", "relabel", "transitions_through",
    "validate_eulerian",
    "CopyResolutionError", "Disconnected", "FormatError", "GraphMismatch", "InvalidParameter",
    "Kn3Error", "MismatchedAmbient", "NoCommonTransition", "NotAnEmbeddingSet",
    "NotQuadrilateral", "OddOrder", "UnsupportedCase", "VertexAbsent",
    "format_census", "format_scheme", "format_set", "parse_census", "parse_scheme", "parse_set",
    "HypergraphSpec", "LeviGraph", "build_levi", "euler_genus_lower_bound", "genus_formula",
    "EmbeddingScheme", "FaceReport", "is_orientable", "scheme_to_set", "schemes_equivalent",
    "set_to_scheme", "trace_faces",
]


def test_public_names_are_pinned_and_resolve():
    assert kn3genus.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(kn3genus))
    star: dict = {}
    exec("from kn3genus import *", star)
    for name in PUBLIC:
        one: dict = {}
        exec(f"from kn3genus import {name}", one)
        assert one[name] is getattr(kn3genus, name) is star[name]
        assert getattr(kn3genus, name).__module__.startswith("kn3genus.")
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        kn3genus.no_such_name


def test_distribution_is_named_after_the_package():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as file:
        project = tomllib.load(file)["project"]
    assert project["name"] == "kn3genus"
    assert project["version"] == kn3genus.__version__


def test_package_runs_as_a_module(tmp_path):
    assert "usage: kn3genus" in _run(["-m", "kn3genus", "--help"], tmp_path).stdout
