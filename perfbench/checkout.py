"""Locate the checkout under test and import kn3genus from its `src/`.

The package is not installed, so the benchmark puts the checkout's `src/`
first on `sys.path` and refuses to run when `kn3genus` resolves anywhere
else: a number measured on another copy of the code would be meaningless.
"""

import hashlib
import importlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


class CheckoutError(RuntimeError):
    """The checkout does not hold the package, or another copy was imported."""


def load_kn3genus():
    """Import kn3genus from this checkout's `src/`, or raise CheckoutError."""
    if not (SRC / "kn3genus" / "__init__.py").is_file():
        raise CheckoutError(f"no src/kn3genus package under {ROOT}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module("kn3genus")
    where = Path(module.__file__).resolve()
    if not where.is_relative_to(ROOT):
        raise CheckoutError(f"kn3genus imported from {where}, outside {ROOT}")
    return module


def child_env() -> dict[str, str]:
    """Environment for CLI subprocesses: only the checkout's `src/` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    """sha256 over the package sources, which identifies the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted((SRC / "kn3genus").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(module) -> dict:
    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "kn3genus_file": str(Path(module.__file__).resolve()),
    }
