"""Operations, their checks against closed-form values, and the tally.

An operation is one CLI command or one library call.  It fails on a
non-zero exit, on an exception, or on output that disagrees with the
closed form: Euler genus (n-2)(m*n(n-1)-12)/12, face count 3*m*C(n,3)/2
with every face of length 4, and the requested orientability.

Import it after `checkout.load_kn3genus()`.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

from kn3genus import Kn3Error, canonicalize, parse_census


def levi_edges(n: int, m: int) -> int:
    return 3 * m * comb(n, 3)


@dataclass(frozen=True)
class Expect:
    """What a family of order n, multiplicity m must look like."""

    n: int
    m: int
    orientable: bool
    euler_genus: int
    faces: int

    @classmethod
    def of(cls, n: int, m: int, orientable: bool) -> "Expect":
        numerator = (n - 2) * (m * n * (n - 1) - 12)
        if numerator % 12:
            raise ValueError(f"closed form is not integral at n={n}, m={m}")
        return cls(n, m, orientable, numerator // 12, levi_edges(n, m) // 2)


@dataclass
class Op:
    kind: str
    wall_s: float
    edges: int
    problems: list[str] = field(default_factory=list)
    rss_kib: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Tally:
    """Operations of the timed jobs; edges count only for correct operations."""

    ops: list[Op] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)

    @property
    def edges(self) -> int:
        return sum(op.edges for op in self.ops if op.ok)

    def problems(self) -> list[str]:
        return [f"{op.kind}: {p}" for op in self.ops for p in op.problems]


def _surface(payload: dict, exp: Expect) -> list[str]:
    out = []
    if payload.get("euler_genus") != exp.euler_genus:
        out.append(f"euler genus {payload.get('euler_genus')} != {exp.euler_genus}")
    if payload.get("orientable") is not exp.orientable:
        out.append(f"orientable {payload.get('orientable')} != {exp.orientable}")
    return out


def check_build(payload: dict, exp: Expect) -> list[str]:
    out = _surface(payload, exp)
    if payload.get("face_count") != exp.faces:
        out.append(f"face count {payload.get('face_count')} != {exp.faces}")
    return out


def check_verify(payload: dict, exp: Expect) -> list[str]:
    out = _surface(payload, exp)
    if payload.get("quadrilateral") is not True:
        out.append("not every face has length 4")
    if payload.get("pass") is not True:
        out.append("verification did not pass")
    return out


def check_genus(payload: dict, exp: Expect) -> list[str]:
    out = _surface(payload, exp)
    if payload.get("face_lengths") != {"4": exp.faces}:
        out.append(f"face lengths {payload.get('face_lengths')} != {{'4': {exp.faces}}}")
    return out


def check_enumerate(payload: dict, count: int) -> list[str]:
    out = []
    if payload.get("found") != count:
        out.append(f"found {payload.get('found')} != {count}")
    if payload.get("budget_exhausted") is not False:
        out.append("sampling budget exhausted")
    return out


def check_census_text(text: str, count: int) -> list[str]:
    """The census parses into `count` pairwise-inequivalent families."""
    try:
        families = parse_census(text)
    except (Kn3Error, ValueError, KeyError) as exc:
        return [f"census does not parse: {type(exc).__name__}: {exc}"]
    keys = {canonicalize(s) for s in families}
    if len(families) != count or len(keys) != count:
        return [f"census holds {len(families)} families, {len(keys)} distinct, expected {count}"]
    return []


def run_cli(argv: list[str], cwd: Path, env: dict) -> tuple[int, str, str, float, int]:
    """Run `python -m kn3genus <argv> --json`; return exit code, stdout, stderr,
    wall seconds and the child's own peak resident set in KiB."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "kn3genus", *argv, "--json"],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    with proc:
        out = proc.stdout.read()
        err = proc.stderr.read()
        # wait4 rather than wait: it returns this child's own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, time.perf_counter() - start, usage.ru_maxrss


def cli_op(kind: str, argv: list[str], check, edges: int, cwd: Path, env: dict) -> Op:
    """One CLI command as an operation; `check(payload)` lists what is wrong."""
    code, out, err, wall, rss = run_cli(argv, cwd, env)
    if code != 0:
        return Op(kind, wall, edges, [f"exit {code}: {err.strip()[-300:]}"], rss)
    try:
        payload = json.loads(out)
    except ValueError:
        return Op(kind, wall, edges, [f"stdout is not JSON: {out[:200]!r}"], rss)
    return Op(kind, wall, edges, check(payload), rss)
