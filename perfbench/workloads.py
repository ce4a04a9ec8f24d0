"""The three workloads: job plans, the untraced jobs, the roundtrip worker.

Every job is one closed-loop client step: its operations run one after
another and the next job starts when the previous one has ended.  Job k of
a run draws its seeds from (workload, run seed, k), so a run seed fixes the
inputs of every job.

- cli_large: build / verify / genus as subprocesses at (n, m) = (40, 1)
  and (20, 3), both orientabilities.
- census: `enumerate --n 8 --count 1000`, both orientabilities.
- roundtrip: scheme and canonical-key calls at n = 40 in one long-lived
  worker process (worker.py), with no files and no interpreter start-up
  inside a job.
"""

import pickle
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from random import Random
from time import perf_counter

from kn3genus import (
    EmbeddingScheme,
    EmbeddingSet,
    HypergraphSpec,
    build_levi,
    build_multi,
    canonical_rewrite,
    canonicalize,
    is_orientable,
    scheme_to_set,
    schemes_equivalent,
    set_to_scheme,
)

import checkout
from checks import (
    Expect,
    Op,
    check_build,
    check_census_text,
    check_enumerate,
    check_genus,
    check_verify,
    cli_op,
    levi_edges,
)
from spans import Tracer

CLI_SHAPES = ((40, 1), (20, 3))
CENSUS_N = 8
CENSUS_COUNT = 1000
ROUNDTRIP_N, ROUNDTRIP_M = 40, 1
SEED_RANGE = 2**31


def job_rng(workload: str, seed: int, job: int) -> Random:
    return Random(f"{workload}:{seed}:{job}")


def cli_large_plan(seed: int, job: int) -> list[tuple[Expect, int]]:
    rng = job_rng("cli_large", seed, job)
    return [
        (Expect.of(n, m, orientable), rng.randrange(SEED_RANGE))
        for n, m in CLI_SHAPES
        for orientable in (True, False)
    ]


def census_plan(seed: int, job: int) -> list[tuple[bool, int]]:
    rng = job_rng("census", seed, job)
    return [(orientable, rng.randrange(SEED_RANGE)) for orientable in (True, False)]


def _orientation(orientable: bool) -> str:
    return "--orientable" if orientable else "--nonorientable"


def cli_large_job(plan, workdir: Path, env: dict) -> list[Op]:
    ops = []
    for exp, seed in plan:
        tag = f"n{exp.n}m{exp.m}{'o' if exp.orientable else 'n'}"
        family, scheme = workdir / f"{tag}.kn3set", workdir / f"{tag}.kn3scheme"
        edges = levi_edges(exp.n, exp.m)
        build = ["build", "--n", str(exp.n), "--multiplicity", str(exp.m),
                 _orientation(exp.orientable), "--seed", str(seed),
                 "--out", str(family), "--scheme-out", str(scheme)]
        verify = ["verify", str(family)] + (["--strict-strong"] if exp.orientable else [])
        ops.append(cli_op("build", build, partial(check_build, exp=exp), edges, workdir, env))
        ops.append(cli_op("verify", verify, partial(check_verify, exp=exp), edges, workdir, env))
        ops.append(cli_op("genus", ["genus", str(scheme)], partial(check_genus, exp=exp),
                          edges, workdir, env))
    return ops


def census_path(workdir: Path, orientable: bool) -> Path:
    return workdir / f"census-{'o' if orientable else 'n'}.kn3census"


def census_job(plan, workdir: Path, env: dict) -> list[Op]:
    edges = CENSUS_COUNT * levi_edges(CENSUS_N, 1)
    check = partial(check_enumerate, count=CENSUS_COUNT)
    return [
        cli_op("enumerate",
               ["enumerate", "--n", str(CENSUS_N), "--count", str(CENSUS_COUNT),
                _orientation(orientable), "--seed", str(seed),
                "--out", str(census_path(workdir, orientable))],
               check, edges, workdir, env)
        for orientable, seed in plan
    ]


def check_census_files(plan, workdir: Path, ops: list[Op]) -> None:
    """Outside the timed region: each written census holds 1000 distinct keys."""
    for (orientable, _), op in zip(plan, ops):
        if op.ok:
            text = census_path(workdir, orientable).read_text()
            op.problems.extend(check_census_text(text, CENSUS_COUNT))


# -- probes: calls added to attribute time, made only when tracing -----------


def probe_family(tracer: Tracer, n: int, m: int) -> None:
    """Once per family: the Levi graph it lives on."""
    if tracer.enabled:
        graph = tracer.probe("levi.build_levi", build_levi, HypergraphSpec(n, m))
        tracer.count("levi.edges", graph.edge_count)


def probe_scheme(tracer: Tracer, sch: EmbeddingScheme) -> None:
    """Once per scheme: the orientability check `trace_faces` runs inside."""
    if tracer.enabled:
        tracer.probe("scheme.is_orientable", is_orientable, sch)


# -- roundtrip ---------------------------------------------------------------


@dataclass
class Case:
    orientable: bool
    family: EmbeddingSet
    other: EmbeddingScheme  # scheme of a family built from another seed


CALLS_PER_CASE = 8
_ANY = object()


class _CaseAborted(Exception):
    pass


def roundtrip_cases(seed: int) -> list[Case]:
    rng = job_rng("roundtrip", seed, 0)
    cases = []
    for orientable in (True, False):
        family = build_multi(ROUNDTRIP_N, ROUNDTRIP_M, orientable, seed=rng.randrange(SEED_RANGE))
        other = build_multi(ROUNDTRIP_N, ROUNDTRIP_M, orientable, seed=rng.randrange(SEED_RANGE))
        cases.append(Case(orientable, family, set_to_scheme(other)))
    return cases


def roundtrip_job(cases: list[Case], tracer: Tracer) -> list[Op]:
    """Per case: scheme round trip, canonical keys, rewrite, two equivalence
    tests.  A call that raises fails, and so does every later call of its case."""
    ops: list[Op] = []
    edges = levi_edges(ROUNDTRIP_N, ROUNDTRIP_M)

    def call(name, fn, *args, expect=_ANY):
        start = perf_counter()
        try:
            result = tracer.call(name, fn, *args)
        except Exception as exc:  # the program failed; record it and go on
            ops.append(Op(name, perf_counter() - start, edges, [f"{type(exc).__name__}: {exc}"]))
            raise _CaseAborted from exc
        wall = perf_counter() - start
        problems = [] if expect is _ANY or result == expect else [
            f"returned {result!r:.60} where {expect!r:.60} was expected"]
        ops.append(Op(name, wall, edges, problems))
        return result

    for case in cases:
        first = len(ops)
        try:
            probe_family(tracer, ROUNDTRIP_N, ROUNDTRIP_M)
            sch = call("scheme.set_to_scheme", set_to_scheme, case.family)
            probe_scheme(tracer, sch)
            back = call("scheme.scheme_to_set", scheme_to_set, sch)
            key = call("census.canonicalize", canonicalize, case.family)
            call("census.canonicalize", canonicalize, back, expect=key)
            rewritten = call("census.canonical_rewrite", canonical_rewrite, back)
            rewritten_scheme = call("scheme.set_to_scheme", set_to_scheme, rewritten)
            probe_scheme(tracer, rewritten_scheme)
            call("scheme.schemes_equivalent", schemes_equivalent, sch, rewritten_scheme,
                 expect=True)
            call("scheme.schemes_equivalent", schemes_equivalent, sch, case.other,
                 expect=False)
        except _CaseAborted:
            skipped = CALLS_PER_CASE - (len(ops) - first)
            ops.extend(Op("skipped", 0.0, edges, ["not run: an earlier call of its case failed"])
                       for _ in range(skipped))
    return ops


class RoundtripWorker:
    """The worker process (worker.py): it builds the roundtrip cases, then
    runs one job per request.  Requests and replies are pickles on its
    stdin and stdout, written only by this harness and that worker."""

    def __init__(self, seed: int):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("worker.py")), str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=checkout.child_env())
        try:
            if self._receive() != "ready":
                raise RuntimeError("roundtrip worker sent an unexpected greeting")
        except BaseException:
            self.close()
            raise

    def _receive(self):
        try:
            return pickle.load(self._proc.stdout)
        except EOFError:
            raise RuntimeError("roundtrip worker exited; see its traceback above") from None

    def job(self) -> tuple[float, list[Op], int]:
        """Wall seconds of one job, its operations, and the worker's peak RSS in KiB."""
        pickle.dump("job", self._proc.stdin)
        self._proc.stdin.flush()
        return self._receive()

    def close(self) -> None:
        try:
            pickle.dump("stop", self._proc.stdin)
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
