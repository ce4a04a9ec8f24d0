"""The traced run: the same jobs in-process, with a span around every call.

Each CLI command is replaced by the public calls its `cmd_*` function in
`kn3genus.cli` makes, in the same order:

- build: build_multi, set_to_scheme, trace_faces, is_embedding_set,
  format_set, format_scheme;
- verify: parse_set, validate_eulerian per circuit, is_embedding_set twice,
  set_to_scheme, trace_faces;
- genus: parse_scheme, trace_faces;
- enumerate: enumerate_variants, canonical_rewrite per family, format_census.

Probes added for attribution: build_levi once per family, is_orientable
once per scheme, and on `census` a replay of the first job's seeded
attempts through public calls, which splits `enumerate_variants` from
outside.  A tracemalloc pass, kept apart from every timed job, measures
the peak allocation per call of the three per-edge conversions.
"""

import tracemalloc
from random import Random
from statistics import median
from time import perf_counter

from kn3genus import (
    build_even,
    build_multi,
    canonical_rewrite,
    canonicalize,
    enumerate_variants,
    format_census,
    format_scheme,
    format_set,
    is_embedding_set,
    parse_scheme,
    parse_set,
    set_to_scheme,
    trace_faces,
    validate_eulerian,
)

from checks import (
    Expect,
    Op,
    check_build,
    check_census_text,
    check_enumerate,
    check_genus,
    check_verify,
    levi_edges,
)
from workloads import CENSUS_COUNT, CENSUS_N, probe_family, probe_scheme

# enumerate_variants' default: it gives up after 50 * count attempts.
REPLAY_BUDGET_FACTOR = 50


def _payload(report) -> dict:
    """The fields of a FaceReport that the CLI prints with --json."""
    return {
        "face_count": report.face_count,
        "face_lengths": {str(k): v for k, v in report.length_histogram().items()},
        "euler_genus": report.euler_genus,
        "orientable": report.orientable,
    }


def _command(tracer, kind: str, edges: int, body, *args) -> Op:
    """One mirrored CLI command as an operation; `body` returns its problems."""
    start = perf_counter()
    try:
        with tracer.span(f"cmd.{kind}"):
            problems = body(tracer, *args)
    except Exception as exc:  # the program failed; record it and go on
        problems = [f"{type(exc).__name__}: {exc}"]
    return Op(kind, perf_counter() - start, edges, problems)


def _mirror_build(tracer, exp: Expect, seed: int, made: dict) -> list[str]:
    call = tracer.call
    s = call("builder.build_multi", build_multi, exp.n, exp.m, exp.orientable, seed=seed)
    sch = call("scheme.set_to_scheme", set_to_scheme, s)
    report = call("scheme.trace_faces", trace_faces, sch)
    valid = call("circuits.is_embedding_set", is_embedding_set, s, require_strong=exp.orientable)
    made["set"] = call("fileio.format_set", format_set, s)
    made["scheme"] = call("fileio.format_scheme", format_scheme, sch)
    made["schemes"] = [sch]
    tracer.count("fileio.bytes_written", len(made["set"].encode()) + len(made["scheme"].encode()))
    if not (report.all_quadrilateral and valid):
        return ["built family failed self-verification"]
    return check_build(_payload(report), exp)


def _mirror_verify(tracer, exp: Expect, made: dict) -> list[str]:
    call = tracer.call
    tracer.count("fileio.bytes_read", len(made["set"].encode()))
    s = call("fileio.parse_set", parse_set, made["set"])
    eulerian = True
    for c in s.circuits:
        if not call("circuits.validate_eulerian", validate_eulerian, c):
            eulerian = False
            break
    compat = call("circuits.is_embedding_set", is_embedding_set, s, require_strong=False) \
        if eulerian else None
    strong = call("circuits.is_embedding_set", is_embedding_set, s, require_strong=True) \
        if compat else None
    if not compat:
        return ["family is not a valid embedding set"]
    sch = call("scheme.set_to_scheme", set_to_scheme, s)
    report = call("scheme.trace_faces", trace_faces, sch)
    made["schemes"].append(sch)
    payload = _payload(report)
    payload["quadrilateral"] = report.all_quadrilateral
    payload["pass"] = report.all_quadrilateral and (bool(strong) or not exp.orientable)
    return check_verify(payload, exp)


def _mirror_genus(tracer, exp: Expect, made: dict) -> list[str]:
    tracer.count("fileio.bytes_read", len(made["scheme"].encode()))
    sch = tracer.call("fileio.parse_scheme", parse_scheme, made["scheme"])
    report = tracer.call("scheme.trace_faces", trace_faces, sch)
    made["schemes"].append(sch)
    return check_genus(_payload(report), exp)


def mirror_cli_large(plan, tracer) -> list[Op]:
    ops = []
    for exp, seed in plan:
        edges = levi_edges(exp.n, exp.m)
        made: dict = {"schemes": []}
        ops.append(_command(tracer, "build", edges, _mirror_build, exp, seed, made))
        ops.append(_command(tracer, "verify", edges, _mirror_verify, exp, made))
        ops.append(_command(tracer, "genus", edges, _mirror_genus, exp, made))
        probe_family(tracer, exp.n, exp.m)
        for sch in made["schemes"]:
            probe_scheme(tracer, sch)
    return ops


def _mirror_enumerate(tracer, orientable: bool, seed: int, made: dict) -> list[str]:
    call = tracer.call
    result = call("census.enumerate_variants", enumerate_variants,
                  CENSUS_N, orientable, CENSUS_COUNT, seed=seed)
    rewritten = [call("census.canonical_rewrite", canonical_rewrite, s) for s in result.families]
    made["text"] = call("fileio.format_census", format_census, rewritten)
    made["families"] = result.families
    tracer.count("fileio.bytes_written", len(made["text"].encode()))
    return check_enumerate(
        {"found": len(result), "budget_exhausted": result.budget_exhausted}, CENSUS_COUNT)


def census_replay(tracer, orientable: bool, seed: int, families) -> bool:
    """Replay enumerate_variants' seeded attempts through public calls.

    Counts attempts, duplicates and rejections, and returns whether the
    replay found the same families, in the same order, as the real call.
    """
    call = tracer.call
    target = Expect.of(CENSUS_N, 1, orientable).euler_genus
    rng = Random(seed)
    found: dict = {}
    attempts = duplicates = rejected = 0
    with tracer.span("census.replay", probe=True):
        while len(found) < CENSUS_COUNT and attempts < REPLAY_BUDGET_FACTOR * CENSUS_COUNT:
            attempts += 1
            s = call("builder.build_even", build_even, CENSUS_N, orientable,
                     seed=rng.randrange(2**63))
            key = call("census.canonicalize", canonicalize, s)
            if key in found:
                duplicates += 1
                continue
            if not call("circuits.is_embedding_set", is_embedding_set, s,
                        require_strong=orientable):
                rejected += 1
                continue
            report = call("scheme.trace_faces", trace_faces,
                          call("scheme.set_to_scheme", set_to_scheme, s))
            if not (report.all_quadrilateral and report.euler_genus == target
                    and report.orientable == orientable):
                rejected += 1
                continue
            found[key] = s
    for name, value in (("census.attempts", attempts), ("census.duplicates", duplicates),
                        ("census.rejected", rejected), ("census.found", len(found))):
        tracer.count(name, value)
    return list(found) == [canonicalize(s) for s in families]


def mirror_census(plan, tracer, replay: bool) -> tuple[list[Op], bool]:
    """The census job mirrored; with `replay`, also the attribution probe.
    Returns the operations and whether every replay matched the real call."""
    ops = []
    matches = True
    edges = CENSUS_COUNT * levi_edges(CENSUS_N, 1)
    for orientable, seed in plan:
        made: dict = {}
        op = _command(tracer, "enumerate", edges, _mirror_enumerate, orientable, seed, made)
        ops.append(op)
        if not op.ok:
            continue
        op.problems.extend(check_census_text(made["text"], CENSUS_COUNT))
        for s in made["families"]:
            probe_family(tracer, s.n, s.m)
        if replay:
            matches &= census_replay(tracer, orientable, seed, made["families"])
    return ops, matches


ALLOC_METRICS = ("scheme.set_to_scheme_alloc_mib", "scheme.trace_faces_alloc_mib",
                 "fileio.parse_scheme_alloc_mib")


def memory_pass(families) -> dict[str, float]:
    """Peak MiB allocated within one call, the largest over `families`."""
    peaks = dict.fromkeys(ALLOC_METRICS, 0.0)

    def measured(name, fn, *args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peaks[name] = max(peaks[name], (tracemalloc.get_traced_memory()[1] - base) / 2**20)
        return result

    tracemalloc.start()
    try:
        for s in families:
            sch = measured(ALLOC_METRICS[0], set_to_scheme, s)
            measured(ALLOC_METRICS[1], trace_faces, sch)
            text = format_scheme(sch)
            measured(ALLOC_METRICS[2], parse_scheme, text)
    finally:
        tracemalloc.stop()
    return peaks


def memory_families(plan) -> list:
    """One family per (n, m) of a cli_large plan: allocation per call depends
    on the size, not on the orientability, and tracemalloc is slow."""
    shapes = {(exp.n, exp.m): seed for exp, seed in plan}
    return [build_multi(n, m, True, seed=seed) for (n, m), seed in shapes.items()]


def command_medians(ops: list[Op]) -> dict[str, float]:
    kinds: dict[str, list[float]] = {}
    for op in ops:
        kinds.setdefault(op.kind, []).append(op.wall_s)
    return {kind: median(walls) for kind, walls in kinds.items()}
