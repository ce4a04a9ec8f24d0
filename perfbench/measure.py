"""Untraced and traced measurement of one workload.

Imported only after `checkout.load_kn3genus()` has put the checkout's
`src/` on the path.
"""

import json
from statistics import median
from time import perf_counter

import checkout
from checks import Tally, run_cli
from spans import Tracer
from traced import (ALLOC_METRICS, command_medians, memory_families, memory_pass,
                    mirror_census, mirror_cli_large)
from workloads import (RoundtripWorker, census_job, census_plan, check_census_files,
                       cli_large_job, cli_large_plan, roundtrip_cases, roundtrip_job)

CLI_SETUP_REPEATS = 9
WORKER_SETUP_REPEATS = 3
STARTUP_REPEATS = 3


def timed_loop(run_job, seconds: float) -> list[tuple]:
    """Closed loop with one client.  `run_job(k)` returns (wall seconds, ...).
    The next job starts while the measured time so far plus one median job
    fits in `seconds`; there is always at least one job."""
    jobs: list[tuple] = []
    while not jobs or sum(j[0] for j in jobs) + median(j[0] for j in jobs) <= seconds:
        jobs.append(run_job(len(jobs)))
    return jobs


def warm_up(workdir, env) -> float:
    """Set-up of a CLI workload: `formula --n 4`, which starts the interpreter,
    imports the package and does no work.  Returns its wall seconds."""
    code, out, err, wall, _ = run_cli(["formula", "--n", "4"], workdir, env)
    if code != 0 or json.loads(out).get("euler_genus_lower_bound") != 0:
        raise RuntimeError(f"formula --n 4 failed with exit {code}: {err.strip()[-300:]}")
    return wall


CLI_WORKLOADS = {"cli_large": (cli_large_plan, cli_large_job),
                 "census": (census_plan, census_job)}


def _cli_jobs(workload: str, seed: int, workdir, env):
    """Plan and untraced job function of a CLI workload."""
    plan_of, job = CLI_WORKLOADS[workload]

    def run_job(k: int):
        plan = plan_of(seed, k)
        start = perf_counter()
        ops = job(plan, workdir, env)
        wall = perf_counter() - start
        if workload == "census":
            check_census_files(plan, workdir, ops)
        return wall, ops, max(op.rss_kib for op in ops)

    return plan_of, run_job


def _untraced_jobs(workload: str, seed: int, seconds: int, workdir):
    """Untraced run: set-up times, then (wall, ops, peak KiB) per timed job."""
    if workload == "roundtrip":
        setups = []
        for attempt in range(WORKER_SETUP_REPEATS):
            start = perf_counter()
            worker = RoundtripWorker(seed)
            setups.append(perf_counter() - start)
            if attempt < WORKER_SETUP_REPEATS - 1:
                worker.close()
        with worker:
            return setups, timed_loop(lambda k: worker.job(), seconds)
    env = checkout.child_env()
    setups = [warm_up(workdir, env) for _ in range(CLI_SETUP_REPEATS)]
    _, run_job = _cli_jobs(workload, seed, workdir, env)
    return setups, timed_loop(run_job, seconds)


def end_to_end(workload: str, seed: int, seconds: int, workdir):
    setups, jobs = _untraced_jobs(workload, seed, seconds, workdir)
    walls = [wall for wall, _, _ in jobs]
    tally = Tally([op for _, ops, _ in jobs for op in ops])
    values = {
        "setup_s": median(setups),
        "job_p50_s": median(walls),
        "levi_edges_per_s": tally.edges / sum(walls),
        "peak_rss_mib": max(peak for _, _, peak in jobs) / 1024,
    }
    notes = [
        f"jobs={len(jobs)} job_walls_s={[round(w, 3) for w in walls]} "
        f"setups_s={[round(t, 3) for t in setups]}",
        f"fail_ratio {tally.failed / tally.attempted:.4f} "
        f"({tally.failed} of {tally.attempted} operations)",
    ]
    return values, tally, notes


def per_layer(workload: str, seed: int, seconds: int, workdir, names, spans_path):
    """Traced run: one half of `seconds` for untraced jobs, the other for
    traced ones; then the probes that run outside every job.  A metric of
    `names` not computed here is a span name plus `_s` (seconds per job in
    that function) or a count recorded per job."""
    env = checkout.child_env()
    startup = median(warm_up(workdir, env) for _ in range(STARTUP_REPEATS))
    replay_ok = []
    if workload == "roundtrip":
        cases = roundtrip_cases(seed)
        families = [cases[0].family]
        n_commands = 0

        def untraced(k):
            start = perf_counter()
            ops = roundtrip_job(cases, Tracer(enabled=False))
            return perf_counter() - start, ops

        def traced(tracer, k):
            return roundtrip_job(cases, tracer)
    else:
        plan_of, run_job = _cli_jobs(workload, seed, workdir, env)

        def untraced(k):
            return run_job(k)[:2]

        if workload == "cli_large":
            families = memory_families(plan_of(seed, 0))
            n_commands = 12

            def traced(tracer, k):
                return mirror_cli_large(plan_of(seed, k), tracer)
        else:
            families = []
            n_commands = 2

            def traced(tracer, k):
                ops, matches = mirror_census(plan_of(seed, k), tracer, replay=k == 0)
                if k == 0:
                    replay_ok.append(matches)
                return ops

    plain = timed_loop(untraced, seconds / 2)
    tracer = Tracer(enabled=True)

    def traced_job(k):
        start = perf_counter()
        with tracer.job_span(k):
            ops = traced(tracer, k)
        return perf_counter() - start, ops

    traced_jobs = timed_loop(traced_job, seconds / 2)
    tracer.write(spans_path)

    untraced_s = median(wall for wall, _ in plain)
    traced_s = median(tracer.job_seconds())
    commands = command_medians([op for _, ops in plain for op in ops])
    values = {
        "cli.startup_s": startup,
        "cli.unattributed_s": untraced_s - n_commands * startup - traced_s if n_commands else 0.0,
        "trace.overhead_ratio": traced_s / untraced_s,
        "census.replay_matches": float(bool(replay_ok) and all(replay_ok)),
    }
    for kind in ("build", "verify", "genus", "enumerate"):
        values[f"cli.{kind}_s"] = commands.get(kind, 0.0)
    attempts = tracer.count_per_job("census.attempts")
    values["census.yield"] = tracer.count_per_job("census.found") / attempts if attempts else 0.0
    values.update(memory_pass(families) if families else dict.fromkeys(ALLOC_METRICS, 0.0))
    for name in names:
        if name not in values:
            values[name] = (tracer.layer_seconds(name[:-2]) if name.endswith("_s")
                            else tracer.count_per_job(name))

    tally = Tally([op for _, ops in plain + traced_jobs for op in ops])
    notes = [f"untraced jobs={len(plain)} traced jobs={len(traced_jobs)} spans={len(tracer.spans)}",
             f"fail_ratio {tally.failed / tally.attempted:.4f} "
             f"({tally.failed} of {tally.attempted} operations)"]
    if replay_ok and not all(replay_ok):
        notes.append("census replay did not match enumerate_variants: census.* counts are flagged")
    return values, tally, notes
