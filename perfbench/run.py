"""Benchmark of kn3genus: three workloads, end-to-end metrics, per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_large --seed 1 --seconds 30 --trace 0

Workloads: cli_large, census, roundtrip (see workloads.py and README.md).
With --trace 0 the run measures the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it makes the traced run and reports the
per-layer metrics.  Each job's operations are checked; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  A result record, and with --trace 1 the spans, are
written under .perfbench_out/ in the checkout.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

import checkout

WORKLOADS = ("cli_large", "census", "roundtrip")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        kn3genus = checkout.load_kn3genus()
    except (checkout.CheckoutError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from measure import end_to_end, per_layer

    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    checkout.OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=checkout.OUT, prefix=f"{stem}-") as tmpdir:
        tmp = Path(tmpdir)
        if args.trace:
            values, tally, notes = per_layer(
                args.workload, args.seed, args.seconds, tmp, list(units),
                checkout.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            values, tally, notes = end_to_end(args.workload, args.seed, args.seconds, tmp)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": checkout.environment(kn3genus),
              "notes": notes, "problems": tally.problems()[:50], "metrics": metrics}
    (checkout.OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(f"kn3genus {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={env['commit']} src_sha256={env['src_sha256'][:12]} "
          f"python={env['python']} nproc={env['nproc']} import={env['kn3genus_file']}")
    for note in notes:
        print(note)
    for problem in tally.problems()[:10]:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
