"""Roundtrip worker: builds the cases, then runs one job per request.

Started by `workloads.RoundtripWorker` as `python3 perfbench/worker.py SEED`.
It answers "ready" once the cases are built, then each "job" request with
(wall seconds, operations, own peak RSS in KiB), until "stop" or end of input.
"""

import pickle
import resource
import sys
from time import perf_counter

import checkout


def main() -> None:
    checkout.load_kn3genus()
    from spans import Tracer
    from workloads import roundtrip_cases, roundtrip_job

    cases = roundtrip_cases(int(sys.argv[1]))
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    tracer = Tracer(enabled=False)

    def reply(message) -> None:
        pickle.dump(message, replies)
        replies.flush()

    reply("ready")
    while True:
        try:
            request = pickle.load(requests)
        except EOFError:
            break
        if request != "job":
            break
        start = perf_counter()
        ops = roundtrip_job(cases, tracer)
        wall = perf_counter() - start
        reply((wall, ops, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))


if __name__ == "__main__":
    main()
