"""Spans and counts recorded around calls into the package's layers.

A span has a name, start, end, parent span and job id.  Spans are kept in
memory and written out when the run ends.  A probe is a call the benchmark
adds to attribute time (it is not part of the mirrored command sequence),
so probes are left out of the traced job time.  With tracing disabled the
same code runs with nothing recorded and no probe called.
"""

import json
from contextlib import contextmanager, nullcontext
from statistics import median
from time import perf_counter

JOB = "job"


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: list[tuple[int | None, str, float]] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str, probe: bool = False):
        return self._span(name, probe) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str, probe: bool):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                               "parent": parent, "job": self.job, "probe": probe})

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def probe(self, name: str, fn, *args):
        with self.span(name, probe=True):
            return fn(*args)

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.append((self.job, name, value))

    @contextmanager
    def job_span(self, job: int):
        self.job = job
        try:
            with self.span(JOB):
                yield
        finally:
            self.job = None

    # -- aggregation -------------------------------------------------------

    def _per_job(self, items) -> list[float]:
        totals: dict[int, float] = {}
        for job, value in items:
            totals[job] = totals.get(job, 0.0) + value
        return list(totals.values())

    def layer_seconds(self, name: str) -> float:
        """Seconds per job spent in spans named `name`, median over the jobs
        that made such a call; 0.0 when no job did."""
        per_job = self._per_job(
            (s["job"], s["end"] - s["start"]) for s in self.spans if s["name"] == name
        )
        return median(per_job) if per_job else 0.0

    def count_per_job(self, name: str) -> float:
        per_job = self._per_job((job, v) for job, n, v in self.counts if n == name)
        return median(per_job) if per_job else 0.0

    def job_seconds(self) -> list[float]:
        """Per job: the time in the mirrored calls directly under the job
        span, probes left out."""
        roots = {s["id"] for s in self.spans if s["name"] == JOB}
        return self._per_job(
            (s["job"], s["end"] - s["start"])
            for s in self.spans
            if s["parent"] in roots and not s["probe"]
        )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(s) + "\n")
