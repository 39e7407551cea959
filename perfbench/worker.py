"""Benchmark worker: runs in a fresh interpreter started by run.py.

    worker.py setup ROOT JOB_JSON
        Time the import of dirspace.cli plus one job (the workload's smallest),
        then measure the machine's speed (speed.py) in the same process.
    worker.py run ROOT WORKLOAD SEED SECONDS
        Warm up, then repeat whole passes of the workload until SECONDS have
        elapsed; one job at a time, each timed over cli.run + serialize in
        wall time and in seconds at reference speed (speed.py).
    worker.py trace ROOT WORKLOAD SEED SECONDS SPANS_FILE
        As run, for SECONDS/2 untraced and SECONDS/2 with tracer.Tracer
        installed; reports per-pass layer totals.

Prints one JSON object on its last stdout line.  ROOT holds src/dirspace.
"""

from __future__ import annotations

import hashlib
import json
import re
import resource
import sys
import time
from pathlib import Path

#: the untraced run holds at least this many passes, so that a report that
#: changes between passes shows
MIN_PASSES = 2


def _setup(root: str, job_text: str) -> dict:
    # nothing but the standard library is loaded before the clock starts
    job = json.loads(job_text)
    sys.path.insert(0, f"{root}/src")
    start = time.perf_counter()
    from dirspace import cli

    cli.serialize(cli.run(job), "json")
    wall = time.perf_counter() - start
    from speed import Speed

    return {"wall_s": wall, "factor": Speed().probe()}


def _digest(data: bytes) -> str:
    """Hash of a JSON report with its wall-time field removed."""
    return hashlib.sha256(re.sub(rb'"wall_time_s": [^,\n}]*', b"", data)).hexdigest()


class Loop:
    """Closed loop over whole passes; keeps the first pass's reports."""

    def __init__(self, cli, pass_jobs):
        from speed import Speed

        self.cli = cli
        self.jobs = pass_jobs
        self.tracer = None
        self.speed = Speed()
        self.pass_no = 0
        self.reports = {}  # job index -> report.json text, first pass only
        self.errors = {}  # job index -> error text
        self.digests = {}
        self.changed = set()  # jobs whose report differed between passes

    def run_job(self, i: int) -> tuple[float, float]:
        """(start, end) on the perf_counter clock of job i, over cli.run + serialize."""
        self.speed.tick()
        if self.tracer is not None:
            self.tracer.job = f"{self.pass_no}:{i}"
        start = time.perf_counter()
        try:
            data = self.cli.serialize(self.cli.run(self.jobs[i]), "json")["report.json"]
        except Exception as exc:  # a failing job is counted, the loop goes on
            self.errors.setdefault(i, f"{type(exc).__name__}: {exc}")
            return start, time.perf_counter()
        end = time.perf_counter()
        if i not in self.reports:
            self.reports[i] = data.decode()
            self.digests[i] = _digest(data)
        elif _digest(data) != self.digests[i]:
            self.changed.add(i)
        return start, end

    def passes(self, seconds: float, min_passes: int = 1) -> tuple[list, list]:
        """Whole passes until `seconds` have elapsed and at least `min_passes`
        ran: per pass, the wall time of each job and its time at reference
        speed (speed.py)."""
        spans = []
        start = time.perf_counter()
        while len(spans) < min_passes or time.perf_counter() - start < seconds:
            self.pass_no = len(spans)
            spans.append([self.run_job(i) for i in range(len(self.jobs))])
        self.speed.tick()
        wall = [[b - a for a, b in p] for p in spans]
        scaled = [[(b - a) * self.speed.factor(a, b) for a, b in p] for p in spans]
        return wall, scaled


def _run(root: str, workload: str, seed: int, seconds: float, spans_file: str | None) -> dict:
    sys.path.insert(0, f"{root}/src")
    import jobs
    from dirspace import cli

    wl = jobs.generate(workload, seed)
    for job in wl.warmup:
        cli.serialize(cli.run(job), "json")
    loop = Loop(cli, wl.jobs)
    out = {}
    if spans_file is None:
        wall, scaled = loop.passes(seconds, MIN_PASSES)
    else:
        from tracer import Tracer

        _, out["plain_scaled"] = loop.passes(seconds / 2)
        loop.tracer = Tracer()
        loop.tracer.install()
        wall, scaled = loop.passes(seconds / 2)
        loop.tracer.uninstall()
        loop.tracer.write(Path(spans_file))
        out.update(
            layers=loop.tracer.stats,
            missing=loop.tracer.missing,
            self_s_sum=sum(st["self_s"] for st in loop.tracer.stats.values()),
        )
    out.update(
        wall=wall,
        scaled=scaled,
        kernel_s=loop.speed.costs,
        reports=loop.reports,
        digests=loop.digests,
        errors=loop.errors,
        changed=sorted(loop.changed),
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    return out


def main(argv: list) -> int:
    mode, root = argv[:2]
    if mode == "setup":
        out = _setup(root, argv[2])
    elif mode == "run":
        out = _run(root, argv[2], int(argv[3]), float(argv[4]), None)
    elif mode == "trace":
        out = _run(root, argv[2], int(argv[3]), float(argv[4]), argv[5])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
