"""Golden reports: the results and curves of every benchmark job at one seed.

The jobs are the warm-up and pass jobs of the three workloads of
``perfbench/jobs.py`` (loaded by path, since perfbench is not a package) at
seed 101.  ``test_golden.py`` runs each through ``cli.run`` and compares its
``results`` and ``curves`` with ``golden_reports.json``, one job per line.
The ``config`` echo is left out, because jobs.py regenerates it; a digest of
the config stands for it, so a changed job is told apart from a moved value.

Rewrite the file, after a deliberate change of reports, with

    PYTHONPATH=src python tests/golden_reports.py

and name every job that moved in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from dirspace import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_reports.json"
SEED = 101


def perfbench_module(name: str):
    """perfbench/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", HERE.parent / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def benchmark_jobs(seed: int):
    """(name, config) of every warm-up and pass job of the workloads at seed."""
    module = perfbench_module("jobs")
    for workload in module.WORKLOADS:
        wl = module.generate(workload, seed)
        for kind, jobs in (("warmup", wl.warmup), ("job", wl.jobs)):
            for i, job in enumerate(jobs):
                yield f"{workload}-{seed}-{kind}{i}", job


def config_digest(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def report_body(config: dict) -> dict:
    """The config's digest and its report's results and curves, as JSON
    reads them back."""
    report = cli.run(dict(config))
    body = {"config": config_digest(config), "results": report["results"], "curves": report["curves"]}
    return json.loads(json.dumps(body))


def main() -> None:
    lines = [
        f"{json.dumps(name)}: {json.dumps(report_body(job), sort_keys=True, separators=(',', ':'))}"
        for name, job in benchmark_jobs(SEED)
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(lines)} reports to {GOLDEN}")


if __name__ == "__main__":
    main()
