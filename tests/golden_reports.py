"""Golden reports: the results and curves of every benchmark job at one seed.

The jobs are the warm-up and pass jobs of the three workloads of
``perfbench/jobs.py`` (loaded by path, since perfbench is not a package) at
seed 101.  ``test_golden.py`` runs each through ``cli.run`` and compares its
``results`` and ``curves`` with ``golden_reports.json``, one job per line.
The ``config`` echo is left out, because jobs.py regenerates it; a digest of
the config stands for it, so a changed job is told apart from a moved value.

Rewrite the file, after a deliberate change of reports, with

    PYTHONPATH=src python tests/golden_reports.py

and name every job that moved in CHANGES.md, which

    PYTHONPATH=src python tests/golden_reports.py --diff

lists without writing the file: each job whose results or curves differ
from the golden file, with "meta only" where nothing but curve meta moved.
Under each such job it judges every moved bracket, a widom_profile row or
results.membership: the new bracket lies "inside" the golden one, "overlaps"
it or is "DISJOINT" from it.
"""

from __future__ import annotations

import argparse
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


def _without_meta(curves: list) -> list:
    return [{key: value for key, value in curve.items() if key != "meta"} for curve in curves]


def _moved(golden: dict, new: dict) -> str | None:
    """What of a job's report moved: None, "meta only" or the moved parts."""
    parts = [part for part in ("config", "results", "curves") if golden[part] != new[part]]
    if parts == ["curves"] and _without_meta(golden["curves"]) == _without_meta(new["curves"]):
        return "meta only"
    return ", ".join(parts) or None


def _nesting(golden: tuple, new: tuple) -> str:
    """How a new (lower, upper) bracket lies against the golden one."""
    if golden[0] <= new[0] and new[1] <= golden[1]:
        return "inside"
    return "overlaps" if new[0] <= golden[1] and golden[0] <= new[1] else "DISJOINT"


def _moved_brackets(golden: dict, new: dict) -> list[tuple[str, str]]:
    """(where, nesting) of each widom_profile row and results.membership
    whose bracket moved."""
    pairs = []
    for old_curve, new_curve in zip(golden["curves"], new["curves"]):
        if old_curve["label"] == new_curve["label"] == "widom_profile":
            for old, row in zip(old_curve["rows"], new_curve["rows"]):
                if old != row:
                    pairs.append((f"widom_profile m={old[0]:g}", (old[1], old[3]), (row[1], row[3])))
    old, row = golden["results"].get("membership"), new["results"].get("membership")
    if old and row and old != row:
        pairs.append(("results.membership", (old["lower"], old["upper"]), (row["lower"], row["upper"])))
    return [(where, _nesting(old, row)) for where, old, row in pairs]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Write, or with --diff compare with, the golden reports.")
    parser.add_argument("--diff", action="store_true", help="list the moved jobs; do not write the file")
    args = parser.parse_args(argv)
    bodies = {name: report_body(job) for name, job in benchmark_jobs(SEED)}
    if args.diff:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        moved = {name: _moved(golden[name], body) if name in golden else "new job" for name, body in bodies.items()}
        moved.update({name: "gone" for name in golden.keys() - bodies.keys()})
        nestings = []
        for name, what in moved.items():
            if what:
                print(f"{name}: {what}")
            if what and name in golden and name in bodies:
                for where, nesting in _moved_brackets(golden[name], bodies[name]):
                    print(f"  {where}: {nesting}")
                    nestings.append(nesting)
        print(f"{sum(map(bool, moved.values()))} of {len(bodies)} jobs moved")
        counts = ", ".join(f"{nestings.count(k)} {k}" for k in ("inside", "overlaps", "DISJOINT"))
        print(f"{len(nestings)} brackets moved: {counts}")
        return
    lines = [
        f"{json.dumps(name)}: {json.dumps(body, sort_keys=True, separators=(',', ':'))}" for name, body in bodies.items()
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(lines)} reports to {GOLDEN}")


if __name__ == "__main__":
    main()
