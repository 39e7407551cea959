"""Tests of the benchmark harness itself: python3 -m pytest -q perfbench/tests"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import jobs  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from dirspace import cli  # noqa: E402


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload):
    a, b = jobs.generate(workload, 7), jobs.generate(workload, 7)
    assert json.dumps(a.jobs) == json.dumps(b.jobs)
    assert json.dumps(a.jobs) != json.dumps(jobs.generate(workload, 8).jobs)
    # same mix of commands and sizes for every seed: only parameter values move
    shape = sorted((j["command"], str(j.get("n_grid")), str(j.get("n"))) for j in a.jobs)
    assert shape == sorted((j["command"], str(j.get("n_grid")), str(j.get("n"))) for j in jobs.generate(workload, 8).jobs)


def test_check_rejects_a_perturbed_sigma():
    job = {"command": "sections", "symbol": jobs.powerlog(1.0, 1.0), "kind": "hankel", "n_grid": [16, 64],
           "m_grid": [4, 8], "power": {"tol": 1e-14, "max_iter": 100000}}
    report = json.loads(cli.serialize(cli.run(job), "json")["report.json"])
    assert check.check_job(job, report) == []
    for label, row in (("section_norm_vs_n", 1), ("tail_norm_vs_m", 0)):
        bad = json.loads(json.dumps(report))
        curve = next(c for c in bad["curves"] if c["label"] == label)
        curve["rows"][row][1] *= 1.0 + 10.0 * check.TOL["sigma_rel"]
        problems = check.check_job(job, bad)
        assert len(problems) == 1 and "svdvals" in problems[0]


def test_check_rejects_a_wrong_verdict():
    job = {"command": "classify", "symbol": jobs.powerlog(1.0, 2.0), "kind": "hankel"}
    assert check.check_job(job, {"results": {"verdict": "compact", "applicability": "theorem-exact"}}) == []
    assert check.check_job(job, {"results": {"verdict": "inconclusive", "applicability": "theorem-exact"}}) == []
    assert check.check_job(job, {"results": {"verdict": "bounded", "applicability": "theorem-exact"}})
    uncertified = {"command": "classify", "measure": jobs.density(0.5, 1.0), "kind": "hankel"}
    problems = check.check_job(uncertified, {"results": {"verdict": "compact", "applicability": "theorem-exact"}})
    assert problems and "not certified" in problems[0]


def test_traced_self_times_sum_to_at_most_the_wall_time():
    wl = jobs.generate("carleson-demo", 1)
    small = wl.warmup + [jobs.generate("spectral", 1).warmup[-1], jobs.generate("profiles", 1).warmup[2]]
    tr = tracer.Tracer()
    tr.install()
    try:
        start = time.perf_counter()
        for i, job in enumerate(small):
            tr.job = i
            cli.serialize(cli.run(job), "json")
        wall = time.perf_counter() - start
    finally:
        tr.uninstall()
    assert tr.missing == []
    assert sum(st["self_s"] for st in tr.stats.values()) <= wall
    assert tr.stats["cli.run"]["calls"] == len(small)
    assert tr.stats["carleson.top_singular_value"]["calls"] > 0
    assert tr.stats["_accel.power_iteration"]["iterations"] > 0
    ids = {span[1]: span for span in tr.spans}
    for job, _, parent, _, start_s, end_s in tr.spans:
        assert start_s <= end_s
        if parent is not None:  # a child lies inside its parent, in the same job
            assert ids[parent][0] == job and ids[parent][4] <= start_s and end_s <= ids[parent][5]
    assert cli.run.__module__ == "dirspace.cli" and not hasattr(cli.run, "__wrapped__")


def test_missing_wrapper_target_is_skipped(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("_accel.gone", "_accel", "gone", None),
                                                             ("nomodule.f", "nomodule", "f", None)))
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.missing == ["_accel.gone", "nomodule.f"]
    assert "_accel.gone" not in tr.stats


def test_speed_factor_uses_the_kernel_runs_near_the_job():
    sp = speed.Speed()
    sp.times = [0.0, 0.5, 1.0, 10.0, 10.5]
    sp.costs = [0.004, 0.006, 0.005, 0.008, 0.008]
    ref = speed.REFERENCE_S
    assert sp.factor(0.2, 0.3) == pytest.approx(ref / 0.005)  # runs at 0, 0.5 and 1.0
    assert sp.factor(10.1, 10.2) == pytest.approx(ref / 0.008)
    assert sp.factor(50.0, 51.0) == pytest.approx(ref / 0.006)  # none near: every run
    sp.tick()
    assert len(sp.costs) == 6 and sp.costs[-1] > 0
