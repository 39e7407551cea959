"""Every benchmark job at seed 101 still gives its golden report.

Strings, integers, booleans and nulls must match exactly and floats to a
relative REL_TOL, since another CPU may take another SIMD path.  Numbers
inside strings (the demo details) are compared as floats too, and two of
them that are both below RESIDUAL in modulus count as equal: they are
rounding residuals such as "sigma rel 7.1e-15".  Every float that differs
at all is printed with its job and its path in the report, so a change can
still be called bit-identical truthfully.
"""

from __future__ import annotations

import json
import re

from golden_reports import GOLDEN, SEED, _moved, _moved_brackets, benchmark_jobs, config_digest, report_body

REL_TOL = 1e-12
RESIDUAL = 1e-12
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))  # inf or nan when either is


def _diff_text(golden: str, new: str, path: str, out: list) -> None:
    golden_numbers, new_numbers = _NUMBER.findall(golden), _NUMBER.findall(new)
    if _NUMBER.split(golden) != _NUMBER.split(new) or len(golden_numbers) != len(new_numbers):
        out.append((path, golden, new, True))
        return
    for i, (a, b) in enumerate(zip(golden_numbers, new_numbers)):
        if a != b:
            x, y = float(a), float(b)
            residual = abs(x) < RESIDUAL and abs(y) < RESIDUAL
            out.append((f"{path}<number {i}>", a, b, not (residual or _rel(x, y) <= REL_TOL)))


def diff(golden, new, path: str, out: list) -> None:
    """Append (path, golden, new, fails) for each leaf where new differs."""
    if isinstance(golden, dict) and isinstance(new, dict):
        if golden.keys() != new.keys():
            out.append((path, sorted(golden), sorted(new), True))
            return
        for key in golden:
            diff(golden[key], new[key], f"{path}.{key}", out)
    elif isinstance(golden, list) and isinstance(new, list):
        if len(golden) != len(new):
            out.append((f"{path} length", len(golden), len(new), True))
            return
        for i, (g, n) in enumerate(zip(golden, new)):
            diff(g, n, f"{path}[{i}]", out)
    elif type(golden) is float and type(new) is float:
        if repr(golden) != repr(new):
            out.append((path, golden, new, not _rel(golden, new) <= REL_TOL))
    elif type(golden) is str and type(new) is str:
        if golden != new:
            _diff_text(golden, new, path, out)
    elif type(golden) is not type(new) or golden != new:
        out.append((path, golden, new, True))


def test_reports_match_golden(capsys):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    jobs = dict(benchmark_jobs(SEED))
    assert jobs.keys() == golden.keys(), "the job set changed: regenerate with tests/golden_reports.py"
    moved = []
    for name, job in jobs.items():
        assert golden[name]["config"] == config_digest(job), f"{name} changed: regenerate with tests/golden_reports.py"
        diff(golden[name], report_body(job), name, moved)
    if moved:
        with capsys.disabled():
            print(f"\n{len(moved)} value(s) differ from {GOLDEN.name}:")
            for path, old, new, fails in moved:
                print(f"  {'FAIL' if fails else 'ok  '} {path}: {old!r} -> {new!r}")
    failing = [f"{path}: {old!r} -> {new!r}" for path, old, new, fails in moved if fails]
    assert not failing, f"{len(failing)} value(s) moved past rel {REL_TOL}:\n" + "\n".join(failing)


def test_diff_names_what_moved():
    body = {"config": "c", "results": {"v": 1.0}, "curves": [{"label": "p", "meta": {"nmax": 8}, "rows": [[1.0, 2.0]]}]}
    meta = json.loads(json.dumps(body))
    meta["curves"][0]["meta"]["summed_through"] = 8
    rows = json.loads(json.dumps(meta))
    rows["curves"][0]["rows"][0][1] = 2.5
    results = json.loads(json.dumps(body))
    results["results"]["v"] = 1.5
    assert _moved(body, body) is None
    assert _moved(body, meta) == "meta only"
    assert _moved(body, rows) == "curves"
    assert _moved(body, results) == "results"
    # each moved bracket is judged against the golden one
    profile = {"config": "c", "results": {"membership": {"lower": 1.0, "upper": 2.0}},
               "curves": [{"label": "widom_profile", "rows": [[16.0, 1.0, 1.5, 2.0], [32.0, 1.0, 1.5, 2.0]]}]}
    moved = json.loads(json.dumps(profile))
    moved["results"]["membership"] = {"lower": 1.5, "upper": 2.5}
    moved["curves"][0]["rows"] = [[16.0, 1.2, 1.5, 1.8], [32.0, 3.0, 3.5, 4.0]]
    assert _moved_brackets(profile, profile) == []
    assert _moved_brackets(profile, moved) == [
        ("widom_profile m=16", "inside"), ("widom_profile m=32", "DISJOINT"), ("results.membership", "overlaps")]
