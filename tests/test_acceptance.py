"""Acceptance battery: one test per check of ``dirspace.checks.CHECKS`` at full
size, each printing a PASS/FAIL line with its timing.

The checks, their sizes and their frozen margins are defined in
src/dirspace/checks.py; ``dirspace demo`` runs the same entries at quick size.
"""

import time

from dirspace.checks import CHECKS

# two test IDs predate the registry's names and are kept stable
_TEST_IDS = {4: "hilbert_matrix", 10: "double_sum"}


def _acceptance_test(check):
    def test(acceptance_line):
        t0 = time.perf_counter()
        ok, detail = check.run("full")
        acceptance_line(check.number, check.title, ok, f"{detail}, {time.perf_counter() - t0:.1f}s")

    return test


for _check in CHECKS:
    _slug = _TEST_IDS.get(_check.number, _check.name.replace("-", "_"))
    _name = f"test_acceptance_{_check.number:02d}_{_slug}"
    globals()[_name] = _acceptance_test(_check)
    globals()[_name].__name__ = _name
