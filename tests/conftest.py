"""Shared test oracles: polar-quadrature integrals and seeded random data.

The seeded data and quadrature helpers live in ``dirspace.checks``, which the
acceptance checks also use; they are re-exported here for the unit tests.
"""

import numpy as np
import pytest

from dirspace.checks import (  # noqa: F401  (re-exported for the tests)
    disk_integral_mean,
    polyval_circle,
    quad_gram_entry,
    random_poly,
    seeded_uniforms,
)
from dirspace.coeffspace import TaylorPoly


def quad_dirichlet_norm_sq(p: TaylorPoly) -> float:
    """|f(0)|^2 + int |f'|^2 dA by polar quadrature (independent oracle)."""
    dc = p.derivative().coeffs
    deg = dc.shape[0] - 1

    def g(r, m):
        return np.abs(polyval_circle(dc, r, m)) ** 2

    return float(abs(p.coeffs[0]) ** 2 + disk_integral_mean(g, deg))


@pytest.fixture
def acceptance_line(request, capsys):
    """Print one pass/fail line per acceptance criterion, even on success."""

    lines = []

    def report(number: int, name: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[{status}] acceptance {number}: {name}" + (f" ({detail})" if detail else ""))
        lines.append(ok)
        assert ok, f"acceptance criterion {number} ({name}) failed: {detail}"

    return report
