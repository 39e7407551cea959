"""Finite-test Carleson machinery for measures |b'(z)|^2 dA with polynomial b.

For polynomial b the Gram matrix of the embedding quadratic form
int |f|^2 |b'|^2 dA over the monomial basis has exact entries

    G[j, k] = sum_{a - e = k - j} c_a conj(c_e) / (j + a + 1),

where c are the Taylor coefficients of b' (from the disk orthogonality
int z^p conj(z)^q dA = delta_pq / (p+1); dA is normalized).  The finite-test
Carleson norm is the largest generalized Rayleigh quotient of G against the
exact Dirichlet weights, i.e. the top eigenvalue of D^(-1/2) G D^(-1/2); it
is a lower-bound estimator of the true squared Carleson constant and is
nondecreasing in the test degree, so verdicts derived from it are labelled
heuristic and always reported together with the full degree sweep.
"""

from __future__ import annotations

import numpy as np

from . import _accel
from .coeffspace import TaylorPoly, weight_sequence
from .criteria import ClassReport, WidomTail
from .operators import default_max_iter, top_singular_value

# the x-norm of a borderline-unbounded symbol grows additively in log N,
# so consecutive-doubling ratios tend to 1; growth is judged over the
# whole sweep, saturation at its end
GROWTH_RATIO = 1.25  # last/first nonzero >= this => unbounded (heuristic)
SATURATION_RATIO = 1.15  # last/previous <= this => saturated
VANISH_FRACTION = 0.1  # restricted/full below this => vanishing
VANISH_DELTA = 2.0**-6
DELTA_SCHEDULE = tuple(2.0**-j for j in range(3, 9))


def _disk_power_weights(count: int, delta: float | None = None) -> np.ndarray:
    """Moments int_{annulus} |z|^(2p) dA = w_p for p = 0..count-1.

    delta = None means the full disk (w_p = 1/(p+1)); otherwise the annulus
    1 - delta < |z| < 1 (w_p = (1 - (1-delta)^(2p+2)) / (p+1)).
    """
    p = np.arange(count, dtype=np.float64)
    w = 1.0 / (p + 1.0)
    if delta is not None:
        rho = 1.0 - delta
        w = w * (1.0 - rho ** (2.0 * p + 2.0))
    return w


def symbol_poly(s, degree: int) -> TaylorPoly:
    """The polynomial b of a symbol: the series with coefficients conj(lambda_n),
    truncated at ``degree``."""
    return TaylorPoly(np.conj(s.values(np.arange(degree + 1))))


def symbol_gram(b: TaylorPoly, n: int, delta: float | None = None) -> np.ndarray:
    """Exact Gram matrix of int z^j conj(z)^k |b'|^2 dA, j,k = 0..n, over the
    disk (delta None) or the annulus 1 - delta < |z| < 1."""
    c = b.derivative().coeffs
    if np.all(c.imag == 0.0):
        c = c.real.astype(np.float64)
    g = _accel.gram(c, n, _disk_power_weights(n + c.shape[0], delta))
    return 0.5 * (g + g.conj().T)  # exact formula is Hermitian; kill rounding skew


def _rayleigh_top(g: np.ndarray) -> float:
    d = weight_sequence("dirichlet-exact", g.shape[0] - 1)
    scale = 1.0 / np.sqrt(d)
    a = g * scale[:, None] * scale[None, :]
    sigma, _ = top_singular_value(a, tol=1e-12, max_iter=4 * default_max_iter(a.shape[0]))
    return float(sigma)


def finite_test_carleson_norm(b: TaylorPoly, n: int) -> float:
    """Largest Rayleigh quotient of the embedding form over degree-<=n tests.

    Equals the square of the best Carleson constant restricted to polynomial
    test functions of degree <= n; nondecreasing in n.
    """
    return _rayleigh_top(symbol_gram(b, n))


def x_norm(b: TaylorPoly, n: int) -> float:
    """|b(0)|^2 + finite-test Carleson norm of |b'|^2 dA."""
    return float(abs(b.coeffs[0]) ** 2) + finite_test_carleson_norm(b, n)


def restricted_carleson_norm(b: TaylorPoly, n: int, delta: float) -> float:
    """Finite-test norm with the Gram restricted to the annulus 1-delta < |z| < 1.

    Tends to the full-disk value as delta -> 1; its decay as delta -> 0
    (jointly with growing n) is the vanishing-Carleson diagnostic.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("annulus width delta must lie in (0, 1)")
    return _rayleigh_top(symbol_gram(b, n, delta))


def mixed_norm(phi: TaylorPoly, p: float) -> float:
    """int_0^1 M_p(phi', r)^2 dr with M_p the circle mean of order p.

    64-node Gauss-Legendre in r; uniform angular grid of max(256, 4 deg + 8)
    points (exact for the trigonometric polynomials arising from integer p,
    spectrally accurate otherwise).  Requires 2 < p < inf.
    """
    if not 2.0 < p < np.inf:
        raise ValueError("mixed norm requires 2 < p < inf")
    c = phi.derivative().coeffs
    deg = c.shape[0] - 1
    m = max(256, 4 * deg + 8)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    r = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    powers = np.arange(deg + 1)
    total = 0.0
    for ri, wi in zip(r, w):
        mod = np.abs(m * np.fft.ifft(c * ri**powers, m))
        mp = float(np.mean(mod**p)) ** (1.0 / p)
        total += wi * mp * mp
    return float(total)


def classify_hankel_general(b: TaylorPoly, n_grid) -> ClassReport:
    """Heuristic verdict for a general symbol via the Carleson route.

    b is the truncation of the series with coefficients conj(lambda_n).  The
    x-norm sweep over n_grid is 'unbounded' when it grows by GROWTH_RATIO from
    its first nonzero value to its last, and 'compact' when it saturates (last
    doubling within SATURATION_RATIO) and the annulus-restricted norm at
    VANISH_DELTA has decayed below VANISH_FRACTION of the full norm.  Any
    other sweep is 'inconclusive', with a note naming the test that failed:
    a bounded, non-compact operator cannot be told apart from the slowly
    growing and the slowly vanishing ones at these degrees.  The restricted
    norm, at the top degree n_grid[-1], is returned as ``restricted_norm``
    (None for the zero symbol, which needs no boundary test).
    """
    n_grid = [int(n) for n in n_grid]
    if not n_grid or n_grid[0] < 0 or any(x2 <= x1 for x1, x2 in zip(n_grid, n_grid[1:])):
        raise ValueError("degree grid must be nonempty, nonnegative and strictly increasing")
    values = [x_norm(b.truncate(n), n) for n in n_grid]
    profile = [WidomTail(n, v, v) for n, v in zip(n_grid, values)]
    notes = ["finite-test Carleson norms are lower-bound estimators; verdicts heuristic"]
    if values[-1] == 0.0:
        notes.append("zero symbol: zero operator")
        return ClassReport("compact", "heuristic", profile, notes)
    r_full = values[-1] / next(v for v in values if v > 0.0)
    r_last = values[-1] / values[-2] if len(values) >= 2 and values[-2] > 0.0 else np.inf
    n_top = n_grid[-1]
    restricted = restricted_carleson_norm(b.truncate(n_top), n_top, VANISH_DELTA)
    vanish = restricted / values[-1]
    notes.append(
        f"x-norm sweep ratio {r_full:.4g}, end ratio {r_last:.4g}; "
        f"boundary fraction {vanish:.4g}"
    )
    if r_full >= GROWTH_RATIO:
        verdict = "unbounded"
    elif r_last > SATURATION_RATIO:
        verdict = "inconclusive"
        notes.append(
            f"inconclusive: no growth (sweep ratio {r_full:.4g} < {GROWTH_RATIO}) "
            f"and no saturation (end ratio {r_last:.4g} > {SATURATION_RATIO})"
        )
    elif vanish > VANISH_FRACTION:
        verdict = "inconclusive"
        notes.append(
            "inconclusive: saturated but no vanishing "
            f"(boundary fraction {vanish:.4g} > {VANISH_FRACTION})"
        )
    else:
        verdict = "compact"
    return ClassReport(verdict, "heuristic", profile, notes, restricted)
