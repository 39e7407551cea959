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

G is never assembled for a norm.  With T[p, j] = c[p - j] the Toeplitz
factor of b' and w the disk (or annulus) power moments, G = T^T diag(w)
conj(T), so the norm is sigma_max(F)^2 for the (n + len c) x (n + 1) factor
F = diag(sqrt w) conj(T) D^(-1/2).  A product with F is one convolution with
conj(c) and a product with F^H one correlation with c (each one FFT product
past _accel._DIRECT_MAX_DIM), and Golub-Kahan-Lanczos finds sigma_max.  F
is built from c scaled by a power of two, which it carries as its exponent
for ``top_singular_value`` to scale sigma back.  ``symbol_gram`` assembles G
densely, as the reference for the exact entries.
"""

from __future__ import annotations

import numpy as np

from . import _accel
from .coeffspace import TaylorPoly, weight_sequence
from .criteria import ClassReport, WidomTail
from .operators import LinearMap, _binary_normalized, top_singular_value

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
    w = weight_sequence("bergman", count - 1)
    if delta is not None:
        p = np.arange(count, dtype=np.float64)
        w = w * (1.0 - (1.0 - delta) ** (2.0 * p + 2.0))
    return w


def symbol_poly(s, degree: int) -> TaylorPoly:
    """The polynomial b of a symbol: the series with coefficients conj(lambda_n),
    truncated at ``degree``."""
    return TaylorPoly(np.conj(s.values(np.arange(degree + 1))))


def symbol_gram(b: TaylorPoly, n: int, delta: float | None = None) -> np.ndarray:
    """Exact Gram matrix of int z^j conj(z)^k |b'|^2 dA, j,k = 0..n, over the
    disk (delta None) or the annulus 1 - delta < |z| < 1."""
    c = b.derivative().coeffs
    g = _accel.gram(c, n, _disk_power_weights(n + c.shape[0], delta))
    return 0.5 * (g + g.conj().T)  # exact formula is Hermitian; kill rounding skew


def _carleson_solve(b: TaylorPoly, n: int, delta: float | None = None) -> tuple[float, bool]:
    """(sigma_max(F)^2, converged) for the factor F of D^(-1/2) G D^(-1/2) over
    degree-<=n tests, G over the disk (delta None) or the annulus.

    c is scaled exactly by a power of two to a largest modulus in [1/2, 1), so
    the solve neither underflows nor overflows; b' = 0 gives exactly 0.0.
    """
    c, exponent = _binary_normalized(b.derivative().coeffs)
    rows = n + c.shape[0]
    root_w = np.sqrt(_disk_power_weights(rows, delta))
    root_d_inv = 1.0 / np.sqrt(weight_sequence("dirichlet-exact", n))
    conv = _accel.convolution(np.conj(c), n + 1, "full")  # conj(T) x
    corr = _accel.convolution(c[::-1], rows, "valid")  # T^T y
    factor = LinearMap(
        lambda x: root_w * conv(root_d_inv * x),
        lambda y: root_d_inv * corr(root_w * y),
        (rows, n + 1),
        c.dtype,
        exponent,
    )
    sigma, converged = top_singular_value(factor, tol=1e-12)
    return sigma * sigma, converged


def finite_test_carleson_norm(b: TaylorPoly, n: int) -> float:
    """Largest Rayleigh quotient of the embedding form over degree-<=n tests.

    Equals the square of the best Carleson constant restricted to polynomial
    test functions of degree <= n; nondecreasing in n.  Computed matrix-free
    as sigma_max(F)^2 of the Gram's factor (module docstring).
    """
    return _carleson_solve(b, n)[0]


def x_norm(b: TaylorPoly, n: int) -> float:
    """|b(0)|^2 + finite-test Carleson norm of |b'|^2 dA."""
    return float(abs(b.coeffs[0]) ** 2) + finite_test_carleson_norm(b, n)


def restricted_carleson_norm(b: TaylorPoly, n: int, delta: float) -> float:
    """Finite-test norm with the Gram restricted to the annulus 1-delta < |z| < 1.

    Tends to the full-disk value as delta -> 1; its decay as delta -> 0
    (jointly with growing n) is the vanishing-Carleson diagnostic.  Computed
    matrix-free like finite_test_carleson_norm, with the annulus moments as w.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("annulus width delta must lie in (0, 1)")
    return _carleson_solve(b, n, delta)[0]


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
    (None for the zero symbol, which needs no boundary test).  A norm whose
    solve stopped at its step cap is a lower estimate; a closing note names
    its degree.
    """
    n_grid = [int(n) for n in n_grid]
    if not n_grid or n_grid[0] < 0 or any(x2 <= x1 for x1, x2 in zip(n_grid, n_grid[1:])):
        raise ValueError("degree grid must be nonempty, nonnegative and strictly increasing")
    b0_sq = float(abs(b.coeffs[0]) ** 2)
    solves = [_carleson_solve(b.truncate(n), n) for n in n_grid]
    values = [b0_sq + norm for norm, _ in solves]
    unconverged = [f"x-norm at degree {n}" for n, (_, ok) in zip(n_grid, solves) if not ok]
    profile = [WidomTail(n, v, v) for n, v in zip(n_grid, values)]
    notes = ["finite-test Carleson norms are lower-bound estimators; verdicts heuristic"]
    if values[-1] == 0.0:
        notes.append("zero symbol: zero operator")
        return ClassReport("compact", "heuristic", profile, notes)
    r_full = values[-1] / next(v for v in values if v > 0.0)
    r_last = values[-1] / values[-2] if len(values) >= 2 and values[-2] > 0.0 else np.inf
    n_top = n_grid[-1]
    restricted, ok = _carleson_solve(b.truncate(n_top), n_top, VANISH_DELTA)
    if not ok:
        unconverged.append(f"restricted norm at degree {n_top}")
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
    notes += [f"unconverged: {what} stopped at its step cap, a lower estimate" for what in unconverged]
    return ClassReport(verdict, "heuristic", profile, notes, restricted)
