"""Coefficient-space model of analytic functions on the unit disk.

Functions are carried as truncated Taylor series.  Two Dirichlet weight
conventions coexist on purpose and both are exposed:

* ``dirichlet-exact``:   w_0 = 1, w_n = n   (the norm |f(0)|^2 + int |f'|^2 dA)
* ``dirichlet-section``: w_n = n + 1        (the basis weights used for
  finite-section matrices; equivalent to exact within a factor sqrt(2))
* ``bergman``:           w_n = 1 / (n + 1)

Coefficients are stored as float64 unless a value is complex (_real_or_complex).
Norm and inner-product accumulations use numpy's pairwise summation, which
is deterministic for a fixed array length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SPACE_TAGS = ("dirichlet-exact", "dirichlet-section", "bergman")


def _real_or_complex(values) -> np.ndarray:
    """A copy of values as float64 when every imaginary part is 0, otherwise
    as complex128."""
    arr = np.asarray(values)
    if np.iscomplexobj(arr) and arr.imag.any():
        return arr.astype(np.complex128)
    return arr.real.astype(np.float64)


@dataclass(frozen=True)
class TaylorPoly:
    """Truncated power series a_0 + a_1 z + ... + a_N z^N.

    The stored degree is a storage bound: trailing coefficients may be zero.
    """

    coeffs: np.ndarray = field()

    def __post_init__(self):
        arr = _real_or_complex(np.atleast_1d(self.coeffs).ravel())
        if arr.size == 0:
            arr = np.zeros(1)
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @classmethod
    def zero(cls, degree: int = 0) -> "TaylorPoly":
        return cls(np.zeros(degree + 1))

    def truncate(self, degree: int) -> "TaylorPoly":
        c = np.zeros(degree + 1, dtype=self.coeffs.dtype)
        take = min(degree, self.degree) + 1
        c[:take] = self.coeffs[:take]
        return TaylorPoly(c)

    def derivative(self) -> "TaylorPoly":
        if self.degree == 0:
            return TaylorPoly.zero()
        n = np.arange(1, self.degree + 1)
        return TaylorPoly(n * self.coeffs[1:])


def weight_sequence(tag: str, n: int) -> np.ndarray:
    """Coefficient weights w_0..w_n for the given space tag."""
    if tag == "dirichlet-exact":
        w = np.arange(0, n + 1, dtype=np.float64)
        w[0] = 1.0
        return w
    if tag == "dirichlet-section":
        return np.arange(1, n + 2, dtype=np.float64)
    if tag == "bergman":
        return 1.0 / np.arange(1, n + 2, dtype=np.float64)
    raise ValueError(f"unknown space tag {tag!r}; expected one of {SPACE_TAGS}")


def space_norm(p: TaylorPoly, tag: str) -> float:
    """sqrt(sum of w_n |a_n|^2) with the tag's weight sequence."""
    w = weight_sequence(tag, p.degree)
    a = p.coeffs
    return float(np.sqrt(np.sum(w * (a.real * a.real + a.imag * a.imag))))


def dirichlet_inner(p: TaylorPoly, q: TaylorPoly) -> complex:
    """a_0 conj(b_0) + sum_{n>=1} n a_n conj(b_n); conjugate-linear in q."""
    n = min(p.degree, q.degree)
    w = weight_sequence("dirichlet-exact", n)
    return complex(np.sum(w * p.coeffs[: n + 1] * np.conj(q.coeffs[: n + 1])))


def evaluate(p: TaylorPoly, z: complex) -> complex:
    """Horner evaluation of the truncation at a point of the open disk."""
    if abs(z) >= 1.0:
        raise ValueError("evaluation point must satisfy |z| < 1")
    acc = 0.0 + 0.0j
    for a in p.coeffs[::-1]:
        acc = acc * z + a
    return complex(acc)


def kernel_coeffs(w: complex, degree: int) -> TaylorPoly:
    """Reproducing kernel K_w = 1 + log(1/(1 - z conj(w))), truncated.

    Coefficients are (1, wb, wb^2/2, ..., wb^N/N) with wb = conj(w); for any
    polynomial f with deg f <= degree, <f, K_w>_D = f(w) exactly.
    """
    if abs(w) >= 1.0:
        raise ValueError("kernel point must satisfy |w| < 1")
    wb = np.conj(np.complex128(w))
    c = np.empty(degree + 1, dtype=np.complex128)
    c[0] = 1.0
    if degree >= 1:
        n = np.arange(1, degree + 1)
        c[1:] = wb**n / n
    return TaylorPoly(c)


def normalized_kernel_coeffs(t: float, degree: int) -> tuple[TaylorPoly, float]:
    """Normalized kernel k_t = K_t / sqrt(K_t(t)) truncated, plus a tail bound.

    Returns (poly, tail) where tail >= sum_{n>N} t^{2n}/n, the exact-Dirichlet
    squared norm of the discarded (unnormalized) tail, bracketed geometrically:
    tail = t^(2N+2) / ((N+1)(1-t^2)).  With s2 = 1/(1 + log(1/(1-t^2))) the
    truncation satisfies  norm(poly)^2 <= 1 <= norm(poly)^2 + s2 * tail.
    """
    t = float(t)
    scale = 1.0 / np.sqrt(_kernel_norm_sq(t))
    base = kernel_coeffs(t, degree)
    return TaylorPoly(base.coeffs * scale), _kernel_tail_bound(t, degree)


def _kernel_norm_sq(t: float) -> float:
    """K_t(t) = 1 + log(1/(1-t^2)) = ||K_t||^2 (exact Dirichlet) for 0 <= t < 1."""
    if not 0.0 <= t < 1.0:
        raise ValueError("kernel parameter must satisfy 0 <= t < 1")
    return 1.0 + np.log1p(t * t / (1.0 - t * t))


def _kernel_tail_bound(t: float, degree: int) -> float:
    """t^(2N+2) / ((N+1)(1-t^2)) for N = degree; decreasing in N."""
    return float(t ** (2 * degree + 2) / ((degree + 1) * (1.0 - t * t)))


def kernel_degree_for_tail(t: float, tol: float, max_degree: int = 10**7) -> int:
    """Smallest truncation degree whose normalized-kernel tail bound is < tol."""
    if not 0.0 <= t < 1.0:
        raise ValueError("kernel parameter must satisfy 0 <= t < 1")
    # the bound is nonincreasing in N: double past it, then bisect
    hi = 1
    while _kernel_tail_bound(t, hi) >= tol:
        hi *= 2
        if hi > max_degree:
            raise ValueError("tail tolerance not reachable below max_degree")
    lo = hi // 2 if hi > 1 else 0
    while lo < hi:
        mid = (lo + hi) // 2
        if _kernel_tail_bound(t, mid) < tol:
            hi = mid
        else:
            lo = mid + 1
    return hi
