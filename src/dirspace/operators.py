"""Hankel- and Cesaro-type operator actions, finite sections, and norms.

The coefficient actions are

    hankel:  (H_lambda f)_n = sum_k lambda_{n+k} a_k
    cesaro:  (C_eta f)_n    = eta_n * (a_0 + ... + a_n)

Finite sections are taken in weighted bases.  With section weights w_n the
matrix of a coefficient action T is W^(1/2) T W^(-1/2); only the two weight
choices that make the Dirichlet/Bergman transpose identity exact are
accepted ('dirichlet-section', w_n = n+1, and 'bergman', w_n = 1/(n+1)).
Norm estimates in the exact-Dirichlet weights follow from the section-weight
norm via the equivalence factor sqrt(2) and are reported as such by callers.

Tail-section norms are matrix-free: the section is kept as its symbol slice
and two weight vectors, a Hankel product is one convolution (direct, or one
FFT product past _accel._DIRECT_MAX_DIM) and a Cesaro product one cumsum, and
Golub-Kahan-Lanczos bidiagonalization finds the top singular value in O(n)
memory.  ``section_matrix`` is the dense view.  ``top_singular_value`` takes
either a dense array (power iteration) or a matrix-free ``LinearMap``
(Golub-Kahan-Lanczos), as the Carleson route's Gram factor is.

Every solve runs on data scaled exactly by a power of two to a largest
modulus in [1/2, 1), so squared norms neither underflow nor overflow.
``top_singular_value`` scales a dense array itself; the builder of a
``LinearMap`` scales its data and records the power of two in ``exponent``.
``top_singular_value`` alone scales sigma back.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import _accel, _rng
from .coeffspace import TaylorPoly, _kernel_norm_sq, weight_sequence
from .symbols import SymbolSeq

SECTION_TAGS = ("dirichlet-section", "bergman")


def hankel_apply(s: SymbolSeq, f: TaylorPoly, n_out: int) -> TaylorPoly:
    """b_n = sum_k lambda_{n+k} a_k for n = 0..n_out; exact for polynomial f
    (the inner sum is finite)."""
    # complex even for real data: a real product moves three benchmark rkt reports
    # by 1-3 ulps (1.9216442478710576 -> ...574), left for one golden regeneration
    sym = s.values(np.arange(0, n_out + f.degree + 1)).astype(np.complex128)
    return TaylorPoly(_accel.hankel_dot(sym, f.coeffs, n_out))


def cesaro_apply(s: SymbolSeq, f: TaylorPoly, n_out: int) -> TaylorPoly:
    """c_n = eta_n * (a_0 + ... + a_min(n, deg f)) for n = 0..n_out."""
    partials = np.cumsum(f.coeffs)
    idx = np.minimum(np.arange(n_out + 1), f.degree)
    eta = s.values(np.arange(n_out + 1))
    return TaylorPoly(eta * partials[idx])


def _sqrt_weights(n: int):
    sq = np.sqrt(weight_sequence("dirichlet-section", n - 1))
    return sq, 1.0 / sq


def section_matrix(s: SymbolSeq, kind: str, tag: str, n: int) -> np.ndarray:
    """n x n weighted finite section of the Hankel or Cesaro operator."""
    if tag not in SECTION_TAGS:
        raise ValueError(
            "section weight must be 'dirichlet-section' or 'bergman'; the exact "
            "Dirichlet weights (w_0 = w_1 = 1) break the transpose identity -- "
            "derive exact-weight norms from the section norm via the sqrt(2) "
            "equivalence instead"
        )
    if n < 1:
        raise ValueError("need n >= 1")
    sq, inv = _sqrt_weights(n)
    row_w, col_w = (sq, inv) if tag == "dirichlet-section" else (inv, sq)
    if kind == "hankel":
        return _accel.weighted_hankel(s.values(np.arange(2 * n - 1)), row_w, col_w)
    if kind == "cesaro":
        return _accel.weighted_triangular(s.values(np.arange(n)), row_w, col_w)
    raise ValueError(f"unknown section kind {kind!r}")


def default_max_iter(n: int) -> int:
    return int(50 * np.log2(max(n, 2))) + 200


class LinearMap(NamedTuple):
    """A matrix-free operator 2^exponent A: matvec(x) = A x, rmatvec(y) = A^H y,
    with A of the given (rows, cols) shape and dtype."""

    matvec: Callable
    rmatvec: Callable
    shape: tuple
    dtype: np.dtype
    exponent: int = 0


def top_singular_value(m, tol: float = 1e-10, max_iter: int | None = None):
    """Largest singular value of a dense array or a LinearMap.

    A dense array (2-D, both dimensions >= 1) is scaled exactly by a power of
    two to a largest modulus in [1/2, 1) and solved by power iteration on
    v -> M^H (M v) for at most max_iter iterations (default_max_iter of its
    row count); converged means successive Rayleigh quotients agree to tol.
    A LinearMap, scaled by its builder, goes to Golub-Kahan-Lanczos
    bidiagonalization for at most max_iter steps (default default_max_iter
    of its smaller dimension); converged means the Ritz residual is
    <= tol * sigma.  Either way sigma is scaled back here, by 2^exponent.  The
    start vector is a fixed seeded pseudo-random unit vector, so results are
    reproducible.  The zero operator gives exactly 0.0; NaN or infinite
    data raise ValueError in the scaling.  Returns (sigma, converged); sigma
    is a lower estimate when converged is False.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if max_iter is not None and max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if isinstance(m, LinearMap):
        v0 = _rng.unit_start_vector(m.shape[1]).astype(m.dtype, copy=False)
        max_steps = max_iter or default_max_iter(min(m.shape))
        sigma, converged, _, _ = _accel.golub_kahan(m.matvec, m.rmatvec, v0, tol, max_steps)
        exponent = m.exponent
    else:
        arr = np.asarray(m)
        if arr.ndim != 2 or 0 in arr.shape:
            raise ValueError(f"need a 2-D matrix with both dimensions >= 1, got shape {arr.shape}")
        arr, exponent = _binary_normalized(arr)
        v0 = _rng.unit_start_vector(arr.shape[1])
        sigma, converged, _ = _accel.power_iteration(arr, v0, tol, max_iter or default_max_iter(arr.shape[0]))
    return float(np.ldexp(sigma, exponent)), converged


def _tail_operator(s: SymbolSeq, kind: str, m: int, n: int) -> LinearMap:
    """The dirichlet-section restricted to rows and cols m..n-1,
    M[j, k] = sqrt(j+1) T[j, k] / sqrt(k+1), built from the symbol slice
    alone, which is scaled by a power of two (the map's exponent)."""
    sq, inv = _sqrt_weights(n)
    sq, inv = sq[m:], inv[m:]
    shape = (n - m, n - m)
    if kind == "hankel":
        # H z with H[j, k] = lambda_{2m+j+k}, the valid convolution of the
        # slice with z reversed; H is symmetric, so M^H y = inv * conj(H (sq * conj y))
        sym, exponent = _binary_normalized(s.values(np.arange(2 * m, 2 * n - 1)))
        conv = _accel.convolution(sym, n - m, "valid")
        return LinearMap(
            lambda x: sq * conv((inv * x)[::-1]),
            lambda y: inv * np.conj(conv((sq * np.conj(y))[::-1])),
            shape,
            sym.dtype,
            exponent,
        )
    if kind == "cesaro":
        # lower-triangular M[j, k] = a_j inv_k (k <= j) with a = sq * eta
        eta, exponent = _binary_normalized(s.values(np.arange(m, n)))
        a = sq * eta
        a_conj = np.conj(a)
        return LinearMap(
            lambda x: a * np.cumsum(inv * x),
            lambda y: inv * np.cumsum((a_conj * y)[::-1])[::-1],
            shape,
            a.dtype,
            exponent,
        )
    raise ValueError(f"unknown section kind {kind!r}")


def _binary_normalized(values: np.ndarray):
    """(values * 2^-exponent, exponent) in double precision, with the largest
    modulus scaled into [1/2, 1); exponent is 0 when every value is 0.
    Raises ValueError for a NaN or infinite value, which has no sigma."""
    top = np.max(np.abs(values))
    if not np.isfinite(top):
        raise ValueError(f"operator data hold a non-finite value ({top})")
    exponent = int(np.frexp(top)[1])
    values = np.ascontiguousarray(values, dtype=np.result_type(values.dtype, np.float64))
    return np.ldexp(values.view(np.float64), -exponent).view(values.dtype), exponent


def tail_section_norm(
    s: SymbolSeq,
    kind: str,
    m: int,
    n: int,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> float:
    """Top singular value of the dirichlet-section restricted to rows/cols >= m.

    Matrix-free: Golub-Kahan-Lanczos (_accel.golub_kahan) on the structured
    operator from a fixed seeded start vector, until the Ritz residual is
    <= tol * sigma or after max_iter steps (default_max_iter(n - m)).  The
    estimate is a lower bound up to rounding.  Nonincreasing in m for a fixed
    symbol and dimension (a principal submatrix cannot have larger norm).
    """
    if not 0 <= m < n:
        raise ValueError("need 0 <= m < n")
    return top_singular_value(_tail_operator(s, kind, m, n), tol, max_iter)[0]


def cesaro_rkt_norm(s: SymbolSeq, t: float, n: int) -> float:
    """Closed-form Dirichlet norm of the Cesaro operator on the normalized
    kernel at t, as a partial sum over output indices 0..n+1:

        ||C_eta k_t||^2 = (1 + log(1/(1-t^2)))^(-1) *
            ( |eta_0|^2 + sum_{j=0}^{n} (j+1) |eta_{j+1}|^2 (1 + sum_{k=1}^{j+1} t^k/k)^2 )

    Must agree with applying the operator to the truncated kernel and taking
    the exact-Dirichlet norm, within the combined truncation bounds.
    """
    t = float(t)
    norm_sq = _kernel_norm_sq(t)
    eta = s.values(np.arange(n + 2))
    k = np.arange(1, n + 2, dtype=np.float64)
    inner = 1.0 + np.cumsum(t**k / k)  # inner[j] = 1 + sum_{k=1}^{j+1} t^k/k
    j1 = np.arange(1.0, n + 2.0)
    total = np.abs(eta[0]) ** 2 + np.sum(j1 * np.abs(eta[1:]) ** 2 * inner**2)
    return float(np.sqrt(total / norm_sq))


def exact_norm_interval(section_sigma: float) -> tuple[float, float]:
    """Interval containing the exact-Dirichlet-weight norm implied by a
    dirichlet-section norm estimate (equivalence constants 1 and sqrt 2)."""
    return section_sigma / np.sqrt(2.0), section_sigma * np.sqrt(2.0)
