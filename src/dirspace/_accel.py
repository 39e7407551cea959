"""Hot numeric kernels in numpy/BLAS: weighted sections, Gram assembly, the
Hankel contraction and power iteration.  They keep no state and draw no random
numbers, so a fixed input gives bit-identical output on a fixed numpy build.
"""

import numpy as np
from scipy import linalg


def weighted_hankel(sym, row_w, col_w):
    """Section out[j,k] = row_w[j] * col_w[k] * sym[j+k] (sym len >= 2n-1)."""
    idx = np.arange(row_w.shape[0])
    h = sym[idx[:, None] + idx[None, :]]
    return (row_w[:, None] * col_w[None, :]) * h


def weighted_triangular(diag, row_w, col_w):
    """Lower-triangular section out[j,k] = row_w[j] * col_w[k] * diag[j], k <= j."""
    return np.tril(np.outer(row_w * diag, col_w))


def gram(c, n, w):
    """Gram matrix G[j,k] = sum_a c[a] conj(c[a+j-k]) w[j+a], j,k = 0..n.

    ``w`` must have length at least n + len(c).  With the Toeplitz matrix
    T[p, j] = c[p - j] (p = 0..n+len(c)-1) this is G = T^T diag(w) conj(T),
    assembled as one product of sqrt(w)-scaled T with its conjugate.
    """
    c = np.ascontiguousarray(c)
    w = np.ascontiguousarray(w, dtype=np.float64)
    rows = n + c.shape[0]
    if w.shape[0] < rows:
        raise ValueError("weight array too short for gram assembly")
    a = linalg.toeplitz(np.concatenate([c, np.zeros(n)]), np.zeros(n + 1))
    a *= np.sqrt(w[:rows])[:, None]
    return a.T @ a.conj()


def hankel_dot(sym, a, n_out):
    """b[n] = sum_k sym[n+k] a[k], n = 0..n_out."""
    sym = np.ascontiguousarray(sym)
    a = np.ascontiguousarray(a, dtype=sym.dtype)
    need = n_out + a.shape[0]
    if sym.shape[0] < need:
        raise ValueError("symbol array too short for requested output degree")
    return np.correlate(sym[:need], np.conj(a), mode="valid")[: n_out + 1]


def power_iteration(m, v0, tol, max_iter):
    """Largest singular value of m via power iteration on v -> m^H (m v).

    Returns (sigma, converged, iterations).  Convergence is declared when
    successive Rayleigh quotients rho = ||m v||^2 differ relatively by < tol.
    """
    m = np.ascontiguousarray(m)
    if m.ndim != 2:
        raise ValueError("power_iteration expects a 2-D array")
    if not m.any():
        return 0.0, True, 0
    v = v0.astype(m.dtype)
    v = v / np.linalg.norm(v)
    if np.iscomplexobj(m):
        mh = np.ascontiguousarray(m.conj().T)
    else:
        mh = m.T  # view; BLAS handles the transpose
    rho_prev = -1.0
    rho = 0.0
    for it in range(1, max_iter + 1):
        w = m @ v
        rho = float(np.real(np.vdot(w, w)))
        if rho == 0.0:
            return 0.0, True, it
        if rho_prev >= 0.0 and abs(rho - rho_prev) <= tol * rho:
            return float(np.sqrt(rho)), True, it
        rho_prev = rho
        u = mh @ w
        nu = np.linalg.norm(u)
        if nu == 0.0:
            return 0.0, True, it
        v = u / nu
    return float(np.sqrt(rho)), False, max_iter
