"""Hot numeric kernels in numpy/BLAS: dense weighted sections, Gram assembly,
convolution with a fixed sequence (direct or by FFT) and the Hankel contraction
built on it, power iteration on dense arrays and Golub-Kahan-Lanczos
bidiagonalization on matrix-free operators.  They keep no state and draw no
random numbers, so a fixed input gives bit-identical output on a fixed numpy
build.
"""

import numpy as np
import scipy


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
    a = scipy.linalg.toeplitz(np.concatenate([c, np.zeros(n)]), np.zeros(n + 1))
    a *= np.sqrt(w[:rows])[:, None]
    return a.T @ a.conj()


#: length of the shorter operand up to which a product with a fixed sequence is
#: numpy's direct convolution: O(len(h) * m) time, but up to here faster than
#: the few calls of an FFT product
_DIRECT_MAX_DIM = 512


def convolution(h, m, mode):
    """y -> np.convolve(h, y, mode) for y of length m and the dtype of h, with
    mode 'full' or 'valid'.

    Direct while the shorter of h and y has length <= _DIRECT_MAX_DIM.  Past
    that each product is one cyclic convolution of power-of-two length, long
    enough that nothing wraps into the entries kept, with the spectrum of h
    computed once.
    """
    shorter, longer = sorted((h.shape[0], m))
    if shorter <= _DIRECT_MAX_DIM:
        return lambda y: np.convolve(h, y, mode)
    lo, hi = (0, longer + shorter - 1) if mode == "full" else (shorter - 1, longer)
    size = 1 << (hi - 1).bit_length()
    if np.iscomplexobj(h):
        spec = np.fft.fft(h, size)
        return lambda y: np.fft.ifft(spec * np.fft.fft(y, size))[lo:hi]
    spec = np.fft.rfft(h, size)
    return lambda y: np.fft.irfft(spec * np.fft.rfft(y, size), size)[lo:hi]


def hankel_dot(sym, a, n_out):
    """b[n] = sum_k sym[n+k] a[k], n = 0..n_out: the valid convolution of sym
    with a reversed."""
    sym = np.ascontiguousarray(sym)
    a = np.ascontiguousarray(a, dtype=sym.dtype)
    need = n_out + a.shape[0]
    if sym.shape[0] < need:
        raise ValueError("symbol array too short for requested output degree")
    return convolution(sym[:need], a.shape[0], "valid")(a[::-1])


def power_iteration(m, v0, tol, max_iter):
    """Largest singular value of m via power iteration on v -> m^H (m v).

    Returns (sigma, converged, iterations).  Convergence is declared when
    successive Rayleigh quotients rho = ||m v||^2 differ relatively by < tol.
    """
    m = np.ascontiguousarray(m)
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


def _norm(w):
    return np.sqrt(np.vdot(w, w).real)


def _orthogonalize(basis, w):
    """w minus its projection on the orthonormal rows of basis, and its norm.

    A second pass runs when the first removes most of w ("twice is enough",
    Parlett 1980), so a nearly dependent w still leaves orthogonal to basis.
    """
    for _ in range(2):
        before = _norm(w)
        w = w - basis.T @ np.conj(basis @ np.conj(w))
        after = _norm(w)
        if after > 0.5 * before:
            break
    return w, after


def _top_ritz(alpha, beta):
    """Top singular value of the upper bidiagonal B (diagonal alpha, superdiagonal
    beta) and the last entry of its left singular vector, from the top
    eigenpair of the tridiagonal B B^T (LAPACK bisection and inverse iteration)."""
    k = alpha.shape[0]
    if k == 1:
        return float(alpha[0]), 1.0
    d = alpha * alpha
    d[:-1] += beta * beta
    e = beta * alpha[1:]
    _, w, block, split, _ = scipy.linalg.lapack.dstebz(d, e, 2, 0.0, 0.0, k, k, 0.0, b"B")
    z, _ = scipy.linalg.lapack.dstein(d, e, w[:1], block, split)
    return float(np.sqrt(w[0])), float(z[-1, 0])


def golub_kahan(matvec, rmatvec, v0, tol, max_steps):
    """Largest singular value of a matrix-free q x p operator A by
    Golub-Kahan-Lanczos bidiagonalization from v0 (length p), with full
    reorthogonalization.

    matvec(x) = A x and rmatvec(y) = A^H y; q is read off the first product.
    After k steps A V_k = U_k B_k and A^H U_k = V_k B_k^T + beta_k v_{k+1} e_k^T,
    with B_k upper bidiagonal (alpha on the diagonal, beta above it).  The top
    singular value sigma of B_k, with left singular vector x, has residual
    beta_k |x_k|; the solve stops when that is <= tol * sigma, or after
    min(max_steps, p, q) steps.  sigma is the norm of a compression of A, so it
    does not exceed ||A|| beyond rounding.  Once V_k spans all p columns, or
    U_k all q rows, sigma is exact and the residual is reported as 0.  The
    bases start at 16 rows and grow by half when full.  If A v0 = 0 (as for
    the zero operator) sigma is exactly 0.0.

    Returns (sigma, converged, steps, residual).
    """
    p = v0.shape[0]
    v = v0 / _norm(v0)
    u = matvec(v)
    q = u.shape[0]
    max_steps = min(max_steps, p, q)
    alpha, beta = np.empty(max_steps), np.empty(max_steps)
    vs = np.empty((min(max_steps, 16), p), dtype=v0.dtype)
    us = np.empty((vs.shape[0], q), dtype=v0.dtype)
    vs[0] = v
    alpha[0] = _norm(u)
    if alpha[0] == 0.0:
        return 0.0, True, 1, 0.0
    us[0] = u / alpha[0]
    for k in range(1, max_steps + 1):
        w, beta[k - 1] = _orthogonalize(vs[:k], rmatvec(us[k - 1]) - alpha[k - 1] * vs[k - 1])
        if k == q < p:  # A^H U_k = [V_k, v_{k+1}] [B_k, beta_k e_k]^T is all of A^H
            return _top_ritz(np.append(alpha[:k], 0.0), beta[:k])[0], True, k, 0.0
        sigma, x_last = _top_ritz(alpha[:k], beta[: k - 1])
        residual = 0.0 if k == p else float(beta[k - 1] * abs(x_last))  # A V_p = U_p B_p is all of A
        converged = residual <= tol * sigma
        if converged or k == max_steps:
            return sigma, converged, k, residual
        if k == vs.shape[0]:  # grow both bases by half
            extra = min(k // 2, max_steps - k)
            vs = np.concatenate([vs, np.empty((extra, p), dtype=vs.dtype)])
            us = np.concatenate([us, np.empty((extra, q), dtype=us.dtype)])
        vs[k] = w / beta[k - 1]
        r, alpha[k] = _orthogonalize(us[:k], matvec(vs[k]) - beta[k - 1] * us[k - 1])
        if alpha[k] == 0.0:  # A maps span(V_{k+1}) into span(U_k): sigma is exact
            return _top_ritz(alpha[: k + 1], beta[:k])[0], True, k + 1, 0.0
        us[k] = r / alpha[k]
