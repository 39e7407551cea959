"""Property tests of the Gram assembly against its defining sum."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirspace import _accel
from dirspace.carleson import symbol_gram
from dirspace.coeffspace import TaylorPoly

_CASES = dict(
    length=st.integers(1, 12),
    n=st.integers(0, 12),
    complex_c=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


def _coeffs(length, complex_c, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(length)
    return c + 1j * rng.standard_normal(length) if complex_c else c


def _defining_sum(c, n, w):
    """G[j,k] = sum_a c[a] conj(c[a+j-k]) w[j+a], and the same sum of moduli."""
    g = np.zeros((n + 1, n + 1), dtype=np.complex128)
    bound = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        for k in range(n + 1):
            for a in range(len(c)):
                if 0 <= a + j - k < len(c):
                    term = c[a] * np.conj(c[a + j - k]) * w[j + a]
                    g[j, k] += term
                    bound[j, k] += abs(term)
    return g, bound


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(**_CASES, extra=st.integers(0, 3))
@example(length=12, n=3, complex_c=True, seed=0, extra=0)  # n < len(c) - 1
@example(length=12, n=0, complex_c=False, seed=1, extra=0)
def test_gram_matches_defining_sum(length, n, complex_c, seed, extra):
    c = _coeffs(length, complex_c, seed)
    w = np.random.default_rng(seed + 1).uniform(0.1, 1.0, n + length + extra)
    g = _accel.gram(c, n, w)
    want, bound = _defining_sum(c, n, w)
    assert g.shape == (n + 1, n + 1)
    assert np.iscomplexobj(g) == complex_c
    # at most 12 products per entry, and sqrt(w)^2 rounds w by a few ulps
    assert np.all(np.abs(g - want) <= 1e-14 * bound)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(**_CASES)
def test_symbol_gram_is_hermitian(length, n, complex_c, seed):
    # b of degree len(c) has a derivative with len(c) coefficients
    b = TaylorPoly(np.concatenate([[0.5], _coeffs(length, complex_c, seed)]))
    g = symbol_gram(b, n)
    assert g.shape == (n + 1, n + 1)
    assert np.array_equal(g, g.conj().T)
    assert np.array_equal(symbol_gram(b, n, 0.25), symbol_gram(b, n, 0.25).conj().T)
