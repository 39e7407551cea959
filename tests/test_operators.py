import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from conftest import random_poly, seeded_uniforms
from dirspace import _accel, operators
from dirspace.coeffspace import TaylorPoly, normalized_kernel_coeffs, space_norm
from dirspace.measures import MeasureSpec
from dirspace.operators import (
    cesaro_apply,
    cesaro_rkt_norm,
    exact_norm_interval,
    hankel_apply,
    section_matrix,
    tail_section_norm,
    top_singular_value,
)
from dirspace.stochastic import DistTag, RngSpec, sample_symbol
from dirspace.symbols import SymbolSeq


def hilbert_symbol():
    return SymbolSeq.powerlog(1.0, 0.0)


def test_symbol_value_dispatch():
    assert hilbert_symbol().value(4) == pytest.approx(0.2)
    assert SymbolSeq.explicit([2, 0, 1]).value(7) == 0
    assert SymbolSeq.from_measure(MeasureSpec.lebesgue()).value(9) == pytest.approx(0.1)


# -- coefficient actions ------------------------------------------------------


def test_hankel_apply_zero_symbol():
    out = hankel_apply(SymbolSeq.explicit([0.0]), random_poly(3, 0, 6), 8)
    assert np.all(out.coeffs == 0)


def test_hankel_apply_hilbert_on_one():
    out = hankel_apply(hilbert_symbol(), TaylorPoly([1.0]), 6)
    assert np.allclose(out.coeffs, 1.0 / np.arange(1.0, 8.0))


def test_hankel_apply_delta_symbol():
    # lambda_0 = 1 only: just (a_0, 0, 0, ...) survives
    out = hankel_apply(SymbolSeq.explicit([1.0]), TaylorPoly([3.0, 4.0, 5.0]), 5)
    assert np.allclose(out.coeffs, [3, 0, 0, 0, 0, 0])


def test_hankel_apply_matches_direct_sum():
    s = SymbolSeq.explicit(seeded_uniforms(5, 1, 16))
    f = random_poly(5, 2, 7)
    out = hankel_apply(s, f, 6)
    for n in range(7):
        direct = sum(s.value(n + k) * f.coeffs[k] for k in range(8))
        assert out.coeffs[n] == pytest.approx(direct, abs=1e-14)


@pytest.mark.parametrize("degree", [100, 4096])
@pytest.mark.parametrize("complex_data", [False, True])
def test_hankel_dot_matches_the_direct_correlation(degree, complex_data):
    # direct up to _DIRECT_MAX_DIM, one FFT product past it
    sym = seeded_uniforms(71, degree, 2 * degree + 1) - 0.5
    a = seeded_uniforms(72, degree, degree + 1) - 0.5
    if complex_data:
        sym = sym + 1j * (seeded_uniforms(73, degree, 2 * degree + 1) - 0.5)
        a = a + 1j * (seeded_uniforms(74, degree, degree + 1) - 0.5)
    got = _accel.hankel_dot(sym, a, degree)
    want = np.correlate(sym, np.conj(a), "valid")
    if degree < _accel._DIRECT_MAX_DIM:
        assert np.array_equal(got, want)
    else:
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(sym) * np.linalg.norm(a)


def test_hankel_apply_linearity():
    s = SymbolSeq.powerlog(1.0, 1.0)
    f, g = random_poly(6, 0, 9), random_poly(6, 1, 9)
    lhs = hankel_apply(s, TaylorPoly(2.0 * f.coeffs + 3j * g.coeffs), 12)
    rhs = 2.0 * hankel_apply(s, f, 12).coeffs + 3j * hankel_apply(s, g, 12).coeffs
    assert np.allclose(lhs.coeffs, rhs, atol=1e-14)


def test_cesaro_apply_examples():
    ces = SymbolSeq.powerlog(1.0, 0.0)  # eta_n = 1/(n+1)
    out = cesaro_apply(ces, TaylorPoly([1.0]), 5)
    assert np.allclose(out.coeffs, 1.0 / np.arange(1.0, 7.0))
    assert np.all(cesaro_apply(ces, TaylorPoly([0.0]), 5).coeffs == 0)
    out = cesaro_apply(SymbolSeq.explicit([1.0, 1.0]), TaylorPoly([1.0, 2.0, 3.0]), 4)
    assert np.allclose(out.coeffs, [1, 3, 0, 0, 0])


def test_cesaro_apply_linearity():
    s = SymbolSeq.explicit(seeded_uniforms(7, 0, 12))
    f, g = random_poly(7, 1, 10), random_poly(7, 2, 10)
    lhs = cesaro_apply(s, TaylorPoly(f.coeffs - 2j * g.coeffs), 11)
    rhs = cesaro_apply(s, f, 11).coeffs - 2j * cesaro_apply(s, g, 11).coeffs
    assert np.allclose(lhs.coeffs, rhs, atol=1e-14)


# -- sections -----------------------------------------------------------------


def test_section_single_entry():
    s = SymbolSeq.explicit([2.5])
    m = section_matrix(s, "hankel", "dirichlet-section", 4)
    expect = np.zeros((4, 4))
    expect[0, 0] = 2.5
    assert np.allclose(m, expect)


def test_section_antidiagonal_weights():
    s = SymbolSeq.explicit([0.0, 0.0, 1.0])
    m = section_matrix(s, "hankel", "dirichlet-section", 3)
    assert m[0, 2] == pytest.approx(np.sqrt(1.0 / 3.0))
    assert m[1, 1] == pytest.approx(1.0)
    assert m[2, 0] == pytest.approx(np.sqrt(3.0))
    assert m[0, 0] == 0.0 and m[2, 2] == 0.0


def test_section_rejects_exact_weights():
    with pytest.raises(ValueError):
        section_matrix(hilbert_symbol(), "hankel", "dirichlet-exact", 8)


def test_cesaro_section_lower_triangular():
    s = SymbolSeq.explicit([1.0, 2.0, 3.0])
    m = section_matrix(s, "cesaro", "dirichlet-section", 3)
    assert m[0, 1] == 0.0 and m[0, 2] == 0.0 and m[1, 2] == 0.0
    assert m[1, 0] == pytest.approx(2.0 * np.sqrt(2.0))
    assert m[2, 2] == pytest.approx(3.0)


def test_transpose_duality_exact():
    for i in range(10):
        vals = seeded_uniforms(900, i, 63) + 1j * seeded_uniforms(901, i, 63)
        s = SymbolSeq.explicit(vals)
        a = section_matrix(s, "hankel", "dirichlet-section", 32)
        b = section_matrix(s, "hankel", "bergman", 32)
        assert np.array_equal(a.T, b)


def test_pairing_symmetry():
    # sum_n (H f)_n g_n = sum_n f_n (H g)_n exactly up to rounding
    s = SymbolSeq.explicit(seeded_uniforms(11, 3, 24) + 1j * seeded_uniforms(12, 3, 24))
    f, g = random_poly(13, 0, 11), random_poly(13, 1, 11)
    hf = hankel_apply(s, f, 12).coeffs
    hg = hankel_apply(s, g, 12).coeffs
    lhs = np.sum(hf[: g.degree + 1] * g.coeffs)
    rhs = np.sum(f.coeffs * hg[: f.degree + 1])
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# -- norms --------------------------------------------------------------------


def test_top_singular_value_single_entry():
    s = SymbolSeq.explicit([-3.0 + 4.0j])
    sigma, conv = top_singular_value(section_matrix(s, "hankel", "dirichlet-section", 4))
    assert conv and sigma == pytest.approx(5.0, rel=1e-10)


def test_top_singular_value_antidiagonal():
    # single lambda_J = 1: top singular value sqrt(J+1) at (j,k) = (J,0)
    J = 5
    s = SymbolSeq.explicit([0.0] * J + [1.0])
    sigma, conv = top_singular_value(section_matrix(s, "hankel", "dirichlet-section", J + 2))
    assert conv and sigma == pytest.approx(np.sqrt(J + 1.0), rel=1e-9)


def test_top_singular_value_zero_matrix():
    sigma, conv = top_singular_value(np.zeros((6, 6)))
    assert sigma == 0.0 and conv


def test_top_singular_value_matches_numpy_svd():
    mats = []
    for i in range(5):
        vals = seeded_uniforms(31, i, 41) + 1j * seeded_uniforms(32, i, 41)
        mats.append(section_matrix(SymbolSeq.explicit(vals), "hankel", "dirichlet-section", 21))
    # dense matrices with no Hankel structure, real and complex
    dense = seeded_uniforms(5, 0, 40 * 40).reshape(40, 40)
    mats.append(dense)
    mats.append(dense + 1j * seeded_uniforms(5, 1, 40 * 40).reshape(40, 40))
    for m in mats:
        sigma, conv = top_singular_value(m, tol=1e-13, max_iter=50000)
        assert conv
        ref = np.linalg.svd(m, compute_uv=False)[0]
        assert sigma == pytest.approx(ref, rel=1e-9)


def test_top_singular_value_rejects_bad_iteration_settings():
    sec = section_matrix(hilbert_symbol(), "hankel", "dirichlet-section", 8)
    for kwargs in ({"max_iter": 0}, {"max_iter": -3}, {"tol": 0.0}):
        with pytest.raises(ValueError):
            top_singular_value(sec, **kwargs)
    for bad in (np.zeros((0, 0)), np.zeros((3, 0)), np.ones(4)):
        with pytest.raises(ValueError, match="2-D matrix"):
            top_singular_value(bad)


def test_top_singular_value_rejects_non_finite_dense_data():
    m = np.eye(3)
    m[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        top_singular_value(m)


def test_tail_section_norm_rejects_overflowed_symbol_values():
    # powerlog(-300, 0) overflows to inf from index 10 on, so the section has
    # no finite norm to report
    s = SymbolSeq.powerlog(-300.0, 0.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        tail_section_norm(s, "hankel", 0, 64)


@pytest.mark.parametrize(
    "m, want",
    [
        (np.array([[4.9e-222]]), 4.9e-222),
        # |a|^2 of every iterate underflows unless the matrix is scaled first
        (section_matrix(SymbolSeq.explicit([1e-170, 2e-170]), "hankel", "dirichlet-section", 2), None),
        (np.full((3, 4), 1e300), 1e300 * np.sqrt(12.0)),
    ],
    ids=["subnormal-entry", "tiny-section", "huge-entries"],
)
def test_top_singular_value_of_tiny_and_huge_matrices(m, want):
    want = linalg.svdvals(m)[0] if want is None else want
    sigma, conv = top_singular_value(m, tol=1e-13)
    assert conv and abs(sigma - want) <= 1e-12 * want


def _dense_map(m):
    return operators.LinearMap(lambda x: m @ x, lambda y: m.conj().T @ y, m.shape, m.dtype)


@pytest.mark.parametrize("shape", [(40, 25), (25, 40), (7, 3), (3, 7), (1, 9), (9, 1)])
@pytest.mark.parametrize("complex_m", [False, True])
def test_golub_kahan_on_rectangular_operators(shape, complex_m):
    q, p = shape
    m = seeded_uniforms(61, p, q * p).reshape(q, p) - 0.5
    if complex_m:
        m = m + 1j * (seeded_uniforms(62, p, q * p).reshape(q, p) - 0.5)
    v0 = seeded_uniforms(63, q, p).astype(m.dtype)
    sigma, converged, steps, residual = _accel.golub_kahan(*_dense_map(m)[:2], v0, 1e-12, 1000)
    want = linalg.svdvals(m)[0]
    assert converged and steps <= min(p, q) and residual <= 1e-12 * sigma
    assert abs(sigma - want) <= 1e-12 * want
    assert top_singular_value(_dense_map(m), tol=1e-12)[0] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("shape", [(6, 9), (9, 6)])
def test_golub_kahan_stops_exactly_on_a_rank_one_operator(shape):
    # one nonzero row: A v lies on e_2, and removing u_1 = +-e_2 from it is exact
    m = np.zeros(shape)
    m[2] = seeded_uniforms(64, 0, shape[1]) - 0.5
    v0 = seeded_uniforms(65, 0, shape[1])
    sigma, converged, steps, residual = _accel.golub_kahan(*_dense_map(m)[:2], v0, 1e-14, 1000)
    assert (converged, steps, residual) == (True, 2, 0.0)
    assert sigma == pytest.approx(np.linalg.norm(m[2]), rel=1e-14)


def test_section_norm_monotone_in_n():
    s = SymbolSeq.powerlog(1.0, 1.0)
    sig = []
    for n in (16, 32, 64, 128):
        sigma, _ = top_singular_value(section_matrix(s, "hankel", "dirichlet-section", n))
        sig.append(sigma)
    for a, b in zip(sig, sig[1:]):
        assert b >= a - 1e-9 * max(a, 1.0)


def test_tail_section_norm_basics():
    s = SymbolSeq.powerlog(1.0, 1.0)
    full, _ = top_singular_value(section_matrix(s, "hankel", "dirichlet-section", 64))
    assert tail_section_norm(s, "hankel", 0, 64) == pytest.approx(full, rel=1e-9)
    # explicit symbol supported below 2m: restricted section vanishes
    s2 = SymbolSeq.explicit([1.0, 1.0, 1.0])
    assert tail_section_norm(s2, "hankel", 2, 8) == 0.0


def test_tail_section_norm_monotone_in_m():
    s = SymbolSeq.from_measure(MeasureSpec.point_mass(0.5))
    tails = [tail_section_norm(s, "hankel", m, 64) for m in (0, 2, 4, 8)]
    for a, b in zip(tails, tails[1:]):
        assert b <= a + 1e-12


def _drawn_symbols():
    coeff = st.floats(-1.0, 1.0, allow_subnormal=False) | st.complex_numbers(max_magnitude=1.0)
    explicit = st.builds(SymbolSeq.explicit, st.lists(coeff, min_size=1, max_size=100))
    powerlog = st.builds(SymbolSeq.powerlog, st.floats(0.5, 2.0), st.floats(0.0, 2.0))
    lacunary = st.builds(
        SymbolSeq.lacunary_rule, st.integers(1, 8), st.floats(1.5, 4.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0)
    )
    return st.one_of(explicit, powerlog, lacunary)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    sym=_drawn_symbols(),
    kind=st.sampled_from(["hankel", "cesaro"]),
    n=st.integers(2, 40),
    extra=st.integers(1, 8),
    m_grid=st.lists(st.integers(0, 39), min_size=1, max_size=4, unique=True).map(sorted),
)
def test_tail_section_norms_monotone(sym, kind, n, extra, m_grid):
    # a principal submatrix has no larger norm: tail-section norms do not
    # increase in m and do not decrease in n
    m_grid = [m for m in m_grid if m < n] or [0]

    def norm(m, dim):
        return tail_section_norm(sym, kind, m, dim, tol=1e-13, max_iter=20000)

    small = [norm(m, n) for m in m_grid]
    large = [norm(m, n + extra) for m in m_grid]
    for a, b in zip(small, small[1:]):
        assert b <= a * (1.0 + 1e-12)
    for a, b in zip(small, large):
        assert a <= b * (1.0 + 1e-12)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(sym=_drawn_symbols(), n=st.integers(1, 48))
def test_transpose_duality_for_drawn_symbols(sym, n):
    a = section_matrix(sym, "hankel", "dirichlet-section", n)
    assert np.array_equal(section_matrix(sym, "hankel", "bergman", n), a.T)


@st.composite
def _tail_sections(draw):
    """(symbol, kind, m, n) with n <= 128: explicit real and complex symbols,
    powerlog, lacunary rules, Lebesgue moments and randomized samples."""
    real = st.floats(-1.0, 1.0, allow_subnormal=False)
    sym = draw(
        st.one_of(
            st.builds(SymbolSeq.explicit, st.lists(real, min_size=1, max_size=255)),
            st.builds(
                SymbolSeq.explicit,
                st.lists(st.complex_numbers(max_magnitude=1.0, allow_subnormal=False), min_size=1, max_size=255),
            ),
            st.builds(SymbolSeq.powerlog, st.floats(0.5, 2.0), st.floats(0.0, 2.0)),
            st.builds(
                SymbolSeq.lacunary_rule,
                st.integers(1, 8), st.floats(1.5, 4.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0),
            ),
            st.just(SymbolSeq.from_measure(MeasureSpec.lebesgue())),
            st.builds(
                lambda alpha, dist, seed: sample_symbol(SymbolSeq.powerlog(alpha, 1.0), DistTag(dist), RngSpec(seed), 254),
                st.floats(0.5, 1.5),
                st.sampled_from(["rademacher", "uniform-symmetric", "gaussian"]),
                st.integers(0, 2**32),
            ),
        )
    )
    n = draw(st.integers(1, 128))
    return sym, draw(st.sampled_from(["hankel", "cesaro"])), draw(st.integers(0, n - 1)), n


def _dense_tail(sym, kind, m, n):
    return section_matrix(sym, kind, "dirichlet-section", n)[m:, m:]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=_tail_sections(), fft=st.booleans())
def test_structured_operator_matches_dense_section(case, fft):
    sym, kind, m, n = case
    dense = _dense_tail(sym, kind, m, n)
    with pytest.MonkeyPatch.context() as patch:
        if fft:  # the FFT Hankel product, which otherwise runs only past 512
            patch.setattr(_accel, "_DIRECT_MAX_DIM", 0)
        op = operators._tail_operator(sym, kind, m, n)
    x = seeded_uniforms(17, n, n - m) - 0.5
    if np.issubdtype(op.dtype, np.complexfloating):
        x = x + 1j * (seeded_uniforms(18, n, n - m) - 0.5)
    scale = 2.0**op.exponent
    bound = 1e-13 * np.linalg.norm(dense) * np.linalg.norm(x)
    assert np.linalg.norm(scale * op.matvec(x) - dense @ x) <= bound
    assert np.linalg.norm(scale * op.rmatvec(x) - dense.conj().T @ x) <= bound


def _assert_matches_lapack(got, dense):
    want = linalg.svdvals(dense)[0]
    assert abs(got - want) <= 1e-12 * want
    assert got <= want * (1.0 + 1e-13)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=_tail_sections())
def test_tail_section_norm_matches_lapack(case):
    sym, kind, m, n = case
    _assert_matches_lapack(tail_section_norm(sym, kind, m, n), _dense_tail(sym, kind, m, n))


@pytest.mark.parametrize("replica", range(4))
def test_random_sim_replica_matches_lapack(replica):
    # replicas of a benchmark random-sim job: sigma_2 / sigma_1 is 0.994 to
    # 0.9996, so a solve that stops early is off by up to 1e-3 relative
    n, m = 1024, 512
    sym = sample_symbol(SymbolSeq.powerlog(1.0, 1.0), DistTag("rademacher"), RngSpec(20260809, replica), 2 * n - 2)
    _assert_matches_lapack(tail_section_norm(sym, "hankel", m, n), _dense_tail(sym, "hankel", m, n))


@pytest.mark.parametrize("value", [4.9e-222, 5e-324j, -1e300, 1e300 - 1e300j, -3.0 + 4.0j, 0.0])
def test_tail_section_norm_of_tiny_and_huge_symbols(value):
    # one nonzero entry, at (0, 0): squared norms of such vectors under- or
    # overflow unless the operator is scaled first; the zero symbol gives 0.0
    for kind in ("hankel", "cesaro"):
        sigma = tail_section_norm(SymbolSeq.explicit([value]), kind, 0, 4)
        if value == 0.0:
            assert sigma == 0.0
        else:
            assert sigma == pytest.approx(abs(value), rel=1e-14)


@pytest.mark.parametrize("kind", ["hankel", "cesaro"])
def test_tail_section_norm_of_a_slice_off_the_support(kind):
    # no support point in the slice (indices 80..118 for the Hankel section,
    # 40..59 for the Cesaro one): the tail is the zero operator
    assert tail_section_norm(SymbolSeq.lacunary([1, 64], [1.0, 1.0]), kind, 40, 60) == 0.0


def test_tail_section_norm_in_linear_memory():
    hilbert = SymbolSeq.from_measure(MeasureSpec.lebesgue())
    tracemalloc.start()
    try:
        sigma = tail_section_norm(hilbert, "hankel", 0, 2**16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # the dense section would take 32 GiB
    assert sigma >= tail_section_norm(hilbert, "hankel", 0, 2**14)
    ref, converged = top_singular_value(section_matrix(hilbert, "hankel", "dirichlet-section", 2**12), tol=1e-14)
    assert converged
    assert abs(tail_section_norm(hilbert, "hankel", 0, 2**12) - ref) <= 1e-11


def test_tail_section_norm_validation():
    with pytest.raises(ValueError):
        tail_section_norm(hilbert_symbol(), "hankel", 8, 8)


# -- cesaro closed form -------------------------------------------------------


def test_cesaro_rkt_norm_at_zero():
    s = SymbolSeq.explicit([2.0, 1.0, 0.5])
    want = np.sqrt(4.0 + 1.0 * 1.0 + 2.0 * 0.25)
    assert cesaro_rkt_norm(s, 0.0, 8) == pytest.approx(want, rel=1e-14)


def test_cesaro_rkt_norm_constant_symbol():
    s = SymbolSeq.explicit([1.0])
    for t in (0.0, 0.3, 0.8):
        want = (1.0 + np.log(1.0 / (1.0 - t * t))) ** -0.5
        assert cesaro_rkt_norm(s, t, 32) == pytest.approx(want, rel=1e-14)


def test_cesaro_rkt_norm_matches_pipeline():
    s = SymbolSeq.powerlog(1.0, 1.0)
    t, n = 0.5, 256
    closed = cesaro_rkt_norm(s, t, n)
    kern, _ = normalized_kernel_coeffs(t, n + 1)
    pipeline = space_norm(cesaro_apply(s, kern, n + 1), "dirichlet-exact")
    assert abs(closed - pipeline) <= 1e-8


@pytest.mark.parametrize("t", [0.1, 0.6, 0.9])
@pytest.mark.parametrize("n", [64, 256])
def test_cesaro_rkt_norm_grid_consistency(t, n):
    s = SymbolSeq.powerlog(1.2, 0.8)
    closed = cesaro_rkt_norm(s, t, n)
    kern, _ = normalized_kernel_coeffs(t, n + 1)
    pipeline = space_norm(cesaro_apply(s, kern, n + 1), "dirichlet-exact")
    assert closed == pytest.approx(pipeline, rel=1e-12)


def test_cesaro_rkt_norm_complex_symbol():
    vals = (seeded_uniforms(91, 0, 40) - 0.5) + 1j * (seeded_uniforms(91, 1, 40) - 0.5)
    s = SymbolSeq.explicit(vals)
    t, n = 0.45, 64
    closed = cesaro_rkt_norm(s, t, n)
    kern, _ = normalized_kernel_coeffs(t, n + 1)
    pipeline = space_norm(cesaro_apply(s, kern, n + 1), "dirichlet-exact")
    assert closed == pytest.approx(pipeline, rel=1e-12)


def test_exact_norm_interval():
    lo, hi = exact_norm_interval(2.0)
    assert lo == pytest.approx(np.sqrt(2.0))
    assert hi == pytest.approx(2.0 * np.sqrt(2.0))
