import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from conftest import quad_gram_entry, random_poly
from dirspace import operators
from dirspace.carleson import (
    VANISH_DELTA,
    classify_hankel_general,
    finite_test_carleson_norm,
    mixed_norm,
    restricted_carleson_norm,
    symbol_gram,
    symbol_poly,
    x_norm,
)
from dirspace.coeffspace import TaylorPoly, weight_sequence
from dirspace.measures import MeasureSpec
from dirspace.symbols import SymbolSeq


def test_gram_zero_symbol():
    g = symbol_gram(TaylorPoly([0.0]), 4)
    assert np.all(g == 0.0)


def test_gram_b_equals_z():
    g = symbol_gram(TaylorPoly([0.0, 1.0]), 5)
    assert np.allclose(g, np.diag(1.0 / np.arange(1.0, 7.0)))


def test_gram_b_equals_z_squared():
    g = symbol_gram(TaylorPoly([0.0, 0.0, 1.0]), 4)
    assert np.allclose(g, np.diag(4.0 / np.arange(2.0, 7.0)))


def test_gram_matches_polar_quadrature():
    for i in range(6):
        b = random_poly(201, i, 8)
        g = symbol_gram(b, 8)
        for j, k in [(0, 0), (1, 3), (4, 2), (8, 8), (2, 7)]:
            assert g[j, k] == pytest.approx(quad_gram_entry(b, j, k), abs=1e-10)


def test_gram_positive_semidefinite():
    for i in range(6):
        b = random_poly(77, i, 10)
        eig = np.linalg.eigvalsh(symbol_gram(b, 12))
        assert eig.min() >= -1e-12


def test_finite_test_norm_examples():
    assert finite_test_carleson_norm(TaylorPoly([0.0, 1.0]), 8) == pytest.approx(1.0, rel=1e-10)
    assert finite_test_carleson_norm(TaylorPoly([0.0]), 8) == 0.0


def test_finite_test_norm_scaling():
    b = random_poly(31, 2, 6)
    v1 = finite_test_carleson_norm(b, 10)
    v2 = finite_test_carleson_norm(TaylorPoly(b.coeffs * (2.0 - 1.0j)), 10)
    assert v2 == pytest.approx(abs(2.0 - 1.0j) ** 2 * v1, rel=1e-9)


def test_finite_test_norm_monotone_in_degree():
    b = symbol_poly(SymbolSeq.powerlog(1.0, 1.0), 256)
    vals = [finite_test_carleson_norm(b, n) for n in (32, 64, 128, 256)]
    for a, c in zip(vals, vals[1:]):
        assert c >= a - 1e-10


def _dense_norm(b, n, delta=None):
    """Top eigenvalue of D^(-1/2) G D^(-1/2) from the assembled Gram."""
    scale = 1.0 / np.sqrt(weight_sequence("dirichlet-exact", n))
    return linalg.eigvalsh(symbol_gram(b, n, delta) * scale[:, None] * scale[None, :])[-1]


def _assert_matches_dense_gram(b, n, delta):
    got = finite_test_carleson_norm(b, n) if delta is None else restricted_carleson_norm(b, n, delta)
    want = _dense_norm(b, n, delta)
    assert abs(got - want) <= 1e-12 * want


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    degree=st.integers(1, 128),
    n=st.integers(0, 128),
    complex_b=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    delta=st.one_of(st.none(), st.floats(2.0**-8, 0.99)),
)
def test_carleson_norms_match_the_dense_gram(degree, n, complex_b, seed, delta):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(degree + 1)
    if complex_b:
        coeffs = coeffs + 1j * rng.standard_normal(degree + 1)
    _assert_matches_dense_gram(TaylorPoly(coeffs), n, delta)


@pytest.mark.parametrize(
    "n, delta, rotated", [(600, None, False), (600, VANISH_DELTA, True), (1024, None, True), (1024, VANISH_DELTA, False)]
)
def test_carleson_norms_match_the_dense_gram_past_the_fft_switch(n, delta, rotated):
    b = symbol_poly(SymbolSeq.powerlog(1.0, 1.0), n)
    if rotated:
        b = TaylorPoly(b.coeffs * np.exp(1j * np.arange(n + 1.0)))
    _assert_matches_dense_gram(b, n, delta)


def test_carleson_norms_of_zero_and_tiny_symbols():
    for b in (TaylorPoly([0.0]), TaylorPoly([3.0, 0.0])):
        assert finite_test_carleson_norm(b, 16) == 0.0
        assert restricted_carleson_norm(b, 16, 0.5) == 0.0
    # squared Gram entries of 1e-150 z underflow unless b' is scaled first
    assert abs(finite_test_carleson_norm(TaylorPoly([0.0, 1e-150]), 16) - 1e-300) <= 1e-12 * 1e-300
    tiny = restricted_carleson_norm(TaylorPoly([0.0, 1e-150j]), 16, 0.25)
    assert abs(tiny - 1e-300 * (1.0 - 0.75**2)) <= 1e-12 * tiny
    # 1e-160^2 is subnormal: fewer digits, but not zero
    assert finite_test_carleson_norm(TaylorPoly([0.0, 1e-160, 1e-160]), 16) > 0.0


def test_x_norm_examples():
    assert x_norm(TaylorPoly([1.0]), 4) == pytest.approx(1.0)
    assert x_norm(TaylorPoly([1.0, 1.0]), 8) == pytest.approx(2.0, rel=1e-10)
    assert x_norm(TaylorPoly([0.0]), 4) == 0.0


def test_restricted_norm_examples():
    b = TaylorPoly([0.0, 1.0])
    assert restricted_carleson_norm(b, 0, 0.25) == pytest.approx(1.0 - 0.75**2, rel=1e-12)
    # delta -> 1 recovers the full-disk value
    assert restricted_carleson_norm(b, 6, 1.0 - 1e-14) == pytest.approx(
        finite_test_carleson_norm(b, 6), rel=1e-9
    )
    assert restricted_carleson_norm(TaylorPoly([0.0]), 4, 0.5) == 0.0
    with pytest.raises(ValueError):
        restricted_carleson_norm(b, 4, 0.0)


def test_restricted_norm_monotone_in_delta():
    b = random_poly(41, 1, 8)
    vals = [restricted_carleson_norm(b, 12, d) for d in (0.05, 0.1, 0.3, 0.6, 0.9)]
    for a, c in zip(vals, vals[1:]):
        assert c >= a - 1e-12


def test_mixed_norm_examples():
    assert mixed_norm(TaylorPoly([0.0, 1.0]), 4.0) == pytest.approx(1.0, abs=1e-12)
    assert mixed_norm(TaylorPoly([0.0, 0.0, 1.0]), 4.0) == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_mixed_norm_rejects_small_p():
    with pytest.raises(ValueError):
        mixed_norm(TaylorPoly([0.0, 1.0]), 2.0)
    with pytest.raises(ValueError):
        mixed_norm(TaylorPoly([0.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        mixed_norm(TaylorPoly([0.0, 1.0]), np.inf)


def test_mixed_norm_even_p_against_coefficients():
    # p = 4 has an exact coefficient expansion: M_4(g, r)^4 = sum over
    # frequency-matched index quadruples; here a two-term derivative keeps it
    # simple: phi' = c0 + c1 z with |phi'|^4 averaged in closed form
    c0, c1 = 0.7, -0.4
    phi = TaylorPoly([0.0, c0, c1 / 2.0])

    def m4sq(r):
        a, b = c0, c1 * r
        m4_4 = a**4 + 4.0 * a**2 * b**2 + b**4
        return np.sqrt(m4_4)

    from scipy.integrate import quad

    want, _ = quad(m4sq, 0.0, 1.0, epsabs=1e-13)
    assert mixed_norm(phi, 4.0) == pytest.approx(want, abs=1e-11)


# -- general classification ---------------------------------------------------


def test_classify_general_zero():
    rep = classify_hankel_general(TaylorPoly([0.0]), [16, 32])
    assert rep.verdict == "compact"
    assert rep.restricted_norm is None


def test_classify_general_rejects_bad_grid():
    b = TaylorPoly([0.0, 1.0])
    for n_grid in ([], [16, 16], [-1, 4]):
        with pytest.raises(ValueError, match="degree grid"):
            classify_hankel_general(b, n_grid)


def test_classify_general_growth_unbounded():
    b = symbol_poly(SymbolSeq.powerlog(1.0, 0.5), 512)
    rep = classify_hankel_general(b, [64, 128, 256, 512])
    vals = [p.midpoint for p in rep.profile]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    assert rep.verdict == "unbounded"
    assert rep.applicability == "heuristic"


def test_classify_general_bounded_saturation():
    # powerlog(1, 1) is bounded, not compact, but at these degrees its sweep
    # (ratio 1.10, boundary fraction 0.24) lies between those of a compact
    # powerlog(1, 1.049) and an unbounded powerlog(1, 0.965): the route says so
    b = symbol_poly(SymbolSeq.powerlog(1.0, 1.0), 512)
    rep = classify_hankel_general(b, [64, 128, 256, 512])
    assert rep.verdict == "inconclusive"
    assert rep.notes[-1].startswith("inconclusive: saturated but no vanishing (boundary fraction 0.24")


def test_classify_general_growth_from_first_nonzero_norm():
    # zero below index 100: the x-norm at degree 64 is 0, which is no growth
    sym = SymbolSeq.explicit(np.r_[np.zeros(100), 1.0 / np.arange(1.0, 21.0)])
    rep = classify_hankel_general(symbol_poly(sym, 128), [64, 128])
    assert rep.profile[0].midpoint == 0.0
    assert rep.verdict == "inconclusive"
    assert "sweep ratio 1," in rep.notes[1]
    assert rep.notes[-1].startswith("inconclusive: no growth (sweep ratio 1 < 1.25) and no saturation")


def test_classify_general_lacunary_saturates_with_boundary_decay():
    sym = SymbolSeq.lacunary_rule(1, 2.0, 0.5, 1.0)
    b = symbol_poly(sym, 512)
    rep = classify_hankel_general(b, [64, 128, 256, 512])
    vals = [p.midpoint for p in rep.profile]
    assert vals[-1] / vals[-2] <= 1.02  # saturation
    assert rep.restricted_norm == restricted_carleson_norm(b.truncate(512), 512, VANISH_DELTA)
    # restricted norms decay across the delta schedule at the top degree
    restr = [restricted_carleson_norm(b.truncate(512), 512, d) for d in (2.0**-3, 2.0**-5, 2.0**-7)]
    assert restr[0] > restr[1] > restr[2]


def test_classify_general_reports_solves_stopped_at_the_step_cap(monkeypatch):
    b = symbol_poly(SymbolSeq.powerlog(1.0, 1.0), 128)
    assert not any(note.startswith("unconverged") for note in classify_hankel_general(b, [64, 128]).notes)
    monkeypatch.setattr(operators, "default_max_iter", lambda n: 2)
    rep = classify_hankel_general(b, [64, 128])
    assert rep.notes[-3:] == [
        f"unconverged: {what} stopped at its step cap, a lower estimate"
        for what in ("x-norm at degree 64", "x-norm at degree 128", "restricted norm at degree 128")
    ]


def test_classify_general_compact_point_mass():
    sym = SymbolSeq.from_measure(MeasureSpec.point_mass(0.5))
    rep = classify_hankel_general(symbol_poly(sym, 256), [64, 128, 256])
    assert rep.verdict == "compact"


def test_lemma_52_direction_battery():
    """Symbols with small p = 4 mixed norm show boundary-restricted norms
    below 10% of the full finite-test norm at delta = 2^-6, degree 256."""
    battery = [
        TaylorPoly([0.0, 0.0, 1.0]),  # z^2
        symbol_poly(SymbolSeq.from_measure(MeasureSpec.point_mass(0.5)), 256),
        symbol_poly(SymbolSeq.from_measure(MeasureSpec(atoms=[(0.3, 0.5), (0.6, 0.5)])), 256),
    ]
    for b in battery:
        n = max(b.degree, 256)
        assert mixed_norm(b, 4.0) < 1.5  # membership ticket for the battery
        full = finite_test_carleson_norm(b, n)
        frac = restricted_carleson_norm(b, n, 2.0**-6) / full
        assert frac <= 0.10


def test_lower_bound_coupling_battery():
    """Squared dirichlet-section Hankel norms at dimension n stay within an
    absolute factor of the x-norm at degree 2n across the battery."""
    from dirspace.operators import section_matrix, top_singular_value

    battery = [
        SymbolSeq.powerlog(1.0, 1.0),
        SymbolSeq.powerlog(1.0, 1.5),
        SymbolSeq.from_measure(MeasureSpec.point_mass(0.5)),
        SymbolSeq.lacunary_rule(1, 2.0, 0.5, 1.0),
    ]
    n = 128
    for sym in battery:
        sigma, _ = top_singular_value(section_matrix(sym, "hankel", "dirichlet-section", n))
        x = x_norm(symbol_poly(sym, 2 * n), 2 * n)
        ratio = sigma**2 / x
        assert 1.0 / 50.0 <= ratio <= 50.0
