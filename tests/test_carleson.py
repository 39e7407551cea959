import numpy as np
import pytest

from conftest import quad_gram_entry, random_poly
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
from dirspace.coeffspace import TaylorPoly
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
