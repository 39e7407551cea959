import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import quad_dirichlet_norm_sq, random_poly
from dirspace.coeffspace import (
    TaylorPoly,
    dirichlet_inner,
    evaluate,
    kernel_coeffs,
    kernel_degree_for_tail,
    normalized_kernel_coeffs,
    space_norm,
    weight_sequence,
)


def test_space_norm_constant():
    assert space_norm(TaylorPoly([1.0]), "dirichlet-exact") == 1.0


def test_space_norm_z_bergman_matches_quadrature():
    # int |z|^2 dA = 1/2, both by formula and by polar quadrature
    p = TaylorPoly([0.0, 1.0])
    assert space_norm(p, "bergman") == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-14)

    def g(r, m):
        return np.full(m, r * r)

    from conftest import disk_integral_mean

    assert disk_integral_mean(g, 1) == pytest.approx(0.5, abs=1e-13)


def test_space_norm_z2_dirichlet_exact():
    p = TaylorPoly([0.0, 0.0, 1.0])
    assert space_norm(p, "dirichlet-exact") == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert quad_dirichlet_norm_sq(p) == pytest.approx(2.0, abs=1e-12)


def test_dirichlet_inner_examples():
    z = TaylorPoly([0.0, 1.0])
    z2 = TaylorPoly([0.0, 0.0, 1.0])
    one = TaylorPoly([1.0])
    assert dirichlet_inner(z, z) == pytest.approx(1.0)
    assert dirichlet_inner(z2, z2) == pytest.approx(2.0)
    assert dirichlet_inner(one, z) == 0.0


def test_dirichlet_inner_conjugate_symmetry():
    p = random_poly(1, 0, 12)
    q = random_poly(1, 1, 9)
    assert dirichlet_inner(p, q) == pytest.approx(np.conj(dirichlet_inner(q, p)), abs=1e-14)
    assert dirichlet_inner(p, p) == pytest.approx(space_norm(p, "dirichlet-exact") ** 2, rel=1e-13)


def test_evaluate_examples():
    assert evaluate(TaylorPoly([1.0, 1.0]), 0.5) == pytest.approx(1.5)
    assert evaluate(TaylorPoly([0.0, 1.0, 0.0]), 0.5j) == pytest.approx(0.5j)
    k = kernel_coeffs(0.3, 64)
    assert evaluate(k, 0.3) == pytest.approx(1.0 + np.log(1.0 / (1.0 - 0.09)), abs=1e-12)


def test_evaluate_domain_error():
    with pytest.raises(ValueError):
        evaluate(TaylorPoly([1.0]), 1.0)
    with pytest.raises(ValueError):
        evaluate(TaylorPoly([1.0]), -1.2)


def test_kernel_coeffs_examples():
    k0 = kernel_coeffs(0.0, 5)
    assert np.allclose(k0.coeffs, [1, 0, 0, 0, 0, 0])
    k = kernel_coeffs(0.5, 8)
    assert k.coeffs[2] == pytest.approx(1.0 / 8.0)
    # reproducing identity on a monomial: <z^3, K_0.4> = 0.4^3
    z3 = TaylorPoly([0, 0, 0, 1.0])
    assert dirichlet_inner(z3, kernel_coeffs(0.4, 8)) == pytest.approx(0.064, abs=1e-15)


def test_kernel_domain_error():
    with pytest.raises(ValueError):
        kernel_coeffs(1.0, 4)
    with pytest.raises(ValueError):
        normalized_kernel_coeffs(-0.1, 4)


def test_kernel_conjugation():
    w = 0.3 + 0.4j
    k = kernel_coeffs(w, 16)
    f = random_poly(7, 3, 16)
    assert dirichlet_inner(f, k) == pytest.approx(evaluate(f, w), abs=1e-13)


def test_reproducing_identity_battery():
    # |<f, K_w> - f(w)| <= 1e-10 ||f||_D over random polynomials and |w| <= 0.95
    radii = [0.0, 0.45, 0.8, 0.95]
    angles = np.exp(2j * np.pi * np.arange(6) / 6)
    for i in range(25):
        f = random_poly(11, i, 32)
        nf = space_norm(f, "dirichlet-exact")
        for r in radii:
            for a in angles:
                w = r * a
                k = kernel_coeffs(w, f.degree)
                assert abs(dirichlet_inner(f, k) - evaluate(f, w)) <= 1e-10 * nf


def test_normalized_kernel_zero():
    p, tail = normalized_kernel_coeffs(0.0, 8)
    assert tail == 0.0
    assert np.allclose(p.coeffs, [1, 0, 0, 0, 0, 0, 0, 0, 0])
    assert space_norm(p, "dirichlet-exact") == 1.0


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9, 0.99])
def test_normalized_kernel_brackets_unit_norm(t):
    p, tail = normalized_kernel_coeffs(t, 64)
    scale_sq = 1.0 / (1.0 + np.log(1.0 / (1.0 - t * t)))
    nsq = space_norm(p, "dirichlet-exact") ** 2
    assert nsq <= 1.0 + 1e-12
    assert nsq + scale_sq * tail >= 1.0 - 1e-12


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(t=st.floats(0.0, 0.999), degree=st.integers(0, 4096))
def test_normalized_kernel_meets_its_tail_bound(t, degree):
    # ||p||^2 <= 1 <= ||p||^2 + s2 * tail, up to a few roundings of the sum
    p, tail = normalized_kernel_coeffs(t, degree)
    s2 = 1.0 / (1.0 + np.log(1.0 / (1.0 - t * t)))
    nsq = space_norm(p, "dirichlet-exact") ** 2
    pad = 64.0 * np.finfo(np.float64).eps
    assert nsq <= 1.0 + pad
    assert nsq + s2 * tail >= 1.0 - pad


def test_kernel_degree_for_tail():
    t, tol = 0.9, 1e-10
    n = kernel_degree_for_tail(t, tol)
    bound = lambda k: t ** (2 * k + 2) / ((k + 1) * (1 - t * t))
    assert bound(n) < tol
    assert n == 0 or bound(n - 1) >= tol


def test_norm_equivalence():
    for i in range(20):
        p = random_poly(23, i, 24)
        exact = space_norm(p, "dirichlet-exact")
        section = space_norm(p, "dirichlet-section")
        assert exact <= section + 1e-12
        assert section <= np.sqrt(2.0) * exact + 1e-12


def test_parseval_against_quadrature():
    for i in range(8):
        p = random_poly(31, i, 32)
        assert space_norm(p, "dirichlet-exact") ** 2 == pytest.approx(
            quad_dirichlet_norm_sq(p), rel=1e-10, abs=1e-10
        )


def test_weight_sequences():
    assert list(weight_sequence("dirichlet-exact", 4)) == [1, 1, 2, 3, 4]
    assert list(weight_sequence("dirichlet-section", 3)) == [1, 2, 3, 4]
    assert np.allclose(weight_sequence("bergman", 3), [1, 1 / 2, 1 / 3, 1 / 4])
    with pytest.raises(ValueError):
        weight_sequence("hardy", 3)


def test_taylor_poly_helpers():
    p = TaylorPoly([1.0, 2.0, 3.0])
    assert p.degree == 2
    assert p.derivative().coeffs == pytest.approx([2.0, 6.0])
    assert p.truncate(1).coeffs == pytest.approx([1.0, 2.0])
    assert p.truncate(4).coeffs == pytest.approx([1.0, 2.0, 3.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "coeffs, dtype",
    [
        ([1.0, -2.0, 0.5], np.float64),
        ([1.0 + 0j, -2.0 + 0j, 0.5 + 0j], np.float64),  # every imaginary part 0
        ([1.0 + 1j, -2.0, 0.5 - 3j], np.complex128),
    ],
    ids=["real", "complex-zero-imag", "complex"],
)
def test_taylor_poly_stores_float64_unless_a_value_is_complex(coeffs, dtype):
    p = TaylorPoly(np.array(coeffs))
    assert p.coeffs.dtype == dtype
    assert np.array_equal(p.coeffs, coeffs)
    for q in (p.truncate(1), p.truncate(5), p.derivative()):
        assert q.coeffs.dtype == dtype


def test_taylor_poly_degenerate_inputs():
    empty = TaylorPoly([])
    assert empty.degree == 0 and empty.coeffs[0] == 0.0
    assert space_norm(empty, "dirichlet-exact") == 0.0
    const = TaylorPoly(2.0)  # scalars promote to degree-0 series
    assert const.degree == 0 and const.coeffs[0] == 2.0
    assert TaylorPoly([1.0]).derivative().coeffs[0] == 0.0
