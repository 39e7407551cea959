import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from dirspace import measures
from dirspace.measures import (
    Density,
    MeasureSpec,
    _density_moments_graded,
    classify_measure,
)
from dirspace.symbols import SymbolSeq


def _density_moment_adaptive(d: Density, n: int) -> float:
    """Adaptive Gauss-Kronrod quadrature for one moment of one density: the
    independent reference for the graded rule.

    Integrands are written in terms of the distance to the endpoint so that
    t rounding to 1.0 near the singularity cannot poison the log factor.
    """
    if d.gamma < 0.0:
        # u = (1-t)^(gamma+1) removes the algebraic endpoint singularity
        g1 = d.gamma + 1.0

        def f(u):
            if u <= 0.0:
                return 0.0
            one_minus_t = u ** (1.0 / g1)
            log_t = np.log1p(-one_minus_t)
            log_factor = 1.0 - np.log(u) / g1
            return np.exp((n + d.kappa) * log_t) * log_factor ** (-d.delta) / g1

        val, _ = integrate.quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=300)
    else:
        # u = 1 - t
        def f(u):
            if u <= 0.0:
                return 0.0
            log_t = np.log1p(-u)
            log_factor = 1.0 - np.log(u)
            return np.exp((n + d.kappa) * log_t) * u**d.gamma * log_factor ** (-d.delta)

        peak = 1.0 / (n + 2.0)
        val, _ = integrate.quad(f, 0.0, 1.0, points=[peak], epsabs=1e-13, epsrel=1e-13, limit=300)
    return d.c * val


def test_lebesgue_moments_closed_form():
    spec = MeasureSpec.lebesgue()
    assert spec.moment(9) == pytest.approx(0.1, abs=1e-14)
    n = np.arange(200)
    assert np.allclose(spec.moments(n), 1.0 / (n + 1.0), atol=1e-14)


def test_atom_moments():
    spec = MeasureSpec.point_mass(0.3, mass=2.0)
    n = np.arange(20)
    assert np.allclose(spec.moments(n), 2.0 * 0.3**n)
    assert spec.moment(0) == pytest.approx(2.0)


def test_linear_density_moment():
    # w(t) = 2t dt: moments 2/(n+2), via the t^kappa extension of the family
    spec = MeasureSpec(densities=[Density(c=2.0, gamma=0.0, kappa=1.0)])
    for n in (0, 1, 5, 17):
        assert spec.moment(n) == pytest.approx(2.0 / (n + 2.0), abs=1e-13)


def test_mixture_linearity():
    mix = MeasureSpec(atoms=[(0.5, 0.5)], densities=[Density(c=0.5, gamma=0.0)])
    # n = 1: 0.5 * 0.5 + 0.5 * 1/2 = 1/2
    assert mix.moment(1) == pytest.approx(0.5, abs=1e-14)
    atom = MeasureSpec.point_mass(0.5, 0.5)
    leb = MeasureSpec(densities=[Density(c=0.5, gamma=0.0)])
    n = np.arange(50)
    assert np.allclose(mix.moments(n), atom.moments(n) + leb.moments(n), atol=1e-13)


def test_moments_monotone_and_mass():
    spec = MeasureSpec(atoms=[(0.2, 1.0), (0.7, 0.5)], densities=[Density(c=1.0, gamma=1.5)])
    mom = spec.moments(np.arange(65))
    assert np.all(np.diff(mom) < 0.0)
    assert np.all(mom > 0.0)
    assert mom[0] == pytest.approx(spec.total_mass, abs=1e-12)


def test_geometric_domination():
    spec = MeasureSpec(atoms=[(0.4, 1.0), (0.8, 2.0)])
    rho = spec.support_sup
    mom = spec.moments(np.arange(1, 65))
    assert np.all(mom <= spec.total_mass * rho ** np.arange(1, 65) + 1e-15)


def test_beta_moment_vs_quadrature_paths():
    # gamma in (-1, 0): moments() for delta = 0 against the Beta function, and
    # the graded quadrature in the substitution variable, run directly
    from scipy.special import betaln

    d = Density(c=1.3, gamma=-0.5)
    n = np.array([0, 3, 11])
    closed = 1.3 * np.exp(betaln(n + 1.0, 0.5))
    np.testing.assert_allclose(MeasureSpec(densities=[d]).moments(n), closed, rtol=1e-14)
    np.testing.assert_allclose(_density_moments_graded(d, n), closed, rtol=1e-12)


def test_log_density_adaptive_vs_graded():
    # delta != 0 engages both quadrature routes; they must agree
    for gamma, delta in [(-0.5, 1.0), (0.5, -0.5), (1.0, 2.0)]:
        d = Density(c=1.0, gamma=gamma, delta=delta)
        n_arr = np.array([0, 1, 7, 40, 300])
        graded = _density_moments_graded(d, n_arr)
        for i, n in enumerate(n_arr):
            adaptive = _density_moment_adaptive(d, int(n))
            assert graded[i] == pytest.approx(adaptive, rel=1e-9, abs=1e-13)


def test_log_density_against_mpmath():
    import mpmath

    d = Density(c=1.0, gamma=-0.25, delta=1.5)
    for n in (0, 5):
        want = mpmath.quad(
            lambda t: t**n * (1 - t) ** mpmath.mpf("-0.25") * (1 - mpmath.log(1 - t)) ** (-1.5),
            [0, 1],
        )
        assert _density_moment_adaptive(d, n) == pytest.approx(float(want), rel=1e-10)
        assert MeasureSpec(densities=[d]).moment(n) == pytest.approx(float(want), rel=1e-10)


_B = measures._BLOCK
_EDGES = [_B - 1, _B, _B + 1, 2 * _B - 1, 2 * _B, 2**18 - 1, 2**18, 2**18 + 1, 2**20]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    gamma=st.floats(-0.99, 1.99),
    delta=st.floats(0.0, 3.0, exclude_min=True),
    kappa=st.sampled_from([0.0, 1.0]),
    picks=st.lists(st.integers(0, 2**20), min_size=0, max_size=40),
    edges=st.lists(st.sampled_from(_EDGES), min_size=0, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
@example(gamma=0.0, delta=1.0, kappa=0.0, picks=[_B + 1, 3], edges=[], seed=0)
def test_blocked_batch_matches_definition(gamma, delta, kappa, picks, edges, seed):
    """The blocked product against the definitional sum exp(n log t) @ w on
    the same cached rule, for unsorted, repeated and sparse index arrays."""
    d = Density(c=1.0, gamma=gamma, delta=delta, kappa=kappa)
    rng = np.random.default_rng(seed)
    n = np.array(picks + edges + [int(rng.integers(0, 2**20))] * 2, dtype=np.int64)
    rng.shuffle(n)
    got = _density_moments_graded(d, n)
    log_t, w = measures._graded_rule(d)
    with np.errstate(under="ignore"):
        want = np.exp(n[:, None].astype(np.float64) * log_t[None, :]) @ w
    assert got.shape == n.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_single_moment_uses_the_batch_rule():
    d = Density(c=1.0, gamma=0.3, delta=1.2, kappa=1.0)
    spec = MeasureSpec(atoms=[(0.5, 0.25)], densities=[d])
    n = np.array([0, 7, _B, 2**18])
    singles = [spec.moment(int(k)) for k in n]
    # same rule, one GEMM shape against another: equal to rounding
    np.testing.assert_allclose(singles, spec.moments(n), rtol=1e-14, atol=0.0)


def test_validation_errors():
    with pytest.raises(ValueError):
        MeasureSpec(atoms=[(1.0, 1.0)])  # atom at 1 rejected
    with pytest.raises(ValueError):
        MeasureSpec(atoms=[(0.5, 0.0)])  # nonpositive mass
    with pytest.raises(ValueError):
        Density(c=1.0, gamma=-1.0)  # not integrable
    with pytest.raises(ValueError):
        Density(c=-1.0, gamma=0.0)  # measures are positive
    with pytest.raises(ValueError):
        MeasureSpec.lebesgue().moment(-1)


def test_moment_sequence_symbol():
    sym = SymbolSeq.from_measure(MeasureSpec.point_mass(0.5))
    assert sym.monotone_flag == "decreasing-positive"
    assert np.allclose(sym.values(np.arange(5)), [1, 0.5, 0.25, 0.125, 0.0625])


def test_moment_sequence_zero_measure():
    sym = SymbolSeq.from_measure(MeasureSpec())
    assert np.all(sym.values(np.arange(8)) == 0.0)


def test_classify_measure_verdicts():
    assert classify_measure(MeasureSpec.point_mass(0.5), "hankel").verdict == "compact"
    assert classify_measure(MeasureSpec.lebesgue(), "hankel").verdict == "unbounded"
    assert classify_measure(MeasureSpec(), "hankel").verdict == "compact"
    rep = classify_measure(MeasureSpec.point_mass(0.5), "cesaro")
    assert rep.applicability == "theorem-exact"


def test_beta_moments_against_mpmath():
    # delta = 0 moments c B(n+kappa+1, gamma+1) against 40-digit mpmath up to
    # n = 2^20 (exp(betaln(...)) alone misses this tolerance by two orders
    # there), and at large gamma, where Gamma or the Pochhammer symbol
    # overflows: gamma = 200 at n = 0, gamma = 169 at n = 10 and gamma = 100
    # at n = 2000
    import mpmath

    n = np.array([0, 1, 7, 100, 4096, 65537, 2**18, 2**20])
    cases = [(gamma, kappa, n) for gamma in np.linspace(-0.9, 2.5, 18) for kappa in (0.0, 1.0, 2.5)]
    cases += [(200.0, 0.0, np.array([0])), (169.0, 0.0, np.array([10])), (100.0, 0.0, np.array([2000]))]
    errs = []
    with mpmath.workdps(40):
        for gamma, kappa, idx in cases:
            got = MeasureSpec(densities=[Density(c=1.0, gamma=gamma, kappa=kappa)]).moments(idx)
            for k, value in zip(idx, got):
                want = mpmath.beta(int(k) + mpmath.mpf(kappa) + 1, mpmath.mpf(gamma) + 1)
                errs.append(abs(float((mpmath.mpf(value) - want) / want)))
    assert np.all(np.array(errs) <= 2e-11)  # a nan fails too
    lebesgue = MeasureSpec.lebesgue().moments(np.arange(2**18 + 1))
    np.testing.assert_allclose(lebesgue, 1.0 / np.arange(1.0, 2**18 + 2.0), rtol=2e-16, atol=0.0)
