import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirspace import symbols
from dirspace.measures import MeasureSpec
from dirspace.stochastic import DistTag
from dirspace.symbols import _SECOND_ORDER_HEAD, _SUM_PAD, SymbolSeq


def test_widom_class_by_kind():
    finite = [
        SymbolSeq.explicit([0.0, 0.0]),
        SymbolSeq.explicit([1.0, -2.0j]),
        SymbolSeq.lacunary([2, 5, 11], [1.0, 1.0, 1.0]),
        SymbolSeq.randomized(SymbolSeq.explicit([1.0, 0.5]), DistTag("rademacher"), seed=3),
        SymbolSeq.from_measure(MeasureSpec.point_mass(0.5)),
        SymbolSeq.from_measure(MeasureSpec()),
    ]
    assert [s.widom_class() for s in finite] == ["compact"] * len(finite)
    # a density's moments have the class of powerlog(gamma + 1, delta) whatever
    # c and kappa, a mixture the class of its slowest part; only the unbounded
    # class is reported until a density tail is certified
    densities = {
        "lebesgue": ([], [{"c": 1.0, "gamma": 0.0}], "unbounded"),
        "gamma<0": ([], [{"c": 1.0, "gamma": -0.5}], "unbounded"),
        "gamma=0,delta=0.75": ([], [{"c": 1.0, "gamma": 0.0, "delta": 0.75}], "unbounded"),
        "gamma=0,delta=1": ([], [{"c": 1.0, "gamma": 0.0, "delta": 1.0}], None),  # bounded
        "gamma=0,delta=1.5": ([], [{"c": 1.0, "gamma": 0.0, "delta": 1.5}], None),  # compact
        "gamma=0,delta<0": ([], [{"c": 1.0, "gamma": 0.0, "delta": -1.0}], "unbounded"),
        "gamma=1,delta<0": ([], [{"c": 1.0, "gamma": 1.0, "delta": -1.0}], None),
        "gamma=0,kappa=2": ([], [{"c": 1.0, "gamma": 0.0, "kappa": 2.0}], "unbounded"),
        "gamma=1,kappa=2": ([], [{"c": 1.0, "gamma": 1.0, "kappa": 2.0}], None),
        "c=100,gamma=0": ([], [{"c": 100.0, "gamma": 0.0}], "unbounded"),
        "c=100,gamma=1": ([], [{"c": 100.0, "gamma": 1.0}], None),
        "atom+lebesgue": ([(0.5, 1.0)], [{"c": 1.0, "gamma": 0.0}], "unbounded"),
        "atom+gamma=2": ([(0.5, 1.0)], [{"c": 1.0, "gamma": 2.0}], None),
        "gamma=2+gamma<0": ([], [{"c": 1.0, "gamma": 2.0}, {"c": 1e-6, "gamma": -0.5}], "unbounded"),
    }
    got = {k: SymbolSeq.from_measure(MeasureSpec(a, d)).widom_class() for k, (a, d, _) in densities.items()}
    assert got == {k: want for k, (_, _, want) in densities.items()}
    assert SymbolSeq.randomized(SymbolSeq.powerlog(1.0, 1.0), DistTag("rademacher"), seed=3).widom_class() is None
    ladder = {(a, b): SymbolSeq.powerlog(a, b).widom_class() for a, b in
              [(0.9, 3.0), (1.0, 0.5), (1.0, 1.0), (1.0, 1.5), (1.1, -1.0)]}
    assert ladder == {(0.9, 3.0): "unbounded", (1.0, 0.5): "unbounded", (1.0, 1.0): "bounded",
                      (1.0, 1.5): "compact", (1.1, -1.0): "compact"}
    rules = {(d, p): SymbolSeq.lacunary_rule(1, 2.0, d, p).widom_class() for d, p in
             [(0.4, 2.0), (0.5, 0.75), (0.5, 1.0), (0.5, 1.25), (0.6, 0.0)]}
    assert rules == {(0.4, 2.0): "unbounded", (0.5, 0.75): "unbounded", (0.5, 1.0): "bounded",
                     (0.5, 1.25): "compact", (0.6, 0.0): "compact"}


def test_explicit_values_and_padding():
    s = SymbolSeq.explicit([2.0, 0.0, 1.0])
    assert s.value(0) == 2.0
    assert s.value(7) == 0.0
    assert s.finite_support_bound == 2
    assert np.allclose(s.values([0, 1, 2, 3, 10]), [2, 0, 1, 0, 0])


def test_explicit_monotone_detection():
    assert SymbolSeq.explicit([3.0, 2.0, 2.0, 0.5]).monotone_flag == "decreasing-positive"
    assert SymbolSeq.explicit([1.0, 2.0]).monotone_flag == "general"
    assert SymbolSeq.explicit([1.0, -0.5]).monotone_flag == "general"
    assert SymbolSeq.explicit([1.0 + 1j]).monotone_flag == "general"


def test_powerlog_hilbert_value():
    s = SymbolSeq.powerlog(1.0, 0.0)
    assert s.value(4) == pytest.approx(0.2)
    assert s.monotone_flag == "decreasing-positive"


def test_powerlog_values_match_formula():
    s = SymbolSeq.powerlog(1.25, 0.75, scale=2.5)
    n = np.arange(10)
    expect = 2.5 * (n + 1.0) ** -1.25 * np.log(n + 2.0) ** -0.75
    assert np.allclose(s.values(n), expect, rtol=1e-15)


def test_powerlog_validation():
    with pytest.raises(ValueError):
        SymbolSeq.powerlog(1.0, 0.0, scale=0.0)


def test_moments_symbol_values():
    s = SymbolSeq.from_measure(MeasureSpec.lebesgue())
    assert s.value(9) == pytest.approx(0.1, abs=1e-14)
    assert s.monotone_flag == "decreasing-positive"


def test_lacunary_explicit():
    s = SymbolSeq.lacunary([1, 2, 4, 8], [1.0, 0.5, 0.25, 0.125])
    assert s.value(4) == 0.25
    assert s.value(3) == 0.0
    assert s.finite_support_bound == 8
    # the symbol keeps its own copy of the support
    support = np.array([1, 3, 9], dtype=np.int64)
    copy = SymbolSeq.lacunary(support, [1.0, 1.0, 1.0])
    support[2] = 10
    assert copy.value(9) == 1.0 and copy.finite_support_bound == 9
    # non-increasing support rejected
    with pytest.raises(ValueError):
        SymbolSeq.lacunary([4, 2], [1, 1])


def test_lacunary_ratio_validation():
    # support containing index 0 is rejected; declared ratio <= 1 is rejected
    with pytest.raises(ValueError):
        SymbolSeq.lacunary([0, 2], [1.0, 1.0])
    with pytest.raises(ValueError):
        SymbolSeq.lacunary_rule(start=1, ratio=1.0, decay=1.0)


def test_lacunary_rule_generates_powers_of_two():
    s = SymbolSeq.lacunary_rule(start=1, ratio=2.0, decay=0.5, power=1.0)
    # v_k = 2^(-k/2) / (k+1) at support n_k = 2^k
    for k in (0, 1, 2, 5, 10):
        assert s.value(2**k) == pytest.approx(2.0 ** (-k / 2.0) / (k + 1))
    assert s.value(3) == 0.0
    assert s.finite_support_bound is None



@pytest.mark.parametrize("start, q", [(1, 1.0001), (3, 1.01), (1, 1.3), (2, 1.5), (700, 1.001), (5, 2.7)])
def test_lacunary_rule_support_follows_the_recursion(start, q):
    # ratios near 1 step by one for a long run before the support thins out
    support, n_k = [], start
    while n_k <= 20000:
        support.append(n_k)
        n_k = max(n_k + 1, int(np.ceil(n_k * q)))
    s = SymbolSeq.lacunary_rule(start, q, decay=0.75, power=0.5)
    for hi in (0, start, 4999, 20000):
        # a rule's values are positive on its support, so the nonzero indices are the support
        np.testing.assert_array_equal(np.flatnonzero(s.values(np.arange(hi + 1))), [n for n in support if n <= hi])
    k = np.arange(len(support))
    np.testing.assert_allclose(
        s.values(support), np.array(support, dtype=float) ** -0.75 * (k + 1.0) ** -0.5, rtol=1e-15
    )

def test_randomized_symbol_determinism():
    base = SymbolSeq.powerlog(1.0, 1.0)
    r1 = SymbolSeq.randomized(base, DistTag("rademacher"), seed=42, stream=0)
    r2 = SymbolSeq.randomized(base, DistTag("rademacher"), seed=42, stream=0)
    idx = np.arange(64)
    assert np.array_equal(r1.values(idx), r2.values(idx))
    r3 = SymbolSeq.randomized(base, DistTag("rademacher"), seed=43, stream=0)
    assert not np.array_equal(r1.values(idx), r3.values(idx))
    # unit-modulus multipliers preserve absolute values
    assert np.allclose(np.abs(r1.values(idx)), np.abs(base.values(idx)))


# -- tail brackets ----------------------------------------------------------


def test_finite_support_past_nmax_is_summed_exactly():
    # support points 9 and 40 lie past nmax = 8; |values|^2 = 0.25, 0.0625
    s = SymbolSeq.lacunary([3, 9, 40], [1.0, -0.5, 0.25j])
    for weight, exact in (("widom", 4.75), ("membership", 5.0625)):
        b = s.tail_remainder(8, weight)
        assert b.m == 9 and not b.divergent
        assert exact * (1.0 - _SUM_PAD) <= b.lower <= exact <= b.upper <= exact * (1.0 + _SUM_PAD)


def test_explicit_tail_is_exact_zero():
    s = SymbolSeq.explicit([1.0, 0.0])
    b = s.tail_remainder(8, "widom")
    assert b.lower == 0.0 and b.upper == 0.0 and not b.divergent


def test_powerlog_divergence_rule():
    assert SymbolSeq.powerlog(1.0, 0.0).tail_remainder(100, "widom").divergent
    assert SymbolSeq.powerlog(1.0, 0.5).tail_remainder(100, "widom").divergent
    assert SymbolSeq.powerlog(0.75, 2.0).tail_remainder(100, "widom").divergent
    assert not SymbolSeq.powerlog(1.0, 0.51).tail_remainder(100, "widom").divergent
    assert not SymbolSeq.powerlog(1.5, 0.0).tail_remainder(100, "widom").divergent


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.75), (1.0, 1.0), (1.0, 1.5), (1.5, 0.0), (2.0, 1.0)])
@pytest.mark.parametrize("weight", ["widom", "membership"])
def test_powerlog_tail_bracket_against_quadrature(alpha, beta, weight):
    """The remainder bracket must contain the true tail sum.

    The true sum of w(n) lambda_n^2 over n > N is estimated by the midpoint
    rule int_{N+1/2}^inf f(x) dx, whose error is O(f''), i.e. relative 1e-6
    here -- far smaller than the bracket widths under test.
    """
    from scipy.integrate import quad

    s = SymbolSeq.powerlog(alpha, beta)
    nmax = 2000
    b = s.tail_remainder(nmax, weight)
    assert b.certified and b.lower >= 0.0

    def f(x):
        lam2 = (x + 1.0) ** (-2.0 * alpha) * np.log(x + 2.0) ** (-2.0 * beta)
        return (x if weight == "widom" else x + 1.0) * lam2

    # integrate in u = log(x+2); beyond u = 200 the alpha = 1 integrand is
    # u^(-2 beta) to 1e-170 accuracy, with a closed-form tail
    u0, u_cut = np.log(nmax + 2.5), 200.0
    r_est, _ = quad(
        lambda u: f(np.exp(u) - 2.0) * np.exp(u), u0, u_cut, epsabs=1e-16, epsrel=1e-12, limit=400
    )
    if alpha == 1.0:
        r_est += u_cut ** (1.0 - 2.0 * beta) / (2.0 * beta - 1.0)
    slack = 1e-4 * r_est + 1e-30
    assert b.lower <= r_est + slack
    assert b.upper >= r_est - slack


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.75), (1.0, 1.5), (1.5, 0.5)])
def test_powerlog_tail_brackets_nest(alpha, beta):
    # deeper truncations give tighter, nested remainder knowledge: the
    # full-tail brackets [partial + rem] must nest as nmax grows
    s = SymbolSeq.powerlog(alpha, beta)
    for weight in ("widom", "membership"):
        n1, n2 = 1000, 10000
        pieces = s.values(np.arange(0, n2 + 1)) ** 2
        w = np.arange(0, n2 + 1, dtype=float) if weight == "widom" else np.arange(1.0, n2 + 2.0)
        lo1 = float(np.sum((w * pieces)[: n1 + 1])) + s.tail_remainder(n1, weight).lower
        up1 = float(np.sum((w * pieces)[: n1 + 1])) + s.tail_remainder(n1, weight).upper
        lo2 = float(np.sum(w * pieces)) + s.tail_remainder(n2, weight).lower
        up2 = float(np.sum(w * pieces)) + s.tail_remainder(n2, weight).upper
        eps = 1e-12 * max(up1, 1.0)
        assert lo1 <= lo2 + eps and up2 <= up1 + eps


def test_moments_tail_exact_for_atoms():
    spec = MeasureSpec(atoms=[(0.5, 1.0)])
    s = SymbolSeq.from_measure(spec)
    b = s.tail_remainder(64, "widom")
    # remainder beyond 64 of sum n 4^-n is astronomically small but positive
    assert b.certified and b.upper < 1e-30
    # bracket at nmax=10 must contain the directly summed remainder
    b10 = s.tail_remainder(10, "widom")
    n = np.arange(11, 200)
    deep = float(np.sum(n * (0.5**n) ** 2))
    assert b10.lower <= deep <= b10.upper


@pytest.mark.parametrize(
    "atoms",
    [[(0.1, 1.0)], [(0.5, 1.0)], [(0.9, 1.0)], [(0.999, 1.0)], [(0.5, 0.25), (0.9, 2.0), (0.999, 0.5)]],
    ids=["0.1", "0.5", "0.9", "0.999", "mixed"],
)
@pytest.mark.parametrize("weight", ["widom", "membership"])
def test_atom_tail_contains_its_value(atoms, weight):
    # sum_{n>N} w(n) mu_n^2 in 50-digit arithmetic from the same float atoms:
    # the bracket must hold it where x^(N+1) scales the rounding of x = loc^2
    # by N + 1 and where it underflows
    import mpmath

    s = SymbolSeq.from_measure(MeasureSpec(atoms=atoms))
    with mpmath.workdps(50):
        for nmax in (0, 10, 1023, 16383, 2**18):
            a = nmax + 1 if weight == "widom" else nmax + 2
            value = mpmath.mpf(0)
            for loc_j, mass_j in atoms:
                for loc_i, mass_i in atoms:
                    x = mpmath.mpf(loc_j) * mpmath.mpf(loc_i)
                    value += mpmath.mpf(mass_j) * mass_i * x ** (nmax + 1) * (a - (a - 1) * x) / (1 - x) ** 2
            b = s.tail_remainder(nmax, weight)
            assert mpmath.mpf(b.lower) <= value <= mpmath.mpf(b.upper), (nmax, b, value)


@pytest.mark.parametrize("beta", [0.51, 0.6, 0.75, 1.0, 1.5])
@pytest.mark.parametrize("weight", ["widom", "membership"])
def test_alpha_one_lower_ends_do_not_rise(beta, weight):
    # cutoffs past nmax = 0 read tail_remainder(m - 1) directly; its lower end
    # must not rise with m, and must stay below a brute-force partial sum plus
    # the upper end of the remainder beyond it
    s = SymbolSeq.powerlog(1.0, beta)
    tails = s.tail_brackets(range(5), 0, weight)
    lowers = [t.lower for t in tails]
    assert all(b <= a for a, b in zip(lowers, lowers[1:])), lowers
    top = 2**16
    n = np.arange(top + 1)
    terms = (n if weight == "widom" else n + 1) * s.values(n) ** 2
    rest = s.tail_remainder(top, weight).upper
    for t in tails:
        assert t.lower <= np.sum(terms[t.m :]) + rest


def _alpha_one_tail_value(beta: float, nmax: int, scale: float, weight: str):
    """sum_{n>N} (n + d) lambda_n^2 of powerlog(1, beta, scale) to 40 digits,
    d = 0 (widom) or 1 (membership): the terms through max(N, 64) one by
    one, then Euler-Maclaurin from the next index M with four Bernoulli
    terms (the next one is below 1e-19 of the tail at M >= 65).  The
    integral from M is taken in v = log(x+2), where with E = 1/(e^v - 1) it
    is the closed form s^2 v^(1 - 2 beta)/(2 beta - 1) plus an mpmath.quad
    of s^2 v^(-2 beta) (d E - (1-d) E^2).  (mpmath.nsum, and mpmath.quad of
    the slowly decaying terms in x, miss this series by orders of
    magnitude.)"""
    d = 0 if weight == "widom" else 1
    with mpmath.workdps(40):
        b, s2 = mpmath.mpf(beta), mpmath.mpf(scale) ** 2

        def f(x):
            return s2 * (x + d) / (x + 1) ** 2 * mpmath.log(x + 2) ** (-2 * b)

        def correction(t):
            e = 1 / mpmath.expm1(t)
            return t ** (-2 * b) * (d * e - (1 - d) * e**2)

        top = max(nmax, 64)
        head = mpmath.fsum(f(mpmath.mpf(n)) for n in range(nmax + 1, top + 1))
        m = mpmath.mpf(top + 1)
        v = mpmath.log(m + 2)
        integral = s2 * (v ** (1 - 2 * b) / (2 * b - 1) + mpmath.quad(correction, [v, mpmath.inf]))
        diffs = list(mpmath.diffs(f, m, 7))
        bernoulli = sum(mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * diffs[2 * j - 1] for j in range(1, 5))
        return head + integral + f(m) / 2 - bernoulli


@pytest.mark.parametrize("weight", ["widom", "membership"])
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(
    beta=st.floats(0.5, 3.0, exclude_min=True),
    nmax=st.integers(0, 2**20),
    scale=st.floats(1e-3, 1e3),
)
@example(beta=1.0, nmax=1, scale=1.0)  # the first N past the one exact term
@example(beta=0.51, nmax=_SECOND_ORDER_HEAD - 1, scale=1.0)
def test_alpha_one_remainder_contains_its_value(weight, beta, nmax, scale):
    # the second-order (trapezoid / midpoint) bracket holds a 40-digit value
    # under either weight; under the Widom weight it is at most 1e-9 wide,
    # relative, where the head stops, and a whole membership sum at the
    # default nmax is at most 1e-8 wide
    s = SymbolSeq.powerlog(1.0, beta, scale)
    b = s.tail_remainder(nmax, weight)
    assert b.m == nmax + 1 and not b.divergent
    assert mpmath.mpf(b.lower) <= _alpha_one_tail_value(beta, nmax, scale, weight) <= mpmath.mpf(b.upper), b
    if weight == "widom" and beta <= 2.25:
        head = s.tail_remainder(_SECOND_ORDER_HEAD)
        assert head.upper - head.lower <= 1e-9 * head.upper, head
    if weight == "membership":
        whole = s.tail_brackets([0], 2**18, weight)[0]
        assert whole.upper - whole.lower <= 1e-8 * whole.upper, whole


@pytest.mark.parametrize("beta", [100.0, 170.0, 200.0, 400.0])
@pytest.mark.parametrize("weight", ["widom", "membership"])
def test_powerlog_brackets_hold_tails_that_underflow(beta, weight):
    # from beta = 170 on, V^-c underflows past the head's end, at 400 every
    # term from 16 on does and so does the alpha = 1.5 remainder past 100:
    # the brackets keep a positive upper end and still hold the 40-digit
    # value, whose head terms err by about 4 beta u (the log's rounding,
    # raised to the power 2 beta)
    d = 0 if weight == "widom" else 1
    alpha_one = SymbolSeq.powerlog(1.0, beta)
    with mpmath.workdps(40):
        # past n = 3000 the terms are below e^-100 of the first
        terms = ((n + d) * mpmath.mpf(n + 1) ** -3 * mpmath.log(n + 2) ** (-2 * beta) for n in range(101, 3001))
        steep = mpmath.fsum(terms)
    past_head = _alpha_one_tail_value(beta, _SECOND_ORDER_HEAD, 1.0, weight)
    cases = [
        (alpha_one.tail_remainder(_SECOND_ORDER_HEAD, weight), past_head),
        (alpha_one.tail_brackets([16], 2**18, weight)[0], _alpha_one_tail_value(beta, 15, 1.0, weight)),
        (SymbolSeq.powerlog(1.5, beta).tail_remainder(100, weight), steep),
    ]
    for b, value in cases:
        assert b.upper > 0.0 and mpmath.mpf(b.lower) <= value <= mpmath.mpf(b.upper), (b, value)


def test_summed_through_caps_only_the_second_order_remainder():
    second_order = SymbolSeq.powerlog(1.0, 1.5)
    assert second_order.summed_through(2**18) == _SECOND_ORDER_HEAD
    assert second_order.summed_through(1000) == 1000
    # the cap holds under both weights: past it nmax moves no bracket
    for weight in ("widom", "membership"):
        capped = second_order.tail_brackets([0, 2**16], _SECOND_ORDER_HEAD, weight)
        assert second_order.tail_brackets([0, 2**16], 2**18, weight) == capped
    others = [
        SymbolSeq.powerlog(1.0, 0.5),
        SymbolSeq.powerlog(1.5, 1.0),
        SymbolSeq.lacunary_rule(1, 2.0, 1.0),
        SymbolSeq.from_measure(MeasureSpec(atoms=[(0.5, 1.0)])),
    ]
    assert all(s.summed_through(2**18) == 2**18 for s in others)
    assert SymbolSeq.explicit(np.ones(40)).summed_through(8) == 39


@pytest.mark.parametrize("nmax", [1024, 2**18])
def test_rule_support_is_walked_once_per_grid(nmax, monkeypatch):
    # one walk serves the head and every remainder, the cutoffs past nmax
    # included, and gives the brackets a walk per cutoff gives
    sym = SymbolSeq.lacunary_rule(1, 1.001, 1, 0.6)
    grid = [2**j for j in range(4, 15)]
    walk = symbols._rule_support
    per_cutoff = {m: sym._lacunary_rule_tail(m - 1, *walk(sym.params, m - 1)) for m in grid if m > nmax}
    calls = []
    monkeypatch.setattr(symbols, "_rule_support", lambda *args: calls.append(args) or walk(*args))
    brackets = sym.tail_brackets(grid, nmax)
    assert len(calls) == 1
    assert all(brackets[grid.index(m)] == want for m, want in per_cutoff.items())


def test_moments_tail_uncertified_with_density():
    # Lebesgue moments behave like powerlog(1, 0), whose tail diverges; a
    # gamma = 0, delta = 0.75 density has an unbounded class but a finite tail
    for weight in ("widom", "membership"):
        b = SymbolSeq.from_measure(MeasureSpec.lebesgue()).tail_remainder(100, weight)
        assert not b.certified and b.divergent
        for density in ({"c": 1.0, "gamma": 3.0}, {"c": 1.0, "gamma": 0.0, "delta": 0.75}):
            b = SymbolSeq.from_measure(MeasureSpec(densities=[density])).tail_remainder(100, weight)
            assert not b.certified and not b.divergent


def test_lacunary_rule_tail_divergence():
    assert SymbolSeq.lacunary_rule(1, 2.0, 0.5, 0.0).tail_remainder(100, "membership").divergent
    assert SymbolSeq.lacunary_rule(1, 2.0, 0.4, 2.0).tail_remainder(100, "membership").divergent
    assert not SymbolSeq.lacunary_rule(1, 2.0, 0.5, 1.0).tail_remainder(100, "membership").divergent
    assert not SymbolSeq.lacunary_rule(1, 2.0, 1.0, 0.0).tail_remainder(100, "membership").divergent


@pytest.mark.parametrize("decay,power", [(0.5, 1.0), (0.75, 0.0), (1.0, 0.5)])
def test_lacunary_rule_tail_upper_bound_valid(decay, power):
    s = SymbolSeq.lacunary_rule(1, 2.0, decay, power)
    nmax = 500
    b = s.tail_remainder(nmax, "membership")
    assert b.certified
    # sum the actual rule terms far past nmax and compare
    idx = np.arange(nmax + 1, 1 << 22)
    # only support points matter; walk them directly
    total = 0.0
    k = 0
    n_k = 1
    while n_k < (1 << 22):
        if n_k > nmax:
            total += (n_k + 1) * abs(s.value(n_k)) ** 2
        k += 1
        n_k = max(n_k + 1, int(np.ceil(n_k * 2.0)))
    assert total <= b.upper


@pytest.mark.parametrize(
    "make",
    [
        lambda: SymbolSeq.explicit([1.0, -0.5j, 0.25]),
        lambda: SymbolSeq.powerlog(1.0, 1.5),
        lambda: SymbolSeq.from_measure(MeasureSpec(atoms=[(0.5, 1.0)], densities=[{"c": 1.0, "gamma": 0.5}])),
        lambda: SymbolSeq.lacunary([1, 3, 9], [1.0, 0.5, 0.25]),
        lambda: SymbolSeq.lacunary_rule(1, 2.0, 0.75, 1.0),
        lambda: SymbolSeq.randomized(SymbolSeq.lacunary_rule(2, 3.0, 1.0), DistTag("gaussian"), seed=5),
    ],
    ids=["explicit", "powerlog", "moments", "lacunary", "lacunary-rule", "randomized"],
)
def test_evaluation_leaves_params_untouched(make):
    s = make()
    before = dict(s.params)
    s.values(np.arange(0, 4096, 7))
    s.tail_brackets([0, 10, 20000], 1024)
    s.tail_brackets([5], 2**18, "membership")
    assert s.params.keys() == before.keys()
    assert all(s.params[key] is value for key, value in before.items())
