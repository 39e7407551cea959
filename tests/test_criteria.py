import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import seeded_uniforms
from dirspace.checks import double_sum_battery
from dirspace.criteria import (
    ClassifyConfig,
    classify,
    dirichlet_membership,
    double_sum_ratio,
    rkt_probe,
    widom_profile,
    widom_tail,
)
from dirspace.measures import MeasureSpec
from dirspace.operators import cesaro_rkt_norm
from dirspace.stochastic import DistTag
from dirspace.symbols import SymbolSeq


def test_widom_tail_finite_symbol_exact_zero():
    b = widom_tail(SymbolSeq.explicit([1.0, 0.0]), 1, 100)
    assert b.lower == 0.0 and b.upper == 0.0 and not b.divergent


def test_widom_tail_hilbert_divergent():
    b = widom_tail(SymbolSeq.powerlog(1.0, 0.0), 4, 2000)
    assert b.divergent and b.upper == np.inf
    # partial sums outgrow any fixed cap
    deep = widom_tail(SymbolSeq.powerlog(1.0, 0.0), 4, 10**6)
    assert deep.lower > 10.0


def test_widom_tail_point_mass():
    s = SymbolSeq.from_measure(MeasureSpec.point_mass(0.5))
    b = widom_tail(s, 0, 64)
    # sum n 4^-n = (1/4)/(1-1/4)^2 = 4/9 (geometric-derivative closed form)
    x = 0.25
    oracle = x / (1.0 - x) ** 2
    assert b.lower <= oracle <= b.upper
    assert b.upper - b.lower <= 1e-12


def test_widom_tail_midpoints_nonincreasing_in_m():
    s = SymbolSeq.powerlog(1.0, 1.0)
    mids = [widom_tail(s, m, 4096).midpoint for m in (0, 4, 16, 64, 256)]
    for a, b in zip(mids, mids[1:]):
        assert b <= a + 1e-13


def test_widom_brackets_contain_deeper_oracle():
    # brackets from a 10x-deeper truncation nest inside the reported ones,
    # and the deeper partial sums stay below the upper ends
    for beta in (0.75, 1.0, 1.5):
        s = SymbolSeq.powerlog(1.0, beta)
        for m in (0, 16, 256):
            b = widom_tail(s, m, 2048)
            deep = widom_tail(s, m, 20480)
            eps = 1e-12 * max(b.upper, 1.0)
            assert b.lower - eps <= deep.lower and deep.upper <= b.upper + eps
            n = np.arange(m, 20481)
            partial10 = float(np.sum(n * s.values(n) ** 2))
            assert partial10 <= b.upper + eps


def test_widom_profile_finite_symbol_zero_beyond_support():
    pts = widom_profile(SymbolSeq.explicit([1.0, 0.5, 0.25]), [4, 8, 16], 64)
    for p in pts:
        assert p.lower == 0.0 and p.upper == 0.0


def _log_tail_integral(m: float, two_beta: float) -> float:
    """int_{m-1/2}^inf x (x+1)^-2 log(x+2)^-two_beta dx, via u = log(x+2)
    up to u = 200 plus the closed-form far tail (the integrand is u^-two_beta
    there to double precision)."""
    u0 = np.log(m + 1.5)
    val, _ = quad(
        lambda u: (lambda x: x * (x + 1.0) ** -2 * np.log(x + 2.0) ** -two_beta)(np.exp(u) - 2.0)
        * np.exp(u),
        u0,
        200.0,
        limit=300,
    )
    return val + 200.0 ** (1.0 - two_beta) / (two_beta - 1.0)


def test_widom_profile_plateau_for_log_symbol():
    # beta = 1: S(m) log(m+2) approaches a positive constant; the integral
    # int_m^inf dx/(x log^2 x) = 1/log m is the oracle for the plateau level
    s = SymbolSeq.powerlog(1.0, 1.0)
    pts = widom_profile(s, [2**j for j in range(4, 15)], 2**18)
    ups = [p.upper for p in pts]
    for u, p in zip(ups, pts):
        oracle = np.log(p.m + 2.0) * _log_tail_integral(p.m, 2.0)
        assert u == pytest.approx(oracle, rel=0.02)
    assert ups[-1] == pytest.approx(ups[-3], rel=0.01)  # plateau at the end


def test_widom_profile_decay_for_compact_symbol():
    # S(m) ~ 1/(2 log^2 m), so the normalized profile decays like 1/log m:
    # the 2^8 -> 2^14 ratio approaches log(2^8)/log(2^14) = 4/7 ~ 0.571
    pts = widom_profile(SymbolSeq.powerlog(1.0, 1.5), [2**j for j in range(4, 15)], 2**18)
    mid_8 = next(p for p in pts if p.m == 2**8).upper
    mid_14 = next(p for p in pts if p.m == 2**14).upper
    assert mid_14 < 0.6 * mid_8
    oracle = _log_tail_integral(2**14, 3.0) * np.log(2**14 + 2.0)
    assert mid_14 == pytest.approx(oracle, rel=0.02)


def test_widom_profile_rejects_bad_grid():
    with pytest.raises(ValueError):
        widom_profile(SymbolSeq.powerlog(1.0, 1.0), [16, 16], 256)
    with pytest.raises(ValueError, match="cutoff must be >= 0"):
        widom_profile(SymbolSeq.powerlog(1.0, 1.0), [-2, 16], 256)
    with pytest.raises(ValueError, match="nmax must be >= 0"):
        widom_profile(SymbolSeq.powerlog(1.0, 1.0), [4, 8], -5)
    with pytest.raises(ValueError, match="nmax must be >= 0"):
        widom_tail(SymbolSeq.powerlog(1.0, 1.0), 4, nmax=-5)
    with pytest.raises(ValueError, match="nmax must be >= 0"):
        dirichlet_membership(SymbolSeq.powerlog(1.0, 1.0), nmax=-5)


@pytest.mark.parametrize(
    "sym",
    [SymbolSeq.lacunary_rule(1, 2.0, 0.75, 0.5), SymbolSeq.lacunary([3, 9, 40], [1.0, -0.5, 0.25j]),
     SymbolSeq.explicit([1.0, 0.5, 0.25])],
)
def test_sparse_symbol_tails_read_only_the_support(sym, monkeypatch):
    nmax = 2**18
    n = np.arange(nmax + 1)
    dense = n * np.abs(sym.values(n)) ** 2
    seen = []
    values = SymbolSeq.values
    monkeypatch.setattr(SymbolSeq, "values", lambda self, idx: seen.append(len(idx)) or values(self, idx))
    tail = widom_tail(sym, 4, nmax)
    pts = widom_profile(sym, [0, 4, 16, 64], nmax)
    assert all(k <= 64 for k in seen)  # explicit and lacunary brackets read no values at all
    assert tail.lower <= np.sum(dense[4:]) <= tail.upper
    for p in pts:
        assert p.lower <= np.sum(dense[p.m :]) * np.log(p.m + 2.0) <= p.upper


def _symbols():
    powerlog = st.builds(SymbolSeq.powerlog, st.floats(1.0, 2.0), st.floats(0.6, 2.0))
    lacunary = st.builds(
        SymbolSeq.lacunary_rule, st.integers(1, 8), st.floats(1.5, 4.0), st.floats(0.3, 2.0), st.floats(0.0, 2.0)
    )
    explicit = st.builds(
        SymbolSeq.explicit, st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=1, max_size=300)
    )
    return st.one_of(powerlog, lacunary, explicit)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    sym=_symbols(),
    nmax=st.integers(0, 2048),
    m_grid=st.lists(st.integers(0, 4096), min_size=1, max_size=6, unique=True).map(sorted),
)
def test_tail_brackets_agree_across_entry_points(sym, nmax, m_grid):
    # the profile is the per-cutoff tail scaled by log(m+2), lower ends do not
    # increase in m, and a deeper truncation's bracket meets the shallow one
    profile = widom_profile(sym, m_grid, nmax)
    tails = [widom_tail(sym, m, nmax) for m in m_grid]
    for p, t in zip(profile, tails):
        scale = np.log(t.m + 2.0)
        assert p.m == t.m and p.divergent == t.divergent
        for got, want in ((p.lower, t.lower * scale), (p.upper, t.upper * scale)):
            assert got == want or abs(got - want) <= 1e-14 * abs(want)
    lowers = [t.lower for t in tails]
    assert all(b <= a for a, b in zip(lowers, lowers[1:]))
    for t, deep in zip(tails, widom_profile(sym, m_grid, 8 * nmax)):
        deep_lower = deep.lower / np.log(deep.m + 2.0)
        deep_upper = deep.upper / np.log(deep.m + 2.0)
        assert max(t.lower, deep_lower) <= min(t.upper, deep_upper)


@pytest.mark.parametrize(
    "make",
    [lambda: SymbolSeq.powerlog(1.0, 1.5), lambda: SymbolSeq.lacunary_rule(1, 2.0, 0.7, 0.0)],
    ids=["powerlog", "lacunary-rule"],
)
def test_tail_bracket_past_nmax_meets_deep_bracket(make):
    # a cutoff beyond nmax still gets a bracket of its own tail, not of the
    # larger tail beyond nmax
    sym = make()
    for m in (2048, 16384):
        shallow, deep = widom_tail(sym, m, 1024), widom_tail(sym, m, 2**20)
        assert max(shallow.lower, deep.lower) <= min(shallow.upper, deep.upper)


# -- classify -----------------------------------------------------------------


def test_classify_ladder():
    verdicts = {b: classify(SymbolSeq.powerlog(1.0, b), "hankel").verdict for b in (0.5, 1.0, 1.5)}
    assert verdicts == {0.5: "unbounded", 1.0: "bounded", 1.5: "compact"}


def test_classify_point_mass_compact():
    rep = classify(SymbolSeq.from_measure(MeasureSpec.point_mass(0.5)), "hankel")
    assert rep.verdict == "compact" and rep.applicability == "theorem-exact"


@pytest.mark.parametrize("kind", ["hankel", "cesaro"])
def test_classify_bounded_needs_a_whole_grid_plateau(kind):
    # for alpha = 1 the profile drifts like (log m)^(2 - 2 beta): a few
    # percent per octave, too little for profile ratios to separate beta
    # near 1; the verdict comes from the exponents
    verdicts = {b: classify(SymbolSeq.powerlog(1.0, b), kind).verdict for b in (0.6, 0.75, 1.0, 1.25)}
    assert verdicts[1.0] == "bounded"
    assert all(verdicts[b] != "bounded" for b in (0.6, 0.75, 1.25))


def test_classify_rejects_empty_cutoff_grid():
    with pytest.raises(ValueError, match="cutoff grid"):
        classify(SymbolSeq.powerlog(1.0, 0.75), "hankel", ClassifyConfig(m_grid=()))


def test_classify_cesaro_log_symbol_bounded():
    rep = classify(SymbolSeq.powerlog(1.0, 1.0), "cesaro")
    assert rep.verdict == "bounded" and rep.applicability == "theorem-exact"


def test_classify_fast_decay_compact():
    # power decay faster than 1/n: loose one-sided remainders widen the
    # brackets, but the certified end-to-end decay still proves compactness
    assert classify(SymbolSeq.powerlog(1.3, 0.2, 0.7), "hankel").verdict == "compact"
    assert classify(SymbolSeq.powerlog(2.0, 0.0), "hankel").verdict == "compact"
    assert classify(SymbolSeq.lacunary_rule(2, 3.0, 1.2, 0.5, 0.8), "hankel").verdict == "compact"


def test_classify_cesaro_applicability():
    vals = seeded_uniforms(41, 0, 32) - 0.5  # sign-changing: not monotone
    rep = classify(SymbolSeq.explicit(vals), "cesaro")
    assert rep.applicability == "theorem-exact"
    rep2 = classify(SymbolSeq.explicit(vals), "hankel")
    assert rep2.applicability == "heuristic"
    assert any("carleson" in note.lower() for note in rep2.notes)


def test_classify_zero_symbol():
    rep = classify(SymbolSeq.explicit([0.0, 0.0]), "hankel")
    assert rep.verdict == "compact"


def test_classify_lebesgue_unbounded_theorem_exact():
    # Lebesgue moments (the Hilbert matrix): the density's exponents give the
    # class of powerlog(1, 0), and the divergent tail reaches every profile row
    rep = classify(SymbolSeq.from_measure(MeasureSpec.lebesgue()), "hankel")
    assert (rep.verdict, rep.applicability) == ("unbounded", "theorem-exact")
    assert all(p.divergent and p.upper == np.inf for p in rep.profile)


def test_classify_uncertified_inconclusive():
    # compact symbols without a certified tail: the verdict is inconclusive
    # (never compact), however far the profile rises; the scaled density and
    # the randomized symbol have the class of powerlog(2, 0)
    tame = MeasureSpec(densities=[{"c": 1.0, "gamma": 3.0}])
    scaled = MeasureSpec(densities=[{"c": 100.0, "gamma": 1.0}])
    rand = SymbolSeq.randomized(SymbolSeq.powerlog(2.0, 0.0, scale=100.0), DistTag("rademacher"), seed=3)
    for s, large in ((SymbolSeq.from_measure(tame), False), (SymbolSeq.from_measure(scaled), True), (rand, True)):
        rep = classify(s, "hankel")
        assert rep.verdict == "inconclusive"
        assert (max(p.lower for p in rep.profile) > 10.0) == large


def _rises(rep) -> bool:
    return rep.profile[-1].midpoint > rep.profile[0].midpoint


# the profile's trend on the default grid agrees with the closed-form class
# only away from the boundary exponent 1: at beta = 0.95 P(last)/P(first) is
# about 1.12, at beta = 1.05 about 0.88, and a lacunary rule with power 0.9
# (unbounded) still has a falling profile on this grid


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(beta=st.floats(0.55, 0.95) | st.floats(1.05, 2.0), kind=st.sampled_from(["hankel", "cesaro"]))
def test_log_symbol_class_matches_profile_trend(beta, kind):
    # alpha = 1: P(m) ~ (log m)^(2 - 2 beta)
    rep = classify(SymbolSeq.powerlog(1.0, beta), kind)
    assert rep.verdict == ("unbounded" if beta < 1.0 else "compact")
    assert rep.applicability == "theorem-exact"
    assert _rises(rep) == (beta < 1.0)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(alpha=st.floats(1.2, 2.5), beta=st.floats(0.0, 2.0))
def test_power_symbol_class_compact_with_decaying_profile(alpha, beta):
    rep = classify(SymbolSeq.powerlog(alpha, beta), "hankel")
    mids = [p.midpoint for p in rep.profile]
    assert rep.verdict == "compact"
    assert all(b < a for a, b in zip(mids, mids[1:]))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(
    power=st.floats(0.55, 0.8) | st.floats(1.2, 2.0),
    q=st.sampled_from([2.0, 3.0]),
    start=st.integers(1, 3),
)
def test_lacunary_rule_class_matches_profile_trend(power, q, start):
    # decay 1/2: S(m) log m ~ (log m)^(2 - 2 power), like powerlog(1, power)
    rep = classify(SymbolSeq.lacunary_rule(start, q, 0.5, power), "cesaro")
    assert rep.verdict == ("unbounded" if power < 1.0 else "compact")
    assert _rises(rep) == (power < 1.0)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    sym=st.builds(SymbolSeq.powerlog, st.just(1.0) | st.floats(0.5, 1.5), st.floats(0.0, 2.0))
    | st.builds(SymbolSeq.lacunary_rule, st.integers(1, 3), st.sampled_from([2.0, 3.0]),
                st.just(0.5) | st.floats(0.3, 1.0), st.floats(0.0, 2.0)),
)
def test_divergent_profile_means_unbounded(sym):
    rep = classify(sym, "cesaro")
    if any(p.divergent for p in rep.profile):
        assert rep.verdict == "unbounded"


def test_classify_kind_validation():
    with pytest.raises(ValueError):
        classify(SymbolSeq.powerlog(1.0, 1.0), "toeplitz")


# -- kernel probes ------------------------------------------------------------


def test_rkt_probe_hankel_at_zero():
    s = SymbolSeq.explicit([1.0, 0.5, 0.25])
    rep = rkt_probe(s, "hankel", [0.0], 16)
    # k_0 = 1, so the image is (lambda_0, lambda_1, ...) and the norm is
    # sqrt(1 + 1*(0.5)^2 + 2*(0.25)^2)
    want = np.sqrt(1.0 + 0.25 + 2 * 0.0625)
    assert rep.rows[0].estimate == pytest.approx(want, rel=1e-12)
    assert rep.notes  # ambiguity of the hankel compactness reading is flagged


def test_rkt_probe_cesaro_matches_closed_form():
    s = SymbolSeq.powerlog(1.0, 1.0)
    rep = rkt_probe(s, "cesaro", [0.2, 0.5, 0.8], 128)
    for row in rep.rows:
        assert row.estimate == pytest.approx(row.closed_form, rel=1e-12)
        assert row.closed_form == pytest.approx(cesaro_rkt_norm(s, row.t, 128), rel=0.05)


def test_rkt_probe_unbounded_symbol_grows():
    s = SymbolSeq.powerlog(1.0, 0.5)
    rep = rkt_probe(s, "hankel", [1.0 - 2.0**-j for j in range(1, 9)], 128)
    ests = [r.estimate for r in rep.rows]
    assert all(b > a for a, b in zip(ests, ests[1:]))
    assert rep.statistic == pytest.approx(max(ests))


# -- membership ---------------------------------------------------------------


def test_membership_explicit():
    b = dirichlet_membership(SymbolSeq.explicit([1.0]), 64)
    assert b.lower <= 1.0 <= b.upper and b.upper - b.lower < 1e-12


def test_membership_lacunary_cases():
    in_d = dirichlet_membership(SymbolSeq.lacunary_rule(1, 2.0, 0.5, 1.0))
    assert not in_d.divergent and np.isfinite(in_d.upper)
    out_d = dirichlet_membership(SymbolSeq.lacunary_rule(1, 2.0, 0.5, 0.0))
    assert out_d.divergent


def test_membership_hilbert_divergent():
    assert dirichlet_membership(SymbolSeq.powerlog(1.0, 0.0)).divergent


# -- double sum ---------------------------------------------------------------


def test_double_sum_basis_vector():
    lhs, rhs, ratio = double_sum_ratio([0.0, 1.0])
    assert lhs == pytest.approx(1.0 / np.log(3.0), rel=1e-14)
    assert rhs == 1.0
    assert ratio == pytest.approx(0.9102, abs=5e-5)


def test_double_sum_zero():
    assert double_sum_ratio([0.0, 0.0, 0.0]) == (0.0, 0.0, 0.0)


def test_double_sum_pair():
    lhs, rhs, ratio = double_sum_ratio([0.0, 1.0, 1.0])
    want = 1.0 / np.log(3.0) + 2.0 / np.log(4.0) + 1.0 / np.log(5.0)
    assert lhs == pytest.approx(want, rel=1e-14)
    assert rhs == 3.0
    assert ratio == pytest.approx(want / 3.0, rel=1e-14)


def test_double_sum_matches_direct_double_sum():
    # the self-convolution against the n x n table of 1/log(n+m+1)
    for i, length in enumerate((3, 17, 300)):
        a = seeded_uniforms(4244, i, length)
        n = np.arange(1, length, dtype=np.float64)
        want = float(np.sum(np.outer(a[1:], a[1:]) / np.log(n[:, None] + n[None, :] + 1.0)))
        assert double_sum_ratio(a)[0] == pytest.approx(want, rel=1e-14)


def test_double_sum_index_zero_ignored():
    assert double_sum_ratio([5.0, 1.0])[0] == double_sum_ratio([0.0, 1.0])[0]


def test_double_sum_rejects_negative():
    with pytest.raises(ValueError):
        double_sum_ratio([0.0, -1.0])


def test_double_sum_battery_bounded():
    mx = 0.0
    for i in range(200):
        length = 2 + int(seeded_uniforms(4242, i, 1)[0] * 255)
        vec = seeded_uniforms(4243, i, length)
        mx = max(mx, double_sum_ratio(vec)[2])
    assert mx <= 10.0


def per_vector_battery(len_seed, vec_seed, stream, count, max_len):
    """double_sum_battery drawn one stream per call: its reference."""
    ratios = []
    for i in range(count):
        length = 2 + int(seeded_uniforms(len_seed, stream + i, 1)[0] * (max_len - 1))
        ratios.append(double_sum_ratio(seeded_uniforms(vec_seed, stream + i, length))[2])
    return ratios


@pytest.mark.parametrize(
    "len_seed, vec_seed, stream, count, max_len",
    [
        (4242, 4243, 0, 300, 512),  # acceptance 10's seeds; entries drawn in three blocks
        (7, 7 ^ 0xA5A5, 2**64 - 3, 12, 512),  # streams wrap past 2^64 - 1
        (5, 5 ^ 0xA5A5, -9, 20, 2),  # negative streams; every vector has length 2
        (-(2**70), 2**70, 2**66 + 1, 30, 64),
    ],
)
def test_double_sum_battery_matches_per_vector_draws(len_seed, vec_seed, stream, count, max_len):
    want = per_vector_battery(len_seed, vec_seed, stream, count, max_len)
    assert double_sum_battery(len_seed, vec_seed, stream, count, max_len) == want


def test_route_consistency_on_ladder():
    """Verdicts, probe growth, and section-norm growth order the three
    calibration symbols the same way."""
    from dirspace.operators import section_matrix, top_singular_value

    order = {"unbounded": 2, "bounded": 1, "compact": 0}
    betas = (1.5, 1.0, 0.5)
    verdict_rank = [order[classify(SymbolSeq.powerlog(1.0, b), "hankel").verdict] for b in betas]
    assert verdict_rank == sorted(verdict_rank)

    # probe statistic at t close to 1 sorts the same way
    t_hi = [
        rkt_probe(SymbolSeq.powerlog(1.0, b), "hankel", [1.0 - 2.0**-8], 128).statistic
        for b in betas
    ]
    assert t_hi == sorted(t_hi)

    # section-norm growth factor over N in {64, 512} sorts the same way
    growth = []
    for b in betas:
        s = SymbolSeq.powerlog(1.0, b)
        lo, _ = top_singular_value(section_matrix(s, "hankel", "dirichlet-section", 64))
        hi, _ = top_singular_value(section_matrix(s, "hankel", "dirichlet-section", 512))
        growth.append(hi / lo)
    assert growth == sorted(growth)
