import numpy as np
import pytest

from conftest import seeded_uniforms
from dirspace.measures import MeasureSpec
from dirspace.stochastic import (
    DistTag,
    RngSpec,
    fourth_moment_exact_rademacher,
    fourth_moment_mc,
    random_tail_experiment,
    sample_symbol,
)
from dirspace.symbols import SymbolSeq


def test_dist_tag_validation():
    with pytest.raises(ValueError):
        DistTag("cauchy")


def test_dist_fourth_moment_normalization():
    # empirical fourth moments of the normalized distributions are ~1
    for name in ("rademacher", "uniform-symmetric", "gaussian"):
        d = DistTag(name, normalized=True)
        x = d.sample(123, 0, np.arange(200000))
        assert np.mean(x**4) == pytest.approx(1.0, abs=0.02)
        assert abs(np.mean(x)) < 0.01


def test_sample_symbol_zero_base():
    out = sample_symbol(SymbolSeq.explicit([0.0, 0.0]), DistTag("gaussian"), RngSpec(1), 10)
    assert np.all(out.values(np.arange(11)) == 0.0)
    # the flag is read off the sampled values: zeros are nonnegative and nonincreasing
    assert out.monotone_flag == "decreasing-positive"


def test_sample_symbol_rademacher_moduli():
    base = SymbolSeq.powerlog(1.0, 1.0)
    out = sample_symbol(base, DistTag("rademacher"), RngSpec(5), 32)
    idx = np.arange(33)
    assert np.allclose(np.abs(out.values(idx)), np.abs(base.values(idx)))
    assert out.monotone_flag == "general"  # the signs break monotonicity


def test_sample_symbol_determinism_and_streams():
    base = SymbolSeq.powerlog(1.0, 1.0)
    a = sample_symbol(base, DistTag("rademacher"), RngSpec(7, 3), 64)
    b = sample_symbol(base, DistTag("rademacher"), RngSpec(7, 3), 64)
    c = sample_symbol(base, DistTag("rademacher"), RngSpec(7, 4), 64)
    idx = np.arange(65)
    assert np.array_equal(a.values(idx), b.values(idx))
    assert not np.array_equal(a.values(idx), c.values(idx))
    # multiplier n is independent of the truncation length
    longer = sample_symbol(base, DistTag("rademacher"), RngSpec(7, 3), 128)
    assert np.array_equal(a.values(idx), longer.values(idx))


# -- exact fourth moment ------------------------------------------------------


def test_fourth_moment_exact_small_cases():
    assert fourth_moment_exact_rademacher([1.0]) == pytest.approx(1.0)
    assert fourth_moment_exact_rademacher([1.0, 1.0]) == pytest.approx(8.0)
    assert fourth_moment_exact_rademacher([3.0, 4.0]) == pytest.approx(1201.0)


def test_fourth_moment_exact_matches_closed_form():
    for i in range(100):
        length = 1 + int(seeded_uniforms(61, i, 1)[0] * 14)
        a = 2.0 * seeded_uniforms(62, i, length) - 1.0
        exact = fourth_moment_exact_rademacher(a)
        closed = 3.0 * np.sum(a * a) ** 2 - 2.0 * np.sum(a**4)
        assert exact == pytest.approx(closed, rel=1e-12)
        assert exact <= 3.0 * np.sum(a * a) ** 2 * (1.0 + 1e-12)


def test_fourth_moment_scale_equivariance_exact():
    a = np.array([0.5, 1.0, 2.0])
    assert fourth_moment_exact_rademacher(2.0 * a) == 16.0 * fourth_moment_exact_rademacher(a)


def test_fourth_moment_exact_size_limit():
    with pytest.raises(ValueError):
        fourth_moment_exact_rademacher(np.ones(21))


# -- monte carlo --------------------------------------------------------------


def test_fourth_moment_mc_zero():
    est, se = fourth_moment_mc(np.zeros(4), DistTag("rademacher"), 2000, RngSpec(3))
    assert est == 0.0 and se == 0.0


def test_fourth_moment_mc_matches_exact_enumeration():
    a = 2.0 * seeded_uniforms(77, 0, 12) - 1.0
    exact = fourth_moment_exact_rademacher(a)
    est, se = fourth_moment_mc(a, DistTag("rademacher"), 40000, RngSpec(9))
    assert abs(est - exact) <= 4.0 * se


def test_fourth_moment_mc_gaussian_unit():
    est, se = fourth_moment_mc(np.array([1.0]), DistTag("gaussian"), 50000, RngSpec(11))
    assert abs(est - 1.0) <= 4.0 * se


def test_fourth_moment_mc_complex_amplitudes():
    a = (2.0 * seeded_uniforms(78, 0, 6) - 1.0) + 1j * (2.0 * seeded_uniforms(79, 0, 6) - 1.0)
    est, se = fourth_moment_mc(a, DistTag("rademacher"), 30000, RngSpec(13))
    bound = 3.0 * np.sum(np.abs(a) ** 2) ** 2
    assert est <= bound + 4.0 * se


def test_fourth_moment_mc_preconditions():
    with pytest.raises(ValueError):
        fourth_moment_mc([1.0], DistTag("gaussian", normalized=False), 2000, RngSpec(1))
    with pytest.raises(ValueError):
        fourth_moment_mc([1.0], DistTag("gaussian"), 10, RngSpec(1))


# -- random tail experiment ---------------------------------------------------


def test_random_tail_requires_membership():
    with pytest.raises(ValueError, match="Dirichlet"):
        random_tail_experiment(
            SymbolSeq.powerlog(1.0, 0.0), DistTag("rademacher"), 2, [8], 32, RngSpec(1)
        )
    # a gamma = 3 density's membership sum is finite but not certified
    with pytest.raises(ValueError, match="not certified"):
        random_tail_experiment(
            SymbolSeq.from_measure(MeasureSpec(densities=[{"c": 1.0, "gamma": 3.0}])),
            DistTag("rademacher"),
            2,
            [8],
            32,
            RngSpec(1),
        )
    # Lebesgue moments: the membership sum diverges
    with pytest.raises(ValueError, match="divergent"):
        random_tail_experiment(
            SymbolSeq.from_measure(MeasureSpec.lebesgue()), DistTag("rademacher"), 2, [8], 32, RngSpec(1)
        )


def test_random_tail_zero_symbol():
    rep = random_tail_experiment(
        SymbolSeq.explicit([0.0]), DistTag("rademacher"), 3, [4, 8], 32, RngSpec(2)
    )
    for row in rep.rows:
        assert row.median == 0.0 and row.deterministic == 0.0


def test_random_tail_rejects_zero_replicas():
    with pytest.raises(ValueError, match="at least one replica"):
        random_tail_experiment(
            SymbolSeq.powerlog(1.0, 1.0), DistTag("rademacher"), 0, [8], 32, RngSpec(1)
        )


def test_random_tail_determinism():
    base = SymbolSeq.powerlog(1.0, 1.0)
    r1 = random_tail_experiment(base, DistTag("rademacher"), 4, [16, 32], 64, RngSpec(21, 5))
    r2 = random_tail_experiment(base, DistTag("rademacher"), 4, [16, 32], 64, RngSpec(21, 5))
    assert [(q.median, q.q25, q.q75) for q in r1.rows] == [(q.median, q.q25, q.q75) for q in r2.rows]


def test_random_tail_quartiles_ordered_and_monotone():
    base = SymbolSeq.powerlog(1.0, 1.0)
    rep = random_tail_experiment(base, DistTag("gaussian"), 8, [8, 16, 32], 64, RngSpec(31))
    for row in rep.rows:
        assert row.q25 <= row.median <= row.q75
    medians = [row.median for row in rep.rows]
    for a, b in zip(medians, medians[1:]):
        assert b <= a + 1e-12


def test_random_tail_contrast_small_scale():
    # randomized symbols have visibly smaller tails than the deterministic
    # base already at modest size
    base = SymbolSeq.powerlog(1.0, 1.0)
    rep = random_tail_experiment(base, DistTag("rademacher"), 8, [128], 256, RngSpec(20260809))
    row = rep.rows[0]
    assert row.median < row.deterministic
