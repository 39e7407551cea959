"""The twelve acceptance checks, run by the test battery and by `dirspace demo`.

``check.run("full")`` is what tests/test_acceptance.py runs and
``check.run("quick")`` what ``dirspace demo`` runs; both return ``(ok,
detail)`` from the same function, seeds and frozen margin, and differ only in
the sizes the check's decorator lists.  Frozen margins come from seeded
pre-runs at full size with headroom.  Details carry no timing, so demo
reports are byte-identical for fixed seeds.

The quadrature helpers are deliberately independent of the library's own
coefficient formulas (Gauss-Legendre in the radius, uniform angular grids,
pointwise polynomial values): they are the second route wherever the package
computes disk integrals from coefficients, here and in the unit tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _rng, carleson, coeffspace, criteria, measures, operators, stochastic
from .coeffspace import TaylorPoly
from .symbols import SymbolSeq, WidomTail


def seeded_uniforms(seed: int, stream: int, count: int) -> np.ndarray:
    return _rng.uniforms(seed, stream, np.arange(count))


def random_poly(seed: int, stream: int, degree: int) -> TaylorPoly:
    re = _rng.uniform_symmetric(seed, stream, np.arange(degree + 1))
    im = _rng.uniform_symmetric(seed ^ 0x1111, stream, np.arange(degree + 1))
    return TaylorPoly(re + 1j * im)


def polyval_circle(coeffs: np.ndarray, r: float, m: int) -> np.ndarray:
    """Values of sum c_a z^a on m uniform points of the circle |z| = r."""
    x = coeffs * r ** np.arange(coeffs.shape[0])
    return m * np.fft.ifft(x, m)


@functools.cache  # computing the rule costs more than a low-degree quadrature
def _radial_rule() -> tuple:
    """80-point Gauss-Legendre nodes and weights on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(80)
    return tuple(0.5 * (nodes + 1.0)), tuple(0.5 * weights)


def disk_integral_mean(values_fn, deg: int):
    """int_D g dA (normalized area) with g given on circles by values_fn(r, m)."""
    m = max(64, 4 * deg + 9)
    r, w = _radial_rule()
    total = 0.0
    for ri, wi in zip(r, w):
        total += wi * 2.0 * ri * np.mean(values_fn(ri, m))
    return total


def quad_gram_entry(b: TaylorPoly, j: int, k: int) -> complex:
    """int z^j conj(z)^k |b'(z)|^2 dA by polar quadrature."""
    dc = b.derivative().coeffs

    def g(r, m):
        theta = 2.0 * np.pi * np.arange(m) / m
        zjk = r ** (j + k) * np.exp(1j * (j - k) * theta)
        return zjk * np.abs(polyval_circle(dc, r, m)) ** 2

    return complex(disk_integral_mean(g, dc.shape[0] - 1 + max(j, k)))


_BATTERY_BLOCK = 1 << 16  # double_sum_battery: entries drawn per call, at most


def double_sum_battery(len_seed: int, vec_seed: int, stream: int, count: int, max_len: int) -> list:
    """double_sum_ratio of ``count`` seeded vectors: vector i has length
    2 + floor(U (max_len - 1)), U the uniform of (len_seed, stream + i) at
    index 0, and entries the uniforms of (vec_seed, stream + i).

    The streams are drawn as arrays: one call for all lengths, and one for
    the entries of each block of vectors, over their concatenated index; a
    block holds at most _BATTERY_BLOCK entries, which bounds the memory."""
    streams = _rng._stream_words(stream) + np.arange(count, dtype=np.uint64)  # stream + i mod 2^64
    lengths = 2 + (_rng.uniforms(len_seed, streams, 0) * (max_len - 1)).astype(np.int64)
    block = max(1, _BATTERY_BLOCK // max_len)
    ratios = []
    for lo in range(0, count, block):
        sizes = lengths[lo : lo + block]
        ends = np.cumsum(sizes)
        index = np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)
        entries = _rng.uniforms(vec_seed, np.repeat(streams[lo : lo + block], sizes), index)
        ratios += [criteria.double_sum_ratio(entries[end - size : end])[2] for end, size in zip(ends, sizes)]
    return ratios


@dataclass(frozen=True)
class Check:
    """One acceptance criterion; ``quick`` and ``full`` are the sizes passed
    to ``measure`` at each scale."""

    number: int
    name: str
    title: str
    measure: Callable[..., tuple]
    quick: dict
    full: dict

    def run(self, scale: str) -> tuple[bool, str]:
        """Run at ``scale``, "quick" or "full"; returns (ok, detail)."""
        ok, detail = self.measure(**{"quick": self.quick, "full": self.full}[scale])
        return bool(ok), detail


CHECKS: list[Check] = []


def _check(number: int, name: str, title: str, quick: dict, full: dict):
    """Register the decorated function as check ``number`` of ``CHECKS``."""

    def register(measure):
        CHECKS.append(Check(number, name, title, measure, quick, full))
        return measure

    return register


@_check(1, "reproducing-kernel", "reproducing kernel suite",
        quick={"polys": 5}, full={"polys": 200})
def _reproducing_kernel(polys):
    radii = [0.0, 0.25, 0.5, 0.75, 0.95]
    angles = np.exp(2j * np.pi * np.arange(8) / 8)
    worst = 0.0
    for i in range(polys):
        f = random_poly(101, i, 64)
        nf = coeffspace.space_norm(f, "dirichlet-exact")
        for r in radii:
            for a in angles:
                w = r * a
                k = coeffspace.kernel_coeffs(w, f.degree)
                err = abs(coeffspace.dirichlet_inner(f, k) - coeffspace.evaluate(f, w))
                worst = max(worst, err / nf)
    return worst <= 1e-10, f"worst rel err {worst:.2e}"


@_check(2, "duality", "bergman/dirichlet transpose duality",
        quick={"symbols": 5, "dims": (16, 64)}, full={"symbols": 50, "dims": (32, 256)})
def _duality(symbols, dims):
    worst_entry, worst_sigma = 0.0, 0.0
    for i in range(symbols):
        re = _rng.uniform_symmetric(777, i, np.arange(2 * dims[-1] - 1))
        im = _rng.uniform_symmetric(778, i, np.arange(2 * dims[-1] - 1))
        s = SymbolSeq.explicit(re + 1j * im)
        for n in dims:
            a = operators.section_matrix(s, "hankel", "dirichlet-section", n)
            b = operators.section_matrix(s, "hankel", "bergman", n)
            worst_entry = max(worst_entry, float(np.max(np.abs(a.T - b))))
            sa, _ = operators.top_singular_value(a, tol=1e-13, max_iter=20000)
            sb, _ = operators.top_singular_value(b, tol=1e-13, max_iter=20000)
            worst_sigma = max(worst_sigma, abs(sa - sb) / max(sa, 1e-300))
    ok = worst_entry <= 1e-15 and worst_sigma <= 1e-10
    return ok, f"entry diff {worst_entry:.1e}, sigma rel {worst_sigma:.1e}"


@_check(3, "widom-ladder", "widom ladder",
        quick={"m_grid": (16,), "nmax": 2**10},
        full={"m_grid": (16, 64, 256, 1024, 4096, 16384), "nmax": 2**18})
def _widom_ladder(m_grid, nmax):
    want = {0.5: "unbounded", 1.0: "bounded", 1.5: "compact"}
    ok = True
    detail = []
    for beta, expected in want.items():
        s = SymbolSeq.powerlog(1.0, beta)
        rep = criteria.classify(s, "hankel")
        ok = ok and rep.verdict == expected
        detail.append(f"beta={beta}:{rep.verdict}")
        # bracket validation against a 10x-deeper oracle that does not go
        # through tail_brackets, whose head may stop short of nmax: a float
        # partial sum through 10 nmax plus the remainder past it nests inside
        # the reported brackets, and the deeper partial sums stay below the
        # upper ends, at every m in the grid
        n = np.arange(m_grid[0], 10 * nmax + 1)
        terms = n * s.values(n) ** 2
        rem = s.tail_remainder(10 * nmax)
        for m, b in zip(m_grid, s.tail_brackets(m_grid, nmax)):
            partial = float(np.sum(terms[m - m_grid[0] :]))
            deep = WidomTail(m, partial + rem.lower, partial + rem.upper)
            eps = 1e-12 * max(b.upper if np.isfinite(b.upper) else 1.0, 1.0)
            if np.isfinite(b.upper):
                ok = ok and b.lower - eps <= deep.lower and deep.upper <= b.upper + eps
                ok = ok and deep.lower <= b.upper + eps
            else:
                ok = ok and deep.lower >= b.lower - eps
    return ok, ", ".join(detail)


@_check(4, "hilbert", "hilbert matrix (lebesgue moments)",
        quick={"moments": 65, "dims": (16, 64)}, full={"moments": 513, "dims": (2**6, 2**8, 2**10, 2**12)})
def _hilbert(moments, dims):
    spec = measures.MeasureSpec.lebesgue()
    n = np.arange(moments)
    closed = spec.moments(n)
    exact = 1.0 / (n + 1.0)
    quadrature = measures._density_moments_graded(measures.Density(c=1.0, gamma=0.0), n)
    ok = bool(np.max(np.abs(closed - exact)) <= 1e-12)
    ok = ok and bool(np.max(np.abs(quadrature - exact)) <= 1e-12)
    verdict = measures.classify_measure(spec, "hankel").verdict
    ok = ok and verdict == "unbounded"
    sym = SymbolSeq.from_measure(spec)
    sigmas = [operators.tail_section_norm(sym, "hankel", 0, dim) for dim in dims]
    ok = ok and all(b > a for a, b in zip(sigmas, sigmas[1:]))
    ok = ok and sigmas[-1] / sigmas[0] >= 1.2  # frozen: full run gives 1.809
    return ok, f"verdict={verdict}, growth {sigmas[-1]/sigmas[0]:.3f}"


@_check(5, "point-mass", "point mass delta_1/2",
        quick={"cutoffs": (0, 4, 8)}, full={"cutoffs": (0, 4, 8, 16)})
def _point_mass(cutoffs):
    sym = SymbolSeq.from_measure(measures.MeasureSpec.point_mass(0.5))
    tail = criteria.widom_tail(sym, 0, 64)
    ok = tail.lower <= 4.0 / 9.0 <= tail.upper
    ok = ok and (tail.upper - tail.lower) <= 1e-12
    verdict = criteria.classify(sym, "hankel").verdict
    ok = ok and verdict == "compact"
    tails = [operators.tail_section_norm(sym, "hankel", m, 64) for m in cutoffs]
    ratios = [a / b for a, b in zip(tails, tails[1:])]
    ok = ok and all(r >= 4.0 for r in ratios)  # frozen: full run gives >= 257
    return ok, f"bracket width {tail.upper-tail.lower:.1e}, min step ratio {min(ratios):.1f}"


@_check(6, "cesaro-closed-form", "cesaro closed form",
        quick={"draws": 5, "n": 64}, full={"draws": 20, "n": 256})
def _cesaro_closed_form(draws, n):
    ok = True
    worst = 0.0
    for u in _rng.uniforms(555, np.arange(draws)[:, None], np.arange(3)):  # row i: stream i
        t = 0.05 + 0.90 * u[0]
        s = SymbolSeq.powerlog(1.0 + u[1], 0.5 + u[2])
        closed = operators.cesaro_rkt_norm(s, t, n)
        kern, _ = coeffspace.normalized_kernel_coeffs(t, n + 1)
        pipeline = coeffspace.space_norm(operators.cesaro_apply(s, kern, n + 1), "dirichlet-exact")
        worst = max(worst, abs(closed - pipeline))
        # both sides obey the coefficient-sum bound: every kernel partial sum
        # is at most s(t)(1 + log(1/(1-t))), so the norm is at most that
        # factor times the t = 0 closed-form value
        bound = (
            (1.0 + np.log(1.0 / (1.0 - t)))
            / np.sqrt(1.0 + np.log(1.0 / (1.0 - t * t)))
            * operators.cesaro_rkt_norm(s, 0.0, n)
        )
        ok = ok and closed <= bound and pipeline <= bound
    ok = ok and worst <= 1e-10
    # the spec's canonical pair at the stated tolerance
    s = SymbolSeq.powerlog(1.0, 1.0)
    kern, _ = coeffspace.normalized_kernel_coeffs(0.5, n + 1)
    pipeline = coeffspace.space_norm(operators.cesaro_apply(s, kern, n + 1), "dirichlet-exact")
    ok = ok and abs(operators.cesaro_rkt_norm(s, 0.5, n) - pipeline) <= 1e-8
    return ok, f"worst diff {worst:.1e}"


@_check(7, "fourth-moment", "fourth-moment suite",
        quick={"vectors": 5, "mc_len": 25, "samples": 5000},
        full={"vectors": 100, "mc_len": 100, "samples": 10**5})
def _fourth_moment(vectors, mc_len, samples):
    ok = True
    for i in range(vectors):
        length = 1 + int(seeded_uniforms(61, i, 1)[0] * 14)
        a = _rng.uniform_symmetric(62, i, np.arange(length))
        exact = stochastic.fourth_moment_exact_rademacher(a)
        closed = 3.0 * np.sum(a * a) ** 2 - 2.0 * np.sum(a**4)
        ok = ok and abs(exact - closed) <= 1e-12 * closed
        ok = ok and exact <= 3.0 * np.sum(a * a) ** 2 * (1.0 + 1e-12)
    a = _rng.uniform_symmetric(63, 0, np.arange(mc_len))
    est, se = stochastic.fourth_moment_mc(a, stochastic.DistTag("gaussian"), samples, stochastic.RngSpec(64, 0))
    bound = 3.0 * np.sum(np.abs(a) ** 2) ** 2
    ok = ok and est <= bound + 4.0 * se
    return ok, f"mc {est:.1f} <= bound {bound:.1f} + 4se"


@_check(8, "random-compactness-contrast", "random compactness contrast",
        quick={"replicas": 4, "n": 128, "membership_nmax": 2**12},
        full={"replicas": 32, "n": 2048, "membership_nmax": 2**18})
def _random_contrast(replicas, n, membership_nmax):
    m = n // 2
    base = SymbolSeq.powerlog(1.0, 1.0)
    rep = stochastic.random_tail_experiment(
        base, stochastic.DistTag("rademacher"), replicas=replicas, m_grid=[m], n=n,
        rng=stochastic.RngSpec(20260809, 0), membership_nmax=membership_nmax,
    )
    row = rep.rows[0]
    ratio = row.median / row.deterministic
    ok = ratio <= 0.5  # frozen: full run with this seed gives 0.078
    return ok, f"median/deterministic {ratio:.3f} at m={m}"


@_check(9, "lacunary-suite", "lacunary membership dichotomy",
        quick={"cutoffs": (8, 16, 32), "n": 128, "dims": (2**4, 2**6, 2**8), "membership_nmax": 2**12},
        full={"cutoffs": (32, 64, 128, 256, 512), "n": 2048, "dims": (2**6, 2**7, 2**8, 2**9, 2**10),
              "membership_nmax": 2**18})
def _lacunary(cutoffs, n, dims, membership_nmax):
    in_d = SymbolSeq.lacunary_rule(start=1, ratio=2.0, decay=0.5, power=1.0)
    memb = criteria.dirichlet_membership(in_d, membership_nmax)
    ok = not memb.divergent and np.isfinite(memb.upper)
    tails = [operators.tail_section_norm(in_d, "hankel", m, n) for m in cutoffs]
    ok = ok and all(a > b for a, b in zip(tails, tails[1:]))
    # decay rate: the intrinsic per-octave factor tends to sqrt(2) for this
    # symbol, so the frozen 2x margin is asserted per octave pair
    pair_ratios = [tails[i] / tails[i + 2] for i in range(len(cutoffs) - 2)]
    ok = ok and all(r >= 2.0 for r in pair_ratios)  # frozen: full run gives >= 2.85

    out_d = SymbolSeq.lacunary_rule(start=1, ratio=2.0, decay=0.5, power=0.0)
    memb_out = criteria.dirichlet_membership(out_d, membership_nmax)
    ok = ok and memb_out.divergent
    sigmas = [operators.tail_section_norm(out_d, "hankel", 0, dim) for dim in dims]
    ok = ok and all(b > a for a, b in zip(sigmas, sigmas[1:]))
    ok = ok and sigmas[-1] / sigmas[0] >= 1.15  # frozen: full run gives 1.211
    return ok, f"min pair decay {min(pair_ratios):.2f}, norm growth {sigmas[-1]/sigmas[0]:.3f}"


@_check(10, "doublesum", "hilbert double-sum ceiling",
        quick={"vectors": 50, "max_len": 256}, full={"vectors": 1000, "max_len": 512})
def _double_sum(vectors, max_len):
    mx = max(double_sum_battery(4242, 4243, 0, vectors, max_len))
    ok = np.isfinite(mx) and mx <= 10.0  # frozen: full run gives 1.294
    return ok, f"max ratio {mx:.3f}"


@_check(11, "carleson-cross-check", "carleson cross-check",
        quick={"n_grid": (16, 32, 64), "coupling_dim": 32},
        full={"n_grid": (64, 128, 256), "coupling_dim": 128})
def _carleson_cross_check(n_grid, coupling_dim):
    bounded = SymbolSeq.powerlog(1.0, 1.0)
    xs_bounded = [carleson.x_norm(carleson.symbol_poly(bounded, n), n) for n in n_grid]
    # x-norms of the borderline symbol grow additively in log N, so the
    # discriminating ratio is last/first over the sweep
    sat_ratio = xs_bounded[-1] / xs_bounded[0]
    ok = sat_ratio <= 1.15  # frozen: full run gives 1.074

    unbounded = SymbolSeq.powerlog(1.0, 0.5)
    xs_unbounded = [carleson.x_norm(carleson.symbol_poly(unbounded, n), n) for n in n_grid]
    grow_ratio = xs_unbounded[-1] / xs_unbounded[0]
    ok = ok and grow_ratio >= 1.2  # frozen: full run gives 1.279

    battery = [
        bounded,
        SymbolSeq.powerlog(1.0, 1.5),
        SymbolSeq.from_measure(measures.MeasureSpec.point_mass(0.5)),
        SymbolSeq.lacunary_rule(1, 2.0, 0.5, 1.0),
    ]
    coupling = []
    for sym in battery:
        sigma = operators.tail_section_norm(sym, "hankel", 0, coupling_dim)
        degree = 2 * coupling_dim
        coupling.append(sigma**2 / carleson.x_norm(carleson.symbol_poly(sym, degree), degree))
    ok = ok and all(1.0 / 50.0 <= r <= 50.0 for r in coupling)
    return ok, (
        f"saturation {sat_ratio:.3f}, growth {grow_ratio:.3f}, "
        f"coupling [{min(coupling):.2f}, {max(coupling):.2f}]"
    )


@_check(12, "gram-exactness", "gram exactness and mixed norm",
        quick={"polys": 1}, full={"polys": 5})
def _gram_exactness(polys):
    worst = 0.0
    for i in range(polys):
        b = random_poly(201, i, 8)
        g = carleson.symbol_gram(b, 8)
        for j, k in [(0, 0), (1, 3), (4, 2), (8, 8), (2, 7), (5, 0)]:
            worst = max(worst, abs(g[j, k] - quad_gram_entry(b, j, k)))
    ok = worst <= 1e-10
    diff = abs(carleson.mixed_norm(TaylorPoly([0.0, 0.0, 1.0]), 4.0) - 4.0 / 3.0)
    ok = ok and diff <= 1e-10
    return ok, f"gram err {worst:.1e}, mixed err {diff:.1e}"
