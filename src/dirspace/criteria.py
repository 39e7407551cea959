"""Widom-type tail condition, kernel probes, and verdicts.

The governing quantity is the weighted tail S(m) = sum_{n >= m} n |lambda_n|^2.
Boundedness corresponds to S(m) = O(1/log(m+2)) and compactness to the
little-o version.  Every tail bracket (widom_tail, dirichlet_membership,
widom_profile) comes from SymbolSeq.tail_brackets: a padded partial sum per
cutoff plus the symbol's certified remainder.  The partial sums run through
SymbolSeq.summed_through(nmax), so nmax (_DEFAULT_NMAX = 2^18 unless given)
is a cap: a convergent alpha = 1 powerlog, whose remainder is second order
under both the Widom and the membership weight, stops them at 2^14 however
large nmax is.  The normalized profile P(m) = S(m) * log(m+2) over a dyadic
grid of cutoffs goes into every report.

Verdicts come from the closed-form order of S(m) (SymbolSeq.widom_class),
which every symbol kind with a certified remainder has: finite symbols,
powerlog (alpha, beta), lacunary rules (decay, power) and atom-only moments,
and which moments of a measure with a density have when a density's
exponents make it unbounded.  The profile is evidence, not the decision:
every other symbol (bounded or compact densities, randomized symbols over an
infinite base) is inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators
from .coeffspace import kernel_degree_for_tail, normalized_kernel_coeffs, space_norm
from .symbols import MONOTONE_DECREASING, SymbolSeq, WidomTail

KERNEL_TAIL_TOL = 1e-12  # rkt_probe: bound on each truncated kernel's tail
MAX_KERNEL_DEGREE = 1 << 20  # rkt_probe: cap on the kernel truncation degree
_DEFAULT_NMAX = 2**18  # the default cap on a tail bracket's summed head (SymbolSeq.summed_through)


@dataclass(frozen=True)
class ClassifyConfig:
    m_grid: tuple = tuple(2**j for j in range(4, 15))
    nmax: int = _DEFAULT_NMAX


@dataclass
class ClassReport:
    verdict: str  # unbounded | bounded | compact | inconclusive
    applicability: str  # theorem-exact | heuristic
    profile: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    # Carleson route only: the annulus-restricted norm at carleson.VANISH_DELTA
    # and at the sweep's top degree (None when the verdict did not need it)
    restricted_norm: float | None = None


@dataclass(frozen=True)
class ProbeRow:
    t: float
    estimate: float  # truncated norm (a lower-bound estimate)
    kernel_tail: float  # certified bound on the discarded kernel tail
    closed_form: float | None = None  # cesaro only


@dataclass
class ProbeReport:
    rows: list
    statistic: float  # sup of the estimates over the grid
    notes: list = field(default_factory=list)


def widom_tail(s: SymbolSeq, m: int, nmax: int = _DEFAULT_NMAX) -> WidomTail:
    """Bracket for S(m) = sum_{n >= m} n |lambda_n|^2."""
    return s.tail_brackets([m], nmax)[0]


def dirichlet_membership(s: SymbolSeq, nmax: int = _DEFAULT_NMAX) -> WidomTail:
    """Bracket for sum_n (n+1) |lambda_n|^2 (finite iff h_lambda lies in the
    Dirichlet space)."""
    return s.tail_brackets([0], nmax, "membership")[0]


def widom_profile(s: SymbolSeq, m_grid, nmax: int = _DEFAULT_NMAX) -> list[WidomTail]:
    """Brackets of S(m) * log(m+2) over an increasing grid of cutoffs."""
    return [
        WidomTail(t.m, t.lower * np.log(t.m + 2.0), t.upper * np.log(t.m + 2.0), t.divergent)
        for t in s.tail_brackets(m_grid, nmax)
    ]


def classify(s: SymbolSeq, kind: str, cfg: ClassifyConfig | None = None) -> ClassReport:
    """Boundedness/compactness verdict for the Hankel or Cesaro operator.

    The verdict is the symbol's closed-form class (SymbolSeq.widom_class)
    when it has one and inconclusive otherwise.  The Widom profile over
    cfg.m_grid is reported either way.

    Only a closed-form verdict is theorem-exact, and only where the theorem
    applies: kind = 'cesaro' with any complex symbol, or kind = 'hankel'
    with a decreasing positive symbol.  General complex Hankel symbols get a
    heuristic label and a note recommending the Carleson-measure route.
    """
    if kind not in ("hankel", "cesaro"):
        raise ValueError(f"unknown operator kind {kind!r}")
    cfg = cfg or ClassifyConfig()
    profile = widom_profile(s, cfg.m_grid, cfg.nmax)
    verdict = s.widom_class()
    exact = verdict is not None
    notes = []
    if kind == "hankel" and s.monotone_flag != MONOTONE_DECREASING:
        exact = False
        notes.append(
            "general complex symbol: the monotone-symbol tail criterion is only "
            "a heuristic here; prefer the Carleson-measure route "
            "(carleson.classify_hankel_general) for certified evidence"
        )
    applicability = "theorem-exact" if exact else "heuristic"
    if verdict is None:
        notes.append("remainder not certifiable for this symbol kind")
        return ClassReport("inconclusive", applicability, profile, notes)
    notes.append(f"closed-form order of S(m) for this {s.kind} symbol; the profile is evidence only")
    return ClassReport(verdict, applicability, profile, notes)


def rkt_probe(s: SymbolSeq, kind: str, t_grid, n: int) -> ProbeReport:
    """Operator norms on normalized reproducing kernels over a [0,1) grid.

    For each t the kernel is truncated at a degree making its tail bound
    < KERNEL_TAIL_TOL (at least n, at most MAX_KERNEL_DEGREE); the estimate is the exact-Dirichlet norm
    of the truncated image, a lower-bound estimate of ||T k_t||.  For
    kind='cesaro' the closed-form value is reported alongside.
    """
    if kind not in ("hankel", "cesaro"):
        raise ValueError(f"unknown operator kind {kind!r}")
    rows = []
    for t in t_grid:
        t = float(t)
        deg = max(n, kernel_degree_for_tail(t, KERNEL_TAIL_TOL, max_degree=MAX_KERNEL_DEGREE))
        kernel, tail = normalized_kernel_coeffs(t, deg)
        if kind == "hankel":
            image = operators.hankel_apply(s, kernel, n_out=deg)
            closed = None
        else:
            image = operators.cesaro_apply(s, kernel, n_out=deg)
            # closed-form partial to deg-1 covers exactly the output
            # coefficients 0..deg kept by the pipeline above
            closed = operators.cesaro_rkt_norm(s, t, deg - 1)
        rows.append(ProbeRow(t, space_norm(image, "dirichlet-exact"), tail, closed))
    notes = []
    if kind == "hankel":
        notes.append(
            "compactness reading of the kernel probe is ambiguous for hankel "
            "(finite limit vs zero limit); values are reported, not resolved"
        )
    statistic = max((r.estimate for r in rows), default=0.0)
    return ProbeReport(rows, statistic, notes)


def double_sum_ratio(a) -> tuple[float, float, float]:
    """Hilbert-type double sum against the weighted square sum.

    lhs = sum_{m,n>=1} a_n a_m / log(n+m+1), rhs = sum_{n>=1} n a_n^2,
    ratio = lhs/rhs (0 when both vanish).  Entries must be nonnegative;
    index 0 is ignored (the sums start at 1).
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    if np.any(a < 0.0):
        raise ValueError("entries must be nonnegative (pass moduli)")
    if a.shape[0] < 2:
        return 0.0, 0.0, 0.0
    v = a[1:]
    n = np.arange(1, a.shape[0], dtype=np.float64)
    # the kernel depends on n + m only: entry j of the self-convolution sums
    # the pairs with n + m = j + 2, so lhs = sum_j (v * v)_j / log(j + 3)
    lhs = float(np.sum(np.convolve(v, v) / np.log(np.arange(3.0, 2.0 * v.shape[0] + 2.0))))
    rhs = float(np.sum(n * v * v))
    if rhs == 0.0:
        return lhs, rhs, 0.0
    return lhs, rhs, lhs / rhs
