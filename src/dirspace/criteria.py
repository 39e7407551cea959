"""Widom-type tail condition, kernel probes, and verdicts.

The governing quantity is the weighted tail S(m) = sum_{n >= m} n |lambda_n|^2.
Boundedness corresponds to S(m) = O(1/log(m+2)) and compactness to the
little-o version, so the classifier works with the normalized profile
P(m) = S(m) * log(m+2) over a dyadic grid of cutoffs.  Every tail bracket
(widom_tail, dirichlet_membership, widom_profile) comes from _tail_brackets:
a padded partial sum per cutoff plus the symbol's certified remainder.

Asymptotic O/o conditions need finite proxies.  The proxies are the module
constants below, not truth claims; every report carries the raw profile with
certified brackets where the symbol kind admits them:

* unbounded    -- the tail sum is analytically divergent (certified), or an
                  uncertified symbol's partial sums already exceed
                  DIVERGENCE_CAP;
* compact      -- certified profile decays: P(last)/P(first) <= COMPACT_FACTOR
                  and the profile is still heading down at the end.  (A
                  per-octave decay test would be wrong here: little-o symbols
                  with 1/log-speed tails have per-octave ratios tending to 1.)
* bounded      -- the brackets of the last three cutoffs are narrower than
                  BRACKET_REL_WIDTH, and both P(last)/P(last-2) and
                  P(last)/P(first) lie within PLATEAU_BAND of 1;
* inconclusive -- anything else.

Symbols whose remainder cannot be certified never receive bounded/compact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators
from .coeffspace import kernel_degree_for_tail, normalized_kernel_coeffs, space_norm
from .symbols import _SUM_PAD, MONOTONE_DECREASING, SymbolSeq, WidomTail, _weight_values

PLATEAU_BAND = 0.15  # bounded: profile ratios within [1 -, 1 +] this band
COMPACT_FACTOR = 0.5  # compact: full-grid profile decay factor
DIVERGENCE_CAP = 10.0  # uncertified symbols: unbounded past this
BRACKET_REL_WIDTH = 0.05  # max relative bracket width for verdicts


@dataclass(frozen=True)
class ClassifyConfig:
    m_grid: tuple = tuple(2**j for j in range(4, 15))
    nmax: int = 2**18


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
    kind: str
    rows: list
    statistic: float  # sup of the estimates over the grid
    notes: list = field(default_factory=list)


def _tail_brackets(s: SymbolSeq, m_grid, nmax: int, weight: str) -> list[WidomTail]:
    """Brackets of sum_{n >= m} w(n) |lambda_n|^2 at each cutoff of an
    increasing grid: the partial sum over [m, hi], padded by _SUM_PAD, plus the
    symbol's remainder beyond hi = max(nmax, last index that can be nonzero)."""
    m_grid = [int(m) for m in m_grid]
    if not m_grid or any(b <= a for a, b in zip(m_grid, m_grid[1:])):
        raise ValueError("cutoff grid must be nonempty and strictly increasing")
    if m_grid[0] < 0:
        raise ValueError("cutoff must be >= 0")
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    hi = max(nmax, s.finite_support_bound or 0)
    n = s.support_between(m_grid[0], hi)
    terms = _weight_values(weight, n) * np.abs(s.values(n)) ** 2
    rem = s.tail_remainder(hi, weight)
    brackets = []
    for m in m_grid:
        # pairwise per-cutoff sums: cheaper-looking running sums accumulate
        # too much rounding for the certified brackets
        partial = float(np.sum(terms[np.searchsorted(n, m) :]))
        pad = _SUM_PAD * partial
        lower = max(partial - pad + rem.lower, 0.0)
        brackets.append(WidomTail(m, lower, partial + pad + rem.upper, rem.divergent))
    return brackets


def widom_tail(s: SymbolSeq, m: int, nmax: int = 2**18) -> WidomTail:
    """Bracket for S(m) = sum_{n >= m} n |lambda_n|^2."""
    return _tail_brackets(s, [m], nmax, "widom")[0]


def dirichlet_membership(s: SymbolSeq, nmax: int = 2**18) -> WidomTail:
    """Bracket for sum_n (n+1) |lambda_n|^2 (finite iff h_lambda lies in the
    Dirichlet space)."""
    return _tail_brackets(s, [0], nmax, "membership")[0]


def widom_profile(s: SymbolSeq, m_grid, nmax: int = 2**18) -> list[WidomTail]:
    """Brackets of S(m) * log(m+2) over an increasing grid of cutoffs."""
    return [
        WidomTail(t.m, t.lower * np.log(t.m + 2.0), t.upper * np.log(t.m + 2.0), t.divergent)
        for t in _tail_brackets(s, m_grid, nmax, "widom")
    ]


def classify(s: SymbolSeq, kind: str, cfg: ClassifyConfig | None = None) -> ClassReport:
    """Boundedness/compactness verdict from the Widom profile.

    kind = 'hankel' requires a decreasing positive symbol for theorem-grade
    applicability; general complex Hankel symbols are classified heuristically
    and the report recommends the Carleson-measure route instead.  kind =
    'cesaro' applies to arbitrary complex symbols.
    """
    if kind not in ("hankel", "cesaro"):
        raise ValueError(f"unknown operator kind {kind!r}")
    cfg = cfg or ClassifyConfig()
    notes = []
    if kind == "hankel" and s.monotone_flag != MONOTONE_DECREASING:
        applicability = "heuristic"
        notes.append(
            "general complex symbol: the monotone-symbol tail criterion is only "
            "a heuristic here; prefer the Carleson-measure route "
            "(carleson.classify_hankel_general) for certified evidence"
        )
    else:
        applicability = "theorem-exact"

    profile = widom_profile(s, cfg.m_grid, cfg.nmax)
    if any(p.divergent for p in profile):
        notes.append("tail sum diverges by term comparison")
        return ClassReport("unbounded", applicability, profile, notes)

    if not all(p.certified for p in profile):
        if max(p.lower for p in profile) > DIVERGENCE_CAP:
            notes.append(
                "remainder not certifiable for this symbol kind; partial sums "
                f"already exceed the cap {DIVERGENCE_CAP}"
            )
            return ClassReport("unbounded", applicability, profile, notes)
        notes.append("remainder not certifiable for this symbol kind")
        return ClassReport("inconclusive", applicability, profile, notes)

    mids = np.array([p.midpoint for p in profile])
    if np.all(mids == 0.0):
        notes.append("zero symbol: zero operator")
        return ClassReport("compact", applicability, profile, notes)

    widths_ok = all(
        (p.upper - p.lower) <= BRACKET_REL_WIDTH * max(p.midpoint, 1e-300)
        for p in profile[-3:]
    )
    r_full = mids[-1] / mids[0] if mids[0] > 0 else 0.0
    r_tail = mids[-1] / mids[-3] if len(mids) >= 3 and mids[-3] > 0 else r_full
    # decay certified outright when even the worst-case bracket ends decay
    # enough; wide brackets then cannot hide a plateau
    r_certified = profile[-1].upper / profile[0].lower if profile[0].lower > 0 else np.inf
    decay_ok = r_certified <= COMPACT_FACTOR or (widths_ok and r_full <= COMPACT_FACTOR)
    if decay_ok and r_tail <= 1.0:
        return ClassReport("compact", applicability, profile, notes)
    end_plateau = abs(r_tail - 1.0) <= PLATEAU_BAND
    # log-power tails drift by a few percent per octave, so a plateau over
    # the last two octaves counts only when the whole grid plateaus too
    if widths_ok and end_plateau and abs(r_full - 1.0) <= PLATEAU_BAND:
        return ClassReport("bounded", applicability, profile, notes)
    if not widths_ok:
        notes.append("bracket widths too large for a verdict at this truncation")
    elif end_plateau:
        notes.append(f"profile plateaus at the end but drifts over the grid (grid ratio {r_full:.3g})")
    else:
        notes.append(f"profile neither plateaus nor decays enough (tail ratio {r_tail:.3g})")
    return ClassReport("inconclusive", applicability, profile, notes)


def rkt_probe(
    s: SymbolSeq,
    kind: str,
    t_grid,
    n: int,
    kernel_tail_tol: float = 1e-12,
    max_kernel_degree: int = 1 << 20,
) -> ProbeReport:
    """Operator norms on normalized reproducing kernels over a [0,1) grid.

    For each t the kernel is truncated at a degree making its tail bound
    < kernel_tail_tol (at least n); the estimate is the exact-Dirichlet norm
    of the truncated image, a lower-bound estimate of ||T k_t||.  For
    kind='cesaro' the closed-form value is reported alongside.
    """
    if kind not in ("hankel", "cesaro"):
        raise ValueError(f"unknown operator kind {kind!r}")
    rows = []
    for t in t_grid:
        t = float(t)
        deg = max(n, kernel_degree_for_tail(t, kernel_tail_tol, max_degree=max_kernel_degree))
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
    return ProbeReport(kind, rows, statistic, notes)


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
    logs = np.log(n[:, None] + n[None, :] + 1.0)
    lhs = float(v @ (v[None, :] / logs).sum(axis=1))
    rhs = float(np.sum(n * v * v))
    if rhs == 0.0:
        return lhs, rhs, 0.0
    return lhs, rhs, lhs / rhs
