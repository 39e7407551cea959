"""Symbol sequences for Hankel- and Cesaro-type operators.

A symbol is an immutable value: a sequence lambda_0, lambda_1, ... given as
one of

* ``explicit``     -- a finite coefficient list (zero beyond the list),
* ``powerlog``     -- lambda_n = (n+1)^(-alpha) * log(n+2)^(-beta),
* ``moments``      -- lambda_n = n-th moment of a measure on [0, 1),
* ``lacunary``     -- supported on a geometrically separated integer set,
  either a finite explicit list or generated from a closed-form rule
  v_k = n_k^(-decay) * (k+1)^(-power),
* ``randomized``   -- i.i.d. multipliers X_n times conj(lambda_n) of a base
  symbol, reproducible from a (seed, stream) pair.

Besides point values every symbol knows how to bracket its weighted tails
sum_{n > N} w(n) |lambda_n|^2 (w(n) = n or n+1): exactly zero for finite
symbols, by integral comparison for powerlog (to second order, by the
trapezoid and midpoint rules, for a convergent alpha = 1 powerlog under
either weight), by closed-form geometric sums for atomic moment symbols and
ruled lacunary symbols, and "not certified" otherwise.  A bracket sums the
terms through summed_through(nmax) and adds the remainder past it; nmax is a
cap, and the second-order remainder lets its head stop at
_SECOND_ORDER_HEAD whatever the weight.  One exponent table (_exponents)
gives each infinite symbol the (alpha, beta) of the powerlog whose tail
order it has.  It sets the class
(widom_class: the order of S(m) = sum_{n >= m} n |lambda_n|^2 against
1/log m, which is the verdict) and flags the divergent remainders
(_remainder, the one tail bracket past the summed indices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffspace import _real_or_complex

MONOTONE_DECREASING = "decreasing-positive"
MONOTONE_GENERAL = "general"

_EPS = np.finfo(np.float64).eps
_U = _EPS / 2.0  # unit roundoff
_TINY = np.finfo(np.float64).tiny
_HUGE = np.finfo(np.float64).max
#: relative padding applied to bracket ends to absorb float summation error
_SUM_PAD = 64.0 * _EPS
#: where the head of a second-order remainder's brackets stops (summed_through)
_SECOND_ORDER_HEAD = 1 << 14


@dataclass(frozen=True)
class WidomTail:
    """Bracket for a weighted tail sum_{n >= m} w(n) |lambda_n|^2."""

    m: int
    lower: float
    upper: float  # inf when divergent or not certified
    divergent: bool = False

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)  # inf when upper is

    @property
    def certified(self) -> bool:
        return np.isfinite(self.upper)


def _weight_values(weight: str, n: np.ndarray) -> np.ndarray:
    if weight == "widom":
        return n.astype(np.float64)
    if weight == "membership":
        return (n + 1).astype(np.float64)
    raise ValueError(f"unknown tail weight {weight!r}")


class SymbolSeq:
    """A symbol sequence; construct via the ``explicit``/``powerlog``/...

    classmethods.  Instances are values: no method writes to ``kind`` or
    ``params`` after construction, and a ruled lacunary symbol regenerates
    its support on each call instead of storing it, so instances are safe
    to share across threads.
    """

    def __init__(self, kind, params):
        self.kind = kind
        self.params = params

    # -- constructors -------------------------------------------------------

    @classmethod
    def explicit(cls, values) -> "SymbolSeq":
        arr = _real_or_complex(np.atleast_1d(values))
        return cls("explicit", {"support": np.arange(arr.shape[0], dtype=np.int64), "values": arr})

    @classmethod
    def powerlog(cls, alpha: float, beta: float) -> "SymbolSeq":
        return cls("powerlog", {"alpha": float(alpha), "beta": float(beta)})

    @classmethod
    def from_measure(cls, measure) -> "SymbolSeq":
        """Moment sequence mu_n of a finite positive measure on [0, 1)."""
        return cls("moments", {"measure": measure})

    @classmethod
    def lacunary(cls, support, values) -> "SymbolSeq":
        """Finite lacunary symbol with values on a strictly increasing
        integer support >= 1; such a support has every ratio
        n_{k+1} / n_k > 1, so no ratio is stored."""
        support = np.array(support, dtype=np.int64)  # copied: later writes by the caller do not reach it
        vals = np.atleast_1d(np.asarray(values))
        if support.ndim != 1 or support.shape != vals.shape:
            raise ValueError("support and values must be 1-D of equal length")
        if support.size and support[0] < 1:
            raise ValueError("lacunary support must consist of integers >= 1")
        if np.any(np.diff(support) <= 0):
            raise ValueError("lacunary support must be strictly increasing")
        return cls("lacunary", {"support": support, "values": _real_or_complex(vals)})

    @classmethod
    def lacunary_rule(cls, start: int, ratio: float, decay: float, power: float = 0.0) -> "SymbolSeq":
        """Infinite lacunary symbol n_0 = start, n_{k+1} = ceil(ratio * n_k),
        with values v_k = n_k^(-decay) * (k+1)^(-power)."""
        if start < 1:
            raise ValueError("lacunary support must start at an integer >= 1")
        if ratio <= 1.0:
            raise ValueError("lacunary ratio must satisfy q > 1")
        if power < 0.0:
            raise ValueError("rule power must be >= 0")
        rule = {"decay": float(decay), "power": float(power)}
        return cls("lacunary", {"start": int(start), "q": float(ratio), "rule": rule})

    @classmethod
    def randomized(cls, base: "SymbolSeq", dist, seed: int, stream: int = 0) -> "SymbolSeq":
        """Multiplier symbol X_n * conj(lambda_n); dist must expose its name
        and sample(seed, stream, indices)."""
        params = {"base": base, "dist": dist, "seed": int(seed), "stream": int(stream)}
        return cls("randomized", params)

    # -- values -------------------------------------------------------------

    def values(self, indices) -> np.ndarray:
        """Symbol values at the given indices (vectorized)."""
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        if np.any(idx < 0):
            raise ValueError("symbol indices must be >= 0")
        if self.kind in ("explicit", "lacunary"):
            support, vals, _ = self._points(int(idx.max()) if idx.size else 0)
            out = np.zeros(idx.shape, dtype=vals.dtype)
            if support.size:
                pos = np.minimum(np.searchsorted(support, idx), support.shape[0] - 1)
                hit = support[pos] == idx
                out[hit] = vals[pos[hit]]
            return out
        if self.kind == "powerlog":
            p = self.params
            return (idx + 1.0) ** (-p["alpha"]) * np.log(idx + 2.0) ** (-p["beta"])
        if self.kind == "moments":
            return self.params["measure"].moments(idx)
        if self.kind == "randomized":
            p = self.params
            base_vals = np.conj(p["base"].values(idx))
            x = p["dist"].sample(p["seed"], p["stream"], idx)
            return x * base_vals
        raise AssertionError(f"unhandled kind {self.kind}")

    def value(self, n: int) -> complex:
        return complex(self.values(np.array([n]))[0])

    # -- structure ----------------------------------------------------------

    @property
    def monotone_flag(self) -> str:
        """'decreasing-positive' for moments, powerlog with alpha, beta >= 0
        and real nonnegative nonincreasing explicit lists, else 'general'."""
        p = self.params
        if self.kind == "explicit":
            v = p["values"]
            decreasing = v.dtype == np.float64 and v.size and np.all(v >= 0.0) and np.all(np.diff(v) <= 0.0)
        else:
            decreasing = self.kind == "moments" or self.kind == "powerlog" and p["alpha"] >= 0.0 and p["beta"] >= 0.0
        return MONOTONE_DECREASING if decreasing else MONOTONE_GENERAL

    @property
    def finite_support_bound(self) -> int | None:
        """Largest index that can be nonzero, or None for infinite symbols."""
        if "support" in self.params:
            s = self.params["support"]
            return int(s[-1]) if s.size else 0
        if self.kind == "randomized":
            return self.params["base"].finite_support_bound
        return None

    # -- tail brackets ------------------------------------------------------

    def tail_remainder(self, nmax: int, weight: str = "widom") -> WidomTail:
        """Bracket for sum_{n > nmax} w(n) |lambda_n|^2 (cutoff m = nmax + 1).

        weight = 'widom' uses w(n) = n, 'membership' uses w(n) = n + 1.
        """
        return self.tail_brackets([nmax + 1], nmax, weight)[0]

    def summed_through(self, nmax: int) -> int:
        """Last index whose term tail_brackets sums for a given nmax, under
        either weight: nmax, or the last index that can be nonzero where
        that lies past nmax.  For a convergent alpha = 1 powerlog nmax is a
        cap: its remainder is second order under both weights
        (_alpha_one_tail), so the head stops at _SECOND_ORDER_HEAD."""
        p = self.params
        if self.kind == "powerlog" and p["alpha"] == 1.0 and p["beta"] > 0.5:
            return min(nmax, _SECOND_ORDER_HEAD)
        return max(nmax, self.finite_support_bound or 0)

    @np.errstate(over="ignore")  # a term or partial sum past the largest float is inf
    def tail_brackets(self, m_grid, nmax: int, weight: str = "widom") -> list[WidomTail]:
        """Brackets of sum_{n >= m} w(n) |lambda_n|^2 at each cutoff of an
        increasing grid.  With hi = summed_through(nmax), a cutoff m <= hi
        gets the partial sum over [m, hi], padded by _head_rate, plus the
        remainder beyond hi; a partial sum that overflows gives the bracket
        [largest float, inf].  A cutoff past hi gets the remainder beyond
        m - 1 alone, so it depends on (m, nmax) only, never on the rest of
        the grid."""
        m_grid = [int(m) for m in m_grid]
        if not m_grid or any(b <= a for a, b in zip(m_grid, m_grid[1:])):
            raise ValueError("cutoff grid must be nonempty and strictly increasing")
        if m_grid[0] < 0:
            raise ValueError("cutoff must be >= 0")
        if nmax < 0:
            raise ValueError("nmax must be >= 0")
        hi = self.summed_through(nmax)
        walk = None
        if self.kind in ("explicit", "lacunary"):
            # the points read once: nothing else is nonzero through hi, and a
            # rule's walk runs on to the last cutoff, whose remainders count
            # the points before them
            support, vals, first_past = self._points(max(hi, m_grid[-1] - 1))
            walk = (support, first_past)
            head = slice(np.searchsorted(support, m_grid[0]), np.searchsorted(support, hi, side="right"))
            n, vals = support[head], vals[head]
        else:
            n = np.arange(m_grid[0], hi + 1, dtype=np.int64)
            vals = self.values(n)
        squares = np.abs(vals) ** 2
        if weight == "widom" and n.size and n[0] == 0:
            squares[0] = 0.0  # weight 0: the term is 0 even where |lambda_0|^2 is inf
        terms = _weight_values(weight, n) * squares
        rate = self._head_rate()
        rem = self._remainder(hi, weight, walk)
        brackets = []
        for m in m_grid:
            if m > hi:
                brackets.append(self._remainder(m - 1, weight, walk))
                continue
            # pairwise per-cutoff sums: cheaper-looking running sums accumulate
            # too much rounding for the certified brackets
            partial = float(np.sum(terms[np.searchsorted(n, m) :]))
            if partial == np.inf:
                brackets.append(WidomTail(m, _HUGE, np.inf, rem.divergent))
                continue
            pad = rate * partial
            lower = max(partial - pad + rem.lower, 0.0)
            brackets.append(WidomTail(m, lower, partial + pad + rem.upper, rem.divergent))
        return brackets

    def widom_class(self) -> str | None:
        """Closed-form order of S(m) = sum_{n >= m} n |lambda_n|^2 against
        1/log m: 'compact' (little-o), 'bounded' (big-O only) or 'unbounded',
        from the exponent table.  A density's bounded and compact classes
        wait for a certified density tail, so they give None, as randomized
        symbols over an infinite base do."""
        if self.finite_support_bound is not None:
            return "compact"
        classes = [_log_power_class(a, b) for a, b in self._exponents()]
        if self.kind in ("powerlog", "lacunary"):
            return classes[0]
        if "unbounded" in classes:
            return "unbounded"
        return "compact" if self.kind == "moments" and not classes else None  # atoms: geometric decay

    # -- internals ----------------------------------------------------------

    def _head_rate(self) -> float:
        """Relative pad of a head's partial sums: _SUM_PAD, or more for a
        powerlog with |beta| > 15.5, whose term errs by (18 + 4|beta|) u: 2u
        per libm call, 2|beta| u for the power of a rounded log, doubled by
        the square; numpy's pairwise sum of fewer than 2^28 terms adds at
        most 48 u.  A randomized symbol takes its base's rate, plus 2u where
        the product with its multiplier rounds (once, doubled by the square),
        which a +-1 multiplier never does."""
        p = self.params
        if self.kind == "powerlog":
            return max(_SUM_PAD, (66.0 + 4.0 * abs(p["beta"])) * _U)
        if self.kind == "randomized":
            return p["base"]._head_rate() + (0.0 if p["dist"].name == "rademacher" else 2.0 * _U)
        return _SUM_PAD

    def _points(self, through: int):
        """(support, values, first point past through) of an explicit or
        lacunary symbol: the stored pair of a finite one (with None), a rule's
        points up to ``through`` otherwise."""
        if "support" in self.params:
            return self.params["support"], self.params["values"], None
        rule = self.params["rule"]
        support, first_past = _rule_support(self.params, through)
        # a float64 power that overflows (a negative decay) is inf, where
        # Python's float power raises; one at a time, as an array power
        # rounds some values differently
        with np.errstate(over="ignore"):
            vals = [
                np.float64(n_k) ** -rule["decay"] * (k + 1.0) ** -rule["power"] for k, n_k in enumerate(support.tolist())
            ]
        return support, np.array(vals, dtype=np.float64), first_past

    def _exponents(self) -> list[tuple[float, float]]:
        """(alpha, beta) of each powerlog whose tail order an infinite symbol
        has: a lacunary rule's sum over n_k ~ q^k (log n_k ~ k log q) has that
        of (decay + 1/2, power), a density's moments that of (gamma + 1,
        delta) by Karamata's Abelian theorem; atoms and randomized add none."""
        p = self.params
        if self.kind == "powerlog":
            return [(p["alpha"], p["beta"])]
        if self.kind == "lacunary":
            return [(p["rule"]["decay"] + 0.5, p["rule"]["power"])]
        if self.kind == "moments":
            return [(d.gamma + 1.0, d.delta) for d in p["measure"].densities]
        return []

    def _remainder(self, nmax: int, weight: str, walk) -> WidomTail:
        """Bracket for sum_{n > nmax} w(n) |lambda_n|^2, nmax past any finite
        support: zero there, divergent when an exponent pair diverges, else
        the kind's closed form or, for densities and randomized, uncertified.
        A lacunary rule reads its support from walk, the (support, first
        point past it) of one _points read through at least nmax."""
        if self.finite_support_bound is not None:
            return WidomTail(nmax + 1, 0.0, 0.0)
        if any(_diverges(a, b) for a, b in self._exponents()):
            return WidomTail(nmax + 1, 0.0, np.inf, divergent=True)
        if self.kind == "powerlog":
            return _powerlog_tail(self.params, nmax, weight)
        if self.kind == "lacunary":
            return self._lacunary_rule_tail(nmax, *walk)
        if self.kind == "moments" and not self.params["measure"].densities:
            return _atom_tail(self.params["measure"].atoms, nmax, weight)
        return WidomTail(nmax + 1, 0.0, np.inf)

    def _lacunary_rule_tail(self, nmax: int, support, first_past: int) -> WidomTail:
        """A bracket of either weighted tail past nmax, from the rule's support
        through at least nmax and the first point past it: the support starts
        at 1, so w(n) <= n + 1 <= 2 n covers both weights."""
        rule = self.params["rule"]
        rho, p = rule["decay"], rule["power"]
        q = self.params["q"]
        k0 = int(np.searchsorted(support, nmax, side="right"))  # the points <= nmax
        m0 = float(support[k0] if k0 < support.shape[0] else first_past)  # m0 = n_k0 > nmax
        if rho > 0.5:
            # w(n_k) <= 2 n_k, n_k >= m0 q^(k-k0), (k+1)^(-2p) <= (k0+1)^(-2p)
            r = q ** (1.0 - 2.0 * rho)
            upper = 2.0 * (k0 + 1.0) ** (-2.0 * p) * m0 ** (1.0 - 2.0 * rho) / (1.0 - r)
        else:
            # rho == 0.5, p > 0.5: terms <= (1 + 1/m0) (k+1)^(-2p)
            kk = max(k0, 1)
            tail_k = kk ** (1.0 - 2.0 * p) / (2.0 * p - 1.0)
            head = (k0 + 1.0) ** (-2.0 * p) if k0 == 0 else 0.0
            upper = (1.0 + 1.0 / m0) * (tail_k + head)
        # widened by the smallest normal number, as _powerlog_tail is, for an underflow
        return WidomTail(nmax + 1, 0.0, float(upper) + _TINY)


def _rule_support(params: dict, through: int):
    """Support points n_k <= through of a lacunary rule and the first support
    point past through.  While n_k (q - 1) <= 1/2 the next point is n_k + 1,
    so that run is one arange; past it n_k q > n_k + 1/2, the next point is
    ceil(n_k q), and about log(2 (q - 1) through) / log q Python steps
    remain."""
    start, q = params["start"], params["q"]
    n_k = max(start, min(through + 1, int(0.5 / (q - 1.0)) + 1))
    run = np.arange(start, n_k, dtype=np.int64)
    rest = []
    while n_k <= through:
        rest.append(n_k)
        n_k = math.ceil(n_k * q)
    return np.concatenate([run, np.array(rest, dtype=np.int64)]), n_k


def _log_power_class(alpha: float, beta: float) -> str:
    """Class of lambda_n = (n+1)^(-alpha) log(n+2)^(-beta).  S(m) log m
    behaves like m^(2 - 2 alpha) (log m)^(1 - 2 beta) for alpha > 1, is
    infinite for alpha < 1, and behaves like (log m)^(2 - 2 beta) at alpha = 1
    (infinite for beta <= 1/2)."""
    if alpha != 1.0:
        return "compact" if alpha > 1.0 else "unbounded"
    if beta != 1.0:
        return "compact" if beta > 1.0 else "unbounded"
    return "bounded"


def _diverges(alpha: float, beta: float) -> bool:
    """Whether S(0) = sum n lambda_n^2 is infinite for lambda_n =
    (n+1)^(-alpha) log(n+2)^(-beta): the exponents _log_power_class reads."""
    return alpha < 1.0 or (alpha == 1.0 and beta <= 0.5)


def _powerlog_tail(params: dict, nmax: int, weight: str) -> WidomTail:
    """Integral-comparison bracket for sum_{n>N} w(n) lambda_n^2, lambda_n =
    (n+1)^(-alpha) log(n+2)^(-beta), for a pair that does not diverge."""
    a, b = params["alpha"], params["beta"]
    n = float(nmax)
    if b < 0.0:
        # growing log factor: certification not implemented
        return WidomTail(nmax + 1, 0.0, np.inf)
    if a == 1.0:
        return _alpha_one_tail(b, nmax, weight)
    # a > 1, b >= 0: w(n) lambda_n^2 <= (n+1)^(1-2a) log(N+3)^(-2b); widened
    # by the smallest normal number, as _alpha_one_tail is, for an underflow
    upper = np.log(n + 3.0) ** (-2.0 * b) * (n + 1.0) ** (2.0 - 2.0 * a) / (2.0 * a - 2.0)
    return WidomTail(nmax + 1, 0.0, float(upper) + _TINY)


def _alpha_one_tail(beta: float, nmax: int, weight: str) -> WidomTail:
    """Second-order bracket of sum_{n>N} f(n), f(x) = w(x) (x+1)^-2
    log(x+2)^(-2 beta), for beta > 1/2 and either weight w(x) = x + d: d = 0
    (widom) or d = 1 (membership).

    With g = log f, f'' = f (g'' + g'^2), and for x >= 1 that factor rises
    with beta; at d = 0, beta = 1/2 it changes sign once, at x = 1.2093, so
    f is convex (and decreasing) on [1.21, inf) for every beta here.  At
    d = 1 both factors of f = (x+1)^-1 log(x+2)^(-2 beta) are convex and
    decreasing for x >= 0.  For N >= 1 the trapezoid and midpoint rules
    therefore give

        f(N+1)/2 + I(N+1) <= sum_{n>N} f(n) <= I(N+1/2),  I(a) = int_a^inf f,

    and N = 0 adds its one term f(1) exactly.  With v = log(x+2) and
    E = (e^v - 1)^-1 = (x+1)^-1, w(x) (x+1)^-2 dx = (1 + d E - (1-d) E^2) dv,
    so with V = log(a+2), c = 2 beta - 1

        I(a) = V^-c (1/c + d j - (1-d) kappa),
        j V^-c = int_V^inf v^(-2 beta) E dv,  kappa V^-c = int_V^inf v^(-2 beta) E^2 dv.

    Below, v^(-2 beta) >= V^(-2 beta) e^(-2 beta (v-V)/V) and E >= e^(-v)
    give j >= 1/((a+2) (V + 2 beta)) and kappa >= 1/(2 (a+2)^2 (V+beta)).
    Above, kappa <= min(1/(2V), 1/c)/(a+1)^2, by v^(-2 beta) <= V^(-2 beta)
    with int_V^inf E^2 dv <= 1/(2 (a+1)^2), or by E^2 <= (a+1)^-2; and
    E <= e^(-v) (a+2)/(a+1) bounds j by the upper incomplete gamma function
    Gamma(1 - 2 beta, V), which one integration by parts and the lower bound
    above put below V^(-2 beta) e^(-V) (V+1)/(V+1+2 beta), so
    j <= (V+1)/((a+1) V (V+1+2 beta)).

    Pads follow the standard model (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 2.2, Lemma 3.1 and section 4.2):
    each rounded operation errs by at most u = eps/2 and each libm log and
    pow by one ulp, 2u; a power x^p of a base that errs by 2u errs by 2|p|u
    more.  So f errs by at most (2c + 8) u; V^-c (1/c - kappa), whose
    difference keeps at least 8/9 of 1/c, by (2c + 9) u; V^-c (1/c + j)
    by (2c + 10) u below and (2c + 17) u above, where j's quotient errs by
    12 u; and the sum of the positive parts by gamma_k = k u/(1 - k u) with
    k = 2c + 11 + 8d.  Each end is widened by the smallest normal number,
    which keeps the upper end positive where V^-c underflows and covers the
    digits lost below the normal range; well above the subnormal range the
    widening rounds away.
    """
    c = 2.0 * beta - 1.0  # exact for 1 <= 2 beta <= 2^53
    d = 1.0 if weight == "membership" else 0.0

    def f(x: float) -> float:
        return (x + d) / ((x + 1.0) * (x + 1.0)) * math.log(x + 2.0) ** (-2.0 * beta)

    first = max(nmax, 1)
    a = first + 1.0  # trapezoid from N+1: j and kappa at their lower, upper ends
    v = math.log(a + 2.0)
    rest = 1.0 / ((a + 2.0) * (v + 2.0 * beta)) if d else -min(0.5 / v, 1.0 / c) / (a + 1.0) ** 2
    lower = 0.5 * f(a) + v ** (-c) * (1.0 / c + rest)
    a = first + 0.5  # midpoint from N+1/2: j and kappa at their upper, lower ends
    v = math.log(a + 2.0)
    rest = (v + 1.0) / ((a + 1.0) * v * (v + 1.0 + 2.0 * beta)) if d else -1.0 / (2.0 * (a + 2.0) ** 2 * (v + beta))
    upper = v ** (-c) * (1.0 / c + rest)
    if nmax == 0:
        head = f(1.0)
        lower, upper = lower + head, upper + head
    k = 2.0 * c + 11.0 + 8.0 * d
    pad = k * _U / (1.0 - k * _U)
    return WidomTail(nmax + 1, max(lower * (1.0 - pad) - _TINY, 0.0), upper * (1.0 + pad) + _TINY)


def _atom_tail(atoms, nmax: int, weight: str) -> WidomTail:
    """Exact closed form of the tail of an atom-only moment symbol (support
    supremum < 1): sum_{n>N} w(n) x^n over products x of atom locations."""
    lower = upper = 0.0
    for loc_j, mass_j in atoms:
        for loc_i, mass_i in atoms:
            lo, up = _geom_tail(loc_j * loc_i, nmax, weight)
            lower += mass_j * mass_i * lo
            upper += mass_j * mass_i * up
    # a running sum of k^2 positive terms errs by less than k^2 eps relative
    pad = len(atoms) ** 2 * _EPS
    return WidomTail(nmax + 1, lower * (1.0 - pad), upper * (1.0 + pad))


def _geom_tail(x: float, nmax: int, weight: str) -> tuple[float, float]:
    """Bracket of sum_{n>N} n x^n (widom) or sum_{n>N} (n+1) x^n (membership)
    for a rounded product x of two atom locations, 0 <= x < 1.

    The closed form is x^(N+1) (a - (a-1) x) / (1-x)^2 with a = N+1 (widom)
    or N+2.  The rounding of x is scaled by N + 1 in x^(N+1) and by about
    1/(1-x) in the other factors, so the relative pad grows with both.  The
    power is widened by the smallest normal number, which keeps the upper
    end positive when x^(N+1) underflows and covers its lost digits when it
    is subnormal; well above the subnormal range the widening rounds away.
    """
    if x == 0.0:
        return 0.0, 0.0
    one = 1.0 - x
    a = nmax + 1 if weight == "widom" else nmax + 2
    factor = (a - (a - 1) * x) / (one * one)
    pad = _SUM_PAD + 8.0 * _EPS * (nmax + 2.0 + 1.0 / one)
    power = x ** (nmax + 1)
    return max(power - _TINY, 0.0) * factor * max(1.0 - pad, 0.0), (power + _TINY) * factor * (1.0 + pad)
