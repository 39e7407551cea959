"""Symbol sequences for Hankel- and Cesaro-type operators.

A symbol is an immutable value: a sequence lambda_0, lambda_1, ... given as
one of

* ``explicit``     -- a finite coefficient list (zero beyond the list),
* ``powerlog``     -- lambda_n = scale * (n+1)^(-alpha) * log(n+2)^(-beta),
* ``moments``      -- lambda_n = n-th moment of a measure on [0, 1),
* ``lacunary``     -- supported on a geometrically separated integer set,
  either a finite explicit list or generated from a closed-form rule
  v_k = scale * n_k^(-decay) * (k+1)^(-power),
* ``randomized``   -- i.i.d. multipliers X_n times conj(lambda_n) of a base
  symbol, reproducible from a (seed, stream) pair.

Besides point values every symbol knows how to bracket its weighted tails
sum_{n > N} w(n) |lambda_n|^2 (w(n) = n or n+1): exactly zero for finite
symbols, by integral comparison for powerlog, by closed-form geometric sums
for atomic moment symbols and ruled lacunary symbols, and "not certified"
otherwise.  One exponent table (_exponents) gives each infinite symbol the
(alpha, beta) of the powerlog whose tail order it has.  It sets the class
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
_TINY = np.finfo(np.float64).tiny
#: relative padding applied to bracket ends to absorb float summation error
_SUM_PAD = 64.0 * _EPS


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
    def powerlog(cls, alpha: float, beta: float, scale: float = 1.0) -> "SymbolSeq":
        if scale <= 0.0:
            raise ValueError("powerlog scale must be positive")
        return cls("powerlog", {"alpha": float(alpha), "beta": float(beta), "scale": float(scale)})

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
    def lacunary_rule(
        cls,
        start: int,
        ratio: float,
        decay: float,
        power: float = 0.0,
        scale: float = 1.0,
    ) -> "SymbolSeq":
        """Infinite lacunary symbol n_0 = start, n_{k+1} = ceil(ratio * n_k),
        with values v_k = scale * n_k^(-decay) * (k+1)^(-power)."""
        if start < 1:
            raise ValueError("lacunary support must start at an integer >= 1")
        if ratio <= 1.0:
            raise ValueError("lacunary ratio must satisfy q > 1")
        if power < 0.0:
            raise ValueError("rule power must be >= 0")
        if scale <= 0.0:
            raise ValueError("rule scale must be positive")
        rule = {"decay": float(decay), "power": float(power), "scale": float(scale)}
        return cls("lacunary", {"start": int(start), "q": float(ratio), "rule": rule})

    @classmethod
    def randomized(cls, base: "SymbolSeq", dist, seed: int, stream: int = 0) -> "SymbolSeq":
        """Multiplier symbol X_n * conj(lambda_n); dist must expose
        sample(seed, stream, indices)."""
        params = {"base": base, "dist": dist, "seed": int(seed), "stream": int(stream)}
        return cls("randomized", params)

    # -- values -------------------------------------------------------------

    def values(self, indices) -> np.ndarray:
        """Symbol values at the given indices (vectorized)."""
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        if np.any(idx < 0):
            raise ValueError("symbol indices must be >= 0")
        if self.kind in ("explicit", "lacunary"):
            support, vals = self._points(int(idx.max()) if idx.size else 0)
            out = np.zeros(idx.shape, dtype=vals.dtype)
            if support.size:
                pos = np.minimum(np.searchsorted(support, idx), support.shape[0] - 1)
                hit = support[pos] == idx
                out[hit] = vals[pos[hit]]
            return out
        if self.kind == "powerlog":
            p = self.params
            return p["scale"] * (idx + 1.0) ** (-p["alpha"]) * np.log(idx + 2.0) ** (-p["beta"])
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

    def tail_brackets(self, m_grid, nmax: int, weight: str = "widom") -> list[WidomTail]:
        """Brackets of sum_{n >= m} w(n) |lambda_n|^2 at each cutoff of an
        increasing grid.  With hi = max(nmax, last index that can be
        nonzero), a cutoff m <= hi gets the partial sum over [m, hi], padded
        by _SUM_PAD, plus the remainder beyond hi; a cutoff past hi gets the
        remainder beyond m - 1 alone, so it never depends on the rest of the
        grid."""
        m_grid = [int(m) for m in m_grid]
        if not m_grid or any(b <= a for a, b in zip(m_grid, m_grid[1:])):
            raise ValueError("cutoff grid must be nonempty and strictly increasing")
        if m_grid[0] < 0:
            raise ValueError("cutoff must be >= 0")
        if nmax < 0:
            raise ValueError("nmax must be >= 0")
        hi = max(nmax, self.finite_support_bound or 0)
        if self.kind in ("explicit", "lacunary"):
            # the points through hi, read once: nothing else is nonzero there
            n, vals = self._points(hi)
            first = np.searchsorted(n, m_grid[0])
            n, vals = n[first:], vals[first:]
        else:
            n = np.arange(m_grid[0], hi + 1, dtype=np.int64)
            vals = self.values(n)
        terms = _weight_values(weight, n) * np.abs(vals) ** 2
        rem = self._remainder(hi, weight)
        brackets = []
        for m in m_grid:
            if m > hi:
                brackets.append(self._remainder(m - 1, weight))
                continue
            # pairwise per-cutoff sums: cheaper-looking running sums accumulate
            # too much rounding for the certified brackets
            partial = float(np.sum(terms[np.searchsorted(n, m) :]))
            pad = _SUM_PAD * partial
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

    def _points(self, through: int):
        """(support, values) of an explicit or lacunary symbol: the stored
        pair of a finite one, a rule's points up to ``through`` otherwise."""
        if "support" in self.params:
            return self.params["support"], self.params["values"]
        rule = self.params["rule"]
        support, _ = _rule_support(self.params, through)
        vals = [
            rule["scale"] * float(n_k) ** (-rule["decay"]) * (k + 1.0) ** (-rule["power"])
            for k, n_k in enumerate(support.tolist())
        ]
        return support, np.array(vals, dtype=np.float64)

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

    def _remainder(self, nmax: int, weight: str) -> WidomTail:
        """Bracket for sum_{n > nmax} w(n) |lambda_n|^2, nmax past any finite
        support: zero there, divergent when an exponent pair diverges, else
        the kind's closed form or, for densities and randomized, uncertified."""
        if self.finite_support_bound is not None:
            return WidomTail(nmax + 1, 0.0, 0.0)
        if any(_diverges(a, b) for a, b in self._exponents()):
            return WidomTail(nmax + 1, 0.0, np.inf, divergent=True)
        if self.kind == "powerlog":
            return _powerlog_tail(self.params, nmax, weight)
        if self.kind == "lacunary":
            return self._lacunary_rule_tail(nmax)
        if self.kind == "moments" and not self.params["measure"].densities:
            return _atom_tail(self.params["measure"].atoms, nmax, weight)
        return WidomTail(nmax + 1, 0.0, np.inf)

    def _lacunary_rule_tail(self, nmax: int) -> WidomTail:
        """A bracket of either weighted tail past nmax: the support starts at
        1, so w(n) <= n + 1 <= 2 n covers both weights."""
        rule = self.params["rule"]
        rho, p, scale = rule["decay"], rule["power"], rule["scale"]
        q = self.params["q"]
        support, first_past = _rule_support(self.params, nmax)
        k0, m0 = support.shape[0], float(first_past)  # m0 = n_k0 > nmax
        if rho > 0.5:
            # w(n_k) <= 2 n_k, n_k >= m0 q^(k-k0), (k+1)^(-2p) <= (k0+1)^(-2p)
            r = q ** (1.0 - 2.0 * rho)
            upper = 2.0 * scale**2 * (k0 + 1.0) ** (-2.0 * p) * m0 ** (1.0 - 2.0 * rho) / (1.0 - r)
        else:
            # rho == 0.5, p > 0.5: terms <= scale^2 (1 + 1/m0) (k+1)^(-2p)
            kk = max(k0, 1)
            tail_k = kk ** (1.0 - 2.0 * p) / (2.0 * p - 1.0)
            head = (k0 + 1.0) ** (-2.0 * p) if k0 == 0 else 0.0
            upper = scale**2 * (1.0 + 1.0 / m0) * (tail_k + head)
        return WidomTail(nmax + 1, 0.0, float(upper))


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
    scale (n+1)^(-alpha) log(n+2)^(-beta), for a pair that does not diverge."""
    a, b, scale = params["alpha"], params["beta"], params["scale"]
    s2 = scale * scale
    n = float(nmax)
    if b < 0.0:
        # growing log factor: certification not implemented
        return WidomTail(nmax + 1, 0.0, np.inf)
    if a == 1.0:
        # terms w(n) (n+1)^(-2) L^(-2b) with L = log(n+2); 2b > 1 here
        c = 2.0 * b - 1.0
        upper = s2 * (n + 3.0) / (n + 2.0) * np.log(n + 2.0) ** (-c) / c
        if weight == "widom":
            # two lower bounds: the integral of the terms from N+1, which rises
            # with N for small N and c, and, as n/(n+1)^2 >= 1/(n+3) for n >= 1,
            # the integral of 1/(x log(x)^(2b)) from N+4.  The second at N is
            # at least the first at N+1, so their max never rises with N
            lower = max(
                s2 * (1.0 - (n + 2.0) ** (-2.0)) * np.log(n + 3.0) ** (-c) / c,
                s2 * np.log(n + 4.0) ** (-c) / c,
            )
        else:
            lower = s2 * np.log(n + 3.0) ** (-c) / c
        return WidomTail(nmax + 1, float(lower), float(upper))
    # a > 1, b >= 0: w(n) lambda_n^2 <= (n+1)^(1-2a) log(N+3)^(-2b)
    upper = s2 * np.log(n + 3.0) ** (-2.0 * b) * (n + 1.0) ** (2.0 - 2.0 * a) / (2.0 * a - 2.0)
    return WidomTail(nmax + 1, 0.0, float(upper))


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
