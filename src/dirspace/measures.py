"""Finite positive Borel measures on [0, 1) and their moment sequences.

A measure is a list of atoms plus a list of densities of the form

    w(t) = c * t^kappa * (1 - t)^gamma * log(e/(1-t))^(-delta),   gamma > -1.

(The t^kappa factor extends the (1-t)-power-log family so that simple
polynomial weights such as 2t dt are expressible componentwise with positive
coefficients.)

Moments mu_n = int t^n dmu(t) use closed forms where available (atoms always;
delta = 0 densities via the Beta function, as Gamma(gamma+1) over the
Pochhammer symbol (n+kappa+1)_(gamma+1)) and otherwise one fixed quadrature
rule: Gauss-Legendre on dyadic panels graded towards t = 1, in the variable
u = (1-t)^(gamma+1) when gamma in (-1, 0) so that the endpoint singularity is
removed.  A batch of indices is one blocked product: writing n = qB + r with
the block length B = _BLOCK, t^n = t^(qB) t^r, so the moments of all indices
in the batch are entries of (t^(qB) w) @ (t^r)^T, a matrix product with one
exp row per distinct block q and one per offset r in the batch's range.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy

from . import criteria
from .symbols import SymbolSeq

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_GRADE_LEVELS = 80  # dyadic panels down to widths 2^-80
_BLOCK = 256  # index block length B of the factored product t^(qB) t^r


@dataclass(frozen=True)
class Density:
    """One weighted density c * t^kappa * (1-t)^gamma * log(e/(1-t))^(-delta)."""

    c: float
    gamma: float
    delta: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        if self.c <= 0.0:
            raise ValueError("density weight c must be positive")
        if self.gamma <= -1.0:
            raise ValueError("density exponent gamma must be > -1 for integrability")
        if self.kappa < 0.0:
            raise ValueError("density exponent kappa must be >= 0")


class MeasureSpec:
    """Atoms + densities; all atom locations strictly inside [0, 1)."""

    def __init__(self, atoms=(), densities=()):
        self.atoms = [(float(loc), float(mass)) for loc, mass in atoms]
        for loc, mass in self.atoms:
            if not 0.0 <= loc < 1.0:
                raise ValueError("atom locations must lie in [0, 1); an atom at 1 is rejected")
            if mass <= 0.0:
                raise ValueError("atom masses must be positive")
        self.densities = [d if isinstance(d, Density) else Density(**d) for d in densities]

    # -- structure ----------------------------------------------------------

    @property
    def support_sup(self) -> float:
        if self.densities:
            return 1.0
        if self.atoms:
            return max(loc for loc, _ in self.atoms)
        return 0.0

    @property
    def total_mass(self) -> float:
        return float(self.moment(0))

    @classmethod
    def lebesgue(cls) -> "MeasureSpec":
        return cls(densities=[Density(c=1.0, gamma=0.0)])

    @classmethod
    def point_mass(cls, loc: float, mass: float = 1.0) -> "MeasureSpec":
        return cls(atoms=[(loc, mass)])

    # -- moments ------------------------------------------------------------

    def moment(self, n: int) -> float:
        """mu_n = sum of atom and density contributions (single index)."""
        return float(self.moments([n])[0])

    def moments(self, indices) -> np.ndarray:
        """Moments at any array of indices (unsorted, repeated or sparse)."""
        n = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        if np.any(n < 0):
            raise ValueError("moment indices must be >= 0")
        out = np.zeros(n.shape, dtype=np.float64)
        for loc, mass in self.atoms:
            if loc == 0.0:
                out[n == 0] += mass
            else:
                out += mass * np.exp(n * np.log(loc))
        for d in self.densities:
            if d.delta == 0.0:
                out += d.c * _beta_moments(n, d.kappa, d.gamma)
            else:
                out += _density_moments_graded(d, n)
        return out


def classify_measure(spec: MeasureSpec, kind: str, cfg=None):
    """Verdict for the Hankel/Cesaro operator with symbol mu_n.

    Delegates to the sequence classifier; moment symbols are decreasing and
    positive, so the governing theorems apply exactly.
    """
    return criteria.classify(SymbolSeq.from_measure(spec), kind, cfg)


# ---------------------------------------------------------------------------
# quadrature internals
# ---------------------------------------------------------------------------


def _beta_moments(n: np.ndarray, kappa: float, gamma: float) -> np.ndarray:
    """B(n+kappa+1, gamma+1) as Gamma(gamma+1) / (n+kappa+1)_(gamma+1), and as
    exp(betaln(...)) where that quotient is not a positive float: Gamma
    overflows for gamma > 170, the Pochhammer symbol once (gamma+1) log n
    passes about 709."""
    with np.errstate(invalid="ignore"):
        b = scipy.special.gamma(gamma + 1.0) / scipy.special.poch(n + kappa + 1.0, gamma + 1.0)
    lost = ~(np.isfinite(b) & (b > 0.0))
    if np.any(lost):
        b[lost] = np.exp(scipy.special.betaln(n[lost] + kappa + 1.0, gamma + 1.0))
    return b


@functools.cache
def _graded_rule(d: Density):
    """log(t) nodes and weights (density included) for batch moments.

    Dyadic panels in the endpoint distance u = 1 - t (in u^(gamma+1) space
    when gamma < 0, removing the algebraic singularity).  Every factor
    involving 1 - t is computed from the panel variable directly, so nodes
    graded far below machine epsilon stay exact; the sliver beyond level
    2^-80 is negligible at double precision.
    """
    edges = 2.0 ** -np.arange(_GRADE_LEVELS + 1)  # 1, 1/2, ..., 2^-80
    log_ts, ws = [], []
    for j in range(_GRADE_LEVELS):
        lo, hi = edges[j + 1], edges[j]
        u = 0.5 * (hi - lo) * _GL_NODES + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * _GL_WEIGHTS
        if d.gamma < 0.0:
            g1 = d.gamma + 1.0
            one_minus_t = u ** (1.0 / g1)
            log_factor = 1.0 - np.log(u) / g1
            base = w * d.c / g1
        else:
            one_minus_t = u
            log_factor = 1.0 - np.log(u)
            base = w * d.c * u**d.gamma
        log_t = np.log1p(-one_minus_t)
        log_ts.append(log_t)
        ws.append(base * log_factor ** (-d.delta) * np.exp(d.kappa * log_t))
    return np.concatenate(log_ts), np.concatenate(ws)


def _density_moments_graded(d: Density, n: np.ndarray) -> np.ndarray:
    """Graded-rule moments of one density at the indices n, as one GEMM.

    Each index is split as n = qB + r; the product of the block heads
    t^(qB) w (one row per distinct q) with the offset powers t^r (one row
    per r between the smallest and largest offset) holds every moment of the
    batch, and the indices gather their entries from it by (q, r).
    """
    log_t, w = _graded_rule(d)
    q, r = np.divmod(n, _BLOCK)
    blocks, row = np.unique(q, return_inverse=True)
    r_lo, r_hi = (int(r.min()), int(r.max())) if n.size else (0, -1)
    offsets = np.arange(r_lo, r_hi + 1, dtype=np.float64)
    with np.errstate(under="ignore"):
        # in place: one array per table, not three alive at once
        heads = np.multiply.outer((blocks * _BLOCK).astype(np.float64), log_t)
        np.exp(heads, out=heads)
        heads *= w
        powers = np.multiply.outer(offsets, log_t)
        np.exp(powers, out=powers)
        table = heads @ powers.T
    return table[row.reshape(n.shape), r - r_lo]
