"""Random-symbol experiments with reproducible counter-based sampling.

Multipliers X_n are i.i.d. with mean zero and finite fourth moment; the
three supported families are Rademacher (+-1), symmetric uniform, and
Gaussian.  With the fourth-moment normalization switch on, samples are
scaled so that E[X^4] = 1, the standing assumption of the fourth-moment
inequality  E|sum a_i X_i|^4 <= 3 (sum |a_i|^2)^2.

Every variate is keyed by (seed, stream, index), so multiplier n does not
depend on the truncation length and replicas are independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _rng, criteria, operators
from .symbols import SymbolSeq

# the sampler of each distribution (its _rng name, read per call) and E[X^4]
# of its unnormalized base
_DISTS = {"rademacher": ("rademacher", 1.0), "uniform-symmetric": ("uniform_symmetric", 1.0 / 5.0),
          "gaussian": ("normals", 3.0)}


@dataclass(frozen=True)
class DistTag:
    """Multiplier distribution; ``normalized`` rescales so E[X^4] = 1."""

    name: str
    normalized: bool = True

    def __post_init__(self):
        if self.name not in _DISTS:
            raise ValueError(f"unknown distribution {self.name!r}; choose from {tuple(_DISTS)}")

    @property
    def scale(self) -> float:
        return _DISTS[self.name][1] ** -0.25 if self.normalized else 1.0

    def sample(self, seed: int, stream: int, indices) -> np.ndarray:
        x = getattr(_rng, _DISTS[self.name][0])(seed, stream, indices)
        return x * self.scale if self.scale != 1.0 else x


@dataclass(frozen=True)
class RngSpec:
    seed: int
    stream: int = 0


def sample_symbol(s: SymbolSeq, d: DistTag, rng: RngSpec, n: int) -> SymbolSeq:
    """Explicit symbol omega_k = X_k * conj(lambda_k), k = 0..n: the first
    n + 1 values of SymbolSeq.randomized."""
    return SymbolSeq.explicit(SymbolSeq.randomized(s, d, rng.seed, rng.stream).values(np.arange(n + 1)))


def fourth_moment_exact_rademacher(a) -> float:
    """E (sum a_i X_i)^4 for Rademacher X by enumerating all sign patterns.

    Real amplitudes only; length capped at 20 (2^n patterns).
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    n = a.shape[0]
    if n > 20:
        raise ValueError("exact enumeration supports length <= 20")
    total = 0.0
    bits = np.arange(n)
    chunk = 1 << 16
    for lo in range(0, 1 << n, chunk):
        pats = np.arange(lo, min(lo + chunk, 1 << n), dtype=np.int64)
        signs = (((pats[:, None] >> bits[None, :]) & 1) * 2 - 1).astype(np.float64)
        sums = signs @ a
        total += float(np.sum(sums**4))
    return total / float(1 << n)


def fourth_moment_mc(a, d: DistTag, trials: int, rng: RngSpec) -> tuple[float, float]:
    """Monte Carlo estimate (mean, stderr) of E |sum a_i X_i|^4."""
    if not d.normalized:
        raise ValueError(
            "the fourth-moment bound check assumes fourth-moment-normalized "
            "multipliers (E[X^4] = 1)"
        )
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    a = np.atleast_1d(np.asarray(a))
    dim = a.shape[0]
    y = np.empty(trials, dtype=np.float64)
    chunk = max(1, (1 << 23) // max(dim, 1))
    for lo in range(0, trials, chunk):
        hi = min(lo + chunk, trials)
        idx = np.arange(lo * dim, hi * dim).reshape(hi - lo, dim)
        x = d.sample(rng.seed, rng.stream, idx)
        sums = x @ a
        y[lo:hi] = np.abs(sums) ** 4
    estimate = float(np.mean(y))
    stderr = float(np.std(y, ddof=1) / np.sqrt(trials))
    return estimate, stderr


@dataclass(frozen=True)
class TailQuartiles:
    m: int
    q25: float
    median: float
    q75: float
    deterministic: float


@dataclass
class RandomTailReport:
    rows: list
    membership: criteria.WidomTail


def random_tail_experiment(
    s: SymbolSeq,
    d: DistTag,
    replicas: int,
    m_grid,
    n: int,
    rng: RngSpec,
    membership_nmax: int = 2**18,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> RandomTailReport:
    """Tail-section norms of randomized vs deterministic symbols.

    Precondition: the base symbol's membership sum (n+1)|lambda_n|^2 must be
    certified finite (the randomized-compactness statement assumes h_lambda
    lies in the Dirichlet space).  Replica r draws its multipliers from
    stream rng.stream + r; aggregation order is fixed, so reports are
    reproducible.
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    membership = criteria.dirichlet_membership(s, membership_nmax)
    if membership.divergent or not membership.certified:
        raise ValueError(
            "requires h_lambda in the Dirichlet space: membership bracket is "
            + ("divergent" if membership.divergent else "not certified finite")
        )
    m_grid = [int(m) for m in m_grid]
    norms = np.empty((replicas, len(m_grid)), dtype=np.float64)
    for r in range(replicas):
        sym = sample_symbol(s, d, RngSpec(rng.seed, rng.stream + r), 2 * n - 2)
        for j, m in enumerate(m_grid):
            norms[r, j] = operators.tail_section_norm(sym, "hankel", m, n, tol=tol, max_iter=max_iter)
    rows = []
    for j, m in enumerate(m_grid):
        det = operators.tail_section_norm(s, "hankel", m, n, tol=tol, max_iter=max_iter)
        q25, q50, q75 = np.percentile(norms[:, j], [25.0, 50.0, 75.0])
        rows.append(TailQuartiles(m, float(q25), float(q50), float(q75), det))
    return RandomTailReport(rows, membership)
