"""Counter-based deterministic random streams.

Every variate is a pure function of (seed, stream, index, slot), so sample n
of a sequence does not depend on how many samples were drawn before it or on
the truncation length.  The generator is a SplitMix64-style finalizer over a
keyed counter; it is reproducible bit-for-bit across platforms and numpy
versions (only uint64 arithmetic is used).
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SLOT = np.uint64(0xD6E8FEB86659FD93)
_TWO53_INV = 1.0 / 9007199254740992.0  # 2^-53


def _finalize(x):
    """SplitMix64 finalizer (vectorized over uint64 arrays)."""
    x = (x + _GOLDEN).astype(np.uint64) if isinstance(x, np.ndarray) else np.uint64(x + _GOLDEN)
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _key(seed: int, stream: int) -> np.uint64:
    s = _finalize(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    return _finalize(s ^ np.uint64(stream & 0xFFFFFFFFFFFFFFFF))


def raw_bits(seed: int, stream: int, index, slot: int = 0) -> np.ndarray:
    """uint64 words keyed by (seed, stream, index, slot); index may be an array."""
    idx = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = _key(seed, stream) + idx * _GOLDEN + np.uint64(slot) * _SLOT
        return _finalize(x)


def uniforms(seed: int, stream: int, index, slot: int = 0) -> np.ndarray:
    """Uniform doubles in the open interval (0, 1)."""
    bits = raw_bits(seed, stream, index, slot)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * _TWO53_INV


def rademacher(seed: int, stream: int, index) -> np.ndarray:
    """+-1 with equal probability, from the top bit of the word."""
    bits = raw_bits(seed, stream, index)
    return 1.0 - 2.0 * (bits >> np.uint64(63)).astype(np.float64)


def uniform_symmetric(seed: int, stream: int, index) -> np.ndarray:
    """Uniform on (-1, 1)."""
    return 2.0 * uniforms(seed, stream, index) - 1.0


def normals(seed: int, stream: int, index) -> np.ndarray:
    """Standard normals via Box-Muller on slots 0 and 1 of each index."""
    u1 = uniforms(seed, stream, index, slot=0)
    u2 = uniforms(seed, stream, index, slot=1)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def unit_start_vector(n: int) -> np.ndarray:
    """Deterministic pseudo-random unit vector that starts every singular-value
    solve: seed 0x1D5EED, stream 0."""
    # no entry is 0: uniforms are (k + 1/2) 2^-53, never exactly 1/2
    v = 2.0 * uniforms(0x1D5EED, 0, np.arange(n)) - 1.0
    return v / np.sqrt(np.sum(v * v))
