"""Counter-based deterministic random streams.

Every variate is a pure function of (seed, stream, index, slot), so sample n
of a sequence does not depend on how many samples were drawn before it or on
the truncation length.  The generator is a SplitMix64 finalizer over a keyed
counter.  The key of a (seed, stream) pair is computed on Python ints masked
to 64 bits, the words on uint64 arrays, so streams are reproducible
bit-for-bit across platforms and numpy versions.
"""

from __future__ import annotations

import numpy as np

_MASK = 2**64 - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SLOT = 0xD6E8FEB86659FD93
_TWO53_INV = 1.0 / 9007199254740992.0  # 2^-53


def _finalize(x):
    """SplitMix64 finalizer of a Python int in [0, 2^64) or a uint64 array."""
    x = (x + _GOLDEN) & _MASK
    x ^= x >> 30
    x = (x * _MIX1) & _MASK
    x ^= x >> 27
    x = (x * _MIX2) & _MASK
    return x ^ (x >> 31)


def raw_bits(seed: int, stream: int, index, slot: int = 0) -> np.ndarray:
    """uint64 words keyed by (seed, stream, index, slot); index may be an array."""
    key = _finalize(_finalize(seed & _MASK) ^ (stream & _MASK))
    idx = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):  # uint64 scalars (0-d index) warn on wrap-around
        return _finalize(idx * np.uint64(_GOLDEN) + np.uint64((key + slot * _SLOT) & _MASK))


def uniforms(seed: int, stream: int, index, slot: int = 0) -> np.ndarray:
    """Uniform doubles ((w >> 11) + 1/2)·2^-53 from the words w, in (0, 1].

    From 1/2 up, (w >> 11) + 1/2 is a tie that rounds to even, so those
    values are multiples of 2^-52.  The 2^11 words with w >> 11 = 2^52 (2^63
    among them) give exactly 1/2, and those with w >> 11 = 2^53 - 1
    (2^64 - 1 among them) give exactly 1.0, each with probability 2^-53.
    """
    bits = raw_bits(seed, stream, index, slot)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * _TWO53_INV


def rademacher(seed: int, stream: int, index) -> np.ndarray:
    """+-1 with equal probability, from the top bit of the word."""
    bits = raw_bits(seed, stream, index)
    return 1.0 - 2.0 * (bits >> np.uint64(63)).astype(np.float64)


def uniform_symmetric(seed: int, stream: int, index) -> np.ndarray:
    """2·uniforms - 1, uniform on (-1, 1]; exactly 0 and 1.0 each have
    probability 2^-53 (see uniforms)."""
    return 2.0 * uniforms(seed, stream, index) - 1.0


def normals(seed: int, stream: int, index) -> np.ndarray:
    """Standard normals via Box-Muller on slots 0 and 1 of each index."""
    u1 = uniforms(seed, stream, index, slot=0)
    u2 = uniforms(seed, stream, index, slot=1)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def unit_start_vector(n: int) -> np.ndarray:
    """Deterministic pseudo-random unit vector that starts every singular-value
    solve: seed 0x1D5EED, stream 0."""
    # an entry is 0 only where the draw is exactly 1/2, which happens with
    # probability 2^-53 (see uniforms); the first 2^20 entries have no zero
    v = uniform_symmetric(0x1D5EED, 0, np.arange(n))
    return v / np.sqrt(np.sum(v * v))
