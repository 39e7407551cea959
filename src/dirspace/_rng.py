"""Counter-based deterministic random streams.

Every variate is a pure function of (seed, stream, index, slot), so sample n
of a sequence does not depend on how many samples were drawn before it or on
the truncation length.  The generator is a SplitMix64 finalizer over a keyed
counter.  Keys and words are computed in uint64 arithmetic, which wraps mod
2^64, so streams are reproducible bit-for-bit across platforms and numpy
versions.

Streams can therefore be drawn in any grouping (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011).  Every draw takes a stream
that is an integer or an integer array broadcasting against the index; it
becomes uint64 words, each stream mod 2^64 (_stream_words), and the keys of
all of them come from one array pass of the finalizer.  A single stream is
the 0-d case of the same path, so an entry of a batched draw equals the
single-stream draw of its stream and index, and a batch of short streams
costs one call instead of one per stream.  The start vector of the
singular-value solves is memoized per dimension, read-only and for a
bounded set of dimensions (unit_start_vector).
"""

from __future__ import annotations

import functools

import numpy as np

_MASK = 2**64 - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SLOT = 0xD6E8FEB86659FD93
_TWO53_INV = 1.0 / 9007199254740992.0  # 2^-53


def _finalize(x):
    """SplitMix64 finalizer of uint64 words; sums and products wrap mod 2^64
    (numpy scalars warn when they do, so callers silence overflow)."""
    x = x + _GOLDEN
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    return x ^ (x >> np.uint64(31))


def _stream_words(stream) -> np.ndarray:
    """An integer seed or stream, or integer array of streams, as uint64
    words, each entry mod 2^64; a bool or float one raises TypeError."""
    s = np.asarray(stream)
    if s.dtype == object:  # Python ints past 64 bits
        return np.array([int(v) & _MASK for v in s.flat], dtype=np.uint64).reshape(s.shape)
    if s.dtype.kind not in "iu":
        raise TypeError(f"streams must be integers, got dtype {s.dtype}")
    return s.astype(np.uint64, copy=False)  # two's complement wrap: a negative stream is stream mod 2^64


def raw_bits(seed: int, stream, index, slot: int = 0) -> np.ndarray:
    """uint64 words keyed by (seed, stream, index, slot); index may be an
    array, and stream an integer or an integer array that broadcasts
    against it.  Seed, stream and slot are taken mod 2^64, the seed and
    stream by one rule (_stream_words), so a numpy integer seed draws what
    the Python int of its value draws."""
    idx = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):  # numpy scalars (a 0-d key or index) warn on wrap-around
        keys = _finalize(_finalize(_stream_words(seed)) ^ _stream_words(stream))
        return _finalize(idx * _GOLDEN + (keys + np.uint64(slot * _SLOT & _MASK)))


def uniforms(seed: int, stream, index, slot: int = 0) -> np.ndarray:
    """Uniform doubles ((w >> 11) + 1/2)·2^-53 from the words w, in (0, 1].

    From 1/2 up, (w >> 11) + 1/2 is a tie that rounds to even, so those
    values are multiples of 2^-52.  The 2^11 words with w >> 11 = 2^52 (2^63
    among them) give exactly 1/2, and those with w >> 11 = 2^53 - 1
    (2^64 - 1 among them) give exactly 1.0, each with probability 2^-53.
    """
    bits = raw_bits(seed, stream, index, slot)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * _TWO53_INV


def rademacher(seed: int, stream, index) -> np.ndarray:
    """+-1 with equal probability, from the top bit of the word."""
    bits = raw_bits(seed, stream, index)
    return 1.0 - 2.0 * (bits >> np.uint64(63)).astype(np.float64)


def uniform_symmetric(seed: int, stream, index) -> np.ndarray:
    """2·uniforms - 1, uniform on (-1, 1]; exactly 0 and 1.0 each have
    probability 2^-53 (see uniforms)."""
    return 2.0 * uniforms(seed, stream, index) - 1.0


def normals(seed: int, stream, index) -> np.ndarray:
    """Standard normals via Box-Muller on slots 0 and 1 of each index."""
    u1 = uniforms(seed, stream, index, slot=0)
    u2 = uniforms(seed, stream, index, slot=1)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


_START_CACHE_DIM = 1 << 14  # unit_start_vector keeps dimensions up to this
_START_CACHE_SIZE = 32  # ... and at most this many of them: at most 4 MiB


def _draw_start_vector(n: int) -> np.ndarray:
    # an entry is 0 only where the draw is exactly 1/2, which happens with
    # probability 2^-53 (see uniforms); the first 2^20 entries have no zero
    v = uniform_symmetric(0x1D5EED, 0, np.arange(n))
    v /= np.sqrt(np.sum(v * v))
    v.flags.writeable = False
    return v


_cached_start_vector = functools.lru_cache(maxsize=_START_CACHE_SIZE)(_draw_start_vector)


def unit_start_vector(n: int) -> np.ndarray:
    """Deterministic pseudo-random unit vector that starts every singular-value
    solve: seed 0x1D5EED, stream 0.  Read-only, since it is shared: the
    vectors of the most recent dimensions up to 2^14 are memoized."""
    return _cached_start_vector(n) if n <= _START_CACHE_DIM else _draw_start_vector(n)
