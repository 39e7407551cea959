"""The counter-based streams against an independent SplitMix64 on Python ints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirspace import _rng

MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's state increment


def splitmix64_next(state: int) -> tuple[int, int]:
    """(new state, output) of one SplitMix64 step (Steele, Lea & Flood 2014)."""
    state = (state + GAMMA) & MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return state, z ^ (z >> 31)


def reference_word(seed: int, stream: int, index: int, slot: int) -> int:
    """Output index + 1 of the SplitMix64 generator that starts at the
    (seed, stream) key plus slot times the slot constant: after index steps
    its state has grown by index * GAMMA."""
    key = splitmix64_next(splitmix64_next(seed & MASK)[1] ^ (stream & MASK))[1]
    state = (key + slot * 0xD6E8FEB86659FD93 + index * GAMMA) & MASK
    return splitmix64_next(state)[1]


def test_splitmix64_known_answers():
    # the first three outputs of SplitMix64 seeded with 0
    state, outputs = 0, []
    for _ in range(3):
        state, word = splitmix64_next(state)
        outputs.append(word)
    assert outputs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


_WIDE = st.integers(-(2**70), 2**70)
_INDEX = st.integers(0, MASK)


def as_stream_form(stream: int, form: str):
    """One stream as a Python int, an int64 or uint64 scalar (the Python int
    where the value does not fit) or a 0-d object array."""
    if form == "int64" and -(2**63) <= stream < 2**63:
        return np.int64(stream)
    if form == "uint64" and 0 <= stream <= MASK:
        return np.uint64(stream)
    if form == "0-d object":
        return np.array(stream, dtype=object)
    return stream


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    seed=_WIDE,
    stream=_WIDE,
    index=_INDEX | st.lists(_INDEX, max_size=8),
    slot=st.sampled_from([0, 1]),
    form=st.sampled_from(["int", "int64", "uint64", "0-d object"]),
)
def test_streams_match_reference_splitmix64(seed, stream, index, slot, form):
    indices = [index] if isinstance(index, int) else index
    words = [reference_word(seed, stream, i, slot) for i in indices]
    s = as_stream_form(stream, form)
    bits = _rng.raw_bits(seed, s, index, slot)
    assert bits.dtype == np.uint64 and np.shape(bits) == np.shape(index)
    assert np.atleast_1d(bits).tolist() == words

    u = _rng.uniforms(seed, s, index, slot)
    assert u.dtype == np.float64 and np.shape(u) == np.shape(index)
    assert np.atleast_1d(u).tolist() == [(float(w >> 11) + 0.5) * 2.0**-53 for w in words]

    signs = _rng.rademacher(seed, s, index)
    assert signs.dtype == np.float64 and np.shape(signs) == np.shape(index)
    slot0 = [reference_word(seed, stream, i, 0) for i in indices]
    assert np.atleast_1d(signs).tolist() == [1.0 - 2.0 * (w >> 63) for w in slot0]


def as_stream_array(streams: list, layout: str) -> np.ndarray:
    """The streams as an array of one dtype: Python ints (object), their
    residues mod 2^64 (uint64) or the congruent int64 values."""
    if layout == "uint64":
        return np.array([s % 2**64 for s in streams], dtype=np.uint64)
    if layout == "int64":
        return np.array([(s + 2**63) % 2**64 - 2**63 for s in streams], dtype=np.int64)
    return np.array(streams, dtype=object)


# streams within 8 of a multiple of 2^64 wrap past 2^64 - 1 when counted on
_NEAR_WRAP = st.sampled_from([-(2**64), 0, 2**64]).flatmap(lambda w: st.integers(w - 8, w + 8))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    seed=_WIDE,
    streams=st.lists(_WIDE | _NEAR_WRAP, min_size=1, max_size=6),
    indices=st.lists(_INDEX, min_size=1, max_size=5),
    slot=st.sampled_from([0, 1]),
    layout=st.sampled_from(["object", "uint64", "int64"]),
    shape=st.sampled_from(["outer", "scalar index", "paired"]),
)
def test_stream_arrays_match_reference_stream_by_stream(seed, streams, indices, slot, layout, shape):
    s = as_stream_array(streams, layout)
    if shape == "outer":  # a column of streams against a row of indices
        s, index = s[:, None], indices
        want = [[reference_word(seed, a, i, slot) for i in indices] for a in streams]
    elif shape == "scalar index":
        index = indices[0]
        want = [reference_word(seed, a, index, slot) for a in streams]
    else:  # one index per stream
        index = [indices[k % len(indices)] for k in range(len(streams))]
        want = [reference_word(seed, a, i, slot) for a, i in zip(streams, index)]
    bits = _rng.raw_bits(seed, s, index, slot)
    assert bits.dtype == np.uint64 and bits.tolist() == want
    u = _rng.uniforms(seed, s, index, slot)
    assert u.dtype == np.float64 and u.shape == bits.shape
    assert u.ravel().tolist() == [(float(w >> 11) + 0.5) * 2.0**-53 for w in np.ravel(np.array(want, dtype=object))]


def test_stream_arrays_must_be_integers():
    # a bool is not read as the stream 0 or 1
    for stream in (np.array([0.0, 1.0]), 1.0, True, np.array([True, False])):
        with pytest.raises(TypeError):
            _rng.uniforms(1, stream, 0)


def test_unit_start_vector_memoized_read_only():
    for n in (1, 7, 513, 2**14, 2**14 + 1):
        v = _rng.unit_start_vector(n)
        fresh = _rng.uniform_symmetric(0x1D5EED, 0, np.arange(n))
        assert np.array_equal(v, fresh / np.sqrt(np.sum(fresh * fresh)))
        with pytest.raises(ValueError):
            v[0] = 0.5
    assert _rng.unit_start_vector(513) is _rng.unit_start_vector(513)
    for n in range(2, 100):
        _rng.unit_start_vector(n)
    assert _rng._cached_start_vector.cache_info().currsize <= _rng._START_CACHE_SIZE


def test_unit_start_vector_has_no_zero_entry():
    # a zero entry would leave its coordinate out of every start vector
    v = _rng.unit_start_vector(2**20)
    assert np.count_nonzero(v == 0.0) == 0
