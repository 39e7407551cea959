"""The counter-based streams against an independent SplitMix64 on Python ints."""

import numpy as np
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


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    seed=_WIDE,
    stream=_WIDE,
    index=_INDEX | st.lists(_INDEX, max_size=8),
    slot=st.sampled_from([0, 1]),
)
def test_streams_match_reference_splitmix64(seed, stream, index, slot):
    indices = [index] if isinstance(index, int) else index
    words = [reference_word(seed, stream, i, slot) for i in indices]
    bits = _rng.raw_bits(seed, stream, index, slot)
    assert bits.dtype == np.uint64 and np.shape(bits) == np.shape(index)
    assert np.atleast_1d(bits).tolist() == words

    u = _rng.uniforms(seed, stream, index, slot)
    assert u.dtype == np.float64 and np.shape(u) == np.shape(index)
    assert np.atleast_1d(u).tolist() == [(float(w >> 11) + 0.5) * 2.0**-53 for w in words]

    signs = _rng.rademacher(seed, stream, index)
    assert signs.dtype == np.float64 and np.shape(signs) == np.shape(index)
    slot0 = [reference_word(seed, stream, i, 0) for i in indices]
    assert np.atleast_1d(signs).tolist() == [1.0 - 2.0 * (w >> 63) for w in slot0]


def test_unit_start_vector_has_no_zero_entry():
    # a zero entry would leave its coordinate out of every start vector
    v = _rng.unit_start_vector(2**20)
    assert np.count_nonzero(v == 0.0) == 0
