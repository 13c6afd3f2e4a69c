"""The lane-parallel array draws against the scalar xorshift64* stream, bit for bit."""

import numpy as np
import pytest

from avekit._rng import XorShift64Star
from avekit.problems import _class_stream

# (seed, stream) pairs: the default stream, small ones, random_instance's
# right-hand-side stream of an n = 1000 instance, and all-ones bits.
STREAMS = [
    (0, 0),
    (3, 5),
    (21, _class_stream("norm_lt_half", 1000) ^ (1 << 62)),
    (2**64 - 1, 12345),
]


def scalar_uniforms(rng, size, lo=-1.0, hi=1.0):
    return np.array([rng.uniform(lo, hi) for _ in range(size)], dtype=float)


def assert_same_stream(lanes, scalar):
    """The next scalar draw after the array draw is the scalar stream's next one."""
    assert lanes._state == scalar._state
    assert lanes.random() == scalar.random()


@pytest.mark.parametrize("seed, stream", STREAMS)
@pytest.mark.parametrize("size", [0, 1, 2, 7, 144, 1023, 1024, 1025])
def test_uniform_array_is_the_scalar_stream(seed, stream, size):
    lanes, scalar = XorShift64Star(seed, stream), XorShift64Star(seed, stream)
    got = lanes.uniform_array(size)
    assert got.shape == (size,)
    assert got.tobytes() == scalar_uniforms(scalar, size).tobytes()
    assert_same_stream(lanes, scalar)


def test_million_draws_are_the_scalar_stream():
    seed, stream = STREAMS[2]
    lanes, scalar = XorShift64Star(seed, stream), XorShift64Star(seed, stream)
    got = lanes.uniform_array(10**6, 0.05, 0.499)
    assert got.tobytes() == scalar_uniforms(scalar, 10**6, 0.05, 0.499).tobytes()
    assert_same_stream(lanes, scalar)


@pytest.mark.parametrize("seed, stream", STREAMS)
@pytest.mark.parametrize("shape", [(40, 40), (2000, 3), (7, 12)])
def test_shaped_draws_fill_rows_in_stream_order(seed, stream, shape):
    lanes, scalar = XorShift64Star(seed, stream), XorShift64Star(seed, stream)
    got = lanes.uniform_array(shape)
    want = scalar_uniforms(scalar, shape[0] * shape[1]).reshape(shape)
    assert got.shape == shape and got.tobytes() == want.tobytes()
    assert_same_stream(lanes, scalar)


@pytest.mark.parametrize("seed, stream", STREAMS)
def test_consecutive_array_draws_continue_the_stream(seed, stream):
    lanes, scalar = XorShift64Star(seed, stream), XorShift64Star(seed, stream)
    for size in (5, 0, 130, 1, 4097):
        assert lanes.random_array(size).tobytes() == np.array(
            [scalar.random() for _ in range(size)], dtype=float).tobytes()
        assert lanes._state == scalar._state


@pytest.mark.parametrize("n", [1, 2, 9, 300])
def test_permutation_is_scalar_fisher_yates(n):
    lanes, scalar = XorShift64Star(7, n), XorShift64Star(7, n)
    items = list(range(n))
    for i in range(n - 1, 0, -1):
        j = scalar.below(i + 1)
        items[i], items[j] = items[j], items[i]
    assert lanes.permutation(n) == items
    assert_same_stream(lanes, scalar)
