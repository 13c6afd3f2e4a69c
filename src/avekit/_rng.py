"""Seedable, portable pseudorandom generator for reproducible instances.

Implements xorshift64* (shifts 12/25/27, multiplier 0x2545F4914F6CDD1D)
with splitmix64 seed scrambling, in integer arithmetic, so identical
(seed, stream) pairs produce bitwise-identical instances on any platform
or library version.

Scalar draws step the state as a Python int.  Array draws
(``random_array``, ``uniform_array``) return the same numbers in the
same order, computed in lanes: the xorshift step is linear over GF(2),
so the state t steps ahead is T^t times the current one for a fixed
64 x 64 bit matrix T.  The draws are cut into blocks of 2^b consecutive
states, one block per lane.  The lanes are seeded by doubling: lane 0
holds the next state, and applying T^(2^(b + j)) to the first 2^j lanes
gives the next 2^j; the powers T^(2^k) are computed once and cached.
Then all lanes step together in numpy ``uint64`` (its multiply wraps
mod 2^64, as the scalar code masks).  The block length grows like the
square root of the draw count, so a small array takes few steps and a
large one few jumps.  An array draw leaves the generator where as many
scalar draws would.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK = (1 << 64) - 1
_MULTIPLIER = 0x2545F4914F6CDD1D
_BIT_INDEX = np.arange(64, dtype=np.uint64)
_ONE = np.uint64(1)


def splitmix64(state: int) -> int:
    """One splitmix64 step; used to scramble user seeds."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _xorshift(x: int) -> int:
    """The state after x: T x."""
    x ^= x >> 12
    x = (x ^ (x << 25)) & _MASK
    x ^= x >> 27
    return x


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """GF(2) product of the bit matrix m, its 64 columns as uint64 along
    the last axis, with every state in v."""
    bits = (v[..., None] >> _BIT_INDEX) & _ONE
    return np.bitwise_xor.reduce(bits * m, axis=-1)


@functools.cache
def _power(k: int) -> np.ndarray:
    """The columns of T^(2^k), read-only."""
    if k == 0:
        m = np.array([_xorshift(1 << i) for i in range(64)], dtype=np.uint64)
    else:
        m = _apply(_power(k - 1), _power(k - 1))
    m.flags.writeable = False
    return m


def to_uniform(r, lo: float, hi: float):
    """The uniform draw on [lo, hi) that the unit draw(s) r stand for."""
    return lo + (hi - lo) * r


class XorShift64Star:
    """xorshift64* generator with 53-bit uniform doubles in [0, 1)."""

    def __init__(self, seed: int, stream: int = 0):
        state = splitmix64(splitmix64(seed & _MASK) ^ splitmix64(stream & _MASK))
        self._state = state if state != 0 else 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        self._state = _xorshift(self._state)
        return (self._state * _MULTIPLIER) & _MASK

    def random(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return to_uniform(self.random(), lo, hi)

    def _states(self, size: int) -> np.ndarray:
        """The next ``size`` states, as ``size`` calls of ``next_u64``
        would leave them, drawn in lanes of 2^b consecutive states."""
        if size == 0:
            return np.empty(0, dtype=np.uint64)
        log_block = (size >> 3).bit_length() // 2
        block = 1 << log_block
        count = -(-size // block)
        lanes = np.array([_xorshift(self._state)], dtype=np.uint64)
        k = log_block
        while len(lanes) < count:
            lanes = np.concatenate([lanes, _apply(_power(k), lanes)])
            k += 1
        lanes = lanes[:count]
        out = np.empty((count, block), dtype=np.uint64)
        out[:, 0] = lanes
        for t in range(1, block):
            lanes ^= lanes >> 12
            lanes ^= lanes << 25
            lanes ^= lanes >> 27
            out[:, t] = lanes
        states = out.reshape(-1)[:size]
        self._state = int(states[-1])
        return states

    def random_array(self, size: int) -> np.ndarray:
        """The next ``size`` values of ``random()``, as a float array."""
        x = self._states(size)
        x *= _MULTIPLIER
        x >>= 11
        out = x.astype(np.float64)
        out *= 2.0**-53
        return out

    def uniform_array(self, shape, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
        size = math.prod(shape) if isinstance(shape, tuple) else shape
        return to_uniform(self.random_array(size), lo, hi).reshape(shape)

    def below(self, k: int) -> int:
        return int(self.random() * k)

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates shuffle of range(n), swapping i with below(i + 1)
        for i = n - 1 down to 1."""
        items = list(range(n))
        bounds = np.arange(n, 1, -1)
        picks = (self.random_array(len(bounds)) * bounds).astype(np.int64).tolist()
        for i, j in zip(range(n - 1, 0, -1), picks):
            items[i], items[j] = items[j], items[i]
        return items
