"""Deterministic pseudo-random number generation.

The generators here are specified by algorithm (splitmix64 seeding a
xoshiro256** stream) rather than delegating to the platform RNG, so that
fixtures such as seeded random graphs can be replicated exactly by any
implementation that follows the same recipe.

Single values (``random``, ``uniform``, ``randrange``) come from the scalar
recurrence.  A long run of per-pair draws (``below``) is produced in numpy
lanes of the same stream instead: the state update is linear over GF(2), so
lane k can start exactly k*L draws ahead (a jump-ahead), and all lanes step
together.  The values and the generator's position afterwards are identical
to drawing them one by one.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _step_lanes(s: np.ndarray) -> None:
    """Advance every column of a (4, m) uint64 state array by one xoshiro step, in place."""
    t = s[1] << 17
    s[2] ^= s[0]
    s[3] ^= s[1]
    s[1] ^= s[2]
    s[0] ^= s[3]
    s[2] ^= t
    s[3] = (s[3] << 45) | (s[3] >> 19)


class SplitMix64:
    """64-bit splitmix64 stream; used to expand seeds into generator state."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)


class Xoshiro256StarStar:
    """xoshiro256** generator seeded from a single 64-bit seed via splitmix64."""

    def __init__(self, seed: int) -> None:
        sm = SplitMix64(seed)
        self._s = [sm.next_uint64() for _ in range(4)]

    def next_uint64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def random(self) -> float:
        """Uniform double in [0, 1) built from the top 53 bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randrange(self, k: int) -> int:
        """Integer in [0, k). k must be positive and small (no rejection)."""
        if k <= 0:
            raise ValueError("k must be positive")
        return int(self.random() * k)

    def below(self, count: int, p: float) -> np.ndarray:
        """Whether each of the next ``count`` values of ``random()`` is below p.

        Equal to ``np.array([self.random() < p for _ in range(count)])`` and
        leaves the generator where those draws would, but the draws are made
        in about sqrt(count) lanes of L consecutive draws that step together.
        Lane k starts at lane k-1's start advanced by the L-step jump J: the
        images of the 256 basis states after L steps are J's columns, and a
        state's jump is the XOR of the columns its set bits select.  Only the
        boolean mask is kept, never ``count`` draws.
        """
        if count <= 0:
            return np.zeros(0, dtype=bool)
        length = -(-count // math.isqrt(count))
        lanes = -(-count // length)
        last = count - (lanes - 1) * length  # draws in the last lane, 1..length
        bit = np.arange(256)
        jump = np.zeros((4, 256), dtype=np.uint64)
        jump[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
        for _ in range(length):
            _step_lanes(jump)
        shifts = np.arange(64, dtype=np.uint64)
        s = np.empty((4, lanes), dtype=np.uint64)
        s[:, 0] = self._s
        for k in range(1, lanes):
            selected = ((s[:, k - 1 : k] >> shifts) & np.uint64(1)).astype(bool).ravel()
            s[:, k] = np.bitwise_xor.reduce(jump[:, selected], axis=1)
        mask = np.empty((lanes, length), dtype=bool)
        for j in range(length):
            x = s[1] * np.uint64(5)
            x = ((x << 7) | (x >> 57)) * np.uint64(9)
            mask[:, j] = (x >> 11) * 2.0**-53 < p
            _step_lanes(s)
            if j + 1 == last:
                self._s = s[:, -1].tolist()
        return mask.reshape(-1)[:count]


def derive_seed(seed: int, index: int) -> int:
    """Derive an independent 64-bit stream seed from (seed, index).

    Used to give each trial or sub-component its own reproducible stream.
    """
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK64)
