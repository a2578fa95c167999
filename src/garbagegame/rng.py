"""Deterministic pseudo-random number generation.

The generators here are specified by algorithm (splitmix64 seeding a
xoshiro256** stream) rather than delegating to the platform RNG, so that
fixtures such as seeded random graphs can be replicated exactly by any
implementation that follows the same recipe.

Single values (``random``, ``uniform``, ``randrange``) come from the scalar
recurrence.  A long run of per-pair draws (``below``) is produced in numpy
lanes of the same stream instead, all stepping together.  The state update is
linear over GF(2), so advancing a state 2^e steps is a fixed 256 x 256 bit
matrix: rung e of a jump ladder, built once per process by squaring rung
e - 1 and shared by every count.  With lanes of 2^j draws, the lane starts
double at each pass, each start jumping ahead by the rung for the distance
already covered.  The values and the generator's position afterwards are
identical to drawing them one by one.
"""

from __future__ import annotations

import math
import operator

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
    t = s[1] << np.uint64(17)
    s[2:] ^= s[:2]  # s2 ^= s0, s3 ^= s1
    s[1::-1] ^= s[2:]  # s1 ^= s2, s0 ^= s3
    s[2] ^= t
    np.left_shift(s[3], np.uint64(45), out=t)
    s[3] >>= np.uint64(19)
    s[3] |= t


# A rung of the jump ladder holds the images of the 256 basis states as a
# (4, 64, 4) array [k, pos, word]: bit b = 4*pos + k of a state is bit k of
# nibble pos, and nibble pos = 16*word + q is bits 4q..4q+3 of that word.
_NIBBLE_SHIFTS = np.arange(0, 64, 4, dtype=np.uint64)[:, None]
_NIBBLE_POS = np.arange(64, dtype=np.uint64).reshape(4, 16, 1)
# States per gather, bounding its (64, chunk, 4) temporary to 128 KB: with 256
# (512 KB), the verify children's peak RSS rose by 0.3-0.4 MB.
_JUMP_CHUNK = 64
_LADDER: dict[int, np.ndarray] = {}  # rung e: the 2^e-step jump, read-only


def _jump(rung: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The images under a rung's jump of the columns of a (4, m) state array.

    Row 64*v + pos of the rung's nibble table is the image of nibble value v at
    position pos, and a state's image is the XOR of the 64 rows it selects.
    The 32 KB table is rebuilt per call: cached, the tables would take four
    times the ladder's memory, about 0.6 MB of resident memory at 499500 draws.
    """
    table = np.zeros((16, 64, 4), dtype=np.uint64)
    for k in range(4):
        np.bitwise_xor(table[: 1 << k], rung[k], out=table[1 << k : 2 << k])
    table = table.reshape(1024, 4)
    out = np.empty_like(s)
    for a in range(0, s.shape[1], _JUMP_CHUNK):
        rows = (s[:, None, a : a + _JUMP_CHUNK] >> _NIBBLE_SHIFTS) & np.uint64(15)
        rows <<= np.uint64(6)
        rows |= _NIBBLE_POS
        selected = table.take(rows.reshape(64, -1).view(np.int64), axis=0)
        out[:, a : a + _JUMP_CHUNK] = np.bitwise_xor.reduce(selected, axis=0).T
    return out


def _rung(e: int) -> np.ndarray:
    """Rung e of the jump ladder, the 2^e-step jump: rung 0 is one step, and
    rung e is rung e - 1 applied to its own basis images.  Each rung is built
    once per process and shared by every count; a rung depends on e alone, so
    concurrent builds of one rung agree and ``setdefault`` keeps the first."""
    rung = _LADDER.get(e)
    if rung is None:
        if e:  # rung e - 1's basis images as states, in column 64*k + pos
            below = _rung(e - 1)
            states = _jump(below, below.transpose(2, 0, 1).reshape(4, 256))
        else:
            k, pos = np.divmod(np.arange(256), 64)
            states = np.zeros((4, 256), dtype=np.uint64)
            states[pos // 16, np.arange(256)] = np.uint64(1) << (4 * (pos % 16) + k).astype(np.uint64)
            _step_lanes(states)
        rung = np.ascontiguousarray(states.reshape(4, 4, 64).transpose(1, 2, 0))
        rung.setflags(write=False)
        rung = _LADDER.setdefault(e, rung)
    return rung


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
        leaves the generator where those draws would, for any count, p and
        start.  The draws are made in lanes of L = 2^j consecutive draws that
        step together, L about sqrt(count) / 4 and set by ``count`` alone.
        Lane 0 starts at the current state.  Once lanes 0..m-1 have their
        starts, lanes m..2m-1 start at those advanced m*L steps, one jump by
        ladder rung j + log2(m), so the starts take ceil(log2(count / L))
        passes.  ``random()`` is k * 2^-53 for k the top 53 bits of an output
        x, so for 0 < p < 1 it is below p exactly when x < ceil(p * 2^53) *
        2^11: the draws are compared as integers.  Only the boolean mask is
        kept, never ``count`` draws.
        """
        if count <= 0:
            return np.zeros(0, dtype=bool)
        j = max(0, operator.index(count).bit_length() // 2 - 2)
        length = 1 << j
        lanes = -(-count // length)
        last = count - (lanes - 1) * length  # draws in the last lane, 1..length
        s = np.empty((4, lanes), dtype=np.uint64)
        s[:, 0] = self._s
        m = 1
        while m < lanes:
            k = min(m, lanes - m)
            s[:, m : m + k] = _jump(_rung(j + m.bit_length() - 1), s[:, :k])
            m *= 2
        if p >= 1:  # every draw: the bound 2^64 does not fit a uint64
            compare, bound = np.less_equal, _MASK64
        else:  # no draw for p <= 0 or nan
            compare, bound = np.less, math.ceil(p * 2.0**53) << 11 if p > 0 else 0
        bound = np.uint64(bound)
        x, t = np.empty(lanes, dtype=np.uint64), np.empty(lanes, dtype=np.uint64)
        mask = np.empty((length, lanes), dtype=bool)  # row i: draw i of every lane
        for i in range(length):
            np.multiply(s[1], np.uint64(5), out=x)  # the output rotl(s1 * 5, 7) * 9
            np.left_shift(x, np.uint64(7), out=t)
            x >>= np.uint64(57)
            x |= t
            x *= np.uint64(9)
            compare(x, bound, out=mask[i])
            _step_lanes(s)
            if i + 1 == last:
                self._s = s[:, -1].tolist()
        return mask.T.reshape(-1)[:count]


def derive_seed(seed: int, index: int) -> int:
    """Derive an independent 64-bit stream seed from (seed, index).

    Used to give each trial or sub-component its own reproducible stream.
    """
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK64)
