"""Seeded pseudo-random streams shared by every stochastic component.

Dataset generation, weight initialisation and mini-batch shuffling all
draw from the generator below instead of ``random`` or ``numpy.random``,
so any dataset or training run is reproducible bit-for-bit from a single
integer seed, independently of platform and library versions.  The
stream is xoshiro256** seeded through splitmix64.  Work that could be
parallelised (one moving-crop sequence, one training run) gets its own
child stream via :func:`derive_seed`, so results do not depend on the
order in which items are produced.

Bulk draws (:meth:`Rng.uniform_matrix`, :meth:`Rng.shuffle`,
:meth:`Rng.permutations`) produce exactly the numbers of the one-at-a-
time stream, but many at once in numpy.  The xoshiro state update is
linear over GF(2), so b steps of it are a 256x256 bit matrix J = T^b
(Haramoto et al., INFORMS J. Computing 2008).  A block draw steps the
current state together with the 256 unit states for b steps; the unit
lanes end as the columns of J.  Repeated products with J then give the
states b, 2b, 3b, ... steps ahead, and stepping all of those lanes b
times at once yields the block.  The products are float32 matmuls
reduced mod 2, exact because no sum exceeds 256.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 increment

# Below this many draws the scalar generator is the faster one (both give
# the same numbers); measured on a 2-core x86_64 box, the two cross over
# between 2k and 3k draws.
_BLOCK_MIN = 3072
# Lane length cap and draws per chunk: they bound a block's transient
# memory at ~2 x 8 MB whatever the number of draws.
_MAX_STEPS = 1024
_CHUNK_DRAWS = 1 << 20


def _mix64(x: int) -> int:
    """splitmix64 finaliser; avalanches a 64-bit word."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Child seed for stream ``index``, independent of other indices."""
    if index < 0:
        raise ValueError("stream index must be nonnegative")
    return _mix64((seed + (index + 1) * _GAMMA) & _MASK)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class Rng:
    """xoshiro256** stream exposing the few draw kinds the package needs."""

    def __init__(self, seed: int):
        state = seed & _MASK
        s = []
        for _ in range(4):
            state = (state + _GAMMA) & _MASK
            s.append(_mix64(state))
        if not any(s):  # all-zero state is the one invalid xoshiro state
            s[0] = _GAMMA
        self._s = s

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        out = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return out

    def uniform(self) -> float:
        """Uniform float64 in [0, 1) built from the top 53 bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n); modulo bias is below n / 2**64."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        n = len(items)
        _swap_down(items, self._next_block(max(n - 1, 0))
                   % np.arange(n, 1, -1, dtype=np.uint64))

    def permutations(self, n: int, count: int):
        """Yield ``count`` permutations of ``range(n)`` as index arrays.

        They equal ``count`` successive :meth:`shuffle` calls on
        ``list(range(n))``, with the draws made in blocks of up to
        ~1M.  The draws happen as the generator is consumed, so the
        stream must not serve other draws until it is exhausted.
        """
        if n < 0 or count < 0:
            raise ValueError("permutations needs n >= 0 and count >= 0")
        width = max(n - 1, 0)  # draws per permutation
        per_block = max(1, _CHUNK_DRAWS // max(width, 1))
        moduli = np.arange(n, 1, -1, dtype=np.uint64)
        for first in range(0, count, per_block):
            rows = min(per_block, count - first)
            draws = self._next_block(rows * width).reshape(rows, width)
            for js in draws % moduli:
                order = list(range(n))
                _swap_down(order, js)
                yield np.array(order)

    def uniform_matrix(self, rows: int, cols: int, lo: float, hi: float) -> np.ndarray:
        """(rows, cols) array of uniform draws in [lo, hi), filled row-major."""
        flat = (self._next_block(rows * cols) >> 11) * (2.0 ** -53)
        return lo + (hi - lo) * flat.reshape(rows, cols)

    def _next_block(self, k: int) -> np.ndarray:
        """The next ``k`` :meth:`next_u64` outputs as a uint64 array.

        Bit-for-bit the values, and the final state, of ``k`` scalar
        calls; see the module docstring for the method.
        """
        if k < _BLOCK_MIN:
            return np.array([self.next_u64() for _ in range(k)], dtype=np.uint64)
        b = min(math.isqrt(k), _MAX_STEPS)
        out = np.empty(k, dtype=np.uint64)
        lanes = np.concatenate([np.array(self._s, dtype=np.uint64)[:, None],
                                _unit_lanes()], axis=1)
        out[:b] = _scramble(_advance(lanes, b)[:, 0])
        jump = _to_bits(lanes[:, 1:]).T  # column i: T^b of unit state i
        v = _to_bits(lanes[:, :1])[0]     # the state b steps on
        done = b
        while k - done >= b:
            count = min(_CHUNK_DRAWS // b, (k - done) // b)
            starts = np.empty((count, 256), dtype=np.float32)
            for j in range(count):
                starts[j] = v
                v = (jump @ v) % 2
            seen = _advance(_from_bits(starts), b)
            out[done:done + count * b].reshape(count, b)[...] = _scramble(seen).T
            done += count * b
        self._s = [int(w) for w in _from_bits(v[None])[:, 0]]
        out[done:] = self._next_block(k - done)  # < b draws: scalar steps
        return out


def _swap_down(items: list, js: np.ndarray) -> None:
    """Fisher-Yates swaps of ``items[i]`` with ``items[js[n-1-i]]``, i = n-1..1."""
    for i, j in zip(range(len(items) - 1, 0, -1), js.tolist()):
        items[i], items[j] = items[j], items[i]


def _unit_lanes() -> np.ndarray:
    """The 256 unit states as the columns of a (4, 256) uint64 array."""
    lanes = np.zeros((4, 256), dtype=np.uint64)
    bit = np.arange(256)
    lanes[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
    return lanes


def _to_bits(lanes: np.ndarray) -> np.ndarray:
    """(4, L) states -> (L, 256) float32 0/1; bit 64w+i is bit i of word w."""
    words = np.ascontiguousarray(lanes.T, dtype="<u8")
    return np.unpackbits(words.view(np.uint8), axis=1,
                         bitorder="little").astype(np.float32)


def _from_bits(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_to_bits`: (L, 256) 0/1 -> (4, L) uint64 states."""
    packed = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    return np.ascontiguousarray(packed.view("<u8").T, dtype=np.uint64)


def _advance(lanes: np.ndarray, steps: int) -> np.ndarray:
    """Step every column of a (4, L) state array ``steps`` times in place.

    Returns the (steps, L) word ``s1`` of each state before its step,
    which :func:`_scramble` turns into the outputs.
    """
    s0, s1, s2, s3 = lanes
    seen = np.empty((steps, lanes.shape[1]), dtype=np.uint64)
    t = np.empty_like(s1)
    for k in range(steps):
        seen[k] = s1
        np.left_shift(s1, 17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, 45, out=t)
        s3 >>= 19
        s3 |= t
    return seen


def _scramble(x: np.ndarray) -> np.ndarray:
    """The ** output function ``rotl(x * 5, 7) * 9``, in place on uint64."""
    x *= 5
    t = x >> 57
    x <<= 7
    x |= t
    x *= 9
    return x
