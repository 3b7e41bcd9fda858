"""Counter-based random source for the cohort generator.

The generator is SplitMix64 used in counter mode: the value at counter
position ``c`` under seed ``s`` is ``mix64((s + (c + 1) * GOLDEN_GAMMA) mod 2^64)``
with the standard SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

All arithmetic is modulo 2^64. Because each output depends only on
(seed, counter), draws are reproducible regardless of how they are chunked,
and a port in any language that follows the recipe below reproduces the
byte stream exactly.

Derived draws are fixed constructions on top of the raw 64-bit stream:

* uniform in [0, 1): take the top 53 bits, ``(u >> 11) * 2^-53``
* exponential(rate): ``-log(1 - uniform) / rate``
* standard normal: Box-Muller, consuming two counter slots per value:
  ``sqrt(-2 log(1 - u1)) * cos(2 pi u2)``
* integer in [0, k): ``floor(uniform * k)``

Child seeds are derived with :func:`derive_seed` so that independent
substreams (one per tree, per model, ...) never overlap. `uniform_at`
reads any (seed, position) pairs at once; `CounterRng` reads in sequence.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53
_BLOCK = 1024  # slots per CounterRng block


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def counter_u64(seed, position) -> np.ndarray:
    """Raw 64-bit outputs at counter `position` under `seed`, broadcast."""
    c = np.array(position, dtype=np.uint64, ndmin=1)  # arrays wrap silently; scalars warn
    z = np.asarray(seed, dtype=np.uint64) + (c + np.uint64(1)) * np.uint64(GOLDEN_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def uniform_at(seed, position) -> np.ndarray:
    """Uniforms in [0, 1) at counter `position` under `seed`, broadcast."""
    return (counter_u64(seed, position) >> np.uint64(11)).astype(np.float64) * _INV_2_53


def derive_seed(seed: int, index: int) -> int:
    """Deterministic child seed for substream `index`."""
    return mix64((seed + (index + 1) * GOLDEN_GAMMA) & _MASK64)


class CounterRng:
    """Sequential view over the counter stream for one seed.

    Every draw advances an internal counter by the number of slots it
    consumes, so a fixed draw order yields a fixed stream. Uniforms are
    computed a block of slots at a time and served from the block; a
    slot's value depends only on its position, so the bits do not
    depend on the block size.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.counter = 0
        self._block = np.empty(0)
        self._block_start = 0

    def uniform(self, count: int) -> np.ndarray:
        """Uniforms in [0, 1) with 53-bit resolution."""
        lo = self.counter - self._block_start
        if lo + count > self._block.size:
            end = self.counter + max(count, _BLOCK)
            self._block = uniform_at(self.seed, np.arange(self.counter, end))
            self._block_start, lo = self.counter, 0
        self.counter += count
        return self._block[lo:lo + count].copy()

    def exponential(self, rate, count: int | None = None) -> np.ndarray:
        """Exponential draws; `rate` may be a scalar or a per-draw vector."""
        rate = np.asarray(rate, dtype=np.float64)
        n = rate.size if count is None else count
        u = self.uniform(n)
        return -np.log1p(-u) / rate

    def normal(self, count: int) -> np.ndarray:
        """Standard normals via Box-Muller; consumes 2*count slots."""
        u1 = self.uniform(count)
        u2 = self.uniform(count)
        return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * math.pi * u2)

    def integers(self, k: int, count: int) -> np.ndarray:
        """Integers uniform on {0, ..., k-1} via floor(uniform * k)."""
        return np.minimum((self.uniform(count) * k).astype(np.int64), k - 1)
