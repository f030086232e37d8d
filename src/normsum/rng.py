"""Deterministic 64-bit generator used by every seeded code path.

The platform RNG is never used: identical seeds must reproduce identical
runs across machines and languages, so the generator is pinned down to its
constants. It is the usual shift-multiply mixer over a Weyl sequence:

    state += 0x9E3779B97F4A7C15                 (per draw)
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

all in 64-bit wrapping arithmetic. Seed 0 produces 0xE220A8397B1DCDAF as its
first output, which the test suite checks. Doubles take the top 53 bits of
an output; bounded integers use the multiply-shift reduction
(output * bound) >> 64.

Step k of the stream (k = 1, 2, ...) sees the state seed + k * gamma, so a
run of draws needs no loop: `next_doubles` and `next_bits` compute the whole
run as numpy uint64 arrays with the same wrapping arithmetic and mixer, and
reproduce the scalar stream bit for bit. Array and scalar draws interleave
freely; either advances the state by gamma per output.

Named substreams are derived by folding an FNV-1a hash of a text tag into
the seed, so independent sweep kinds never share a stream by accident.
"""

from __future__ import annotations

import numpy as np

from .errors import as_int

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def as_seed(value, error: type[ValueError] = ValueError) -> int:
    """The one seed gate: `as_int`, then `error` unless 0 <= value < 2^64."""
    seed = as_int(value, "seed", error)
    if not 0 <= seed <= MASK64:
        raise error(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return seed


class SplitMix64:
    """The generator above; state is a single 64-bit word."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = as_seed(seed)

    def next64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def next_double(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next64() >> 11) * 2.0**-53

    def _next_words(self, count: int) -> np.ndarray:
        """The next count outputs of next64 as a uint64 array, in draw order."""
        steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z = steps + np.uint64(self.state)
        self.state = (self.state + count * _GAMMA) & MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def next_doubles(self, count: int) -> np.ndarray:
        """The next count values of next_double as a float64 array."""
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        return (self._next_words(count) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by multiply-shift reduction."""
        if bound < 1:
            raise ValueError(f"bound must be positive, got {bound}")
        return (self.next64() * bound) >> 64

    def next_bits(self, nbits: int) -> int:
        """Integer with nbits random bits, filled 64 at a time from bit 0 up."""
        if nbits < 0:
            raise ValueError(f"nbits must be nonnegative, got {nbits}")
        words = self._next_words(-(-nbits // 64))
        return int.from_bytes(words.astype("<u8").tobytes(), "little") & ((1 << nbits) - 1)


def fnv1a64(text: str) -> int:
    """FNV-1a hash of the UTF-8 bytes of text."""
    h = _FNV_OFFSET
    for b in text.encode("utf-8"):
        h ^= b
        h = (h * _FNV_PRIME) & MASK64
    return h


def derive_seed(seed: int, tag: str) -> int:
    """Seed for the named substream: one generator step of seed XOR hash(tag).
    seed passes `as_seed`, so an out-of-range seed raises rather than wraps."""
    return SplitMix64(as_seed(seed) ^ fnv1a64(tag)).next64()
