import warnings

import numpy as np
import pytest

from normsum import SplitMix64, derive_seed
from normsum.rng import fnv1a64


def test_published_stream_seed_zero():
    rng = SplitMix64(0)
    assert rng.next64() == 0xE220A8397B1DCDAF
    assert rng.next64() == 0x6E789E6AA1B965F4
    assert rng.next64() == 0x06C45D188009454F


def test_published_stream_seed_1234567():
    rng = SplitMix64(1234567)
    assert rng.next64() == 6457827717110365317
    assert rng.next64() == 3203168211198807973
    assert rng.next64() == 9817491932198370423


def test_determinism_and_independence():
    a, b = SplitMix64(99), SplitMix64(99)
    first = [a.next64() for _ in range(10)]
    assert first == [b.next64() for _ in range(10)]
    c = SplitMix64(100)
    assert first != [c.next64() for _ in range(10)]


def test_seed_validation():
    with pytest.raises(ValueError):
        SplitMix64(-1)
    with pytest.raises(ValueError):
        SplitMix64(1 << 64)
    SplitMix64((1 << 64) - 1)  # max value is fine


def test_next_double_range():
    rng = SplitMix64(5)
    vals = [rng.next_double() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert min(vals) < 0.05 and max(vals) > 0.95


def test_next_below_range_and_coverage():
    rng = SplitMix64(7)
    seen = set()
    for _ in range(500):
        v = rng.next_below(6)
        assert 0 <= v < 6
        seen.add(v)
    assert seen == set(range(6))
    assert rng.next_below(1) == 0
    with pytest.raises(ValueError):
        rng.next_below(0)


def test_next_bits():
    rng = SplitMix64(11)
    assert rng.next_bits(0) == 0
    for width in (1, 7, 64, 65, 130):
        v = rng.next_bits(width)
        assert 0 <= v < (1 << width)
    # wide draws should actually use the high bits
    assert any(rng.next_bits(130) >> 100 for _ in range(20))
    with pytest.raises(ValueError, match="^nbits must be nonnegative, got -1$"):
        rng.next_bits(-1)


# seeds whose state wraps past 2^64 at the first or second draw; the middle
# one reaches state 0 exactly, the last one state 2^64 - 1 at the first draw
WRAP_SEEDS = [(1 << 64) - 1, (1 << 64) - 0x9E3779B97F4A7C15, (1 << 64) - 0x9E3779B97F4A7C15 - 1]


@pytest.mark.parametrize("seed", [0, 1234567, *WRAP_SEEDS])
def test_next_doubles_reproduce_the_scalar_stream(seed):
    scalar, array = SplitMix64(seed), SplitMix64(seed)
    expected = [scalar.next_double() for _ in range(257)]
    got = array.next_doubles(257)
    assert got.dtype == np.float64 and got.shape == (257,)
    assert got.tolist() == expected
    assert array.state == scalar.state


@pytest.mark.parametrize("seed", [0, 1234567, *WRAP_SEEDS])
@pytest.mark.parametrize("nbits", [1, 63, 64, 65, 128, 130, 2016])
def test_next_bits_reproduces_the_scalar_stream(seed, nbits):
    scalar, array = SplitMix64(seed), SplitMix64(seed)
    words = [scalar.next64() for _ in range(-(-nbits // 64))]
    expected = sum(w << (64 * i) for i, w in enumerate(words)) & ((1 << nbits) - 1)
    assert array.next_bits(nbits) == expected
    assert array.state == scalar.state


def test_zero_count_draws_nothing():
    rng = SplitMix64(42)
    assert rng.next_doubles(0).shape == (0,)
    assert rng.next_bits(0) == 0
    assert rng.state == 42
    with pytest.raises(ValueError):
        rng.next_doubles(-1)


@pytest.mark.parametrize("seed", [5, *WRAP_SEEDS])
def test_array_and_scalar_draws_interleave(seed):
    mixed, scalar = SplitMix64(seed), SplitMix64(seed)
    assert mixed.next64() == scalar.next64()
    assert mixed.next_doubles(3).tolist() == [scalar.next_double() for _ in range(3)]
    assert mixed.state == scalar.state
    assert mixed.next_double() == scalar.next_double()
    assert mixed.next_bits(100) == scalar.next64() | (scalar.next64() & ((1 << 36) - 1)) << 64
    assert mixed.state == scalar.state
    assert mixed.next_below(1000) == scalar.next_below(1000)


def test_array_draws_raise_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, *WRAP_SEEDS):
            rng = SplitMix64(seed)
            rng.next_doubles(1)
            rng.next_doubles(4096)
            rng.next_bits(64 * 300 + 5)


def test_fnv1a64_and_derive_seed():
    # classic 64-bit FNV-1a test vectors
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert derive_seed(3, "graph") == derive_seed(3, "graph")
    assert derive_seed(3, "graph") != derive_seed(3, "sym_matrix")
    assert derive_seed(3, "graph") != derive_seed(4, "graph")
    assert 0 <= derive_seed(123456, "rect_matrix") < (1 << 64)


def test_derive_seed_gates_its_seed():
    # the seed passes the one seed gate instead of being masked to 64 bits
    for seed in (1 << 64, (1 << 64) + 5, -1, True, 5.0, "5"):
        with pytest.raises(ValueError):
            derive_seed(seed, "graph")
    assert derive_seed(np.uint64(5), "graph") == derive_seed(5, "graph")
    assert 0 <= derive_seed((1 << 64) - 1, "graph") < (1 << 64)
