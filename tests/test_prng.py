import numpy as np
import pytest

from divhdg.prng import XorShift

_MASK = (1 << 64) - 1


def _scalar_uniform(rng, n, low=-1.0, high=1.0):
    """The scalar xorshift64* loop, kept verbatim as reference; it advances
    ``rng._state`` one step per output as the vectorized draw must."""
    out = np.empty(n)
    scale = high - low
    for i in range(n):
        s = rng._state
        s ^= s >> 12
        s ^= (s << 25) & _MASK
        s ^= s >> 27
        rng._state = s
        u = (((s * 2685821657736338717) & _MASK) >> 11) * (2.0**-53)
        out[i] = low + scale * u
    return out


class TestXorShift:
    @pytest.mark.parametrize("seed", [0, 7, 0x9E3779B97F4A7C15])
    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 5000, 69000])
    def test_bit_identical_to_scalar_loop(self, seed, n):
        ref, vec = XorShift(seed), XorShift(seed)
        want = _scalar_uniform(ref, n)
        got = vec.uniform(n)
        assert got.shape == (n,) and got.dtype == np.float64
        assert np.array_equal(got, want)
        assert vec._state == ref._state

    def test_consecutive_draws_continue_the_stream(self):
        ref, vec = XorShift(11), XorShift(11)
        for n, low, high in ((300, -1.0, 1.0), (0, -1.0, 1.0), (17, 0.0, 2.5), (1000, -3.0, 0.5)):
            assert np.array_equal(vec.uniform(n, low, high), _scalar_uniform(ref, n, low, high))
            assert vec._state == ref._state

    def test_zero_mixed_seed_is_remapped(self):
        assert XorShift(0x9E3779B97F4A7C15)._state != 0
        assert np.all(np.abs(XorShift(0x9E3779B97F4A7C15).uniform(1000)) < 1.0)
