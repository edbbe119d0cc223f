"""Small deterministic PRNG for reproducible solver starting vectors.

xorshift64* with the usual multiplier. Self-contained so iteration counts are
bit-reproducible across numpy versions; numpy's own generators make no such
promise across releases.

The state update s -> s ^ (s >> 12), s ^ (s << 25), s ^ (s >> 27) is linear
over GF(2), so m steps are one 64x64 bit matrix. ``uniform`` uses that to
split a draw of n outputs into lanes: lane j starts m * j steps ahead of the
stream (m = outputs per lane), and all lanes then step together as uint64
arrays. The outputs and the state left behind are the scalar stream's, bit
for bit.
"""

import numpy as np

_MULT = np.uint64(2685821657736338717)
_SEED_XOR = 0x9E3779B97F4A7C15
_LANES = 256
_BITS = np.arange(64, dtype=np.uint64)


def _step(s: np.ndarray) -> np.ndarray:
    """One xorshift64 state update of every entry of a uint64 array."""
    s = s ^ (s >> np.uint64(12))
    s = s ^ (s << np.uint64(25))
    return s ^ (s >> np.uint64(27))


def _apply(cols: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The GF(2) matrix with columns ``cols`` (64,) applied to each state."""
    bits = (s[:, None] >> _BITS) & np.uint64(1)
    return np.bitwise_xor.reduce(cols * bits, axis=1)


def _jump(m: int) -> np.ndarray:
    """Columns of the GF(2) matrix of m state updates, by repeated squaring."""
    out = np.uint64(1) << _BITS
    power = _step(out)
    while m:
        if m & 1:
            out = _apply(power, out)
        power = _apply(power, power)
        m >>= 1
    return out


class XorShift:
    """xorshift64* stream; seed 0 is remapped so the state is never zero."""

    def __init__(self, seed: int):
        state = (int(seed) ^ _SEED_XOR) & ((1 << 64) - 1)
        if state == 0:
            state = _SEED_XOR
        self._state = state

    def uniform(self, n: int, low: float = -1.0, high: float = 1.0) -> np.ndarray:
        """n floats in [low, high), from the top 53 bits of each output."""
        per_lane = -(-n // _LANES)
        # lane start states: the stream state advanced 0, m, 2m, ... steps
        starts = np.array([self._state], np.uint64)
        jump = _jump(per_lane)
        while starts.size < _LANES:
            starts = np.concatenate([starts, _apply(jump, starts)])
            jump = _apply(jump, jump)
        s = starts[:_LANES]
        states = np.empty((per_lane, _LANES), np.uint64)
        for i in range(per_lane):
            s = _step(s)
            states[i] = s
        states = states.T.ravel()[:n]
        if n:
            self._state = int(states[-1])
        u = ((states * _MULT) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return low + (high - low) * u
