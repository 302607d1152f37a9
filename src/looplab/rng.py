"""Deterministic 64-bit generator for replayable randomized suites.

The mixer is the splitmix64 finalizer: a fixed odd increment plus three
xor-shift multiplies, all mod 2^64.  A seed fixes the entire stream on
every platform, which is the point: a failing randomized check must be
reproducible from the command line arguments alone, so the process-wide
generator from the standard library is deliberately not used here.

Output k of a stream is the mixer applied to seed + (k + 1) * gamma, a
pure function of the counter, so a stream splits into independent
generators in O(1) (Steele, Lea and Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014): ``stream(t)`` seeds a
new generator with output t, and the seeded trials give each trial its
own.
"""

from __future__ import annotations

__all__ = ["SplitMix"]

_SPAN = 1 << 64
_MASK = _SPAN - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix:
    """Streamed splitmix64, splittable into one stream per task.

    >>> g = SplitMix(0)
    >>> hex(g.next64())
    '0xe220a8397b1dcdaf'
    >>> hex(SplitMix(0).stream(0).state)
    '0xe220a8397b1dcdaf'
    """

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def stream(self, t: int) -> SplitMix:
        """A new generator seeded with output t (from 0) of this stream.

        Computed from the counter in O(1), without advancing self.  A
        negative t names no output and is refused.
        """
        if t < 0:
            raise ValueError("stream index must be at least 0")
        # A generator t steps ahead of this one draws output t next.
        return SplitMix(SplitMix(self.state + t * _GAMMA).next64())

    def below(self, bound: int) -> int:
        """Uniform draw from [0, bound), exact via rejection, for 1 <= bound <= 2^64.

        A larger bound would leave no accepted draw, so it is refused.
        """
        if not 0 < bound <= _SPAN:
            raise ValueError("bound must lie in 1 .. 2^64")
        limit = _SPAN - _SPAN % bound
        while True:
            v = self.next64()
            if v < limit:
                return v % bound

    def bits(self, k: int) -> int:
        """k uniform random bits as an int, any k from 0 up.

        Up to 64 bits come from one draw, masked; more take the low bits
        of each draw in turn, the first draw lowest.  bits(0) draws nothing,
        and a negative k is refused without a draw.
        """
        if 0 < k <= 64:
            return self.next64() & ((1 << k) - 1)
        if k < 0:
            raise ValueError("width must be at least 0")
        out = 0
        got = 0
        while got < k:
            take = min(64, k - got)
            out |= (self.next64() & ((1 << take) - 1)) << got
            got += take
        return out
