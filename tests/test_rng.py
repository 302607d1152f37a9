"""The seeded generator: its draws against the original multi-word loops."""

import pytest

from looplab.algebra import GradingSpec
from looplab.ez import run_trials
from looplab.rng import SplitMix

SEEDS = (0, 1, 7, 42, 2**64 - 1)
BOUNDS = (1, 2, 3, 4, 13, 2**63 + 1, 2**64)
WIDTHS = (0, 1, 2, 63, 64, 65, 130)


# The loops the one-draw paths replaced, kept as references.


def reference_below(g, bound):
    limit = (1 << 64) - ((1 << 64) % bound)
    while True:
        v = g.next64()
        if v < limit:
            return v % bound


def reference_bits(g, k):
    out = 0
    got = 0
    while got < k:
        take = min(64, k - got)
        out |= (g.next64() & ((1 << take) - 1)) << got
        got += take
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_below_matches_the_reference_stream(seed):
    got, ref = SplitMix(seed), SplitMix(seed)
    for _ in range(20):
        for bound in BOUNDS:
            value = got.below(bound)
            assert value == reference_below(ref, bound), (seed, bound)
            assert 0 <= value < bound
            assert got.state == ref.state


@pytest.mark.parametrize("seed", SEEDS)
def test_bits_matches_the_reference_stream_interleaved(seed):
    got, ref = SplitMix(seed), SplitMix(seed)
    for _ in range(20):
        for k in WIDTHS:
            value = got.bits(k)
            assert value == reference_bits(ref, k), (seed, k)
            assert value < 1 << k
            # Equal states also show that bits(0) draws nothing.
            assert got.state == ref.state
            # Interleave a bounded draw, so a bits path that ran ahead or
            # fell behind by one draw would shift every later value.
            assert got.below(13) == reference_below(ref, 13)


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_is_seeded_with_that_output_of_the_parent_stream(seed):
    parent = SplitMix(seed)
    for t in (0, 1, 2, 999):
        ref = SplitMix(seed)
        for _ in range(t + 1):
            output = ref.next64()
        child = parent.stream(t)
        assert child.state == output and child.next64() == SplitMix(output).next64()
        assert parent.state == SplitMix(seed).state
    # After a draw, output t counts from the generator's own state.
    ref = SplitMix(seed)
    outputs = [ref.next64() for _ in range(3)]
    parent.next64()
    assert parent.stream(1).state == outputs[2]
    with pytest.raises(ValueError):
        parent.stream(-1)


def test_below_refuses_bounds_without_an_accepted_draw():
    g = SplitMix(0)
    for bound in (0, -1, 2**64 + 1, 2**65):
        with pytest.raises(ValueError):
            g.below(bound)
    assert g.state == SplitMix(0).state


def test_bits_refuses_a_negative_width():
    g = SplitMix(0)
    for k in (-1, -3, -65, -(2**64)):
        with pytest.raises(ValueError):
            g.bits(k)
    assert g.state == SplitMix(0).state


def test_trials_with_a_bound_past_the_generator_raise():
    # At n = 2^64 the sampler asks for a degree below 2^66 + 5; that draw
    # used to reject every value and never return.
    with pytest.raises(ValueError):
        run_trials(GradingSpec(2**64, 2), max_level=1, trials=1, seed=0)
