"""Substream keying: one generator per (base_seed, purpose, index)."""

from zlib import crc32

import numpy as np
import pytest

from tritail.streams import substream


def draws(gen, n=64):
    return gen.standard_normal(n)


def test_same_key_gives_identical_draws():
    np.testing.assert_array_equal(draws(substream(7, "simulate", 3)),
                                  draws(substream(7, "simulate", 3)))
    np.testing.assert_array_equal(draws(substream(7, "simulate")),
                                  draws(substream(7, "simulate", 0)))


@pytest.mark.parametrize(
    "key",
    [(8, "simulate", 3), (7, "constants", 3), (7, "simulate", 4)],
    ids=["seed", "purpose", "index"],
)
def test_any_other_key_gives_another_stream(key):
    base = draws(substream(7, "simulate", 3))
    assert not np.any(draws(substream(*key)) == base)


def test_negative_seed_or_index_raises():
    with pytest.raises(ValueError, match="base_seed"):
        substream(-1, "simulate")
    with pytest.raises(ValueError, match="index"):
        substream(7, "simulate", -1)


def test_keying_pins_sfc64_on_a_seed_sequence():
    for seed, purpose, index in ((7, "simulate", 0), (2**64 - 1, "lyapunov", 12)):
        key = np.random.SeedSequence((seed, crc32(purpose.encode("utf-8")), index))
        by_hand = np.random.Generator(np.random.SFC64(key))
        gen = substream(seed, purpose, index)
        assert isinstance(gen.bit_generator, np.random.SFC64)
        np.testing.assert_array_equal(draws(gen), draws(by_hand))
