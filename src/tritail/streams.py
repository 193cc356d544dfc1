"""Deterministic splittable random streams.

All randomness in the package flows through explicit ``numpy.random.Generator``
arguments.  This module supplies the one blessed way to derive independent
substreams from a single 64-bit base seed: an SFC64 generator seeded through a
``SeedSequence`` keyed by ``(base_seed, crc32(purpose), index)``.  The mapping is
a pure function, so any number of workers can claim their streams without
coordination and results are bit-identical regardless of scheduling.  SFC64
is used for speed: its normals, which dominate the coefficient draws, cost a
fifth to a third less than Philox's.
"""

from zlib import crc32

import numpy as np

__all__ = ["substream"]


def substream(base_seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Return the dedicated generator for (base_seed, purpose, index).

    Parameters
    ----------
    base_seed : int
        The experiment-level seed (64-bit, nonnegative).
    purpose : str
        A short tag naming what the stream is for ("simulate", "constants", ...).
        Hashed with crc32 so unrelated purposes cannot collide by accident.
    index : int
        Chunk or chain index within the purpose.
    """
    if base_seed < 0:
        raise ValueError("base_seed must be nonnegative")
    if index < 0:
        raise ValueError("index must be nonnegative")
    key = np.random.SeedSequence((base_seed, crc32(purpose.encode("utf-8")), index))
    return np.random.Generator(np.random.SFC64(key))
