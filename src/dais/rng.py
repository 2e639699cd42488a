"""Counter-based, splittable random streams.

Every stochastic component of the package draws from numpy Philox bit
generators.  Philox is counter-based, so a stream is fully identified
either by a SeedSequence spawn key (used for the three child streams of a
multi-chain call and for per-sweep-cell substreams) or by a raw 64-bit key
(used by the reversible chain, whose per-step noise must be regenerable
from a seed value alone).
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1


def generator(seed) -> np.random.Generator:
    """Philox generator seeded from an int, entropy tuple, or SeedSequence."""
    return np.random.Generator(np.random.Philox(seed))


def keyed_generator(key: int) -> np.random.Generator:
    """Philox stream addressed directly by a 64-bit key.

    Same key, same stream: the draw sequence is a pure function of ``key``.
    """
    return np.random.Generator(np.random.Philox(key=key & MASK64))


def substreams(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``n`` independent generators.

    Repeated calls on the same generator yield fresh, non-overlapping
    streams (its spawn state advances).
    """
    return list(rng.spawn(n))
