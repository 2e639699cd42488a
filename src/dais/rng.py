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


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Coerce an int, entropy tuple, or SeedSequence into a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def generator(seed) -> np.random.Generator:
    """Philox generator seeded from an int, entropy tuple, or SeedSequence."""
    return np.random.Generator(np.random.Philox(as_seed_sequence(seed)))


def keyed_generator(key: int) -> np.random.Generator:
    """Philox stream addressed directly by a 64-bit key.

    Same key, same stream: the draw sequence is a pure function of ``key``.
    """
    return np.random.Generator(np.random.Philox(key=key & MASK64))


def substreams(source, n: int) -> list[np.random.Generator]:
    """Split ``source`` into ``n`` independent generators.

    ``source`` may be an int, an entropy tuple, a SeedSequence, or a
    Generator.  Repeated calls on the same SeedSequence or Generator yield
    fresh, non-overlapping streams (spawn state advances).
    """
    if isinstance(source, np.random.Generator):
        return list(source.spawn(n))
    ss = as_seed_sequence(source)
    return [np.random.Generator(np.random.Philox(child)) for child in ss.spawn(n)]
