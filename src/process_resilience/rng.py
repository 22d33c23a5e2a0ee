"""Seeded randomness with an explicit, documented stream-derivation rule.

Every sampler and study in this package draws from numpy's Philox generator
(counter-based, stable across platforms and numpy versions) keyed by a 64-bit
seed. Independent streams are derived, never improvised: the child seed for
stream ``i`` of a master seed ``s`` is

    child(s, i) = splitmix64(splitmix64(s) XOR i)

where ``splitmix64`` is the finalizer from Steele, Lea & Flood's SplitMix
generator. Folding ``child`` left-to-right extends the rule to nested streams
(study -> trial -> substream). Rerunning any entry point with the same seed
reproduces results bit for bit, regardless of parallelism.
"""

from __future__ import annotations

import numpy as np

from .graphs import _integer

GENERATOR_ID = "philox4x64/splitmix64-streams/v1"

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer: a published 64-bit integer mixer."""
    x = (_integer("x", x) + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, *stream: int) -> int:
    """Derive the child seed for a (possibly nested) stream index;
    ValueError unless the seed and every index are integers."""
    s = _integer("seed", seed) & _MASK64
    for index in stream:
        s = splitmix64(splitmix64(s) ^ (_integer("stream", index) & _MASK64))
    return s


def generator(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator keyed by ``derive_seed(seed, *stream)``."""
    return np.random.Generator(np.random.Philox(key=derive_seed(seed, *stream)))
