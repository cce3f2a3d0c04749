"""Seeded random-number streams.

Every stochastic component draws from a named substream of a single master
seed, so (a) whole simulations are reproducible from one integer and (b)
adding a new random component does not perturb the draws of existing ones.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np


def stable_hash(*key: Any) -> int:
    """A process-invariant 64-bit hash of a tuple of printable values.

    Python's builtin ``hash`` is salted per process; this one is stable
    across runs, which is what reproducible seeding needs.
    """
    digest = hashlib.sha256(repr(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngHub:
    """Factory of independent, deterministically-derived RNG streams.

    >>> hub = RngHub(seed=42)
    >>> r1 = hub.stream("arrivals", "app-3")
    >>> r2 = hub.stream("arrivals", "app-3")
    >>> r1 is r2
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[tuple, np.random.Generator] = {}

    def stream(self, *key: Any) -> np.random.Generator:
        """Return (and cache) the generator for *key*."""
        if key not in self._streams:
            ss = np.random.SeedSequence(entropy=(self.seed, stable_hash(*key)))
            self._streams[key] = np.random.default_rng(ss)
        return self._streams[key]

    def spawn(self, *key: Any) -> "RngHub":
        """A child hub whose streams are independent of this hub's."""
        return RngHub(stable_hash(self.seed, *key))
