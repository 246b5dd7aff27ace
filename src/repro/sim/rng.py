"""Deterministic random-number management.

Every stochastic component (DCF backoff draws, traffic jitter, web object
sizes) takes a ``random.Random`` stream derived from a single experiment
seed, so whole experiments replay bit-identically.  Streams are derived by
name, so adding a new consumer does not perturb existing ones.
"""

from __future__ import annotations

import random
import zlib

__all__ = ["RngFactory"]


class RngFactory:
    """Derives independent named ``random.Random`` streams from one seed.

    >>> f = RngFactory(42)
    >>> a = f.stream("backoff")
    >>> b = f.stream("traffic")
    >>> a is not b
    True
    >>> f2 = RngFactory(42)
    >>> f2.stream("backoff").random() == RngFactory(42).stream("backoff").random()
    True
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        if name not in self._streams:
            derived = self.seed ^ zlib.crc32(name.encode("utf-8"))
            self._streams[name] = random.Random(derived)
        return self._streams[name]

    def fork(self, salt: int) -> "RngFactory":
        """Return a new factory for a sub-experiment (e.g. one repetition)."""
        return RngFactory(self.seed * 1_000_003 + salt)
