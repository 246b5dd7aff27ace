"""Chunked arrival-timestamp generation for batched traffic sources.

It yields *chunks* — plain lists of absolute simulation times (µs) —
that :class:`repro.traffic.udp.UdpDownloadFlow` replays one wake-up at a
time; generation is amortised over ``chunk_size`` arrivals, one C-level
``itertools.accumulate`` per chunk instead of a Python float add per
packet.

Bit-equivalence contract: a legacy ``PeriodicTimer`` produces the
timestamp chain ``t0, t0 + i, (t0 + i) + i, ...`` — a *left fold* of
double additions, where each step rounds.  ``accumulate`` performs the
identical left fold, and chunking carries the last timestamp into the
next chunk's fold, so the generated floats are bit-identical to the
legacy chain (covered by ``tests/test_batch_arrivals.py``).
"""

from __future__ import annotations

from itertools import accumulate, repeat
from typing import Iterator, List

__all__ = ["cbr_chunks", "DEFAULT_CHUNK_SIZE"]

#: Arrivals precomputed per chunk: memory stays flat however long the
#: flow runs.
DEFAULT_CHUNK_SIZE = 4096


def cbr_chunks(
    start_us: float,
    interval_us: float,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[List[float]]:
    """Constant-bit-rate arrivals: ``start_us``, then every ``interval_us``.

    Yields chunks forever; the consumer decides when to stop listening.
    """
    if interval_us <= 0:
        raise ValueError("interval must be positive")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    interval = float(interval_us)
    base = float(start_us)
    while True:
        times = list(accumulate(repeat(interval, chunk_size - 1),
                                initial=base))
        yield times
        # Same left fold as an unchunked chain: one more rounded add.
        base = times[-1] + interval
