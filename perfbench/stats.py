"""Pure helpers for the benchmark's arithmetic (unit-tested).

Nothing here imports the program under test, so the rules that decide
what is reported — the tail percentile, the attribution remainder and
failure counting — can be checked on their own.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def nearest_rank(samples: Sequence[float], q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``len(samples)``."""
    return max(1, math.ceil(q / 100.0 * len(samples)))


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or None when fewer than
    :data:`MIN_BEYOND` samples lie beyond it (too few to trust)."""
    if not samples:
        return None
    rank = nearest_rank(samples, q)
    if len(samples) - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def tail(samples: Sequence[float], q: float = 90.0) -> float:
    """The ``q``-th percentile when it has :data:`MIN_BEYOND` samples
    beyond it; otherwise the highest rank that does, but never below
    the median (so a run of fewer than ``2 * MIN_BEYOND`` samples
    reports its median)."""
    exact = percentile(samples, q)
    if exact is not None:
        return exact
    ordered = sorted(samples)
    best = len(ordered) - MIN_BEYOND
    if best >= nearest_rank(ordered, 50.0):
        return ordered[best - 1]
    return median(ordered)


class LayerClock:
    """Wall time and call counts per layer, from spans around calls.

    Spans never nest, so the layer times plus :func:`remainder` add up
    to the wall time around them.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()

    @contextmanager
    def __call__(self, layer: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[layer] += time.perf_counter() - start
            self.calls[layer] += 1


def remainder(wall: float, layers: Mapping[str, float]) -> float:
    """Wall time no layer span covered: ``wall - sum(layers)``.

    The layer spans never nest or overlap, so the layer times plus this
    remainder add up to ``wall`` exactly.
    """
    return wall - math.fsum(layers.values())


def count_mismatches(
    outputs: Mapping[str, str], expected: Optional[str]
) -> Dict[str, int]:
    """Compare output digests; return ``{"attempted", "failed"}``.

    Every output is one attempted operation.  An output fails when it
    differs from ``expected`` (a pinned digest), or, with nothing
    pinned, from the digest most outputs agree on — so one perturbed
    output out of three is one failure, never an abort.
    """
    digests = list(outputs.values())
    if expected is None:
        expected = Counter(digests).most_common(1)[0][0]
    failed = sum(1 for digest in digests if digest != expected)
    return {"attempted": len(digests), "failed": failed}


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def check(self, outputs: Mapping[str, str], pinned: Optional[str]) -> None:
        """Count ``outputs`` (name -> digest) as attempted operations and
        the ones that disagree as failed."""
        counted = count_mismatches(outputs, pinned)
        self.attempted += counted["attempted"]
        self.failed += counted["failed"]
