"""Order statistics for latency samples."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

__all__ = ["MIN_BEYOND", "percentile", "require_percentile", "median"]

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile (0 < q < 1), or None when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie strictly between 0 and 1, got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    rank = math.ceil(q * n)
    if rank < 1 or n - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def require_percentile(samples: Sequence[float], q: float, what: str) -> float:
    """:func:`percentile`, raising instead of guessing when unsupported."""
    value = percentile(samples, q)
    if value is None:
        raise ValueError(
            f"{what}: {len(samples)} samples cannot support p{q * 100:g} "
            f"with {MIN_BEYOND} samples beyond it"
        )
    return value


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)

