"""Simulation time.

The whole reproduction runs on a single discrete clock measured in *hours*
(floats).  Hours are the natural resolution for the paper's quantities —
refresh intervals, eviction windows, time-to-discovery — while still letting
probe timestamps interpolate smoothly inside a tick.
"""

from __future__ import annotations

__all__ = ["HOUR", "DAY", "WEEK", "SimClock"]

HOUR = 1.0
DAY = 24.0
WEEK = 7 * DAY


class SimClock:
    """A monotonically advancing simulation clock (hours since epoch).

    The clock may start negative: engine warm-up ("pre-history") runs before
    t=0, and evaluations happen at t >= 0, mirroring how real engines carry
    years of accumulated state into any measurement.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    @property
    def day(self) -> int:
        """The (possibly negative) day number containing ``now``."""
        return int(self._now // DAY)

    def advance(self, hours: float) -> float:
        """Move time forward; rejects travel into the past."""
        if hours < 0:
            raise ValueError(f"cannot advance by {hours} hours")
        self._now += hours
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimClock t={self._now:.2f}h (day {self.day})>"
