"""Probe spaces: the (address x port) products that discovery scans walk.

A :class:`ProbeSpace` flattens a set of IP intervals crossed with a port list
into ``range(size)`` so that a :class:`~repro.net.cyclic.ProbePermutation`
can iterate it.  Both directions are O(log #intervals): the scan engine maps
permutation elements to (ip, port) targets, and the simulated Internet maps
live services back to permutation positions to answer segment queries
without enumerating the full space.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, NamedTuple, Sequence, Tuple

__all__ = ["ProbeTarget", "ProbeSpace"]


class ProbeTarget(NamedTuple):
    """A single probe destination within the scaled address space.

    A NamedTuple rather than a frozen dataclass: segment queries
    materialize one per hit, and tuple construction is several times
    cheaper while keeping immutability, hashing, and equality.
    """

    ip_index: int
    port: int


class ProbeSpace:
    """A flattened (IP intervals x ports) probe domain.

    ``ip_intervals`` are half-open ``(start, stop)`` index ranges over the
    scaled address space; they must be disjoint and sorted.  ``ports`` is the
    port list in scan order.
    """

    def __init__(
        self,
        ip_intervals: Sequence[Tuple[int, int]],
        ports: Sequence[int],
    ) -> None:
        if not ports:
            raise ValueError("a probe space needs at least one port")
        cleaned: List[Tuple[int, int]] = []
        previous_stop = -1
        for start, stop in ip_intervals:
            if stop <= start:
                raise ValueError(f"empty interval ({start}, {stop})")
            if start <= previous_stop - 1:
                raise ValueError("intervals must be sorted and disjoint")
            previous_stop = stop
            cleaned.append((start, stop))
        if not cleaned:
            raise ValueError("a probe space needs at least one address")
        self._intervals = cleaned
        self._starts: List[int] = [start for start, _ in cleaned]
        self._ports = tuple(ports)
        self._port_pos: Dict[int, int] = {p: i for i, p in enumerate(self._ports)}
        if len(self._port_pos) != len(self._ports):
            raise ValueError("duplicate ports in probe space")
        # Cumulative IP counts for ordinal <-> index mapping.
        self._cum: List[int] = [0]
        for start, stop in cleaned:
            self._cum.append(self._cum[-1] + (stop - start))
        self._ip_count = self._cum[-1]

    @classmethod
    def single_range(cls, start: int, stop: int, ports: Sequence[int]) -> "ProbeSpace":
        return cls([(start, stop)], ports)

    @property
    def ports(self) -> Tuple[int, ...]:
        return self._ports

    @property
    def ip_count(self) -> int:
        return self._ip_count

    @property
    def size(self) -> int:
        return self._ip_count * len(self._ports)

    @property
    def intervals(self) -> List[Tuple[int, int]]:
        return list(self._intervals)

    def contains_ip(self, ip_index: int) -> bool:
        i = bisect_right(self._starts, ip_index) - 1
        return i >= 0 and ip_index < self._intervals[i][1]

    def contains_port(self, port: int) -> bool:
        return port in self._port_pos

    def __contains__(self, target: ProbeTarget) -> bool:
        return self.contains_port(target.port) and self.contains_ip(target.ip_index)

    def _ip_ordinal(self, ip_index: int) -> int:
        i = bisect_right(self._starts, ip_index) - 1
        if i < 0 or ip_index >= self._intervals[i][1]:
            raise ValueError(f"ip index {ip_index} outside probe space")
        return self._cum[i] + (ip_index - self._intervals[i][0])

    def _ip_at_ordinal(self, ordinal: int) -> int:
        if not 0 <= ordinal < self._ip_count:
            raise IndexError(ordinal)
        i = bisect_right(self._cum, ordinal) - 1
        return self._intervals[i][0] + (ordinal - self._cum[i])

    def flatten(self, ip_index: int, port: int) -> int:
        """Map a target to its flat element id."""
        try:
            port_pos = self._port_pos[port]
        except KeyError:
            raise ValueError(f"port {port} outside probe space") from None
        return self._ip_ordinal(ip_index) * len(self._ports) + port_pos

    def target_of(self, element: int) -> ProbeTarget:
        """Map a flat element id back to its (ip, port) target."""
        if not 0 <= element < self.size:
            raise IndexError(element)
        ordinal, port_pos = divmod(element, len(self._ports))
        return ProbeTarget(self._ip_at_ordinal(ordinal), self._ports[port_pos])
