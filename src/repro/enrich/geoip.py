"""Synthetic GeoIP and WHOIS registries derived from the topology.

The paper's read side joins scan data against commercial GeoIP and WHOIS
feeds; here both registries derive deterministically from the generated
topology, which keeps them consistent with ground truth (the evaluation
harness groups coverage by country using the same source of truth that
placed the services).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.net import ip_to_str
from repro.simnet.topology import Network, Topology

__all__ = ["GeoRecord", "WhoisRecord", "GeoIpRegistry", "WhoisRegistry"]


@dataclass(frozen=True, slots=True)
class GeoRecord:
    country: str
    region: str
    city: str
    latitude: float
    longitude: float


@dataclass(frozen=True, slots=True)
class WhoisRecord:
    asn: int
    as_name: str
    organization: str
    cidr: str
    network_kind: str
    abuse_contact: str


_CITIES: Dict[str, tuple[str, float, float]] = {
    "US": ("Ann Arbor", 42.28, -83.74),
    "CN": ("Shenzhen", 22.54, 114.05),
    "DE": ("Frankfurt", 50.11, 8.68),
    "JP": ("Tokyo", 35.67, 139.65),
    "GB": ("London", 51.50, -0.12),
    "FR": ("Paris", 48.85, 2.35),
    "KR": ("Seoul", 37.56, 126.97),
    "NL": ("Amsterdam", 52.37, 4.89),
    "RU": ("Moscow", 55.75, 37.61),
    "BR": ("Sao Paulo", -23.55, -46.63),
    "IN": ("Mumbai", 19.07, 72.87),
    "CA": ("Toronto", 43.65, -79.38),
    "SG": ("Singapore", 1.35, 103.81),
    "AU": ("Sydney", -33.86, 151.20),
    "IT": ("Milan", 45.46, 9.19),
    "OTHER": ("Reykjavik", 64.14, -21.94),
}


class GeoIpRegistry:
    """ip index -> geolocation, backed by the topology."""

    def __init__(self, topology: Topology) -> None:
        self._topology = topology

    def network_of(self, ip_index: int) -> Network:
        """The owning network: everything ``locate`` returns depends on it alone."""
        return self._topology.network_of(ip_index)

    def locate(self, ip_index: int) -> GeoRecord:
        network = self._topology.network_of(ip_index)
        city, lat, lon = _CITIES.get(network.country, _CITIES["OTHER"])
        # Jitter coordinates deterministically within the metro area.
        jitter = (network.network_id % 97) / 970.0
        return GeoRecord(
            country=network.country,
            region=self._topology.region_of_country(network.country),
            city=city,
            latitude=round(lat + jitter, 4),
            longitude=round(lon - jitter, 4),
        )


class WhoisRegistry:
    """ip index -> registration data, backed by the topology."""

    def __init__(self, topology: Topology) -> None:
        self._topology = topology

    def network_of(self, ip_index: int) -> Network:
        """The owning network: everything ``lookup`` returns depends on it alone."""
        return self._topology.network_of(ip_index)

    def lookup(self, ip_index: int) -> WhoisRecord:
        network = self._topology.network_of(ip_index)
        return WhoisRecord(
            asn=network.asn,
            as_name=network.as_name,
            organization=network.organization,
            cidr=self._cidr_text(network),
            network_kind=network.kind,
            abuse_contact=f"abuse@as{network.asn}.example.net",
        )

    def _cidr_text(self, network: Network) -> str:
        base_ip = self._topology.space.ip_at(network.start)
        size = network.stop - network.start
        prefix = 32 - max(0, size - 1).bit_length()
        return f"{ip_to_str(base_ip)}/{prefix}"
