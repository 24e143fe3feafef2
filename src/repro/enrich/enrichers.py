"""Read-side enrichers: location, routing, software, vulnerabilities, labels.

Enrichers run when an entity is reconstructed (never at ingestion), adding
the derived context users actually query on — the paper's geolocation,
WHOIS, fingerprinted manufacturer/model/version, CVEs, and threat labels.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Callable, Dict, List, Optional

from repro.enrich.fingerprints import FingerprintEngine, default_fingerprints
from repro.enrich.geoip import GeoIpRegistry, WhoisRegistry
from repro.enrich.vulns import VulnerabilityDatabase, default_cve_feed
from repro.net import AddressSpace, str_to_ip
from repro.pipeline.read_side import Enricher

__all__ = [
    "ip_index_of_entity",
    "make_location_enricher",
    "make_routing_enricher",
    "make_software_enricher",
    "make_vulnerability_enricher",
    "make_label_enricher",
    "standard_enrichers",
]


def ip_index_of_entity(entity_id: str, space: AddressSpace) -> Optional[int]:
    """Extract the scaled address index from a ``host:a.b.c.d`` entity id."""
    if not entity_id.startswith("host:"):
        return None
    try:
        ip = str_to_ip(entity_id[len("host:"):])
    except ValueError:
        return None
    if ip not in space:
        return None
    return space.index_of(ip)


def _per_network(registry: Any, fetch: Callable[[int], Any]) -> Callable[[int], Dict[str, Any]]:
    """``asdict(fetch(ip_index))``, converted once per owning network.

    A registry record depends only on the network that owns the address,
    and its fields are scalars, so every view gets its own shallow copy of
    the network's dict instead of a fresh ``asdict`` walk per lookup.
    """
    by_network: Dict[int, Dict[str, Any]] = {}
    network_of = registry.network_of

    def record_for(ip_index: int) -> Dict[str, Any]:
        network_id = network_of(ip_index).network_id
        record = by_network.get(network_id)
        if record is None:
            record = by_network[network_id] = asdict(fetch(ip_index))
        return dict(record)

    return record_for


def make_location_enricher(geoip: GeoIpRegistry, space: AddressSpace) -> Enricher:
    location_of = _per_network(geoip, geoip.locate)

    def enrich(view: Dict[str, Any]) -> None:
        ip_index = ip_index_of_entity(view["entity_id"], space)
        if ip_index is None:
            return
        view["derived"]["location"] = location_of(ip_index)

    return enrich


def make_routing_enricher(whois: WhoisRegistry, space: AddressSpace) -> Enricher:
    routing_of = _per_network(whois, whois.lookup)

    def enrich(view: Dict[str, Any]) -> None:
        ip_index = ip_index_of_entity(view["entity_id"], space)
        if ip_index is None:
            return
        view["derived"]["autonomous_system"] = routing_of(ip_index)

    return enrich


def make_software_enricher(engine: Optional[FingerprintEngine] = None) -> Enricher:
    engine = engine or default_fingerprints()

    def enrich(view: Dict[str, Any]) -> None:
        device_types: List[str] = []
        for service in view["services"].values():
            match = engine.best(service.get("record", {}))
            if match is None:
                continue
            service["software"] = {
                "vendor": match.vendor,
                "product": match.product,
                "version": match.version,
                "cpe": match.cpe,
                "rule": match.rule,
            }
            if match.device_type and match.device_type not in device_types:
                device_types.append(match.device_type)
        if device_types:
            view["derived"]["device_types"] = device_types

    return enrich


def make_vulnerability_enricher(db: Optional[VulnerabilityDatabase] = None) -> Enricher:
    db = db or default_cve_feed()

    def enrich(view: Dict[str, Any]) -> None:
        host_cves: List[str] = []
        for service in view["services"].values():
            software = service.get("software")
            if not software:
                continue
            hits = db.find(software["vendor"], software["product"], software.get("version"))
            if hits:
                service["vulnerabilities"] = [
                    {"cve_id": h.cve_id, "cvss": h.cvss, "kev": h.kev, "summary": h.summary}
                    for h in hits
                ]
                host_cves.extend(h.cve_id for h in hits)
        if host_cves:
            view["derived"]["cve_ids"] = sorted(set(host_cves))

    return enrich


def make_label_enricher() -> Enricher:
    """Operational labels: C2 infrastructure, login pages, open databases."""

    def enrich(view: Dict[str, Any]) -> None:
        labels: List[str] = []
        for service in view["services"].values():
            record = service.get("record", {})
            software = service.get("software") or {}
            if record.get("http.is_c2") or software.get("product") == "team_server":
                labels.append("c2-server")
            if record.get("redis.auth_required") is False:
                labels.append("open-database")
            if record.get("elasticsearch.open_access") is True:
                labels.append("open-database")
            if record.get("mongodb.version"):
                labels.append("open-database")
            if record.get("docker.unauthenticated") is True:
                labels.append("exposed-container-api")
            if record.get("kubernetes.anonymous_auth") is True:
                labels.append("exposed-container-api")
            if record.get("rtsp.open_stream") is True:
                labels.append("open-camera-stream")
            if record.get("socks5.open_proxy") is True:
                labels.append("open-proxy")
            if record.get("ftp.anonymous") is True:
                labels.append("anonymous-ftp")
            if record.get("vnc.security_types") == ("None",):
                labels.append("unauthenticated-remote-access")
            if service.get("service_name") in _ICS_NAMES:
                labels.append("ics")
        if labels:
            view["derived"]["labels"] = sorted(set(labels))

    return enrich


_ICS_NAMES = {
    "ATG", "BACNET", "CIMON_PLC", "CMORE", "CODESYS", "DIGI", "DNP3", "EIP",
    "FINS", "FOX", "GE_SRTP", "HART", "IEC60870", "MODBUS", "OPC_UA", "PCOM",
    "PCWORX", "PROCONOS", "REDLION", "S7", "WDBRPC",
}


def standard_enrichers(
    space: AddressSpace,
    geoip: GeoIpRegistry,
    whois: WhoisRegistry,
    fingerprints: Optional[FingerprintEngine] = None,
    cves: Optional[VulnerabilityDatabase] = None,
) -> List[Enricher]:
    """The default read-side enrichment chain, in execution order."""
    return [
        make_location_enricher(geoip, space),
        make_routing_enricher(whois, space),
        make_software_enricher(fingerprints),
        make_vulnerability_enricher(cves),
        make_label_enricher(),
    ]
