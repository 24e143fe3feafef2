"""HTTP protocol behaviour and the web software catalog.

HTTP dominates the simulated Internet exactly as it dominates the real one.
The catalog mixes general-purpose servers, embedded device UIs, back-office
applications, and attacker infrastructure (C2 panels) so that downstream
fingerprinting, attack-surface, and threat-hunting workflows have realistic
material to work with.  A fraction of pages carries innocuous keywords (e.g.
"operating system") that keyword-labeling engines mistake for ICS devices —
the mechanism behind Table 4's over-reporting.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Sequence

from repro.protocols.base import (
    Probe,
    ProtocolSpec,
    Reply,
    ServerProfile,
    silence,
    weighted_pick,
)

__all__ = ["HttpSpec", "WEB_SOFTWARE_CATALOG"]


#: (vendor, product, versions, weight, page attributes)
WEB_SOFTWARE_CATALOG: List[dict] = [
    {
        "software": ("f5", "nginx", ("1.18.0", "1.22.1", "1.24.0", "1.25.3")),
        "weight": 30.0,
        "titles": ("Welcome to nginx!", "Home", "Index of /", "API Gateway"),
        "server_header": "nginx/{version}",
        "keywords": (),
    },
    {
        "software": ("apache", "http_server", ("2.4.41", "2.4.52", "2.4.57")),
        "weight": 24.0,
        "titles": ("Apache2 Default Page", "It works!", "Home"),
        "server_header": "Apache/{version} (Ubuntu)",
        "keywords": (),
    },
    {
        "software": ("microsoft", "iis", ("8.5", "10.0")),
        "weight": 9.0,
        "titles": ("IIS Windows Server", "Home"),
        "server_header": "Microsoft-IIS/{version}",
        "keywords": (),
    },
    {
        "software": ("lighttpd", "lighttpd", ("1.4.59", "1.4.67")),
        "weight": 3.0,
        "titles": ("lighttpd", "403 Forbidden"),
        "server_header": "lighttpd/{version}",
        "keywords": (),
    },
    {
        "software": ("progress", "moveit_transfer", ("2022.1.5", "2023.0.1", "2023.0.3")),
        "weight": 0.8,
        "titles": ("MOVEit Transfer - Sign On",),
        "server_header": "MOVEit/{version}",
        "keywords": ("moveit", "managed file transfer"),
    },
    {
        "software": ("prometheus", "prometheus", ("2.43.0", "2.47.1")),
        "weight": 1.4,
        "titles": ("Prometheus Time Series Collection and Processing Server",),
        "server_header": "",
        "keywords": ("prometheus", "metrics"),
    },
    {
        "software": ("grafana", "grafana", ("9.5.2", "10.1.4")),
        "weight": 1.2,
        "titles": ("Grafana",),
        "server_header": "",
        "keywords": ("grafana", "dashboards"),
    },
    {
        "software": ("jenkins", "jenkins", ("2.387.3", "2.414.2")),
        "weight": 1.0,
        "titles": ("Dashboard [Jenkins]",),
        "server_header": "Jetty(10.0.13)",
        "keywords": ("jenkins", "hudson"),
    },
    {
        "software": ("gitlab", "gitlab", ("15.11.0", "16.3.4")),
        "weight": 0.9,
        "titles": ("Sign in · GitLab",),
        "server_header": "nginx",
        "keywords": ("gitlab",),
    },
    {
        "software": ("hikvision", "ds-2cd2042wd", ("5.4.5", "5.5.82")),
        "weight": 2.2,
        "titles": ("index", "login"),
        "server_header": "App-webs/",
        "keywords": ("hikvision", "webcomponents"),
    },
    {
        "software": ("zyxel", "wac6552d-s", ("6.28",)),
        "weight": 0.7,
        "titles": ("WAC6552D-S",),
        "server_header": "",
        "keywords": ("zyxel",),
    },
    {
        "software": ("fortinet", "fortigate", ("7.0.12", "7.2.5", "7.4.1")),
        "weight": 1.6,
        "titles": ("FortiGate - Login",),
        "server_header": "xxxxxxxx-xxxxx",
        "keywords": ("fortinet", "fortigate"),
    },
    {
        "software": ("ivanti", "connect_secure", ("9.1R18", "22.6R2")),
        "weight": 0.8,
        "titles": ("Ivanti Connect Secure",),
        "server_header": "",
        "keywords": ("ivanti", "pulse secure"),
    },
    {
        "software": ("mikrotik", "routeros", ("6.49.8", "7.11.2")),
        "weight": 2.4,
        "titles": ("RouterOS router configuration page",),
        "server_header": "mikrotik HttpProxy",
        "keywords": ("mikrotik", "routeros"),
    },
    {
        # Status pages whose wording trips naive keyword labeling: they
        # mention an "operating system", which Shodan's public CODESYS
        # heuristic ("operating" + "system") matches.
        "software": ("generic", "system_status_page", ("1.0",)),
        "weight": 6.0,
        "titles": ("System Status",),
        "server_header": "embedded-httpd",
        "keywords": ("operating", "system", "uptime"),
    },
    {
        # "Device Management" consoles: fodder for loose EIP labeling.
        "software": ("generic", "device_mgmt_page", ("2.1",)),
        "weight": 4.5,
        "titles": ("Device Management",),
        "server_header": "embedded-httpd",
        "keywords": ("device", "management", "status"),
    },
    {
        # Fuel-station dashboards: matches loose "tank" ATG heuristics.
        "software": ("generic", "tank_status_page", ("1.4",)),
        "weight": 3.5,
        "titles": ("Tank Inventory Status",),
        "server_header": "embedded-httpd",
        "keywords": ("tank", "gauge", "status"),
    },
    {
        # Embedded consoles mentioning their RTOS: loose WDBRPC bait.
        "software": ("wind_river", "embedded_console", ("6.9",)),
        "weight": 2.5,
        "titles": ("Embedded Web Console",),
        "server_header": "GoAhead-Webs",
        "keywords": ("vxworks", "system"),
    },
    {
        "software": ("cobaltstrike", "team_server", ("4.7", "4.8")),
        "weight": 0.25,
        "titles": ("",),
        "server_header": "",
        "keywords": (),
        "c2": True,
    },
    {
        "software": ("oracle", "peoplesoft", ("8.59", "8.60")),
        "weight": 0.5,
        "titles": ("Oracle PeopleSoft Sign-in",),
        "server_header": "Oracle-HTTP-Server",
        "keywords": ("peoplesoft",),
    },
    {
        "software": ("vmware", "vcenter", ("6.7.0", "7.0.3", "8.0.1")),
        "weight": 0.6,
        "titles": ("ID_VC_Welcome",),
        "server_header": "envoy",
        "keywords": ("vmware", "vsphere"),
    },
    {
        "software": ("minio", "minio", ("2023-03-20", "2023-09-30")),
        "weight": 0.7,
        "titles": ("MinIO Console",),
        "server_header": "MinIO",
        "keywords": ("minio", "s3"),
    },
    {
        "software": ("synology", "dsm", ("6.2.4", "7.1.1", "7.2")),
        "weight": 1.3,
        "titles": ("Synology DiskStation",),
        "server_header": "nginx",
        "keywords": ("synology",),
    },
]


def favicon_hash(vendor: str, product: str) -> int:
    """A stable mmh3-style favicon hash derived from the software identity."""
    digest = hashlib.sha256(f"favicon:{vendor}:{product}".encode()).digest()
    return int.from_bytes(digest[:4], "little", signed=True)


class HttpSpec(ProtocolSpec):
    """HTTP/1.1 at the message level.

    Servers answer GET requests with status, headers, title, and keyword
    sets; they stay silent on connect (client-initiated protocol) and return
    a 400-style error for raw CRLF probes, which is itself a fingerprint.
    """

    name = "HTTP"
    transport = "tcp"
    default_ports = (80, 8080, 8000, 8888, 81, 8081, 591, 7547, 2082, 60000)
    server_initiated = False
    fingerprint_kinds = ("http-response",)

    def make_profile(self, rng) -> ServerProfile:
        entry = weighted_pick(rng, [(e, e["weight"]) for e in WEB_SOFTWARE_CATALOG])
        vendor, product, versions = entry["software"]
        version = versions[rng.randrange(len(versions))]
        title = entry["titles"][rng.randrange(len(entry["titles"]))]
        server_header = entry["server_header"].format(version=version)
        attributes: Dict[str, Any] = {
            "status": 200 if rng.random() < 0.82 else (401 if rng.random() < 0.5 else 302),
            "html_title": title,
            "server_header": server_header,
            "body_keywords": tuple(entry["keywords"]),
            "favicon_mmh3": favicon_hash(vendor, product),
            "is_c2": bool(entry.get("c2")),
        }
        if attributes["status"] == 302:
            attributes["redirect_location"] = f"https://www.example-{rng.randrange(10**6)}.com/"
        if attributes["status"] == 401:
            attributes["www_authenticate"] = 'Basic realm="."'
        return ServerProfile(protocol=self.name, software=(vendor, product, version), attributes=attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        attrs = profile.attributes
        if probe.kind == "http-get":
            page = self._select_page(attrs, probe.payload.get("host"), probe.payload.get("path", "/"))
            return Reply("http-response", self.name, page)
        if probe.kind == "generic-crlf":
            return Reply(
                "http-response",
                self.name,
                {"status": 400, "server_header": attrs.get("server_header", ""), "raw": "HTTP/1.1 400 Bad Request"},
            )
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def _select_page(self, attrs: Dict[str, Any], host: str | None, path: str) -> Dict[str, Any]:
        vhosts = attrs.get("vhosts") or {}
        page_attrs = attrs
        matched_vhost = None
        if host and host in vhosts:
            page_attrs = dict(attrs, **vhosts[host])
            matched_vhost = host
        page = {
            "status": page_attrs.get("status", 200),
            "html_title": page_attrs.get("html_title", ""),
            "server_header": page_attrs.get("server_header", ""),
            "body_keywords": page_attrs.get("body_keywords", ()),
            "favicon_mmh3": page_attrs.get("favicon_mmh3"),
            "path": path,
        }
        for key in ("redirect_location", "www_authenticate", "is_c2"):
            if page_attrs.get(key):
                page[key] = page_attrs[key]
        if matched_vhost:
            page["virtual_host"] = matched_vhost
        return page

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind == "http-response" and "status" in reply.fields

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("http-get", {"path": "/"})]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "http-response":
                record.update(
                    {
                        "http.status": reply.fields.get("status"),
                        "http.html_title": reply.fields.get("html_title", ""),
                        "http.server": reply.fields.get("server_header", ""),
                        "http.body_keywords": tuple(reply.fields.get("body_keywords", ())),
                        "http.favicon_mmh3": reply.fields.get("favicon_mmh3"),
                    }
                )
                for key in ("redirect_location", "www_authenticate", "is_c2", "virtual_host"):
                    if key in reply.fields:
                        record[f"http.{key}"] = reply.fields[key]
        return record
