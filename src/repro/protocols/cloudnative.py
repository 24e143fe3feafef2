"""Cloud-native and datacenter protocols.

The paper's cloud tier scans ~300 ports "associated with cloud
infrastructure"; these are the services living there: search clusters,
caches, container control planes, message brokers, wide-column stores —
and the accidental-exposure incidents they cause.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.protocols.base import Probe, ProtocolSpec, Reply, ServerProfile, pick, silence

__all__ = [
    "ElasticsearchSpec",
    "MemcachedSpec",
    "DockerApiSpec",
    "KubernetesApiSpec",
    "AmqpSpec",
    "CassandraSpec",
]


class ElasticsearchSpec(ProtocolSpec):
    """Elasticsearch REST root: cluster metadata over HTTP semantics."""

    name = "ELASTICSEARCH"
    transport = "tcp"
    default_ports = (9200,)
    server_initiated = False
    fingerprint_fields = ("es_tagline",)

    def make_profile(self, rng) -> ServerProfile:
        version = pick(rng, ["6.8.23", "7.17.9", "8.9.1"])
        attributes = {
            "cluster_name": f"es-cluster-{rng.randrange(10**4)}",
            "open_access": rng.random() < 0.35,
            "version": version,
        }
        return ServerProfile(self.name, ("elastic", "elasticsearch", version), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        attrs = profile.attributes
        if probe.kind == "http-get":
            if not attrs["open_access"]:
                return Reply(
                    "http-response", self.name,
                    {"status": 401, "www_authenticate": 'Basic realm="security"',
                     "es_tagline": "You Know, for Search"},
                )
            return Reply(
                "es-root", self.name,
                {"cluster_name": attrs["cluster_name"], "version": attrs["version"],
                 "es_tagline": "You Know, for Search"},
            )
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.fields.get("es_tagline") == "You Know, for Search"

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("http-get", {"path": "/"})]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "es-root":
                record["elasticsearch.cluster_name"] = reply.fields["cluster_name"]
                record["elasticsearch.version"] = reply.fields["version"]
                record["elasticsearch.open_access"] = True
            elif "es_tagline" in reply.fields:
                record["elasticsearch.open_access"] = False
        return record


class MemcachedSpec(ProtocolSpec):
    name = "MEMCACHED"
    transport = "tcp"
    default_ports = (11211,)
    server_initiated = False
    fingerprint_kinds = ("memcached-stats-response",)
    fingerprint_fields = ("error",)

    def make_profile(self, rng) -> ServerProfile:
        version = pick(rng, ["1.5.22", "1.6.17", "1.6.21"])
        return ServerProfile(
            self.name, ("memcached", "memcached", version),
            {"version": version, "curr_items": rng.randrange(10**6)},
        )

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "memcached-stats":
            return Reply(
                "memcached-stats-response", self.name,
                {"version": profile.attributes["version"],
                 "curr_items": profile.attributes["curr_items"]},
            )
        if probe.kind == "generic-crlf":
            return Reply("memcached-error", self.name, {"error": "ERROR"})
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind == "memcached-stats-response" or reply.fields.get("error") == "ERROR"

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("memcached-stats")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "memcached-stats-response":
                record["memcached.version"] = reply.fields["version"]
                record["memcached.curr_items"] = reply.fields["curr_items"]
        return record


class DockerApiSpec(ProtocolSpec):
    """The Docker Engine REST API — exposed daemons are full-host RCE."""

    name = "DOCKER"
    transport = "tcp"
    default_ports = (2375, 2376)
    server_initiated = False
    fingerprint_fields = ("docker_api",)

    def make_profile(self, rng) -> ServerProfile:
        version = pick(rng, ["20.10.24", "24.0.6", "25.0.0"])
        return ServerProfile(
            self.name, ("docker", "engine", version),
            {"version": version, "containers": rng.randrange(40),
             "unauthenticated": rng.random() < 0.7},
        )

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        attrs = profile.attributes
        if probe.kind == "http-get":
            if not attrs["unauthenticated"]:
                return Reply("http-response", self.name, {"status": 403, "docker_api": True})
            return Reply(
                "docker-version", self.name,
                {"docker_api": True, "version": attrs["version"],
                 "containers": attrs["containers"]},
            )
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return bool(reply.fields.get("docker_api"))

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("http-get", {"path": "/version"})]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "docker-version":
                record["docker.version"] = reply.fields["version"]
                record["docker.containers"] = reply.fields["containers"]
                record["docker.unauthenticated"] = True
            elif reply.fields.get("docker_api"):
                record["docker.unauthenticated"] = False
        return record


class KubernetesApiSpec(ProtocolSpec):
    name = "KUBERNETES"
    transport = "tcp"
    default_ports = (6443, 10250)
    server_initiated = False
    fingerprint_fields = ("k8s_api",)

    def make_profile(self, rng) -> ServerProfile:
        version = pick(rng, ["v1.25.14", "v1.27.6", "v1.28.2"])
        return ServerProfile(
            self.name, ("kubernetes", "kube-apiserver", version),
            {"version": version, "anonymous_auth": rng.random() < 0.15},
        )

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        attrs = profile.attributes
        if probe.kind == "http-get":
            if attrs["anonymous_auth"]:
                return Reply(
                    "k8s-version", self.name,
                    {"k8s_api": True, "gitVersion": attrs["version"]},
                )
            return Reply(
                "http-response", self.name,
                {"status": 401, "k8s_api": True,
                 "body_keywords": ("unauthorized", "kubernetes")},
            )
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return bool(reply.fields.get("k8s_api"))

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("http-get", {"path": "/version"})]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "k8s-version":
                record["kubernetes.version"] = reply.fields["gitVersion"]
                record["kubernetes.anonymous_auth"] = True
            elif reply.fields.get("k8s_api"):
                record["kubernetes.anonymous_auth"] = False
        return record


class AmqpSpec(ProtocolSpec):
    """AMQP 0-9-1 brokers (RabbitMQ): protocol-header handshake."""

    name = "AMQP"
    transport = "tcp"
    default_ports = (5672,)
    server_initiated = False
    fingerprint_kinds = ("amqp-connection-start",)

    def make_profile(self, rng) -> ServerProfile:
        version = pick(rng, ["3.8.34", "3.11.23", "3.12.6"])
        return ServerProfile(
            self.name, ("vmware", "rabbitmq", version),
            {"product": "RabbitMQ", "version": version},
        )

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "amqp-protocol-header":
            return Reply(
                "amqp-connection-start", self.name,
                {"product": profile.attributes["product"],
                 "version": profile.attributes["version"],
                 "mechanisms": ("PLAIN", "AMQPLAIN")},
            )
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind == "amqp-connection-start"

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("amqp-protocol-header")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "amqp-connection-start":
                record["amqp.product"] = reply.fields["product"]
                record["amqp.version"] = reply.fields["version"]
        return record


class CassandraSpec(ProtocolSpec):
    """Cassandra native protocol (CQL) OPTIONS/SUPPORTED exchange."""

    name = "CASSANDRA"
    transport = "tcp"
    default_ports = (9042,)
    server_initiated = False
    fingerprint_kinds = ("cql-supported",)

    def make_profile(self, rng) -> ServerProfile:
        version = pick(rng, ["3.11.13", "4.0.7", "4.1.3"])
        return ServerProfile(
            self.name, ("apache", "cassandra", version),
            {"cql_version": "3.4.6", "release_version": version},
        )

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "cql-options":
            return Reply(
                "cql-supported", self.name,
                {"cql_version": profile.attributes["cql_version"],
                 "release_version": profile.attributes["release_version"]},
            )
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind == "cql-supported"

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("cql-options")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "cql-supported":
                record["cassandra.release_version"] = reply.fields["release_version"]
                record["cassandra.cql_version"] = reply.fields["cql_version"]
        return record
