"""Database and message-broker protocols: MySQL, Postgres, Redis, MongoDB, MQTT.

MySQL is server-initiated (it pushes its handshake packet on connect), the
others are client-initiated.  Redis and MongoDB answer protocol-specific
probes with version metadata, the classic accidental-exposure services.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.protocols.base import Probe, ProtocolSpec, Reply, ServerProfile, pick, silence

__all__ = ["MysqlSpec", "PostgresSpec", "RedisSpec", "MongoSpec", "MqttSpec"]


class MysqlSpec(ProtocolSpec):
    name = "MYSQL"
    transport = "tcp"
    default_ports = (3306, 33060)
    server_initiated = True
    fingerprint_kinds = ("mysql-handshake", "mysql-error")

    def make_profile(self, rng) -> ServerProfile:
        flavor, versions = pick(
            rng,
            [("mysql", ("5.7.42", "8.0.33", "8.0.35")), ("mariadb", ("10.5.19", "10.11.4"))],
        )
        version = pick(rng, versions)
        banner_version = version if flavor == "mysql" else f"5.5.5-{version}-MariaDB"
        attributes = {
            "server_version": banner_version,
            "protocol_version": 10,
            "auth_plugin": "mysql_native_password" if version.startswith(("5", "10")) else "caching_sha2_password",
            "error_code": 1130 if rng.random() < 0.35 else None,  # host not allowed
        }
        return ServerProfile(self.name, ("oracle" if flavor == "mysql" else "mariadb", flavor, version), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        attrs = profile.attributes
        if probe.kind == "banner-wait":
            if attrs["error_code"]:
                return Reply(
                    "mysql-error",
                    self.name,
                    {"error_code": attrs["error_code"], "error": "Host is not allowed to connect"},
                )
            return Reply(
                "mysql-handshake",
                self.name,
                {
                    "server_version": attrs["server_version"],
                    "protocol_version": attrs["protocol_version"],
                    "auth_plugin": attrs["auth_plugin"],
                },
            )
        if probe.kind in ("http-get", "generic-crlf"):
            return self.respond(profile, Probe("banner-wait"))
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind in ("mysql-handshake", "mysql-error") and (
            "server_version" in reply.fields or "error_code" in reply.fields
        )

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("banner-wait")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "mysql-handshake":
                record["mysql.server_version"] = reply.fields["server_version"]
                record["mysql.auth_plugin"] = reply.fields["auth_plugin"]
            elif reply.kind == "mysql-error":
                record["mysql.error_code"] = reply.fields["error_code"]
        return record


class PostgresSpec(ProtocolSpec):
    name = "POSTGRES"
    transport = "tcp"
    default_ports = (5432,)
    server_initiated = False
    fingerprint_kinds = ("postgres-ssl-response", "postgres-auth-request")

    def make_profile(self, rng) -> ServerProfile:
        version = pick(rng, ["12.15", "14.9", "15.4", "16.0"])
        attributes = {"supports_ssl": rng.random() < 0.7, "auth_method": pick(rng, ["md5", "scram-sha-256"])}
        return ServerProfile(self.name, ("postgresql", "postgresql", version), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "postgres-ssl-request":
            return Reply(
                "postgres-ssl-response",
                self.name,
                {"ssl_accepted": profile.attributes["supports_ssl"]},
            )
        if probe.kind == "postgres-startup":
            return Reply(
                "postgres-auth-request",
                self.name,
                {"auth_method": profile.attributes["auth_method"]},
            )
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind in ("postgres-ssl-response", "postgres-auth-request")

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("postgres-ssl-request"), Probe("postgres-startup")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "postgres-ssl-response":
                record["postgres.ssl"] = reply.fields["ssl_accepted"]
            elif reply.kind == "postgres-auth-request":
                record["postgres.auth_method"] = reply.fields["auth_method"]
        return record


class RedisSpec(ProtocolSpec):
    name = "REDIS"
    transport = "tcp"
    default_ports = (6379,)
    server_initiated = False
    fingerprint_fields = ("response", "error")

    def make_profile(self, rng) -> ServerProfile:
        version = pick(rng, ["5.0.7", "6.2.13", "7.0.12", "7.2.1"])
        attributes = {
            "open_access": rng.random() < 0.4,
            "redis_version": version,
            "redis_mode": pick(rng, ["standalone", "cluster"]),
        }
        return ServerProfile(self.name, ("redis", "redis", version), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        attrs = profile.attributes
        if probe.kind == "redis-ping":
            if attrs["open_access"]:
                return Reply("redis-pong", self.name, {"response": "+PONG"})
            return Reply("redis-error", self.name, {"error": "-NOAUTH Authentication required."})
        if probe.kind == "redis-info":
            if attrs["open_access"]:
                return Reply(
                    "redis-info-response",
                    self.name,
                    {"redis_version": attrs["redis_version"], "redis_mode": attrs["redis_mode"]},
                )
            return Reply("redis-error", self.name, {"error": "-NOAUTH Authentication required."})
        if probe.kind in ("http-get", "generic-crlf"):
            return Reply("redis-error", self.name, {"error": "-ERR unknown command"})
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        text = str(reply.fields.get("response", "")) + str(reply.fields.get("error", ""))
        return text.startswith(("+PONG", "-NOAUTH", "-ERR"))

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("redis-ping"), Probe("redis-info")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {"redis.auth_required": True}
        for reply in replies:
            if reply.kind == "redis-pong":
                record["redis.auth_required"] = False
            elif reply.kind == "redis-info-response":
                record["redis.version"] = reply.fields["redis_version"]
                record["redis.mode"] = reply.fields["redis_mode"]
        return record


class MongoSpec(ProtocolSpec):
    name = "MONGODB"
    transport = "tcp"
    default_ports = (27017, 27018)
    server_initiated = False
    fingerprint_kinds = ("mongo-ismaster-response",)

    def make_profile(self, rng) -> ServerProfile:
        version = pick(rng, ["4.4.22", "5.0.19", "6.0.8", "7.0.1"])
        attributes = {"open_access": rng.random() < 0.3, "max_wire_version": 17}
        return ServerProfile(self.name, ("mongodb", "mongodb", version), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "mongo-ismaster":
            fields: Dict[str, Any] = {
                "ismaster": True,
                "max_wire_version": profile.attributes["max_wire_version"],
            }
            if profile.attributes["open_access"]:
                fields["version"] = profile.version
            return Reply("mongo-ismaster-response", self.name, fields)
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind == "mongo-ismaster-response"

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("mongo-ismaster")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "mongo-ismaster-response":
                record["mongodb.max_wire_version"] = reply.fields["max_wire_version"]
                if "version" in reply.fields:
                    record["mongodb.version"] = reply.fields["version"]
        return record


class MqttSpec(ProtocolSpec):
    name = "MQTT"
    transport = "tcp"
    default_ports = (1883, 8883)
    server_initiated = False
    fingerprint_kinds = ("mqtt-connack",)

    def make_profile(self, rng) -> ServerProfile:
        version = pick(rng, ["1.6.9", "2.0.15", "2.0.18"])
        attributes = {"anonymous_allowed": rng.random() < 0.5}
        return ServerProfile(self.name, ("eclipse", "mosquitto", version), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "mqtt-connect":
            code = 0 if profile.attributes["anonymous_allowed"] else 5
            return Reply("mqtt-connack", self.name, {"return_code": code})
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind == "mqtt-connack"

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("mqtt-connect")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "mqtt-connack":
                record["mqtt.connect_return_code"] = reply.fields["return_code"]
                record["mqtt.anonymous_allowed"] = reply.fields["return_code"] == 0
        return record
