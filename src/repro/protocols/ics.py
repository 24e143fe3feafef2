"""Industrial-control-system protocols: the twenty protocols of Table 4.

Each spec answers only its own binary handshake; generic triggers (HTTP GET,
CRLF) get silence, like real PLC stacks.  A service is only *labeled* as the
protocol when the full handshake completes — the Censys rule the paper
contrasts with keyword-matching engines.

Most ICS stacks share the same interrogation shape (request identity ->
device identity block), so a parameterized :class:`IcsSpec` covers the
family; protocols with richer surveys (MODBUS, S7, BACNET, FOX, DNP3)
override behaviour with extra probes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.protocols.base import Probe, ProtocolSpec, Reply, ServerProfile, pick, silence

__all__ = ["IcsSpec", "ICS_SPECS", "make_ics_specs"]


class IcsSpec(ProtocolSpec):
    """A binary ICS protocol with a device-identity handshake."""

    is_ics = True
    server_initiated = False

    def __init__(
        self,
        name: str,
        default_ports: Tuple[int, ...],
        devices: Sequence[Tuple[str, str, Tuple[str, ...]]],
        transport: str = "tcp",
    ) -> None:
        self.name = name
        self.default_ports = default_ports
        self.transport = transport
        self._devices = list(devices)
        self._handshake_kind = f"{name.lower()}-handshake"
        self.fingerprint_kinds = (f"{name.lower()}-identity",)

    def make_profile(self, rng) -> ServerProfile:
        vendor, product, versions = pick(rng, self._devices)
        version = pick(rng, versions)
        attributes = {
            "device_vendor": vendor,
            "device_model": product,
            "firmware": version,
            "unit_id": rng.randrange(1, 255),
        }
        return ServerProfile(self.name, (vendor, product, version), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == self._handshake_kind:
            attrs = profile.attributes
            return Reply(
                f"{self.name.lower()}-identity",
                self.name,
                {
                    "device_vendor": attrs["device_vendor"],
                    "device_model": attrs["device_model"],
                    "firmware": attrs["firmware"],
                    "unit_id": attrs["unit_id"],
                },
            )
        # Binary PLC stacks ignore text-based triggers.
        return silence()

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind == f"{self.name.lower()}-identity"

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe(self._handshake_kind)]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        key = self.name.lower()
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == f"{key}-identity":
                record[f"{key}.vendor"] = reply.fields["device_vendor"]
                record[f"{key}.model"] = reply.fields["device_model"]
                record[f"{key}.firmware"] = reply.fields["firmware"]
        return record


class ModbusSpec(IcsSpec):
    """Modbus/TCP with device-identification (function 43/14) and exceptions."""

    def __init__(self) -> None:
        super().__init__(
            "MODBUS",
            (502,),
            [
                ("schneider", "modicon_m340", ("2.7", "3.01")),
                ("schneider", "modicon_m580", ("2.80", "3.20")),
                ("wago", "750-8212", ("03.05.10",)),
                ("moxa", "mgate_mb3170", ("4.1",)),
                ("generic", "modbus_gateway", ("1.0",)),
            ],
        )
        self.fingerprint_kinds = (
            "modbus-identity", "modbus-device-id-response", "modbus-exception",
        )

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "modbus-device-id":
            attrs = profile.attributes
            return Reply(
                "modbus-device-id-response",
                self.name,
                {
                    "vendor_name": attrs["device_vendor"],
                    "product_code": attrs["device_model"],
                    "revision": attrs["firmware"],
                },
            )
        if probe.kind == "modbus-read-coils":
            return Reply("modbus-exception", self.name, {"function": 1, "exception_code": 2})
        return super().respond(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind in ("modbus-identity", "modbus-device-id-response", "modbus-exception")

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("modbus-handshake"), Probe("modbus-device-id")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record = super().build_record(replies)
        for reply in replies:
            if reply.kind == "modbus-device-id-response":
                record["modbus.vendor_name"] = reply.fields["vendor_name"]
                record["modbus.product_code"] = reply.fields["product_code"]
                record["modbus.revision"] = reply.fields["revision"]
        return record


class S7Spec(IcsSpec):
    """Siemens S7comm over COTP/TPKT with the SZL identity read."""

    def __init__(self) -> None:
        super().__init__(
            "S7",
            (102,),
            [
                ("siemens", "s7-300", ("3.3.12", "3.3.17")),
                ("siemens", "s7-1200", ("4.4.0", "4.5.2")),
                ("siemens", "s7-1500", ("2.9.2",)),
            ],
        )

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "s7-szl-read":
            attrs = profile.attributes
            return Reply(
                "s7-szl-response",
                self.name,
                {
                    "module_type": attrs["device_model"].upper(),
                    "serial_number": f"S C-{attrs['unit_id']:06d}",
                    "plant_identification": "",
                    "firmware": attrs["firmware"],
                },
            )
        return super().respond(profile, probe)

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("s7-handshake"), Probe("s7-szl-read")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record = super().build_record(replies)
        for reply in replies:
            if reply.kind == "s7-szl-response":
                record["s7.module_type"] = reply.fields["module_type"]
                record["s7.serial_number"] = reply.fields["serial_number"]
                record["s7.firmware"] = reply.fields["firmware"]
        return record


class BacnetSpec(IcsSpec):
    """BACnet/IP with ReadProperty of the device object."""

    def __init__(self) -> None:
        super().__init__(
            "BACNET",
            (47808,),
            [
                ("tridium", "jace-8000", ("4.10",)),
                ("johnson_controls", "fx80", ("14.10",)),
                ("automated_logic", "lgr1000", ("6.5",)),
                ("reliable_controls", "mach-pro", ("8.26",)),
            ],
            transport="udp",
        )

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "bacnet-read-property":
            attrs = profile.attributes
            return Reply(
                "bacnet-property-ack",
                self.name,
                {
                    "object_name": f"{attrs['device_model']}_{attrs['unit_id']}",
                    "vendor_name": attrs["device_vendor"],
                    "firmware_revision": attrs["firmware"],
                },
            )
        return super().respond(profile, probe)

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("bacnet-handshake"), Probe("bacnet-read-property")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record = super().build_record(replies)
        for reply in replies:
            if reply.kind == "bacnet-property-ack":
                record["bacnet.object_name"] = reply.fields["object_name"]
                record["bacnet.vendor_name"] = reply.fields["vendor_name"]
                record["bacnet.firmware_revision"] = reply.fields["firmware_revision"]
        return record


class FoxSpec(IcsSpec):
    """Tridium Niagara Fox with its plaintext hello exchange."""

    def __init__(self) -> None:
        super().__init__(
            "FOX",
            (1911, 4911),
            [
                ("tridium", "niagara_ax", ("3.8.38", "3.8.401")),
                ("tridium", "niagara4", ("4.10.0.154", "4.11.1.16")),
            ],
        )

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "fox-hello":
            attrs = profile.attributes
            return Reply(
                "fox-hello-response",
                self.name,
                {
                    "fox_version": "1.0.1",
                    "host_name": f"station_{attrs['unit_id']}",
                    "app_version": attrs["firmware"],
                    "vm_name": "Java HotSpot(TM) Embedded Client VM",
                },
            )
        return super().respond(profile, probe)

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("fox-handshake"), Probe("fox-hello")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record = super().build_record(replies)
        for reply in replies:
            if reply.kind == "fox-hello-response":
                record["fox.version"] = reply.fields["fox_version"]
                record["fox.host_name"] = reply.fields["host_name"]
                record["fox.app_version"] = reply.fields["app_version"]
        return record


class Dnp3Spec(IcsSpec):
    """DNP3 link-layer status request/response."""

    def __init__(self) -> None:
        super().__init__(
            "DNP3",
            (20000,),
            [
                ("ge", "d20mx", ("2.0",)),
                ("sel", "sel-3530", ("R143",)),
                ("schweitzer", "rtac", ("4.12",)),
            ],
        )

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "dnp3-link-status":
            return Reply(
                "dnp3-link-response",
                self.name,
                {"source_address": profile.attributes["unit_id"], "function": "LINK_STATUS"},
            )
        return super().respond(profile, probe)

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("dnp3-handshake"), Probe("dnp3-link-status")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record = super().build_record(replies)
        for reply in replies:
            if reply.kind == "dnp3-link-response":
                record["dnp3.source_address"] = reply.fields["source_address"]
        return record


def make_ics_specs() -> List[IcsSpec]:
    """Instantiate all twenty Table 4 protocols."""
    specs: List[IcsSpec] = [
        ModbusSpec(),
        S7Spec(),
        BacnetSpec(),
        FoxSpec(),
        Dnp3Spec(),
        IcsSpec(
            "ATG",
            (10001,),
            [("veeder-root", "tls-350", ("26",)), ("veeder-root", "tls-450", ("9B",))],
        ),
        IcsSpec("CIMON_PLC", (10260,), [("cimon", "cm1-xp", ("3.1",))]),
        IcsSpec("CMORE", (9999,), [("automationdirect", "ea9-t10cl", ("6.73",))]),
        IcsSpec(
            "CODESYS",
            (2455,),
            [("codesys", "control_runtime", ("2.3.9", "3.5.16")), ("wago", "pfc200", ("03.10.08",))],
        ),
        IcsSpec(
            "DIGI",
            (771,),
            [("digi", "connectport_x4", ("2.17",)), ("digi", "transport_wr21", ("5.2.17",))],
        ),
        IcsSpec(
            "EIP",
            (44818,),
            [
                ("rockwell", "1756-en2t", ("5.28", "10.10")),
                ("rockwell", "compactlogix_5370", ("30.014",)),
                ("omron", "nj501", ("1.49",)),
            ],
        ),
        IcsSpec(
            "FINS",
            (9600,),
            [("omron", "cj2m", ("2.1",)), ("omron", "cs1g", ("4.1",))],
            transport="udp",
        ),
        IcsSpec("GE_SRTP", (18245, 18246), [("ge", "rx3i", ("9.85",)), ("ge", "versamax", ("3.90",))]),
        IcsSpec("HART", (5094,), [("emerson", "hart-ip_gateway", ("1.1",))], transport="udp"),
        IcsSpec(
            "IEC60870",
            (2404,),
            [("abb", "rtu560", ("12.7",)), ("siemens", "sicam_a8000", ("14.20",))],
        ),
        IcsSpec("OPC_UA", (4840,), [("unified_automation", "ua_server", ("1.7.5",)), ("kepware", "kepserverex", ("6.14",))]),
        IcsSpec("PCOM", (20256,), [("unitronics", "vision570", ("4.5",))]),
        IcsSpec("PCWORX", (1962,), [("phoenix_contact", "ilc_350", ("3.95",))]),
        IcsSpec("PROCONOS", (20547,), [("kw_software", "proconos_eclr", ("3.1",))]),
        IcsSpec(
            "REDLION",
            (789,),
            [("red_lion", "g310", ("3.16",)), ("red_lion", "graphite_g12", ("3.30",))],
        ),
        IcsSpec(
            "WDBRPC",
            (17185,),
            [("wind_river", "vxworks", ("5.5", "6.9"))],
            transport="udp",
        ),
    ]
    return specs


#: Singleton list used by the registry.
ICS_SPECS = make_ics_specs()
