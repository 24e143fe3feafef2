"""The simulated Internet: probe-level and connection-level access to the
ground-truth population.

Two access paths mirror the paper's two scan phases:

* **L4 segment queries** — a scan tier walks a permutation over a probe
  space; :class:`PreparedScanIndex` answers "which live endpoints fall in
  permutation positions [s, s+L)?" in O(log n + hits) using the inverse
  permutation, so full-space scans never enumerate dead probes.

* **L7 connections** — :meth:`SimulatedInternet.connect` establishes a
  connection to one endpoint, applying vantage-dependent reachability
  (packet loss, weekly routing anomalies, geoblocking), and returns a
  :class:`SimConnection` speaking the probe/reply protocol model (with TLS
  session gating).

The hot paths are NumPy-batched: the index keeps column arrays per indexed
endpoint (position, lifetime window, network ordinal, reachability salt) —
regular instances in one block, all pseudo-host (ip, port) rows merged into
a second — so a segment query is a pair of binary searches per block plus
whole-array liveness/reachability masks, with ``ProbeHit`` objects
materialized only for survivors.  Reachability draws run through the
vectorized splitmix64 kernel in :mod:`repro.net.mixvec`.  One address
at a time (every L7 connect) runs the scalar physics in
:meth:`SimulatedInternet.reachable` instead — a 1-element trip through
the array kernel costs ~12x as much — and that scalar body doubles as
the kernel's reference, as :meth:`PreparedScanIndex.query_reference`
does for segment queries; ``benchmarks/test_perf_regression.py`` holds
each pair equal on seeded inputs.

Honeypot contacts are logged with the observing engine's identity, feeding
the Table 5 time-to-discovery experiment.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.net import AddressSpace, AffinePermutation, ProbeSpace, ProbeTarget
from repro.net.cyclic import _mix64
from repro.net.mixvec import MASK64, mix64_array
from repro.protocols.base import Probe, Reply, ServerProfile, reset, silence
from repro.protocols.registry import ProtocolRegistry, default_registry
from repro.protocols.tlslayer import tls_server_hello
from repro.simnet.instances import PseudoHost, ServiceInstance, WebProperty
from repro.simnet.topology import Topology
from repro.simnet.workload import Workload

__all__ = ["Vantage", "ProbeHit", "PreparedScanIndex", "SimConnection", "SimulatedInternet"]


@dataclass(frozen=True, slots=True)
class Vantage:
    """A scanning vantage point's network identity."""

    name: str
    region: str           # "us" | "eu" | "asia"
    provider: str = ""
    loss_rate: float = 0.03
    vantage_id: int = 0


class ProbeHit(NamedTuple):
    """One responsive L4 probe inside a queried segment.

    A NamedTuple for the same reason as :class:`ProbeTarget`: queries
    materialize thousands per simulated day, and tuple construction is the
    cheapest record instantiation Python offers.
    """

    target: ProbeTarget
    probe_time: float
    instance: Optional[ServiceInstance] = None
    pseudo: Optional[PseudoHost] = None


#: Bypasses NamedTuple.__new__ argument re-packing on the hot paths.
_tuple_new = tuple.__new__


@dataclass(slots=True)
class HoneypotContact:
    """A probe or connection observed by a honeypot."""

    time: float
    scanner: str
    ip_index: int
    port: int
    layer: str  # "l4" or "l7"


#: A block's surviving hits plus their probe times (for the final merge).
_CollectedPart = Tuple[List[ProbeHit], np.ndarray]


def _wrapped_offsets(positions: np.ndarray, start: int, m: int) -> np.ndarray:
    """(position - start) mod m for a sorted uint64 position slice."""
    offsets = positions.astype(np.int64)
    offsets -= start
    # Sorted input means the sign pattern is a prefix of negatives; the
    # scalar peeks skip the mask pass for the all/none-wrapped cases.
    if offsets[0] >= 0:
        return offsets
    if offsets[-1] < 0:
        offsets += m
        return offsets
    offsets[offsets < 0] += m
    return offsets


class _InstanceColumns:
    """Columnar view of position-indexed instances, sorted by position.

    One whole-array pass over a position slice replaces the per-element
    liveness and reachability checks of the scalar path.
    """

    __slots__ = ("positions", "birth", "death", "net_ords", "salts", "refs", "any_honeypot")

    def __init__(self, internet: "SimulatedInternet", positions: np.ndarray, refs: List[ServiceInstance]):
        self.positions = positions                      # uint64, sorted
        self.refs = refs
        self.birth = np.asarray([i.birth for i in refs], dtype=np.float64)
        self.death = np.asarray([i.death for i in refs], dtype=np.float64)
        ips = np.asarray([i.ip_index for i in refs], dtype=np.int64)
        self.net_ords = internet.topology.ordinals_of(ips)
        self.salts = np.asarray([i.instance_id & MASK64 for i in refs], dtype=np.uint64)
        self.any_honeypot = any(i.is_honeypot for i in refs)

    def __len__(self) -> int:
        return len(self.refs)

    def collect(
        self,
        internet: "SimulatedInternet",
        lo: int,
        hi: int,
        start: int,
        m: int,
        t0: float,
        rate: float,
        vantage: Vantage,
        scanner: str,
    ) -> Optional[_CollectedPart]:
        # uint64 needles: a Python-int needle forces a dtype-promoting
        # comparison over the whole column (~100x slower per search).
        left = int(self.positions.searchsorted(np.uint64(lo), side="left"))
        right = int(self.positions.searchsorted(np.uint64(hi), side="left"))
        if left == right:
            return None
        window = slice(left, right)
        times = t0 + _wrapped_offsets(self.positions[window], start, m) / rate
        keep = (self.birth[window] <= times) & (times < self.death[window])
        if not keep.any():
            return None
        keep &= internet._reachable_kernel(self.net_ords[window], self.salts[window], vantage, times)
        survivors = np.nonzero(keep)[0]
        if survivors.size == 0:
            return None
        sel_times = times[survivors]
        refs = self.refs
        sel_refs = [refs[i] for i in (survivors + left).tolist()]
        hits = [
            _tuple_new(ProbeHit, (_tuple_new(ProbeTarget, (inst.ip_index, inst.port)), probe_time, inst, None))
            for inst, probe_time in zip(sel_refs, sel_times.tolist())
        ]
        if self.any_honeypot:
            for hit in hits:
                if hit.instance.is_honeypot:
                    internet.log_honeypot_contact(hit.instance, hit.probe_time, scanner, "l4")
        return hits, sel_times


class _PseudoColumns:
    """All pseudo-host (ip, port) rows of a probe space in one sorted block.

    Per-row state is two small gathers away (owner ordinal -> lifetime,
    network ordinal, salt), so one segment query costs one searchsorted
    pair regardless of how many pseudo-hosts the space contains.
    """

    __slots__ = ("positions", "ports", "owners", "pseudos", "birth", "death", "net_ords", "salts")

    def __init__(
        self,
        positions: np.ndarray,
        ports: np.ndarray,
        owners: np.ndarray,
        pseudos: List[PseudoHost],
        net_ords: np.ndarray,
    ) -> None:
        self.positions = positions   # uint64, sorted
        self.ports = ports           # int64, aligned
        self.owners = owners         # int32 index into pseudos, aligned
        self.pseudos = pseudos
        self.birth = np.asarray([p.birth for p in pseudos], dtype=np.float64)
        self.death = np.asarray([p.death for p in pseudos], dtype=np.float64)
        self.net_ords = net_ords     # per pseudo
        self.salts = np.asarray([(-p.pseudo_id - 1) & MASK64 for p in pseudos], dtype=np.uint64)

    def collect(
        self,
        internet: "SimulatedInternet",
        lo: int,
        hi: int,
        start: int,
        m: int,
        t0: float,
        rate: float,
        vantage: Vantage,
    ) -> Optional[_CollectedPart]:
        left = int(self.positions.searchsorted(np.uint64(lo), side="left"))
        right = int(self.positions.searchsorted(np.uint64(hi), side="left"))
        if left == right:
            return None
        window = slice(left, right)
        times = t0 + _wrapped_offsets(self.positions[window], start, m) / rate
        owners = self.owners[window]
        keep = (self.birth[owners] <= times) & (times < self.death[owners])
        if not keep.any():
            return None
        keep &= internet._reachable_kernel(self.net_ords[owners], self.salts[owners], vantage, times)
        survivors = np.nonzero(keep)[0]
        if survivors.size == 0:
            return None
        sel_times = times[survivors]
        pseudos = self.pseudos
        sel_pseudos = [pseudos[o] for o in owners[survivors].tolist()]
        hits = [
            _tuple_new(ProbeHit, (_tuple_new(ProbeTarget, (p.ip_index, port)), probe_time, None, p))
            for p, port, probe_time in zip(
                sel_pseudos,
                self.ports[survivors + left].tolist(),
                sel_times.tolist(),
            )
        ]
        return hits, sel_times


class PreparedScanIndex:
    """Position index of a probe space under one permutation.

    Regular instances contribute single (position, instance) entries backed
    by column arrays; pseudo-hosts contribute rows covering every port of
    the space, merged into one sorted block.  Instances added later
    (honeypots) live in a small position-sorted overflow block answered by
    the same searchsorted path.
    """

    def __init__(
        self,
        internet: "SimulatedInternet",
        space: ProbeSpace,
        permutation: AffinePermutation,
        transport: str = "tcp",
    ) -> None:
        self.internet = internet
        self.space = space
        self.permutation = permutation
        self.transport = transport
        positions: List[int] = []
        refs: List[ServiceInstance] = []
        for inst in internet.workload.instances:
            if self._covers(inst):
                positions.append(permutation.position(space.flatten(inst.ip_index, inst.port)))
                refs.append(inst)
        order = np.argsort(np.asarray(positions, dtype=np.uint64)) if positions else np.array([], dtype=np.int64)
        sorted_positions = np.asarray(positions, dtype=np.uint64)[order]
        sorted_refs = [refs[i] for i in order]
        self._cols = _InstanceColumns(internet, sorted_positions, sorted_refs)
        self._pseudo_cols: Optional[_PseudoColumns] = None
        if transport == "tcp":
            self._pseudo_cols = self._index_pseudo_hosts()
        #: Late-added instances, kept sorted by position (same searchsorted
        #: path as the main columns; rebuilt on each add — adds are rare).
        self._extras: List[Tuple[int, ServiceInstance]] = []
        self._extra_cols: Optional[_InstanceColumns] = None

    def _covers(self, inst: ServiceInstance) -> bool:
        return (
            inst.transport == self.transport
            and self.space.contains_port(inst.port)
            and self.space.contains_ip(inst.ip_index)
        )

    def _index_pseudo_hosts(self) -> Optional[_PseudoColumns]:
        ports = np.asarray(self.space.ports, dtype=np.int64)
        a, b = self.permutation.coefficients
        m = self.permutation.n
        a_inv = pow(a, -1, m)
        pseudos: List[PseudoHost] = []
        position_parts: List[np.ndarray] = []
        for pseudo in self.internet.workload.pseudo_hosts:
            if not self.space.contains_ip(pseudo.ip_index):
                continue
            # Elements for one IP are the contiguous block [base, base+P);
            # their positions form an arithmetic progression with stride
            # a_inv (mod m), which vectorizes without per-port flattening.
            base = self.space.flatten(pseudo.ip_index, self.space.ports[0])
            pos0 = (base - b) * a_inv % m
            k = np.arange(len(ports), dtype=np.uint64)
            # k*a_inv < ports * m < 2**64 for any in-scope space, and the
            # reduced term + pos0 < 2*m, so no uint64 wrap before the mods.
            position_parts.append((k * np.uint64(a_inv) % np.uint64(m) + np.uint64(pos0)) % np.uint64(m))
            pseudos.append(pseudo)
        if not pseudos:
            return None
        port_count = len(ports)
        all_positions = np.concatenate(position_parts)
        all_ports = np.tile(ports, len(pseudos))
        all_owners = np.repeat(np.arange(len(pseudos), dtype=np.int32), port_count)
        order = np.argsort(all_positions, kind="stable")
        net_ords = self.internet.topology.ordinals_of(
            np.asarray([p.ip_index for p in pseudos], dtype=np.int64)
        )
        return _PseudoColumns(
            all_positions[order], all_ports[order], all_owners[order], pseudos, net_ords
        )

    def add_instance(self, inst: ServiceInstance) -> bool:
        """Index a late-added instance (honeypots); False if out of space."""
        if not self._covers(inst):
            return False
        position = self.permutation.position(self.space.flatten(inst.ip_index, inst.port))
        insort(self._extras, (position, inst), key=lambda pair: pair[0])
        extra_positions = np.asarray([p for p, _ in self._extras], dtype=np.uint64)
        self._extra_cols = _InstanceColumns(self.internet, extra_positions, [i for _, i in self._extras])
        return True

    # ------------------------------------------------------------------

    def query(
        self,
        start: int,
        count: int,
        t0: float,
        rate: float,
        vantage: Vantage,
        scanner: str = "",
    ) -> List[ProbeHit]:
        """Responsive endpoints among positions [start, start+count).

        ``t0`` is the time the probe at ``start`` is sent and ``rate`` the
        probes-per-hour pace; each hit carries its interpolated probe time.
        Unreachable endpoints (loss, routing, geoblocking) are dropped, like
        lost SYN-ACKs in a stateless scan.
        """
        m = self.permutation.n
        count = min(count, m)
        ranges = _mod_ranges(start, count, m)
        internet = self.internet
        parts: List[_CollectedPart] = []
        for lo, hi in ranges:
            part = self._cols.collect(internet, lo, hi, start, m, t0, rate, vantage, scanner)
            if part is not None:
                parts.append(part)
            if self._pseudo_cols is not None:
                part = self._pseudo_cols.collect(internet, lo, hi, start, m, t0, rate, vantage)
                if part is not None:
                    parts.append(part)
        if self._extra_cols is not None:
            for lo, hi in ranges:
                part = self._extra_cols.collect(internet, lo, hi, start, m, t0, rate, vantage, scanner)
                if part is not None:
                    parts.append(part)
        if not parts:
            return []
        if len(parts) == 1:
            return parts[0][0]  # one block: already in probe-time order
        hits = [hit for block_hits, _ in parts for hit in block_hits]
        order = np.argsort(np.concatenate([times for _, times in parts]), kind="stable")
        return [hits[i] for i in order.tolist()]

    # -- retained scalar reference (the perf-regression equality gate) ------

    def query_reference(
        self,
        start: int,
        count: int,
        t0: float,
        rate: float,
        vantage: Vantage,
        scanner: str = "",
        log_contacts: bool = False,
    ) -> List[ProbeHit]:
        """Per-element scalar twin of :meth:`query`.

        Must return exactly the same hits as the vectorized path; honeypot
        contact logging is off by default so comparison runs do not pollute
        the contact log.
        """
        m = self.permutation.n
        count = min(count, m)
        ranges = _mod_ranges(start, count, m)
        internet = self.internet
        hits: List[ProbeHit] = []

        def offset_of(position: int) -> int:
            return (position - start) % m

        def scan_block(cols: _InstanceColumns, lo: int, hi: int) -> None:
            left = int(cols.positions.searchsorted(np.uint64(lo), side="left"))
            right = int(cols.positions.searchsorted(np.uint64(hi), side="left"))
            for i in range(left, right):
                inst = cols.refs[i]
                probe_time = t0 + offset_of(int(cols.positions[i])) / rate
                if not inst.alive_at(probe_time):
                    continue
                if not internet.reachable(inst.ip_index, vantage, probe_time, salt=inst.instance_id):
                    continue
                hits.append(ProbeHit(ProbeTarget(inst.ip_index, inst.port), probe_time, instance=inst))
                if inst.is_honeypot and log_contacts:
                    internet.log_honeypot_contact(inst, probe_time, scanner, "l4")

        for lo, hi in ranges:
            scan_block(self._cols, lo, hi)
            pseudo_cols = self._pseudo_cols
            if pseudo_cols is not None:
                p_left = int(pseudo_cols.positions.searchsorted(np.uint64(lo), side="left"))
                p_right = int(pseudo_cols.positions.searchsorted(np.uint64(hi), side="left"))
                for j in range(p_left, p_right):
                    pseudo = pseudo_cols.pseudos[int(pseudo_cols.owners[j])]
                    probe_time = t0 + offset_of(int(pseudo_cols.positions[j])) / rate
                    if not pseudo.alive_at(probe_time):
                        continue
                    if not internet.reachable(
                        pseudo.ip_index, vantage, probe_time, salt=-pseudo.pseudo_id - 1
                    ):
                        continue
                    hits.append(
                        ProbeHit(
                            ProbeTarget(pseudo.ip_index, int(pseudo_cols.ports[j])),
                            probe_time,
                            pseudo=pseudo,
                        )
                    )
        if self._extra_cols is not None:
            for lo, hi in ranges:
                scan_block(self._extra_cols, lo, hi)
        hits.sort(key=lambda h: h.probe_time)
        return hits


def _mod_ranges(start: int, count: int, m: int) -> List[Tuple[int, int]]:
    """[start, start+count) mod m as one or two half-open ranges."""
    start %= m
    if count >= m:
        return [(0, m)]
    end = start + count
    if end <= m:
        return [(start, end)]
    return [(start, m), (0, end - m)]


class SimConnection:
    """An established L4 connection to one simulated endpoint."""

    def __init__(
        self,
        internet: "SimulatedInternet",
        port: int,
        transport: str,
        time: float,
        instance: Optional[ServiceInstance] = None,
        pseudo: Optional[PseudoHost] = None,
        scanner: str = "",
        sni: Optional[str] = None,
    ) -> None:
        self.internet = internet
        self.port = port
        self.transport = transport
        self.time = time
        self.instance = instance
        self.pseudo = pseudo
        self.scanner = scanner
        self.sni = sni
        self._in_tls = False

    @property
    def in_tls(self) -> bool:
        return self._in_tls

    @property
    def _profile(self) -> Optional[ServerProfile]:
        return self.instance.profile if self.instance is not None else None

    def send(self, probe: Probe) -> Reply:
        if self.pseudo is not None:
            # Pseudo-hosts answer everything with the same opaque banner.
            return Reply("banner", "PSEUDO", {"banner": self.pseudo.banner})
        profile = self._profile
        if profile is None or profile.protocol == "NONE":
            return silence()
        if profile.tls is not None and not self._in_tls:
            # Plaintext data at a TLS endpoint: alert + close.  A passive
            # wait sees nothing (the server awaits a ClientHello).
            if probe.kind == "banner-wait":
                return silence()
            return reset()
        spec = self.internet.registry.get(profile.protocol)
        if self.sni is not None and probe.kind == "http-get" and "host" not in probe.payload:
            probe = Probe(probe.kind, dict(probe.payload, host=self.sni))
        return spec.respond(profile, probe)

    def start_tls(self) -> Optional[Reply]:
        profile = self._profile
        if profile is None or profile.tls is None:
            return None
        self._in_tls = True
        return tls_server_hello(profile.tls, sni=self.sni)


class _AliveIndex:
    """Interval index over instance lifetimes for stabbing queries.

    Instances sorted by birth: the candidates alive at ``t`` are the prefix
    with ``birth <= t`` (one binary search), filtered by a vectorized
    ``death > t`` mask — no full-workload Python scan per call.
    """

    __slots__ = ("size", "order", "births", "deaths", "real")

    def __init__(self, instances: Sequence[ServiceInstance]) -> None:
        self.size = len(instances)
        births = np.asarray([i.birth for i in instances], dtype=np.float64)
        self.order = np.argsort(births, kind="stable").astype(np.int64)
        self.births = births[self.order]
        deaths = np.asarray([i.death for i in instances], dtype=np.float64)
        self.deaths = deaths[self.order]
        real = np.asarray([i.protocol != "NONE" for i in instances], dtype=bool)
        self.real = real[self.order]

    def alive_indices(self, t: float, real_only: bool) -> np.ndarray:
        """Workload indices of instances alive at ``t``, in workload order."""
        j = int(np.searchsorted(self.births, t, side="right"))
        mask = self.deaths[:j] > t
        if real_only:
            mask &= self.real[:j]
        selected = self.order[:j][mask]
        selected.sort()
        return selected


class SimulatedInternet:
    """Ground-truth population plus visibility physics."""

    #: Probability a network is unreachable from a given vantage for a week
    #: (routing anomalies / transient blocking, per Wan et al.).
    ROUTING_BLOCK_RATE = 0.02

    def __init__(
        self,
        space: AddressSpace,
        topology: Topology,
        workload: Workload,
        registry: ProtocolRegistry | None = None,
        seed: int = 0,
    ) -> None:
        self.space = space
        self.topology = topology
        self.workload = workload
        self.registry = registry or default_registry()
        self.seed = seed
        self.honeypot_contacts: List[HoneypotContact] = []
        self._by_binding: Dict[Tuple[int, int], List[ServiceInstance]] = {}
        self._by_device: Dict[int, List[ServiceInstance]] = {}
        for inst in workload.instances:
            self._by_binding.setdefault(inst.key, []).append(inst)
            self._by_device.setdefault(inst.device_id, []).append(inst)
        for chain in self._by_binding.values():
            chain.sort(key=lambda i: i.birth)
        self._pseudo_by_ip: Dict[int, PseudoHost] = {p.ip_index: p for p in workload.pseudo_hosts}
        self._webprops_by_name: Dict[str, WebProperty] = {p.name: p for p in workload.web_properties}
        self._alive_index: Optional[_AliveIndex] = None
        #: (vantage_id, week) -> per-network routing-block mask.
        self._routing_block_masks: Dict[Tuple[int, int], np.ndarray] = {}
        # Dual-stack: ~60% of devices fronting web properties also hold an
        # IPv6 address, discoverable only through DNS on known names (the
        # paper does not run comprehensive IPv6 scans either).
        self._v6_by_device: Dict[int, str] = {}
        self._device_by_v6: Dict[str, int] = {}
        for prop in workload.web_properties:
            if prop.device_id in self._v6_by_device:
                continue
            if _mix64(seed ^ prop.device_id * 0xD1CE) % 100 < 60:
                address = f"2001:db8::{prop.device_id:x}"
                self._v6_by_device[prop.device_id] = address
                self._device_by_v6[address] = prop.device_id
        self._next_instance_id = max((i.instance_id for i in workload.instances), default=0) + 1

    # -- population access -------------------------------------------------

    def instance_at(self, ip_index: int, port: int, t: float) -> Optional[ServiceInstance]:
        for inst in self._by_binding.get((ip_index, port), ()):
            if inst.alive_at(t):
                return inst
        return None

    def pseudo_at(self, ip_index: int, t: float) -> Optional[PseudoHost]:
        pseudo = self._pseudo_by_ip.get(ip_index)
        if pseudo is not None and pseudo.alive_at(t):
            return pseudo
        return None

    def _alive(self) -> _AliveIndex:
        index = self._alive_index
        if index is None or index.size != len(self.workload.instances):
            index = _AliveIndex(self.workload.instances)
            self._alive_index = index
        return index

    def services_alive_at(self, t: float) -> List[ServiceInstance]:
        instances = self.workload.instances
        return [instances[i] for i in self._alive().alive_indices(t, real_only=True)]

    def instances_alive_at(self, t: float) -> List[ServiceInstance]:
        """All live instances at ``t``, phantoms included (indexed query)."""
        instances = self.workload.instances
        return [instances[i] for i in self._alive().alive_indices(t, real_only=False)]

    def device_instances(self, device_id: int) -> List[ServiceInstance]:
        return list(self._by_device.get(device_id, ()))

    def add_instance(self, inst: ServiceInstance) -> None:
        """Inject an instance at runtime (honeypot deployments)."""
        self.workload.instances.append(inst)
        self._by_binding.setdefault(inst.key, []).append(inst)
        self._by_binding[inst.key].sort(key=lambda i: i.birth)
        self._by_device.setdefault(inst.device_id, []).append(inst)
        self._alive_index = None

    def allocate_instance_id(self) -> int:
        self._next_instance_id += 1
        return self._next_instance_id

    # -- reachability -------------------------------------------------------

    def _reachable_kernel(
        self,
        net_ords: np.ndarray,
        salts: np.ndarray,
        vantage: Vantage,
        times: np.ndarray,
    ) -> np.ndarray:
        """Vectorized visibility physics over pre-resolved network ordinals.

        ``net_ords`` and ``salts`` must be arrays (broadcastable against
        ``times``); ``salts`` must already be ``uint64`` — the two's
        complement of negative salts, exactly as the scalar path masks
        them.  All uint64 arithmetic wraps mod 2**64, matching the scalar
        mixer's explicit masking.
        """
        topology = self.topology
        geo_blocked = topology.region_blocked_array(vantage.region)[net_ords]
        weeks = np.floor_divide(times, 7 * 24.0).astype(np.int64)
        week_lo = int(weeks.min()) if weeks.size else 0
        week_hi = int(weeks.max()) if weeks.size else 0
        if week_lo == week_hi:
            # The common case — a segment spans one routing week, and the
            # block draw only depends on (network, vantage, week): gather
            # from a cached per-network mask instead of re-mixing.
            routing_blocked = self._routing_block_mask(vantage, week_lo)[net_ords]
        else:
            net_ids = topology.network_id_array[net_ords].view(np.uint64)
            block_base = np.uint64((self.seed ^ vantage.vantage_id * 0x79B9) & MASK64)
            block_draw = mix64_array(block_base ^ net_ids * np.uint64(0x9E37) ^ weeks.view(np.uint64))
            routing_blocked = (block_draw % np.uint64(10_000)) < self.ROUTING_BLOCK_RATE * 10_000
        visible = ~(geo_blocked | routing_blocked)
        if vantage.loss_rate <= 0.0:
            return visible  # threshold 0: every loss draw passes
        windows = np.floor_divide(times, 6.0).astype(np.int64).view(np.uint64)
        loss_base = np.uint64((self.seed ^ vantage.vantage_id * 0x85EB) & MASK64)
        loss_draw = mix64_array(loss_base ^ salts * np.uint64(0xC2B2) ^ windows)
        delivered = (loss_draw % np.uint64(10_000)) >= vantage.loss_rate * 10_000
        return visible & delivered

    def _routing_block_mask(self, vantage: Vantage, week: int) -> np.ndarray:
        """Per-network routing-block mask for one (vantage, week)."""
        key = (vantage.vantage_id, week)
        mask = self._routing_block_masks.get(key)
        if mask is None:
            base = np.uint64((self.seed ^ vantage.vantage_id * 0x79B9 ^ (week & MASK64)) & MASK64)
            ids = self.topology.network_id_array.view(np.uint64)
            draws = mix64_array(base ^ ids * np.uint64(0x9E37))
            mask = (draws % np.uint64(10_000)) < self.ROUTING_BLOCK_RATE * 10_000
            self._routing_block_masks[key] = mask
        return mask

    def reachable_many(
        self,
        ip_indices,
        vantage: Vantage,
        times,
        salts=None,
    ) -> np.ndarray:
        """Batched :meth:`reachable`: boolean array over aligned inputs.

        ``ip_indices``, ``times``, and ``salts`` broadcast against each
        other (any may be scalar); salts may be negative, matching the
        pseudo-host convention.
        """
        ips = np.asarray(ip_indices, dtype=np.int64)
        times_arr = np.asarray(times, dtype=np.float64)
        if salts is None:
            salts_u = np.zeros(1, dtype=np.uint64)
        else:
            salts_arr = np.asarray(salts)
            salts_u = salts_arr if salts_arr.dtype == np.uint64 else salts_arr.astype(np.int64).view(np.uint64)
        net_ords = self.topology.ordinals_of(ips)
        return self._reachable_kernel(net_ords, np.atleast_1d(salts_u), vantage, times_arr)

    def reachable(self, ip_index: int, vantage: Vantage, t: float, salt: int = 0) -> bool:
        """Whether a probe from ``vantage`` reaches ``ip_index`` at ``t``.

        The scalar physics, one address at a time: a bisect for the owning
        network, the region check, and two splitmix64 draws (weekly routing
        block, 6-hourly loss).  :meth:`reachable_many` is the same physics
        over arrays; pushing one element through it costs ~12x this body,
        so the per-candidate callers (``connect``, ``connect_v6``) stay
        here.  ``_mix64`` masks to 64 bits, so a negative pseudo-host salt
        draws as the kernel's two's-complement view of it.
        """
        network = self.topology.network_of(ip_index)
        if vantage.region in network.blocked_regions:
            return False
        week = int(t // (7 * 24.0))
        block_draw = _mix64(self.seed ^ network.network_id * 0x9E37 ^ vantage.vantage_id * 0x79B9 ^ week)
        if (block_draw % 10_000) < self.ROUTING_BLOCK_RATE * 10_000:
            return False
        window = int(t // 6.0)  # transient loss re-rolls every 6 hours
        loss_draw = _mix64(self.seed ^ salt * 0xC2B2 ^ vantage.vantage_id * 0x85EB ^ window)
        return (loss_draw % 10_000) >= vantage.loss_rate * 10_000

    # -- connections ----------------------------------------------------------

    def connect(
        self,
        ip_index: int,
        port: int,
        t: float,
        vantage: Vantage,
        transport: str = "tcp",
        scanner: str = "",
        sni: Optional[str] = None,
    ) -> Optional[SimConnection]:
        """Open a connection; None when nothing answers (down/unreachable)."""
        inst = self.instance_at(ip_index, port, t)
        if inst is not None and inst.transport == transport:
            if not self.reachable(ip_index, vantage, t, salt=inst.instance_id):
                return None
            if inst.is_honeypot:
                self.log_honeypot_contact(inst, t, scanner, "l7")
            return SimConnection(self, port, transport, t, instance=inst, scanner=scanner, sni=sni)
        if transport == "tcp":
            pseudo = self.pseudo_at(ip_index, t)
            if pseudo is not None and self.reachable(ip_index, vantage, t, salt=-pseudo.pseudo_id - 1):
                return SimConnection(self, port, transport, t, pseudo=pseudo, scanner=scanner)
        return None

    # -- names ---------------------------------------------------------------

    def resolve_name(self, name: str, t: float) -> Optional[Tuple[int, int]]:
        """DNS: resolve a web-property name to its current (ip, port)."""
        prop = self._webprops_by_name.get(name)
        if prop is None:
            return None
        for inst in self._by_device.get(prop.device_id, ()):
            if inst.alive_at(t) and inst.protocol == "HTTP":
                return (inst.ip_index, inst.port)
        return None

    def resolve_name_v6(self, name: str, t: float) -> Optional[str]:
        """DNS AAAA: the IPv6 address of a dual-stack web property."""
        prop = self._webprops_by_name.get(name)
        if prop is None:
            return None
        address = self._v6_by_device.get(prop.device_id)
        if address is None:
            return None
        if any(i.alive_at(t) and i.protocol == "HTTP" for i in self._by_device.get(prop.device_id, ())):
            return address
        return None

    def connect_v6(
        self,
        address: str,
        t: float,
        vantage: Vantage,
        scanner: str = "",
        sni: Optional[str] = None,
    ) -> Optional[SimConnection]:
        """Connect to a dual-stack device over IPv6 (port follows the
        fronting v4 service; dual-stack serves the same content)."""
        device_id = self._device_by_v6.get(address)
        if device_id is None:
            return None
        for inst in self._by_device.get(device_id, ()):
            if inst.alive_at(t) and inst.protocol == "HTTP":
                if not self.reachable(inst.ip_index, vantage, t, salt=inst.instance_id ^ 0x6666):
                    return None
                return SimConnection(self, inst.port, "tcp", t, instance=inst, scanner=scanner, sni=sni)
        return None

    @property
    def dual_stack_device_count(self) -> int:
        return len(self._v6_by_device)

    # -- scanning -------------------------------------------------------------

    def prepare_scan(
        self, space: ProbeSpace, permutation: AffinePermutation, transport: str = "tcp"
    ) -> PreparedScanIndex:
        return PreparedScanIndex(self, space, permutation, transport)

    # -- honeypots --------------------------------------------------------------

    def log_honeypot_contact(self, inst: ServiceInstance, t: float, scanner: str, layer: str) -> None:
        self.honeypot_contacts.append(
            HoneypotContact(time=t, scanner=scanner, ip_index=inst.ip_index, port=inst.port, layer=layer)
        )
