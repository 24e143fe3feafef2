"""The interrogation stage: L7 handshakes over queued candidates.

Drains the scan queue, runs protocol detection / full handshakes /
refresh fast-paths against the simulated Internet, and hands the
resulting observations to the ingest stage.  Also owns web-property
scanning (HTTP over names plus name-fed IPv6), which produces
observations through the same ingest path.
"""

from __future__ import annotations

import zlib
from typing import List, Optional

from repro.core.scheduler import RefreshScheduler
from repro.core.stages.base import StageCounters
from repro.core.stages.ingest import IngestStage
from repro.net import ip_to_str
from repro.pipeline import ScanObservation, host_entity_id
from repro.protocols import Interrogator
from repro.protocols.interrogate import InterrogationResult
from repro.scan import PredictiveEngine, ScanCandidate, ScanQueue
from repro.scan.exclusions import ExclusionList
from repro.scan.pop import PointOfPresence
from repro.simnet import SimulatedInternet
from repro.webprops import WebPropertyScanner

__all__ = ["InterrogationStage"]


class InterrogationStage:
    """Turns ready candidates into scan observations."""

    def __init__(
        self,
        internet: SimulatedInternet,
        interrogator: Interrogator,
        queue: ScanQueue,
        pops: List[PointOfPresence],
        exclusions: ExclusionList,
        scheduler: RefreshScheduler,
        predictive: PredictiveEngine,
        ingest: IngestStage,
        web_scanner: WebPropertyScanner,
        priority_port_set: frozenset,
        *,
        scanner_id: str = "censys",
        ingest_batch: int = 1,
        executor: Optional[object] = None,
    ) -> None:
        self.internet = internet
        self.interrogator = interrogator
        self.queue = queue
        self.pops = pops
        self._pop_names = [p.name for p in pops]
        self._pop_by_name = {p.name: p for p in pops}
        self.exclusions = exclusions
        self.scheduler = scheduler
        self.predictive = predictive
        self.ingest = ingest
        self.web_scanner = web_scanner
        self.priority_port_set = priority_port_set
        self.scanner_id = scanner_id
        #: Max observations per batched ingest call; 1 = the per-event
        #: reference path.  The batched drain is engineered bit-identical
        #: (see :meth:`_interrogate_batched`), so this is pure amortization.
        self.ingest_batch = ingest_batch
        #: Shard executor handed to ``submit_many`` for parallel ingest.
        self.executor = executor
        self.counters = StageCounters(
            interrogations_run=0,
            connect_failures=0,
            refresh_fastpaths=0,
            excluded_purged=0,
            web_scans=0,
            ipv6_scans=0,
        )

    def entity_for_ip(self, ip_index: int) -> str:
        return host_entity_id(ip_to_str(self.internet.space.ip_at(ip_index)))

    # -- the stage interface -------------------------------------------------

    def advance(self, now: float, dt: float) -> int:
        """Drain and interrogate ready candidates; returns work done."""
        candidates = self.queue.pop_ready(now)
        if self.ingest_batch > 1 and len(candidates) > 1:
            self._interrogate_batched(candidates, now, dt)
        else:
            for candidate in candidates:
                self._interrogate(candidate, min(max(candidate.not_before, now - dt), now))
        return len(candidates)

    # -- single-candidate pipeline -------------------------------------------

    def _pop_for(self, candidate: ScanCandidate) -> PointOfPresence:
        if candidate.source == "refresh":
            untried = self.scheduler.untried_pop(
                candidate.ip_index, candidate.port, candidate.transport, self._pop_names
            )
            if untried is not None:
                return self._pop_by_name[untried]
        # Rotate the serving PoP over time so an endpoint invisible from one
        # vantage (geoblocking, routing anomaly) is retried from the others.
        day = int(candidate.not_before // 24.0)
        return self.pops[(candidate.ip_index + candidate.port + day) % len(self.pops)]

    def _observe(self, candidate: ScanCandidate, t: float, entity: str):
        """Connect and interrogate one candidate; no journal interaction."""
        pop = self._pop_for(candidate)
        conn = self.internet.connect(
            candidate.ip_index, candidate.port, t, pop.vantage,
            transport=candidate.transport, scanner=self.scanner_id,
        )
        if conn is None:
            result = InterrogationResult(port=candidate.port, transport=candidate.transport, success=False)
            self.counters.bump("connect_failures")
        elif candidate.expected_protocol:
            result = self.interrogator.refresh(conn, candidate.expected_protocol)
            self.counters.bump("refresh_fastpaths")
        else:
            result = self.interrogator.interrogate(conn)
        obs = ScanObservation(
            entity_id=entity, time=t, port=candidate.port,
            transport=candidate.transport, result=result, source=candidate.source,
        )
        return pop, obs

    def _bookkeep(self, candidate: ScanCandidate, t: float, pop, entity: str, obs) -> None:
        """The post-ingest scheduler/predictive feedback for one candidate."""
        result = obs.result
        self.counters.bump("interrogations_run")
        binding = (candidate.ip_index, candidate.port, candidate.transport)
        if self.ingest.journal.peek_current(entity)["meta"].get("pseudo_host"):
            # Filtered host: stop refreshing its bindings and keep its noise
            # out of the predictive models.
            self.scheduler.forget(*binding)
            return
        if result.success and result.service_name:
            self.scheduler.service_seen(
                entity, candidate.ip_index, candidate.port, candidate.transport,
                result.protocol, t,
            )
            self.predictive.forget_evicted(*binding)
        elif self.scheduler.known(*binding) is not None:
            self.scheduler.refresh_failed(
                candidate.ip_index, candidate.port, candidate.transport, pop.name, t
            )
        if candidate.port not in self.priority_port_set and candidate.transport == "tcp":
            # Only fingerprint-validated services train the models: raw
            # unidentified responders (middleboxes, pseudo-services) would
            # otherwise send the sweeps chasing noise.
            if result.protocol is not None:
                self.predictive.observe(candidate.ip_index, candidate.port, True)
            elif not result.success:
                self.predictive.observe(candidate.ip_index, candidate.port, False)

    def _interrogate(self, candidate: ScanCandidate, t: float) -> None:
        if self.exclusions.is_excluded(candidate.ip_index, t):
            self._purge_excluded(candidate.ip_index, t)
            return
        entity = self.entity_for_ip(candidate.ip_index)
        pop, obs = self._observe(candidate, t, entity)
        self.ingest.submit(obs)
        self._bookkeep(candidate, t, pop, entity, obs)

    def _interrogate_batched(self, candidates: List[ScanCandidate], now: float, dt: float) -> None:
        """Chunked drain: identical work, one ``submit_many`` per chunk.

        Equality with the per-candidate loop is guaranteed by the flush
        rules: a chunk never holds two candidates of the same entity (so
        every cross-candidate feedback loop — scheduler ``untried_pop`` /
        ``service_seen`` / ``refresh_failed``, the pseudo-host check, the
        journal head used for stale-drops — sees exactly the state the
        reference would), and an excluded candidate's purge flushes the
        chunk first because it both reads and writes journal state.
        """
        chunk: List[tuple] = []
        chunk_entities: set = set()

        def flush() -> None:
            if not chunk:
                return
            self.ingest.submit_many([obs for _c, _t, _p, _e, obs in chunk],
                                    executor=self.executor)
            for candidate, t, pop, entity, obs in chunk:
                self._bookkeep(candidate, t, pop, entity, obs)
            chunk.clear()
            chunk_entities.clear()

        for candidate in candidates:
            t = min(max(candidate.not_before, now - dt), now)
            if self.exclusions.is_excluded(candidate.ip_index, t):
                flush()
                self._purge_excluded(candidate.ip_index, t)
                continue
            entity = self.entity_for_ip(candidate.ip_index)
            if entity in chunk_entities or len(chunk) >= self.ingest_batch:
                flush()
            pop, obs = self._observe(candidate, t, entity)
            chunk.append((candidate, t, pop, entity, obs))
            chunk_entities.add(entity)
        flush()

    def _purge_excluded(self, ip_index: int, t: float) -> None:
        """Drop everything known about a newly opted-out address."""
        entity = self.entity_for_ip(ip_index)
        state = self.ingest.journal.peek_current(entity)
        for key in list(state["services"]):
            self.ingest.remove_service(entity, key, t)
            port_text, _, transport = key.partition("/")
            self.scheduler.forget(ip_index, int(port_text), transport)
            self.predictive.forget_evicted(ip_index, int(port_text), transport)
        self.counters.bump("excluded_purged")

    # -- web properties -------------------------------------------------------

    def scan_web_properties(self, names: List[str], now: float, mark_dirty) -> None:
        """Scan due web-property names (and their name-fed IPv6 hosts)."""
        for name in names:
            pop = self.pops[zlib.crc32(name.encode()) % len(self.pops)]
            obs = self.web_scanner.scan(name, now, pop.vantage)
            self.ingest.submit(obs)
            self.counters.bump("web_scans")
            self._scan_ipv6_of_name(name, now, pop, mark_dirty)

    def _scan_ipv6_of_name(self, name: str, now: float, pop: PointOfPresence, mark_dirty) -> None:
        """Track and scan IPv6 addresses found through DNS of known names
        (§4.1 — no comprehensive IPv6 scanning, only name-fed)."""
        address = self.internet.resolve_name_v6(name, now)
        if address is None:
            return
        conn = self.internet.connect_v6(
            address, now, pop.vantage, scanner=self.scanner_id, sni=name
        )
        if conn is None:
            result = None
        else:
            result = self.interrogator.interrogate(conn)
        if result is None or not result.success:
            result = InterrogationResult(port=conn.port if conn else 443, transport="tcp", success=False)
        obs = ScanObservation(
            entity_id=f"host6:{address}", time=now, port=result.port,
            transport="tcp", result=result, source="name",
        )
        self.ingest.submit(obs)
        self.counters.bump("ipv6_scans")
        mark_dirty(f"host6:{address}")
