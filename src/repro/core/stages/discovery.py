"""The discovery stage: candidate generation for L7 interrogation.

Owns everything that decides *what to look at next*: the permutation
discovery tiers (plus temporary CVE-response tiers), the predictive
engine's proposals and re-injections, due refreshes from the scheduler,
and web-property name discovery.  Output is uniform — candidates pushed
into the :class:`~repro.scan.queue.ScanQueue` (and a due-name list for the
interrogation stage) — so interrogation can drain independently.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.scheduler import RefreshScheduler
from repro.core.stages.base import StageCounters
from repro.scan import PredictiveEngine, ScanQueue
from repro.scan.exclusions import ExclusionList
from repro.scan.pop import PointOfPresence
from repro.simnet import DAY, SimulatedInternet
from repro.simnet.instances import ServiceInstance
from repro.webprops import NameFeed

__all__ = ["TierSweep", "DiscoveryStage"]

#: Hours between re-scans of a discovered web-property name.
WEBPROP_REFRESH_HOURS = 30 * DAY


class TierSweep:
    """Walks a set of discovery tiers, one PoP-selection policy per sweep.

    The shared tier-walking mechanism: the Censys discovery stage rotates
    probes across its PoPs per tick, while the baseline engines (single
    vantage, no queue) run the same sweep with a fixed PoP.  Both iterate
    tiers in registration order, so hit order — and therefore every
    downstream RNG draw — is identical to the pre-stage inline loops.
    """

    def __init__(self, tiers: Optional[List] = None) -> None:
        self.tiers = list(tiers or [])

    def add(self, tier) -> None:
        self.tiers.append(tier)

    def sweep(self, tiers: List, t0: float, dt: float, pop_for_tier) -> Iterator[Tuple]:
        """Yield (tier, hit) over ``tiers``; ``pop_for_tier(i)`` picks the PoP."""
        for i, tier in enumerate(tiers):
            pop = pop_for_tier(i)
            for hit in tier.advance(t0, dt, pop):
                yield tier, hit

    def notify_new_instances(self, instances: List[ServiceInstance]) -> None:
        """Tell permanent tiers about endpoints injected mid-run."""
        for tier in self.tiers:
            for inst in instances:
                tier.notify_new_instance(inst)

    def probes_by_tier(self, tiers: Optional[List] = None) -> Dict[str, int]:
        return {tier.name: tier.probes_sent for tier in (tiers if tiers is not None else self.tiers)}


class DiscoveryStage:
    """Feeds the scan queue from tiers, models, refreshes, and name feeds."""

    def __init__(
        self,
        internet: SimulatedInternet,
        sweep: TierSweep,
        queue: ScanQueue,
        pops: List[PointOfPresence],
        exclusions: ExclusionList,
        predictive: PredictiveEngine,
        scheduler: RefreshScheduler,
        name_feed: NameFeed,
        *,
        predictive_enabled: bool = True,
        predictive_daily_budget: int = 4000,
    ) -> None:
        self.internet = internet
        self.sweep = sweep
        self.queue = queue
        self.pops = pops
        self.exclusions = exclusions
        self.predictive = predictive
        self.scheduler = scheduler
        self.name_feed = name_feed
        self.predictive_enabled = predictive_enabled
        self.predictive_daily_budget = predictive_daily_budget
        #: Temporary fast tiers spun up for CVE response: (tier, expires).
        self.cve_tiers: List[Tuple] = []
        #: name -> next refresh time.
        self._web_refresh: Dict[str, float] = {}
        self._tick_counter = 0
        self.counters = StageCounters(
            candidates_enqueued=0,
            candidates_excluded=0,
            predictive_proposed=0,
            reinjections=0,
            refreshes_scheduled=0,
            web_names_due=0,
        )

    # -- tier management ----------------------------------------------------

    @property
    def tiers(self) -> List:
        return self.sweep.tiers

    def add_cve_tier(self, tier, expires: float) -> None:
        self.cve_tiers.append((tier, expires))

    def active_tiers(self, t0: float) -> List:
        """Permanent tiers plus unexpired CVE-response tiers (pruning)."""
        self.cve_tiers = [(tier, expiry) for tier, expiry in self.cve_tiers if expiry > t0]
        return list(self.sweep.tiers) + [tier for tier, _ in self.cve_tiers]

    # -- the stage interface -------------------------------------------------

    def advance(self, t0: float, dt: float) -> List[str]:
        """One discovery slice; returns web-property names due for scanning.

        Order matters and is preserved from the original platform loop:
        tier sweeps, predictive proposals, re-injections, due refreshes
        (at ``t0 + dt``), then name-feed polling — each consuming the same
        RNG stream as the pre-refactor inline code.
        """
        self._tick_counter += 1
        counters = self.counters
        queue = self.queue
        pops = self.pops
        tick = self._tick_counter
        for tier, hit in self.sweep.sweep(
            self.active_tiers(t0), t0, dt,
            lambda i: pops[(tick + i) % len(pops)],
        ):
            if self.exclusions.is_excluded(hit.target.ip_index, hit.probe_time):
                counters.bump("candidates_excluded")
                continue
            if queue.push_new(
                hit.target.ip_index,
                hit.target.port,
                tier.transport,
                source="discovery",
                not_before=hit.probe_time + 0.1,
            ):
                counters.bump("candidates_enqueued")
        if self.predictive_enabled:
            self._predictive_work(t0, dt)
        now = t0 + dt
        self._schedule_refreshes(now)
        return self._discover_web_names(now)

    def _predictive_work(self, t0: float, dt: float) -> None:
        budget = max(1, int(self.predictive_daily_budget * dt / 24.0))
        for prediction in self.predictive.propose(budget):
            if self.queue.push_new(
                prediction.ip_index, prediction.port, "tcp",
                source="predictive", not_before=t0 + 0.05,
            ):
                self.counters.bump("predictive_proposed")
        for ip_index, port, transport in self.predictive.reinjections(t0):
            if self.queue.push_new(
                ip_index, port, transport, source="reinject", not_before=t0 + 0.05
            ):
                self.counters.bump("reinjections")

    def _schedule_refreshes(self, now: float) -> None:
        for known in self.scheduler.due_refreshes(now):
            self.queue.push_new(
                known.ip_index, known.port, known.transport,
                source="refresh", not_before=known.next_refresh,
                expected_protocol=known.protocol,
            )
            self.scheduler.mark_refresh_dispatched(known.ip_index, known.port, known.transport, now)
            self.counters.bump("refreshes_scheduled")

    def _discover_web_names(self, now: float) -> List[str]:
        """Poll the name feed; return names due for a web-property scan."""
        for discovered in self.name_feed.poll(now):
            self._web_refresh.setdefault(discovered.name, now)
        due = [name for name, when in self._web_refresh.items() if when <= now]
        for name in due:
            self._web_refresh[name] = now + WEBPROP_REFRESH_HOURS
        self.counters.bump("web_names_due", len(due))
        return due
