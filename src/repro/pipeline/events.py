"""Journal events: the write-side's unit of state change.

Events are delta encoded — a ``service_changed`` event carries only the
fields that differ from the previous scan, because "most services change
very little across refresh scans".  A ``service_refreshed`` event (observed,
nothing changed) carries an empty delta and costs almost nothing to store.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

__all__ = ["EventKind", "Event", "service_key"]


class EventKind:
    """Event vocabulary for host / web-property / certificate entities."""

    SERVICE_FOUND = "service_found"
    SERVICE_CHANGED = "service_changed"
    SERVICE_REFRESHED = "service_refreshed"
    SERVICE_PENDING_REMOVAL = "service_pending_removal"
    SERVICE_UNPENDED = "service_unpended"
    SERVICE_REMOVED = "service_removed"
    HOST_META = "host_meta"
    ENTITY_OBSERVED = "entity_observed"
    CERT_OBSERVED = "cert_observed"
    CERT_VALIDATED = "cert_validated"
    CERT_REVOKED = "cert_revoked"
    #: Standing-query lifecycle (journaled on ``sub:<id>`` entities so
    #: registrations replay through WAL recovery and compaction).
    SUBSCRIPTION_REGISTERED = "subscription_registered"
    SUBSCRIPTION_CANCELLED = "subscription_cancelled"

    ALL = (
        SERVICE_FOUND,
        SERVICE_CHANGED,
        SERVICE_REFRESHED,
        SERVICE_PENDING_REMOVAL,
        SERVICE_UNPENDED,
        SERVICE_REMOVED,
        HOST_META,
        ENTITY_OBSERVED,
        CERT_OBSERVED,
        CERT_VALIDATED,
        CERT_REVOKED,
        SUBSCRIPTION_REGISTERED,
        SUBSCRIPTION_CANCELLED,
    )


def service_key(port: int, transport: str) -> str:
    """The journal key of one service slot on a host."""
    return f"{port}/{transport}"


@dataclass(frozen=True, slots=True)
class Event:
    """One journaled state change for one entity.

    ``seq`` is the per-entity monotonic sequence number (the Bigtable row
    key is (entity_id, seq)); ``time`` is simulation hours.
    """

    entity_id: str
    seq: int
    time: float
    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    #: ``encoded_size()`` memo (-1: not computed yet).  A journaled payload
    #: never changes, and storage accounting asks for the size again at
    #: every tier migration and compaction fold.
    _size: int = field(default=-1, init=False, repr=False, compare=False)

    def encoded_size(self) -> int:
        """Approximate on-disk size in bytes (storage accounting)."""
        size = self._size
        if size < 0:
            size = (
                len(self.entity_id) + 12
                + len(json.dumps(self.payload, default=str, sort_keys=True))
            )
            object.__setattr__(self, "_size", size)
        return size

    def adopt_size(self, size: int) -> "Event":
        """Take ``encoded_size()`` from whoever sized these same bytes first
        (a replicated event carries its primary's size); returns ``self``."""
        object.__setattr__(self, "_size", size)
        return self
