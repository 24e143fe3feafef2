"""Entity state and event application (the replay function).

State is a plain, JSON-able nested dict so snapshots are cheap to copy and
size-account.  ``apply_event`` is the single replay function used by both
the write side (to maintain current state) and the read side (to
reconstruct state at arbitrary timestamps) — keeping them identical is what
makes CQRS reconstruction trustworthy.
"""

from __future__ import annotations

import copy
import hashlib
import json
from typing import Any, Dict

from repro.pipeline.events import Event, EventKind

__all__ = [
    "new_entity_state",
    "apply_event",
    "live_services",
    "service_view",
    "canonical_json",
    "state_digest",
]


def canonical_json(value: Any) -> str:
    """Canonical JSON for state/read-result equality across storage flavors.

    The WAL, replication wire, and cold tier all round-trip values through
    JSON (tuples become lists); two reads are "bit-identical" when their
    canonical JSON matches, regardless of which storage path produced them.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def state_digest(value: Any) -> str:
    """Stable digest of ``canonical_json`` — cheap cross-run equality token."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def new_entity_state(entity_id: str) -> Dict[str, Any]:
    """The empty state of an entity that has never been observed."""
    return {
        "entity_id": entity_id,
        "services": {},
        "meta": {},
        "first_seen": None,
        "last_event_time": None,
    }


def apply_event(state: Dict[str, Any], event: Event) -> Dict[str, Any]:
    """Apply one journal event in place (returns ``state`` for chaining)."""
    payload = event.payload
    services = state["services"]
    state["last_event_time"] = event.time
    if state["first_seen"] is None:
        state["first_seen"] = event.time

    if event.kind == EventKind.SERVICE_FOUND:
        key = payload["key"]
        services[key] = {
            "protocol": payload.get("protocol"),
            "service_name": payload.get("service_name"),
            "record": dict(payload.get("record", {})),
            "first_seen": event.time,
            "last_seen": event.time,
            "last_checked": event.time,
            "pending_removal_since": None,
            "source": payload.get("source", "scan"),
        }
    elif event.kind == EventKind.SERVICE_CHANGED:
        service = services.get(payload["key"])
        if service is not None:
            service["record"].update(payload.get("changed", {}))
            for field_name in payload.get("removed_fields", ()):
                service["record"].pop(field_name, None)
            if "service_name" in payload:
                service["service_name"] = payload["service_name"]
            if "protocol" in payload:
                service["protocol"] = payload["protocol"]
            service["last_seen"] = event.time
            service["last_checked"] = event.time
            service["pending_removal_since"] = None
    elif event.kind == EventKind.SERVICE_REFRESHED:
        service = services.get(payload["key"])
        if service is not None:
            service["last_seen"] = event.time
            service["last_checked"] = event.time
            service["pending_removal_since"] = None
    elif event.kind == EventKind.SERVICE_PENDING_REMOVAL:
        service = services.get(payload["key"])
        if service is not None:
            service["last_checked"] = event.time
            if service["pending_removal_since"] is None:
                service["pending_removal_since"] = event.time
    elif event.kind == EventKind.SERVICE_UNPENDED:
        service = services.get(payload["key"])
        if service is not None:
            service["pending_removal_since"] = None
            service["last_seen"] = event.time
            service["last_checked"] = event.time
    elif event.kind == EventKind.SERVICE_REMOVED:
        services.pop(payload["key"], None)
    elif event.kind in (EventKind.HOST_META, EventKind.ENTITY_OBSERVED):
        state["meta"].update(payload.get("meta", {}))
    elif event.kind == EventKind.CERT_OBSERVED:
        state["meta"].update(payload.get("meta", {}))
    elif event.kind == EventKind.CERT_VALIDATED:
        state["meta"]["validation"] = dict(payload.get("validation", {}))
    elif event.kind == EventKind.CERT_REVOKED:
        state["meta"]["revoked"] = True
        state["meta"]["revoked_at"] = event.time
    elif event.kind == EventKind.SUBSCRIPTION_REGISTERED:
        state["meta"]["subscription"] = dict(payload.get("subscription", {}))
        state["meta"].pop("cancelled", None)
    elif event.kind == EventKind.SUBSCRIPTION_CANCELLED:
        # The registration stays for audit; the flag hides it from restore.
        state["meta"]["cancelled"] = True
    else:
        raise ValueError(f"unknown event kind: {event.kind}")
    return state


def live_services(state: Dict[str, Any], include_pending: bool = True) -> Dict[str, Dict[str, Any]]:
    """The entity's current services, optionally hiding pending-removal ones."""
    services = state.get("services", {})
    if include_pending:
        return dict(services)
    return {k: s for k, s in services.items() if s.get("pending_removal_since") is None}


def service_view(state: Dict[str, Any], key: str) -> Dict[str, Any] | None:
    return state.get("services", {}).get(key)


def snapshot_state(state: Dict[str, Any]) -> Dict[str, Any]:
    """A deep copy suitable for storing as a snapshot row.

    State is plain nested data, so the copy walks dicts, lists and tuples
    directly instead of paying ``copy.deepcopy``'s memo and reducer
    dispatch per node.  The result is what ``deepcopy`` returns — same
    values, same list/tuple flavour, a tuple of immutables handed back
    as-is (so resident memory does not grow), nothing mutable shared with
    the original — and any other type still goes through ``deepcopy``.
    """
    return _copy_plain(state)


def _copy_plain(value: Any) -> Any:
    cls = value.__class__
    if cls is str or cls is float or cls is int or value is None or cls is bool:
        return value
    if cls is dict:
        return {key: _copy_plain(item) for key, item in value.items()}
    if cls is list:
        return [_copy_plain(item) for item in value]
    if cls is tuple:
        copied = tuple([_copy_plain(item) for item in value])
        if all(new is old for new, old in zip(copied, value)):
            return value
        return copied
    return copy.deepcopy(value)
