"""Timing wrappers for the traced run, installed from outside ``src/``.

The platform dispatches every stage call through attributes of *instances*
(``self.ingest.submit_many(...)``, ``self.tick(dt)``), so setting a wrapper
as an instance attribute intercepts the call without touching the class.
Each wrapper records one span — name, start, end, parent — on the driver
thread's stack; calls arriving on any other thread (executor workers) pass
straight through, because the layer metrics are self times on the path the
caller waits on.  ``uninstall`` deletes the instance attributes, which
restores the class's own methods.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "TARGETS", "LAYER_OF", "install_platform_wrappers", "span_layer"]

#: (platform attribute path, method, span name).  A path that does not
#: resolve on this platform (subsystem off, attribute renamed) is skipped
#: and listed in ``Tracer.skipped``; its layer then reports zero work.
TARGETS: List[Tuple[str, str, str]] = [
    ("", "tick", "tick"),
    ("discovery", "advance", "discovery.advance"),
    ("interrogation", "advance", "interrogation.advance"),
    ("interrogation", "scan_web_properties", "interrogation.scan_web_properties"),
    ("internet", "connect", "simnet.connect"),
    ("internet", "connect_v6", "simnet.connect"),
    ("interrogator", "interrogate", "protocols.interrogate"),
    ("interrogator", "refresh", "protocols.refresh"),
    ("ingest", "submit", "ingest.submit"),
    ("ingest", "submit_many", "ingest.submit_many"),
    ("ingest", "pump", "ingest.pump"),
    ("ingest", "evict_due", "ingest.evict_due"),
    ("journal", "flush_commit_windows", "wal.flush"),
    ("replication", "pump", "replication.pump"),
    ("replication", "compact_replicas", "compaction.replicas"),
    ("derivation", "advance", "derivation.advance"),
    ("derivation", "daily", "derivation.daily"),
    ("index", "put", "search.put"),
    ("index", "put_many", "search.put_many"),
    ("index", "delete", "search.delete"),
    ("index", "search", "search.search"),
    ("index", "aggregate", "search.aggregate"),
    ("subscriptions", "on_document", "subscriptions.on_document"),
    ("subscriptions", "on_documents", "subscriptions.on_documents"),
    ("subscriptions", "pump_delivery", "subscriptions.pump_delivery"),
    ("compactor", "run_once", "compaction.run_once"),
    ("serving", "lookup_host", "serving.lookup_host"),
    ("serving", "search", "serving.search"),
    ("serving", "host_history", "serving.host_history"),
    ("read_side", "lookup", "read_side.lookup"),
]

#: Span name -> the per-layer time metric its self time is added to.
LAYER_OF: Dict[str, str] = {
    "tick": "tick.self_s",
    "discovery.advance": "discovery.self_s",
    "interrogation.advance": "interrogation.self_s",
    "interrogation.scan_web_properties": "interrogation.self_s",
    "simnet.connect": "simnet.connect_s",
    "protocols.interrogate": "protocols.interrogate_s",
    "protocols.refresh": "protocols.interrogate_s",
    "ingest.submit": "ingest.submit_s",
    "ingest.submit_many": "ingest.submit_s",
    "ingest.pump": "ingest.pump_s",
    "ingest.evict_due": "ingest.evict_s",
    "wal.flush": "wal.flush_s",
    "replication.pump": "replication.pump_s",
    "compaction.replicas": "compaction.run_s",
    "compaction.run_once": "compaction.run_s",
    "derivation.advance": "derivation.self_s",
    "derivation.daily": "derivation.daily_s",
    "search.put": "search.put_s",
    "search.put_many": "search.put_s",
    "search.delete": "search.put_s",
    "search.search": "search.query_s",
    "search.aggregate": "search.query_s",
    "subscriptions.on_document": "subscriptions.feed_s",
    "subscriptions.on_documents": "subscriptions.feed_s",
    "subscriptions.pump_delivery": "subscriptions.deliver_s",
    "serving.lookup_host": "serving.self_s",
    "serving.search": "serving.self_s",
    "serving.host_history": "serving.self_s",
    "read_side.lookup": "read_side.lookup_s",
}


def span_layer(name: str, parent_name: Optional[str]) -> str:
    """The layer metric a span's self time belongs to.

    The derivation stage rebuilds each dirty entity's view through
    ``read_side.lookup`` (reconstruct + enrich); that is derivation's own
    work, so under a derivation span it counts there, and
    ``read_side.lookup_s`` stays the *serving* read path.
    """
    if name == "read_side.lookup" and parent_name == "derivation.advance":
        return "derivation.self_s"
    return LAYER_OF[name]


class Tracer:
    """Span store plus the instance-attribute wrappers that fill it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # One span per index across these four parallel lists.
        self.name_idx: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        self._installed: List[Tuple[Any, str]] = []
        self.skipped: List[str] = []
        #: Results for which a wrapper's ``count_if`` held, by span name.
        self.result_counts: Dict[str, int] = {}
        self._own: List[float] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str,
        count_if: Optional[Callable[[Any], bool]] = None,
    ) -> bool:
        """Shadow ``obj.attr`` with a span-recording wrapper.

        Returns False (and records the skip) when the target is missing or
        the object refuses instance attributes (``__slots__``).
        """
        fn = getattr(obj, attr, None)
        if fn is None or attr in getattr(obj, "__dict__", {}):
            self.skipped.append(name)
            return False
        nid = self._name_id(name)
        clock = self.clock
        name_idx, start, end, parent = self.name_idx, self.start, self.end, self.parent
        stack = self._stack
        driver = self._thread
        get_ident = threading.get_ident
        counts = self.result_counts

        def traced(*args: Any, **kwargs: Any) -> Any:
            if get_ident() != driver:
                return fn(*args, **kwargs)
            i = len(start)
            name_idx.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count_if is not None and count_if(result):
                counts[name] = counts.get(name, 0) + 1
            return result

        try:
            setattr(obj, attr, traced)
        except (AttributeError, TypeError):
            self.skipped.append(name)
            return False
        self._installed.append((obj, attr))
        return True

    def uninstall(self) -> None:
        """Remove every wrapper; the class's methods show through again."""
        while self._installed:
            obj, attr = self._installed.pop()
            delattr(obj, attr)

    # -- analysis --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def durations_of(self, name: str) -> List[float]:
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [
            self.end[i] - self.start[i]
            for i, n in enumerate(self.name_idx)
            if n == nid
        ]

    def self_times(self) -> List[float]:
        """Per-span self time: duration minus what direct children cover
        (children of one driver-thread span never overlap each other).
        Computed once per span count; call it after the run."""
        if len(self._own) == len(self.start):
            return self._own
        durations = [e - s for s, e in zip(self.start, self.end)]
        own = list(durations)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= durations[i]
        self._own = own
        return own

    def layer_seconds(self) -> Dict[str, float]:
        """Self time summed per layer metric (see :func:`span_layer`)."""
        totals: Dict[str, float] = {}
        names = self.names
        for i, own in enumerate(self.self_times()):
            p = self.parent[i]
            layer = span_layer(
                names[self.name_idx[i]], names[self.name_idx[p]] if p >= 0 else None
            )
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self seconds."""
        out: Dict[str, Dict[str, float]] = {
            name: {"count": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i, own in enumerate(self.self_times()):
            row = out[self.names[self.name_idx[i]]]
            row["count"] += 1
            row["total_s"] += self.end[i] - self.start[i]
            row["self_s"] += own
        return out

    def dump(self, run_id: str) -> Dict[str, Any]:
        """The span table, column-wise (one run id for the whole run)."""
        return {
            "run_id": run_id,
            "names": self.names,
            "name_idx": self.name_idx,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
        }

    def per_span_cost(self, calls: int = 20000) -> float:
        """Seconds one wrapper adds to one call, measured on a no-op."""

        class _Probe:
            def noop(self) -> None:
                return None

        probe = _Probe()
        scratch = Tracer(self.clock)
        t0 = self.clock()
        for _ in range(calls):
            probe.noop()
        bare = self.clock() - t0
        scratch.wrap(probe, "noop", "probe")
        t0 = self.clock()
        for _ in range(calls):
            probe.noop()
        wrapped = self.clock() - t0
        return max(0.0, (wrapped - bare) / calls)


def _identified(result: Any) -> bool:
    return getattr(result, "protocol", None) is not None


def install_platform_wrappers(tracer: Tracer, plat: Any) -> None:
    """Wrap every :data:`TARGETS` entry that exists on ``plat``."""
    for path, attr, name in TARGETS:
        obj = getattr(plat, path, None) if path else plat
        if obj is None:
            tracer.skipped.append(name)
            continue
        count_if = _identified if name.startswith("protocols.") else None
        tracer.wrap(obj, attr, name, count_if=count_if)
