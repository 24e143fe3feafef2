"""Follow-up liveness checks (the evaluation's ZGrab re-scan).

The paper filters each engine's answers through an immediate re-scan from a
network unrelated to any engine's production scanning.  ``probe_liveness``
does exactly that — open a connection and require application data — while
``oracle_liveness`` consults ground truth directly (no probe loss), used
where the paper's own methodology could enumerate true state.
"""

from __future__ import annotations

from repro.engines.base import ReportedService
from repro.eval.world import EVAL_VANTAGE
from repro.protocols import Interrogator, default_registry
from repro.simnet import SimulatedInternet

__all__ = ["probe_liveness", "oracle_liveness", "validate_protocol"]

_INTERROGATOR = Interrogator(default_registry())


def probe_liveness(internet: SimulatedInternet, service: ReportedService, now: float) -> bool:
    """Re-scan one reported service: is *something* serving there now?"""
    conn = internet.connect(
        service.ip_index, service.port, now, EVAL_VANTAGE,
        transport=service.transport, scanner="eval",
    )
    if conn is None:
        return False
    return _INTERROGATOR.interrogate(conn).success


def oracle_liveness(internet: SimulatedInternet, service: ReportedService, now: float) -> bool:
    """Ground-truth liveness (no probe loss)."""
    if internet.instance_at(service.ip_index, service.port, now) is not None:
        return True
    return service.transport == "tcp" and internet.pseudo_at(service.ip_index, now) is not None


def validate_protocol(
    internet: SimulatedInternet, service: ReportedService, now: float
) -> bool:
    """Does a full L7 handshake confirm the engine's protocol label?

    This is the Table 4 validation step: an entry only counts as accurate
    when the claimed protocol's handshake completes right now.
    """
    if service.label is None:
        return False
    conn = internet.connect(
        service.ip_index, service.port, now, EVAL_VANTAGE,
        transport=service.transport, scanner="eval",
    )
    if conn is None:
        return False
    result = _INTERROGATOR.refresh(conn, service.label if service.label in default_registry() else "")
    return result.success and result.service_name == service.label
