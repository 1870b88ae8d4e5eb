"""Process-wide active telemetry hub.

Most wiring is explicit — ``CoruscantSystem(telemetry=hub)`` claims the
device ledgers of the clusters it uses. Experiment regenerators build
:class:`~repro.arch.dbc.DomainBlockCluster` objects with no injection
point; :func:`activated` scopes a hub that claims every
:class:`~repro.device.stats.DeviceStats` created while it is active::

    hub = TelemetryHub()
    with activated(hub):
        generate_report()          # every DBC built inside is counted
    hub.metrics_dict()

A system's own hub still claims the clusters it uses. Only creating a
ledger looks here; recording does not.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

_ACTIVE = None  # type: Optional[object]


def active_hub():
    """The currently installed hub, or ``None``."""
    return _ACTIVE


@contextmanager
def activated(hub) -> Iterator[object]:
    """Scope ``hub`` as the active hub, restoring the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = hub
    try:
        yield hub
    finally:
        _ACTIVE = previous


__all__ = ["activated", "active_hub"]
