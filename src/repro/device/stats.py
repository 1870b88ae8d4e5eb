"""Per-device operation accounting (cycles + energy)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.telemetry import runtime as _telemetry


@dataclass
class DeviceStats:
    """Accumulates operation counts, cycles, and energy for one device.

    The simulator increments these on every shift / read / write / TR /
    TW, so any higher-level routine (addition, multiplication, max, ...)
    gets its cost roll-up for free. Alongside the totals, per-op cycle
    and energy breakdowns (``op_cycles`` / ``op_energy_fj``) survive
    merging, so a report can attribute *where* the cycles and picojoules
    went, not just how many there were.

    Energy is kept in whole femtojoules (every device energy is one,
    :class:`~repro.device.parameters.TimingEnergy` checks), so sums are
    exact in any order; ``energy_pj``, ``op_energy_pj`` and
    :meth:`energy_for` are ``fj / 1000``.

    This ledger is the only record of device activity: a telemetry hub
    sums it into ``device.*`` when its metrics are read. ``hub`` is the
    one hub counting it — the :func:`repro.telemetry.activated` hub at
    creation, until :meth:`~repro.telemetry.hub.TelemetryHub.claim`.
    """

    op_counts: Dict[str, int] = field(default_factory=dict)
    op_cycles: Dict[str, int] = field(default_factory=dict)
    op_energy_fj: Dict[str, int] = field(default_factory=dict)
    cycles: int = 0
    energy_fj: int = 0
    hub: Optional[Any] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        hub = _telemetry.active_hub()
        if hub is not None:
            hub.claim(self)

    @property
    def energy_pj(self) -> float:
        """Total energy (pJ) recorded so far."""
        return self.energy_fj / 1000

    @property
    def op_energy_pj(self) -> Dict[str, float]:
        """Energy (pJ) per op, as a new dict."""
        return {op: fj / 1000 for op, fj in self.op_energy_fj.items()}

    def record(self, op: str, cycles: int, energy_pj: float, count: int = 1) -> None:
        """Record ``count`` occurrences of ``op``; ``count=0`` records nothing."""
        if count <= 0:
            return
        total_cycles = cycles * count
        total_fj = round(energy_pj * count * 1000)
        self.op_counts[op] = self.op_counts.get(op, 0) + count
        self.op_cycles[op] = self.op_cycles.get(op, 0) + total_cycles
        self.op_energy_fj[op] = self.op_energy_fj.get(op, 0) + total_fj
        self.cycles += total_cycles
        self.energy_fj += total_fj

    def merge(self, other: "DeviceStats") -> None:
        """Fold another stats object into this one (breakdowns included)."""
        for mine, theirs in (
            (self.op_counts, other.op_counts),
            (self.op_cycles, other.op_cycles),
            (self.op_energy_fj, other.op_energy_fj),
        ):
            for op, value in theirs.items():
                mine[op] = mine.get(op, 0) + value
        self.cycles += other.cycles
        self.energy_fj += other.energy_fj

    def reset(self) -> None:
        """Zero all counters."""
        self.op_counts.clear()
        self.op_cycles.clear()
        self.op_energy_fj.clear()
        self.cycles = 0
        self.energy_fj = 0

    def count(self, op: str) -> int:
        """Occurrences of ``op`` recorded so far."""
        return self.op_counts.get(op, 0)

    def cycles_for(self, op: str) -> int:
        """Cycles attributed to ``op`` so far."""
        return self.op_cycles.get(op, 0)

    def energy_for(self, op: str) -> float:
        """Energy (pJ) attributed to ``op`` so far."""
        return self.op_energy_fj.get(op, 0) / 1000

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-ready, non-destructive snapshot (totals + breakdowns)."""
        return {
            "op_counts": dict(self.op_counts),
            "op_cycles": dict(self.op_cycles),
            "op_energy_pj": self.op_energy_pj,
            "cycles": self.cycles,
            "energy_pj": self.energy_pj,
        }
