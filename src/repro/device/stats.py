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
    and energy breakdowns (``op_cycles`` / ``op_energy_pj``) survive
    merging, so a report can attribute *where* the cycles and picojoules
    went, not just how many there were.

    When a telemetry sink is attached (``sink``, set by
    ``CoruscantSystem(telemetry=...)``) — or a hub is active process-wide
    via :func:`repro.telemetry.activated` — every record is also
    published into its metrics registry. With neither, the overhead is
    two ``None`` checks.
    """

    op_counts: Dict[str, int] = field(default_factory=dict)
    op_cycles: Dict[str, int] = field(default_factory=dict)
    op_energy_pj: Dict[str, float] = field(default_factory=dict)
    cycles: int = 0
    energy_pj: float = 0.0
    sink: Optional[Any] = field(
        default=None, repr=False, compare=False
    )

    def record(self, op: str, cycles: int, energy_pj: float, count: int = 1) -> None:
        """Record ``count`` occurrences of ``op``."""
        total_cycles = cycles * count
        total_energy = energy_pj * count
        self.op_counts[op] = self.op_counts.get(op, 0) + count
        self.op_cycles[op] = self.op_cycles.get(op, 0) + total_cycles
        self.op_energy_pj[op] = (
            self.op_energy_pj.get(op, 0.0) + total_energy
        )
        self.cycles += total_cycles
        self.energy_pj += total_energy
        sink = self.sink
        if sink is None:
            sink = _telemetry._ACTIVE
        if sink is not None:
            sink.device_op(op, total_cycles, total_energy, count)

    def record_each(
        self, op: str, cycles: int, energy_pj: float, count: int
    ) -> None:
        """Record ``count`` occurrences of ``op`` one at a time.

        Leaves the stats, and an attached sink's counters, exactly as
        ``count`` separate ``record(op, cycles, energy_pj)`` calls would:
        the energy is added once per occurrence, because adding
        ``energy_pj * count`` once rounds differently.
        """
        if count <= 0:
            return
        op_energy = self.op_energy_pj.get(op, 0.0)
        energy = self.energy_pj
        for _ in range(count):
            op_energy += energy_pj
            energy += energy_pj
        self.op_counts[op] = self.op_counts.get(op, 0) + count
        self.op_cycles[op] = self.op_cycles.get(op, 0) + cycles * count
        self.op_energy_pj[op] = op_energy
        self.cycles += cycles * count
        self.energy_pj = energy
        sink = self.sink
        if sink is None:
            sink = _telemetry._ACTIVE
        if sink is not None:
            for _ in range(count):
                sink.device_op(op, cycles, energy_pj, 1)

    def merge(self, other: "DeviceStats") -> None:
        """Fold another stats object into this one (breakdowns included)."""
        for op, n in other.op_counts.items():
            self.op_counts[op] = self.op_counts.get(op, 0) + n
        for op, c in other.op_cycles.items():
            self.op_cycles[op] = self.op_cycles.get(op, 0) + c
        for op, e in other.op_energy_pj.items():
            self.op_energy_pj[op] = self.op_energy_pj.get(op, 0.0) + e
        self.cycles += other.cycles
        self.energy_pj += other.energy_pj

    def reset(self) -> None:
        """Zero all counters."""
        self.op_counts.clear()
        self.op_cycles.clear()
        self.op_energy_pj.clear()
        self.cycles = 0
        self.energy_pj = 0.0

    def count(self, op: str) -> int:
        """Occurrences of ``op`` recorded so far."""
        return self.op_counts.get(op, 0)

    def cycles_for(self, op: str) -> int:
        """Cycles attributed to ``op`` so far."""
        return self.op_cycles.get(op, 0)

    def energy_for(self, op: str) -> float:
        """Energy (pJ) attributed to ``op`` so far."""
        return self.op_energy_pj.get(op, 0.0)

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-ready, non-destructive snapshot (totals + breakdowns)."""
        return {
            "op_counts": dict(self.op_counts),
            "op_cycles": dict(self.op_cycles),
            "op_energy_pj": dict(self.op_energy_pj),
            "cycles": self.cycles,
            "energy_pj": self.energy_pj,
        }
