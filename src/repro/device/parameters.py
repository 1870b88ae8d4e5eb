"""Device-level timing and energy parameters.

Values follow the paper's experimental assumptions (Section V-A):

* 1 ns cycle for shift / read / write / TR, consistent with the NVSim and
  LLG numbers the authors report;
* per-operation energies distilled from Table III at 32 nm;
* TRD (maximum transverse-read distance) of 7 by default, with 3 and 5
  studied as sensitivity points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.validation import check_positive


def _intrinsic_tr_fault_rate() -> float:
    """The paper's intrinsic TR misread probability.

    The number itself lives in :mod:`repro.reliability.tr_faults`
    (single source of truth for Section V-F); imported lazily so the
    device layer carries no import-time dependency on reliability.
    """
    from repro.reliability.tr_faults import TR_FAULT_RATE

    return TR_FAULT_RATE


@dataclass(frozen=True)
class TimingEnergy:
    """Latency (cycles) and energy (pJ, whole fJ) of one device-level op."""

    cycles: int
    energy_pj: float

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {self.cycles}")
        if self.energy_pj < 0:
            raise ValueError(f"energy_pj must be >= 0, got {self.energy_pj}")
        # Device ledgers sum whole femtojoules; an energy between two
        # would lose its remainder on every record.
        fj = self.energy_pj * 1000
        if abs(fj - round(fj)) > 1e-6:
            raise ValueError(
                f"energy_pj must be a whole number of fJ, got {self.energy_pj}"
            )


@dataclass(frozen=True)
class DeviceParameters:
    """Tunable constants of the DWM device model.

    Attributes:
        trd: maximum transverse read distance (domains spanned by one TR).
        cycle_ns: duration of one device cycle in nanoseconds.
        shift: latency/energy of shifting the whole nanowire by one domain.
        read: latency/energy of an orthogonal (access-port) read of one bit.
        write: latency/energy of a shift-based write of one bit.
        transverse_read: latency/energy of one TR across <= trd domains.
        transverse_write: latency/energy of one TW (write + segmented shift).
        tr_fault_rate: probability a TR senses one level high/low (Sec. V-F).
    """

    trd: int = 7
    cycle_ns: float = 1.0
    shift: TimingEnergy = field(default_factory=lambda: TimingEnergy(1, 0.34))
    read: TimingEnergy = field(default_factory=lambda: TimingEnergy(1, 0.41))
    write: TimingEnergy = field(default_factory=lambda: TimingEnergy(1, 0.58))
    transverse_read: TimingEnergy = field(
        default_factory=lambda: TimingEnergy(1, 1.245)
    )
    transverse_write: TimingEnergy = field(
        default_factory=lambda: TimingEnergy(1, 0.83)
    )
    tr_fault_rate: float = field(default_factory=_intrinsic_tr_fault_rate)

    def __post_init__(self) -> None:
        if self.trd < 2:
            raise ValueError(f"trd must be >= 2, got {self.trd}")
        check_positive("cycle_ns", self.cycle_ns)
        if not 0.0 <= self.tr_fault_rate <= 1.0:
            raise ValueError(
                f"tr_fault_rate must be a probability, got {self.tr_fault_rate}"
            )

    @property
    def sense_levels(self) -> int:
        """Number of distinguishable TR levels (0..trd inclusive)."""
        return self.trd + 1
