"""Fault injection for the DWM device model.

Two fault classes matter for CORUSCANT (Sections II-A and V-F):

* **Shift faults** — a lateral current pulse over/under-shifts the domain
  walls, misaligning the nanowire by one position. The paper assumes the
  alignment-fault literature (TAPestry, Hi-Fi, PIETT, ...) handles these
  with <1% overhead, so by default we inject none; they remain available
  for failure-injection tests.
* **TR level faults** — process variation makes a transverse read report
  one level higher or lower than the true count of ones. The paper derives
  an intrinsic rate of circa 1e-6 per TR; faults off by two or more levels
  are negligible and we do not model them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence


@dataclass(frozen=True)
class FaultConfig:
    """Probabilities of the modeled fault mechanisms.

    Attributes:
        tr_fault_rate: chance one TR misreads by exactly one level.
        shift_fault_rate: chance one shift over- or under-shifts by one.
        seed: RNG seed so experiments are reproducible.
    """

    tr_fault_rate: float = 0.0
    shift_fault_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("tr_fault_rate", "shift_fault_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be a probability, got {rate}")

    @classmethod
    def intrinsic(cls, seed: int = 0) -> "FaultConfig":
        """The paper's intrinsic TR misread rate, no shift faults.

        The rate itself lives in :mod:`repro.reliability.tr_faults`
        (where Section V-F derives it); this constructor is the single
        way to ask for "the device as the paper models it" without
        restating the number.
        """
        # Imported lazily: reliability sits above device in the layering
        # and tr_faults has no repro imports, so there is no cycle.
        from repro.reliability.tr_faults import TR_FAULT_RATE

        return cls(tr_fault_rate=TR_FAULT_RATE, seed=seed)


class FaultInjector:
    """Draws fault events according to a :class:`FaultConfig`.

    A single injector is shared by all nanowires of a DBC so one seed
    controls the whole experiment.
    """

    def __init__(self, config: Optional[FaultConfig] = None) -> None:
        self.config = config or FaultConfig()
        self._rng = random.Random(self.config.seed)
        self.tr_faults_injected = 0
        self.shift_faults_injected = 0

    def perturb_tr_level(self, level: int, max_level: int) -> int:
        """Possibly misread a TR level by +/-1, clamped to [0, max_level]."""
        rate = self.config.tr_fault_rate
        if rate == 0.0 or self._rng.random() >= rate:
            return level
        return self._misread(level, max_level)

    def perturb_tr_levels(
        self, levels: Sequence[int], max_level: int
    ) -> List[int]:
        """:meth:`perturb_tr_level` over ``levels``, in order.

        Makes exactly the draws one call per level would make, so a
        batch of tracks and a loop over them leave the RNG in one state.
        """
        rate = self.config.tr_fault_rate
        if rate == 0.0:
            return list(levels)
        draw = self._rng.random
        return [
            level if draw() >= rate else self._misread(level, max_level)
            for level in levels
        ]

    def _misread(self, level: int, max_level: int) -> int:
        self.tr_faults_injected += 1
        if level == 0:
            return 1
        if level == max_level:
            return max_level - 1
        return level + self._rng.choice((-1, 1))

    def perturb_shift(self, amount: int) -> int:
        """Possibly over/under-shift a one-position shift by one.

        ``amount`` is +1 or -1; a fault turns it into 0 (under-shift) or
        +/-2 (over-shift) with equal probability.
        """
        rate = self.config.shift_fault_rate
        if rate == 0.0 or self._rng.random() >= rate:
            return amount
        return self._misshift(amount)

    def perturb_shifts(self, amount: int, steps: int) -> List[int]:
        """:meth:`perturb_shift` ``steps`` times, with the same draws."""
        rate = self.config.shift_fault_rate
        if rate == 0.0:
            return [amount] * steps
        draw = self._rng.random
        return [
            amount if draw() >= rate else self._misshift(amount)
            for _ in range(steps)
        ]

    def _misshift(self, amount: int) -> int:
        self.shift_faults_injected += 1
        if self._rng.random() < 0.5:
            return 0
        return amount * 2

    # ------------------------------------------------------------------
    # rate switching & checkpoint support

    def set_rates(
        self,
        tr_fault_rate: Optional[float] = None,
        shift_fault_rate: Optional[float] = None,
    ) -> FaultConfig:
        """Swap fault rates mid-run without disturbing the RNG stream.

        Used for storm/calm fault profiles: the draw sequence continues
        from where it is, only the thresholds change, so a run with a
        rate switch is still a pure function of the seed.
        """
        updates: Dict[str, float] = {}
        if tr_fault_rate is not None:
            updates["tr_fault_rate"] = tr_fault_rate
        if shift_fault_rate is not None:
            updates["shift_fault_rate"] = shift_fault_rate
        if updates:
            self.config = replace(self.config, **updates)
        return self.config

    def state(self) -> Dict[str, Any]:
        """Serializable injector state (RNG position + fault counters)."""
        version, internal, gauss_next = self._rng.getstate()
        return {
            "rng": [version, list(internal), gauss_next],
            "tr_faults_injected": self.tr_faults_injected,
            "shift_faults_injected": self.shift_faults_injected,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        version, internal, gauss_next = state["rng"]
        self._rng.setstate((version, tuple(internal), gauss_next))
        self.tr_faults_injected = int(state["tr_faults_injected"])
        self.shift_faults_injected = int(state["shift_faults_injected"])
