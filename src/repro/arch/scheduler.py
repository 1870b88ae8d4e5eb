"""Trace-driven command scheduler with per-bank state machines.

The Fig. 10 experiments replay access streams through the memory; this
module provides the cycle-level version of that replay: each bank is a
small state machine honouring tRCD/tRAS/tWR and the DWM shift latency
(in place of precharge). Requests are serviced strictly in stream order
per bank (first-come-first-served — no FR-FCFS reordering of row hits
ahead of misses), and the scheduler reports service, queueing, and
total latency — the breakdown the paper's Fig. 10 bars stack (roughly
80% queueing delay). Row hits are counted for reads *and* writes, both
in each :class:`BankState` and in the aggregate
:class:`SchedulerStats`, and the two tallies always agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.timing import DDRTimings


@dataclass
class BankState:
    """One bank's row register and busy horizon."""

    open_row: Optional[int] = None
    free_at: int = 0
    activations: int = 0
    row_hits: int = 0


@dataclass(frozen=True)
class Request:
    """One memory request in the replayed stream."""

    bank: int
    row: int
    is_write: bool = False
    arrival: int = 0

    def __post_init__(self) -> None:
        if self.bank < 0 or self.row < 0 or self.arrival < 0:
            raise ValueError("bank, row and arrival must be >= 0")


@dataclass
class SchedulerStats:
    """Aggregate outcome of one replay."""

    requests: int = 0
    row_hits: int = 0
    total_cycles: int = 0
    service_cycles: int = 0
    queue_cycles: int = 0

    @property
    def hit_rate(self) -> float:
        return self.row_hits / self.requests if self.requests else 0.0

    @property
    def queue_fraction(self) -> float:
        """Share of latency spent waiting — the paper's ~80%."""
        total = self.service_cycles + self.queue_cycles
        return self.queue_cycles / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Non-destructive counter snapshot for JSON export."""
        return {
            "requests": self.requests,
            "row_hits": self.row_hits,
            "hit_rate": self.hit_rate,
            "total_cycles": self.total_cycles,
            "service_cycles": self.service_cycles,
            "queue_cycles": self.queue_cycles,
            "queue_fraction": self.queue_fraction,
        }


class CommandScheduler:
    """Replays a request stream against per-bank state machines."""

    def __init__(
        self,
        timings: DDRTimings,
        banks: int = 32,
        shift_distance_fn=None,
        telemetry=None,
    ) -> None:
        if banks < 1:
            raise ValueError("banks must be >= 1")
        self.timings = timings
        self.banks = [BankState() for _ in range(banks)]
        # Distance the DWM bank shifts to align a new row; defaults to
        # the gap between consecutive row numbers (placement locality).
        self.shift_distance_fn = shift_distance_fn or self._default_shift
        # Optional TelemetryHub; each run() feeds per-request queueing
        # histograms and replay-level hit-rate gauges when set.
        self.telemetry = telemetry

    @staticmethod
    def _default_shift(old_row: Optional[int], new_row: int) -> int:
        if old_row is None:
            return new_row % 8
        return abs(new_row - old_row)

    def _service_cycles(self, bank: BankState, request: Request) -> Tuple[int, bool]:
        t = self.timings
        if bank.open_row == request.row:
            # Reads and writes both count as row hits; a write hit pays
            # only the t_WR-class write recovery, a read hit only t_CAS.
            bank.row_hits += 1
            return (t.t_wr if request.is_write else t.t_cas), True
        shifts = 0
        if t.shift_per_position:
            shifts = t.shift_cycles(
                self.shift_distance_fn(bank.open_row, request.row)
            )
        else:
            shifts = t.t_rp  # DRAM pays a precharge instead
        bank.activations += 1
        access = t.t_wr if request.is_write else t.t_cas
        return t.t_rcd + access + shifts, False

    def run(self, requests: Sequence[Request]) -> SchedulerStats:
        """Replay the stream; requests are serviced per-bank in order.

        Strictly first-come-first-served: a row hit queued behind a miss
        waits for it. ``SchedulerStats.row_hits`` equals the sum of the
        per-bank ``BankState.row_hits`` deltas of this replay.
        """
        hub = self.telemetry
        stats = SchedulerStats()
        for request in requests:
            if not 0 <= request.bank < len(self.banks):
                raise ValueError(
                    f"bank {request.bank} outside [0, {len(self.banks)})"
                )
            bank = self.banks[request.bank]
            service, hit = self._service_cycles(bank, request)
            start = max(request.arrival, bank.free_at)
            queue = start - request.arrival
            finish = start + service
            bank.free_at = finish
            bank.open_row = request.row
            stats.requests += 1
            stats.row_hits += 1 if hit else 0
            stats.service_cycles += service
            stats.queue_cycles += queue
            stats.total_cycles = max(stats.total_cycles, finish)
            if hub is not None:
                hub.scheduler_request(queue)
        if hub is not None and stats.requests:
            hub.scheduler_replay(stats.hit_rate, stats.queue_fraction)
        return stats


def stream_from_counts(
    accesses: int,
    banks: int = 32,
    rows: int = 32,
    locality: float = 0.6,
    arrival_rate: float = 1.0,
    seed: int = 0,
) -> List[Request]:
    """Synthesise a request stream with a target row-buffer locality.

    ``arrival_rate`` is requests per cycle offered to the whole memory;
    above the sustainable rate the banks saturate and queueing dominates,
    reproducing the Fig. 10 runtime breakdown.
    """
    import random

    if not 0.0 <= locality <= 1.0:
        raise ValueError("locality must be a probability")
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    rng = random.Random(seed)
    requests: List[Request] = []
    last_row = [0] * banks
    clock = 0.0
    for i in range(accesses):
        bank = rng.randrange(banks)
        if rng.random() < locality:
            row = last_row[bank]
        else:
            row = rng.randrange(rows)
            last_row[bank] = row
        requests.append(
            Request(
                bank=bank,
                row=row,
                is_write=rng.random() < 0.3,
                arrival=int(clock),
            )
        )
        clock += 1.0 / arrival_rate
    return requests
