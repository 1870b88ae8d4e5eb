"""The telemetry hub: tracer + metrics registry + event log, shared stack-wide.

A :class:`TelemetryHub` is what ``CoruscantSystem(telemetry=...)`` wires
through the device, arch, core, and resilience layers. Each layer calls
the narrow publishing helpers here (``memory_access``, ``cpim_op``, ...)
so instrument names and bucket edges stay consistent no matter who
publishes. The device layer publishes nothing: the hub sums the
:class:`~repro.device.stats.DeviceStats` ledgers it claimed into the
``device.*`` counters whenever its registry is read.

Concurrency: the service/campaign/resilience hooks (``service_*``,
``shard_*``, ``resilient_op``, breaker transitions) are called from the
gateway event loop, worker threads, and the campaign supervisor at
request/attempt frequency, so they serialize their metric updates under
one hub lock and mirror themselves into the structured event log. The
per-op hooks (``memory_access``, ``cpim_op``, ...) run inside one
simulator thread and stay lock-free, as do ledger records: a reader
copies the ledger list under the hub lock and each ledger dict with one
``dict()`` call.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Union

from repro.telemetry.chrome import chrome_trace, write_chrome_trace
from repro.telemetry.events import EventLog
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer

# Fixed bucket edges (inclusive upper bounds) for the stack's histograms.
TR_PER_OP_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)
OP_CYCLE_BUCKETS = (8, 16, 32, 64, 128, 256, 512, 1024)
RETRY_DEPTH_BUCKETS = (1, 2, 3, 4, 5, 8)
QUEUE_CYCLE_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
SHARD_WALL_BUCKETS = (0.1, 0.25, 0.5, 1, 2, 5, 10, 30, 60, 120, 300, 600)
REQUEST_SECONDS_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
    10, 30,
)


class TelemetryHub:
    """Tracer + metrics registry + event log + the publishing helpers."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        self.tracer = Tracer() if tracer is None else tracer
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.events = EventLog() if events is None else events
        self._lock = threading.Lock()
        # Claimed ledgers by id(), kept for the hub's lifetime so that
        # dropping a device never makes a counter go down.
        self._ledgers: Dict[int, Any] = {}
        self.metrics.collect = self._device_counters
        # Dropped event-log records surface as a counter, not as an
        # event (emitting an event about a failed emit would recurse
        # straight back into the failing sink).
        if getattr(self.events, "on_write_error", None) is None:
            self.events.on_write_error = self._event_write_error

    def _event_write_error(self) -> None:
        with self._lock:
            self.metrics.counter("events.write_errors").inc()

    # ------------------------------------------------------------------
    # device layer

    def claim(self, ledger) -> None:
        """Count ``ledger`` (a :class:`DeviceStats`) in ``device.*``.

        A ledger has at most one hub: claiming takes it from the hub
        that had it.
        """
        previous = ledger.hub
        if previous is self:
            return
        if previous is not None:
            with previous._lock:
                del previous._ledgers[id(ledger)]
        with self._lock:
            self._ledgers[id(ledger)] = ledger
        ledger.hub = self

    def ledgers(self) -> List[Any]:
        """The claimed ledgers, copied under the hub lock."""
        with self._lock:
            return list(self._ledgers.values())

    def _device_counters(self) -> Dict[str, Union[int, float]]:
        """``device.{ops,cycles,energy_pj}`` and per-op
        ``device.<op>.{count,cycles,energy_pj}``, summed over the claimed
        ledgers now. Totals are sums of the per-op values read, so they
        agree even when a ledger records mid-read.
        """
        counts: Dict[str, int] = {}
        cycles: Dict[str, int] = {}
        energy_fj: Dict[str, int] = {}
        for ledger in self.ledgers():
            for total, part in (
                (counts, dict(ledger.op_counts)),
                (cycles, dict(ledger.op_cycles)),
                (energy_fj, dict(ledger.op_energy_fj)),
            ):
                for op, value in part.items():
                    total[op] = total.get(op, 0) + value
        ops = {**counts, **cycles, **energy_fj}
        if not ops:
            return {}
        device: Dict[str, Union[int, float]] = {
            "device.ops": sum(counts.values()),
            "device.cycles": sum(cycles.values()),
            "device.energy_pj": sum(energy_fj.values()) / 1000,
        }
        for op in ops:
            device[f"device.{op}.count"] = counts.get(op, 0)
            device[f"device.{op}.cycles"] = cycles.get(op, 0)
            device[f"device.{op}.energy_pj"] = energy_fj.get(op, 0) / 1000
        return device

    # ------------------------------------------------------------------
    # memory controller / scheduler

    def memory_access(self, is_write: bool, row_hit: bool) -> None:
        m = self.metrics
        m.counter("mem.writes" if is_write else "mem.reads").inc()
        m.counter("mem.row_hits" if row_hit else "mem.row_misses").inc()
        hits = m.counter("mem.row_hits").value
        total = hits + m.counter("mem.row_misses").value
        m.gauge("mem.row_buffer_hit_rate").set(hits / total if total else 0.0)

    def cpim_op(
        self, op: str, cycles: int, energy_pj: float, trs: int
    ) -> None:
        m = self.metrics
        m.counter("cpim.ops").inc()
        m.counter(f"cpim.{op}.count").inc()
        m.counter("cpim.cycles").inc(cycles)
        m.counter("cpim.energy_pj").inc(energy_pj)
        m.histogram("cpim.tr_per_op", TR_PER_OP_BUCKETS).observe(trs)
        m.histogram("cpim.op_cycles", OP_CYCLE_BUCKETS).observe(cycles)

    def scheduler_request(self, queue_cycles: int) -> None:
        self.metrics.counter("sched.requests").inc()
        self.metrics.histogram(
            "sched.queue_cycles", QUEUE_CYCLE_BUCKETS
        ).observe(queue_cycles)

    def scheduler_replay(
        self, hit_rate: float, queue_fraction: float
    ) -> None:
        self.metrics.gauge("sched.row_hit_rate").set(hit_rate)
        self.metrics.gauge("sched.queue_fraction").set(queue_fraction)

    # ------------------------------------------------------------------
    # facade (pim.*) operations

    def pim_op(self, op: str, cycles: int, energy_pj: float) -> None:
        m = self.metrics
        m.counter("pim.ops").inc()
        m.counter(f"pim.{op}.count").inc()
        m.counter("pim.cycles").inc(cycles)
        m.counter("pim.energy_pj").inc(energy_pj)

    # ------------------------------------------------------------------
    # resilience layers

    def resilient_op(self, attempts: int, verdict: str) -> None:
        with self._lock:
            m = self.metrics
            m.counter("resilience.ops").inc()
            m.counter(f"resilience.verdict.{verdict}").inc()
            m.histogram(
                "resilience.retry_depth", RETRY_DEPTH_BUCKETS
            ).observe(attempts)
        self.events.emit("resilience.op", attempts=attempts, verdict=verdict)

    def scrub_pass(
        self, dbcs_checked: int, misaligned: int, repaired: int, cycles: int
    ) -> None:
        m = self.metrics
        m.counter("scrub.passes").inc()
        m.counter("scrub.dbcs_checked").inc(dbcs_checked)
        m.counter("scrub.misaligned_dbcs").inc(misaligned)
        m.counter("scrub.repaired_tracks").inc(repaired)
        m.counter("scrub.cycles").inc(cycles)

    def breaker_transition(self, src: str, dst: str) -> None:
        with self._lock:
            self.metrics.counter("breaker.transitions").inc()
            self.metrics.counter(f"breaker.to_{dst.lower()}").inc()
        self.events.emit("breaker.transition", src=src, dst=dst)

    # ------------------------------------------------------------------
    # sharded campaign supervisor

    def shard_attempt(
        self, shard: int, wall_seconds: float, status: str
    ) -> None:
        """One shard-worker attempt's outcome, published by the supervisor.

        ``status`` is one of ``completed`` / ``timeout`` / ``crashed`` /
        ``failed``; every non-``completed`` attempt also counts as a
        retry trigger. The wall-time histogram is what the obs
        scoreboard gates shard balance on.
        """
        with self._lock:
            m = self.metrics
            m.counter("campaign.shard_attempts").inc()
            m.counter(f"campaign.shard_{status}").inc()
            m.histogram(
                "campaign.shard_wall_seconds", SHARD_WALL_BUCKETS
            ).observe(wall_seconds)
            if status != "completed":
                m.counter("campaign.shard_retries").inc()
        self.events.emit(
            "campaign.shard_attempt",
            shard=shard,
            shard_id=shard,
            status=status,
            wall_seconds=wall_seconds,
        )

    def shard_incomplete(self, shard: int) -> None:
        """A shard exhausted its retries; the report degrades gracefully."""
        with self._lock:
            self.metrics.counter("campaign.incomplete_shards").inc()
        self.events.emit(
            "campaign.shard_incomplete", shard=shard, shard_id=shard
        )

    # ------------------------------------------------------------------
    # kernel gateway (repro.service)

    def service_admitted(
        self, kernel: str, priority: str, trace_id: Optional[str] = None
    ) -> None:
        with self._lock:
            m = self.metrics
            m.counter("service.admitted").inc()
            m.counter(f"service.admitted.{priority}").inc()
            m.counter(f"service.{kernel}.admitted").inc()
        self.events.emit(
            "service.admitted",
            trace_id=trace_id,
            kernel=kernel,
            priority=priority,
        )

    def service_rejected(
        self, kernel: str, reason: str, trace_id: Optional[str] = None
    ) -> None:
        """An admission refusal: queue_full, breaker_open, or draining."""
        with self._lock:
            m = self.metrics
            m.counter("service.rejected").inc()
            m.counter(f"service.rejected.{reason}").inc()
        self.events.emit(
            "service.rejected", trace_id=trace_id, kernel=kernel, reason=reason
        )

    def service_shed(
        self, kernel: str, stage: str, trace_id: Optional[str] = None
    ) -> None:
        """Expired-deadline work dropped before (or between) executions."""
        with self._lock:
            m = self.metrics
            m.counter("service.shed").inc()
            m.counter(f"service.shed.{stage}").inc()
        self.events.emit(
            "service.shed", trace_id=trace_id, kernel=kernel, stage=stage
        )

    def service_retry(
        self, kernel: str, trace_id: Optional[str] = None
    ) -> None:
        with self._lock:
            self.metrics.counter("service.retries").inc()
            self.metrics.counter(f"service.{kernel}.retries").inc()
        self.events.emit("service.retry", trace_id=trace_id, kernel=kernel)

    def service_request(
        self,
        kernel: str,
        status: str,
        seconds: float,
        trace_id: Optional[str] = None,
    ) -> None:
        """One served request's terminal status and end-to-end latency."""
        with self._lock:
            m = self.metrics
            m.counter("service.requests").inc()
            m.counter(f"service.status.{status}").inc()
            m.histogram(
                "service.request_seconds", REQUEST_SECONDS_BUCKETS
            ).observe(seconds)
            m.histogram(
                f"service.{kernel}.request_seconds", REQUEST_SECONDS_BUCKETS
            ).observe(seconds)
        self.events.emit(
            "service.request.done",
            trace_id=trace_id,
            kernel=kernel,
            status=status,
            seconds=seconds,
        )

    def service_queue_depth(
        self, profile: str, kernel: str, depth: int
    ) -> None:
        with self._lock:
            self.metrics.gauge(
                f"service.queue_depth.{profile}.{kernel}"
            ).set(depth)

    def service_breaker_transition(
        self, profile: str, src: str, dst: str
    ) -> None:
        with self._lock:
            m = self.metrics
            m.counter("service.breaker.transitions").inc()
            m.counter(f"service.breaker.to_{dst.lower()}").inc()
        self.tracer.instant(
            "service.breaker.transition",
            category="service",
            profile=profile,
            src=src,
            dst=dst,
        )
        self.events.emit(
            "service.breaker.transition", profile=profile, src=src, dst=dst
        )

    def service_worker_crashed(
        self, profile: str, worker: int, trace_id: Optional[str] = None
    ) -> None:
        """A worker died with a job in flight and was respawned."""
        with self._lock:
            m = self.metrics
            m.counter("service.worker_crashes").inc()
            m.counter(f"service.worker_crashes.{profile}").inc()
        self.events.emit(
            "service.worker.crashed",
            trace_id=trace_id,
            profile=profile,
            worker=worker,
        )

    def journal_counts(self, counts: Dict[str, int]) -> None:
        """Mirror the request journal's counters into gauges."""
        with self._lock:
            for name, value in counts.items():
                self.metrics.gauge(f"journal.{name}").set(value)

    def journal_dedup_hit(self) -> None:
        """A duplicate idempotency key answered from the journal."""
        with self._lock:
            self.metrics.counter("journal.dedup_hits").inc()

    def journal_replayed(self, count: int) -> None:
        """Un-acked intents re-submitted after a restart."""
        with self._lock:
            self.metrics.counter("journal.replays").inc(count)
        self.events.emit("journal.replayed", count=count)

    def service_drained(self, completed: int, dropped: int) -> None:
        """Drain accounting at shutdown: everything admitted must land."""
        with self._lock:
            m = self.metrics
            m.counter("service.drain.completed").inc(completed)
            m.counter("service.drain.dropped").inc(dropped)
        self.events.emit(
            "service.drained", completed=completed, dropped=dropped
        )

    # ------------------------------------------------------------------
    # export

    def metrics_dict(self) -> Dict[str, Any]:
        """Non-destructive snapshot of the whole registry."""
        return self.metrics.as_dict()

    def chrome_trace(self) -> Dict[str, Any]:
        return chrome_trace(self.tracer)

    def write_chrome_trace(self, path: str) -> Dict[str, Any]:
        return write_chrome_trace(self.tracer, path)


__all__ = [
    "OP_CYCLE_BUCKETS",
    "QUEUE_CYCLE_BUCKETS",
    "REQUEST_SECONDS_BUCKETS",
    "RETRY_DEPTH_BUCKETS",
    "SHARD_WALL_BUCKETS",
    "TR_PER_OP_BUCKETS",
    "TelemetryHub",
]
