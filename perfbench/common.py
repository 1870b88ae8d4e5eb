"""Shared pieces of the benchmark: results, statistics, simulated counts.

Every workload returns a :class:`RunResult`. Host timings are plain
floats, as measured. Simulated quantities (device counts, cycles,
energy) are taken over work whose size does not depend on the host's
speed: the first rounds or requests of the seeded stream, which every
run completes, or the whole campaign, whose op count ``--seconds``
fixes. They therefore repeat exactly for one seed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple,
)

#: DeviceStats op names folded into the ``device.*`` per-op counts.
SHIFT_OPS = ("shift", "realign")
TR_OPS = ("transverse_read",)
WRITE_OPS = ("write", "transverse_write", "write_bit")


@dataclass
class RunResult:
    """What one workload run measured.

    ``metrics`` maps a metric name to ``(value, unit)``. ``report``
    holds everything printed for people but not gated: per-kernel
    latencies, fractions that may be zero, the digest.
    """

    attempted: int
    failed: int
    correct: bool
    metrics: Dict[str, tuple] = field(default_factory=dict)
    report: Dict[str, Any] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: The traced run's span recorder, written out when the run ends.
    spans: Any = None

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def digest(document: Any) -> str:
    """SHA-256 of a canonical JSON rendering (exact-compare key)."""
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return rss / 1024.0 / (1024.0 if sys.platform == "darwin" else 1.0)


def system_device_stats(systems: Iterable[Any]) -> Dict[str, Any]:
    """Device stats summed over every materialised DBC of each system."""
    from repro.device.stats import DeviceStats

    total = DeviceStats()
    for system in systems:
        for _key, cluster in system.memory.iter_materialized_dbcs():
            total.merge(cluster.stats)
    return total.as_dict()


def device_counts(op_counts: Mapping[str, int]) -> Dict[str, int]:
    """The shift / TR / write totals the ``device.*`` metrics report."""
    return {
        "shifts": sum(op_counts.get(op, 0) for op in SHIFT_OPS),
        "trs": sum(op_counts.get(op, 0) for op in TR_OPS),
        "writes": sum(op_counts.get(op, 0) for op in WRITE_OPS),
    }


def device_layer_metrics(
    result: RunResult,
    op_counts: Mapping[str, int],
    faults: int,
    ops: int,
) -> None:
    """Per-op simulated device counts (exact for one seed)."""
    counts = device_counts(op_counts)
    result.metric("device.shifts_per_op", counts["shifts"] / ops, "count")
    result.metric("device.trs_per_op", counts["trs"] / ops, "count")
    result.metric("device.writes_per_op", counts["writes"] / ops, "count")
    result.metric("device.faults_injected_per_op", faults / ops, "count")


#: A segment is ``(wall_seconds, lo, hi, probe_seconds)``: ops ``lo:hi``
#: of one kind of work, and the :func:`probe` time taken next to them.
Segment = Tuple[float, int, int, float]

#: Iterations of the :func:`probe` loop.
PROBE_LOOPS = 100_000
#: The probe time the host timings are scaled to: about what the loop
#: takes on a 2.1 GHz core with no neighbour busy.
PROBE_REF_S = 0.0075


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed now.

    The hosts this runs on are shared. On one 2-vCPU host the loop took
    from 7.3 to 11.8 ms, in stretches of a second to several minutes,
    with no steal time: the CPU itself runs slower while a neighbour is
    busy, and the program slows with it. The loop runs none of the
    program's code, so a change to the program does not move it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def scaled(seconds: float, probe_s: float) -> float:
    """Host ``seconds`` measured while the probe took ``probe_s``, scaled
    to the host speed at which it takes PROBE_REF_S."""
    return seconds * PROBE_REF_S / probe_s


def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    """``fn()``'s host seconds, scaled by the probes around it, and its
    return value."""
    before = probe()
    start = time.perf_counter()
    value = fn()
    seconds = time.perf_counter() - start
    return scaled(seconds, (before + probe()) / 2), value


def p50_p90(seconds: Sequence[float]) -> Tuple[float, float]:
    """Median and 90th percentile, linearly interpolated between samples."""
    deciles = statistics.quantiles(seconds, n=10, method="inclusive")
    return deciles[4], deciles[8]


TIMING_UNITS = {
    "throughput_ops_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
}


def _figures(segments: Sequence[Segment], latency, scale: bool) -> dict:
    seconds, busy = [], 0.0
    for wall, lo, hi, probe_s in segments:
        factor = PROBE_REF_S / probe_s if scale else 1.0
        seconds += [latency[i] * factor for i in range(lo, hi)]
        busy += wall * factor
    p50, p90 = p50_p90(seconds)
    return {
        "throughput_ops_s": len(seconds) / busy,
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
    }


def timing_metrics(
    result: RunResult, segments: Sequence[Segment], latency: Sequence[float]
) -> None:
    """Throughput and latency quantiles, scaled to the reference speed.

    ``latency`` holds every op's host seconds, indexed as the segments
    are. Each segment's times are scaled by the probes taken next to it
    (see :func:`scaled`), and the metrics are taken over every op of
    the run. On one shared host this cut the spread of the figures over
    runs from 0.12-0.25 to under 0.09. The figures as measured, and the
    probe times, go to the report.
    """
    for name, value in _figures(segments, latency, scale=True).items():
        result.metric(name, value, TIMING_UNITS[name])
    probes = [seg[3] * 1e3 for seg in segments]
    result.report.update(
        segments=len(segments),
        probe_ms={"fastest": min(probes), "median": statistics.median(probes)},
        unscaled=_figures(segments, latency, scale=False),
    )


def overhead(plain: Sequence[float], traced: Sequence[float]) -> float:
    """Median per-op slowdown of the traced pass over the plain one.

    The two passes run the same ops at about the same time, so that each
    pair of ops sees the host in about the same state.
    """
    return statistics.median(t / p for p, t in zip(plain, traced)) - 1.0


def check(result: RunResult, ok: bool, problem: str) -> bool:
    """Record a failed correctness condition (kept, not raised)."""
    if not ok:
        result.correct = False
        if len(result.problems) < 20:
            result.problems.append(problem)
    return ok
