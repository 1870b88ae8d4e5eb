"""The benchmark kernel runner behind ``repro bench`` and the fixture.

Runs the Table III kernels (multi-operand add at TRD 3/7, 8-bit
multiplication, 5-way max) through telemetry-instrumented systems and
produces one schema-versioned document: per-kernel simulated cycles and
energy, span counts, and host wall-clock statistics.

Schema history:

* ``coruscant-bench-pim-ops/1`` — original fixture; silently kept only
  the last repeat's sim metrics.
* ``coruscant-bench-pim-ops/2`` — sim metrics are asserted identical
  across repeats (:class:`DeterminismError` on drift) and
  ``wall_seconds_median`` joined the wall-clock stats. Later, within
  the same schema, the ``wall_seconds_*`` stats became probe-scaled
  (see :func:`bench_kernel`); the measured figures are kept as
  ``host_wall_seconds_*``, next to the ``probe_seconds_*`` they were
  scaled by. ``host_wall_seconds_min`` marks a document as scaled, and
  :class:`~repro.obs.regression.RegressionDetector` does not gate a
  scaled document's wall figures against an unscaled one's.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

BENCH_SCHEMA = "coruscant-bench-pim-ops/2"

#: Timed kernel runs per repeat, each right after its own probe.
WALL_SAMPLES = 7
#: Iterations of the :func:`_probe` loop.
PROBE_LOOPS = 150
#: The probe time wall-clock figures are scaled to: about what the loop
#: takes on an Intel Xeon vCPU with no neighbour busy.
PROBE_REF_S = 0.0009


class DeterminismError(AssertionError):
    """A deterministic sim metric drifted between repeats of one kernel."""


def default_kernels() -> List[Tuple[str, int, Callable[[Any], Any]]]:
    """The standard ``(name, trd, run)`` kernel list."""
    return [
        (
            "add2_trd3",
            3,
            lambda s: s.add([173, 58], n_bits=8, exact=False),
        ),
        (
            "add5_trd7",
            7,
            lambda s: s.add([173, 58, 99, 7, 255], n_bits=8, exact=False),
        ),
        (
            "mult8_trd7",
            7,
            lambda s: s.multiply(173, 219, n_bits=8),
        ),
        (
            "max5_trd7",
            7,
            lambda s: s.maximum([13, 200, 7, 31, 42], n_bits=8),
        ),
    ]


def bench_kernel(
    name: str, trd: int, repeats: int, run: Callable[[Any], Any]
) -> Dict[str, Any]:
    """Run ``run(system)`` ``repeats`` times on fresh instrumented systems.

    Each repeat gets its own system and telemetry hub, so the simulated
    cycle/energy/span numbers must come out identical every time; a
    mismatch raises :class:`DeterminismError` naming the metric instead
    of silently keeping the last repeat's values.

    A repeat times the kernel ``WALL_SAMPLES`` times, each on a fresh
    system right after a :func:`_probe`, and its wall time is the median
    of ``seconds / probe`` scaled to ``PROBE_REF_S``: one
    sub-millisecond run can lose several times its length to the
    scheduler, and a shared host's speed changes in stretches. The
    measured ``host_wall_seconds_*`` (the median run of each repeat) and
    ``probe_seconds_*`` are kept next to the scaled figures.
    """
    from repro import CoruscantSystem, MemoryGeometry, TelemetryHub

    def fresh_system(hub: TelemetryHub):
        return CoruscantSystem(
            trd=trd, geometry=MemoryGeometry(tracks_per_dbc=64), telemetry=hub
        )

    # The first run in a process is slower (cold caches, lazy imports);
    # one untimed run keeps that out of the first timed repeat.
    run(fresh_system(TelemetryHub()))
    wall: List[float] = []
    host_wall: List[float] = []
    probes: List[float] = []
    sim: Dict[str, Any] = {}
    for repeat in range(repeats):
        # The first system's counters are the repeat's sim metrics; the
        # others only time the kernel again.
        hubs = [TelemetryHub() for _ in range(WALL_SAMPLES)]
        hub = hubs[0]
        systems = [fresh_system(sample_hub) for sample_hub in hubs]
        samples = []
        for system in systems:
            probe_s = _probe()
            samples.append((_timed(run, system), probe_s))
        wall.append(
            statistics.median(seconds / p for seconds, p in samples)
            * PROBE_REF_S
        )
        host_wall.append(statistics.median(seconds for seconds, _ in samples))
        probes.append(statistics.median(p for _, p in samples))
        counters = hub.metrics.as_dict()["counters"]
        observed = {
            "sim_cycles": counters.get("device.cycles", 0),
            "sim_energy_pj": counters.get("device.energy_pj", 0.0),
            "spans": hub.tracer.span_count(),
        }
        if repeat == 0:
            sim = observed
        elif observed != sim:
            drifted = sorted(
                metric
                for metric in observed
                if observed[metric] != sim[metric]
            )
            raise DeterminismError(
                f"kernel {name!r}: deterministic sim metrics drifted on "
                f"repeat {repeat + 1}/{repeats}: "
                + ", ".join(
                    f"{metric} {sim[metric]} -> {observed[metric]}"
                    for metric in drifted
                )
            )
    # ``repro profile ... --virtual-clock`` activates a process-wide
    # hub around the wrapped command; mirror the last repeat's
    # (deterministic, repeat-identical) counters and span tree into it
    # so the profiler's fold_tracer sees the simulated costs even
    # though each repeat ran on its own private hub.
    from repro.telemetry import runtime

    active = runtime.active_hub()
    if active is not None and active is not hub:
        for counter_name, value in counters.items():
            active.metrics.counter(counter_name).inc(value)
        mirror = getattr(active, "tracer", None)
        if mirror is not None and isinstance(
            getattr(mirror, "roots", None), list
        ):
            mirror.roots.extend(hub.tracer.roots)

    return {
        "name": name,
        "trd": trd,
        "repeats": repeats,
        **sim,
        "wall_seconds_min": min(wall),
        "wall_seconds_mean": sum(wall) / len(wall),
        "wall_seconds_median": statistics.median(wall),
        "host_wall_seconds_min": min(host_wall),
        "host_wall_seconds_mean": sum(host_wall) / len(host_wall),
        "host_wall_seconds_median": statistics.median(host_wall),
        "probe_seconds_min": min(probes),
        "probe_seconds_median": statistics.median(probes),
    }


def _probe() -> float:
    """Seconds a fixed loop of small row operations takes: the host's
    speed now.

    Shared hosts change speed in stretches of a second to minutes, and
    two back-to-back bench runs can land in different stretches. The
    loop does the kinds of work the kernels do (numpy row shifts and
    sums on a small plane, Python lists and dicts) without running any
    of the simulator's code, so it slows down with the kernels when a
    neighbour is busy, and a change to the simulator does not move it.
    A pure-integer loop slows down by less than the kernels do.
    """
    plane = np.zeros((40, 64), dtype=np.uint8)
    kept = 0
    start = time.perf_counter()
    for _ in range(PROBE_LOOPS):
        plane[1:] = plane[:-1]
        levels = plane[10:17].sum(axis=0).tolist()
        kept += len({track: levels[track] for track in range(0, 64, 4)})
    return time.perf_counter() - start


def _timed(run: Callable[[Any], Any], system: Any) -> float:
    """Wall seconds of one ``run(system)`` call, garbage collector paused.

    As in :mod:`timeit`: a collection triggered by earlier allocations
    would land inside one sub-millisecond kernel call and swing its time
    by more than the regression band.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        run(system)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def run_benchmarks(repeats: int = 3) -> Dict[str, Any]:
    """All kernels; deterministic sim numbers, host-dependent wall-clock."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    results = [
        bench_kernel(name, trd, repeats, run)
        for name, trd, run in default_kernels()
    ]
    return {
        "schema": BENCH_SCHEMA,
        "repeats": repeats,
        "probe_reference_seconds": PROBE_REF_S,
        "kernels": results,
    }


__all__ = [
    "BENCH_SCHEMA",
    "DeterminismError",
    "bench_kernel",
    "default_kernels",
    "run_benchmarks",
]
