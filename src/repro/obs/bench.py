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
  ``wall_seconds_median`` joined the wall-clock stats.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

BENCH_SCHEMA = "coruscant-bench-pim-ops/2"


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
    """
    from repro import CoruscantSystem, MemoryGeometry, TelemetryHub

    wall: List[float] = []
    sim: Dict[str, Any] = {}
    for repeat in range(repeats):
        hub = TelemetryHub()
        system = CoruscantSystem(
            trd=trd,
            geometry=MemoryGeometry(tracks_per_dbc=64),
            telemetry=hub,
        )
        wall.append(_timed(run, system))
        counters = hub.metrics.as_dict()["counters"]
        observed = {
            "sim_cycles": counters.get("device.cycles", 0),
            "sim_energy_pj": round(counters.get("device.energy_pj", 0.0), 3),
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
    }


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
        "kernels": results,
    }


__all__ = [
    "BENCH_SCHEMA",
    "DeterminismError",
    "bench_kernel",
    "default_kernels",
    "run_benchmarks",
]
