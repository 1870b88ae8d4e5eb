"""Property tests: ``record_each`` is ``count`` single ``record`` calls.

Energies are compared with ``==``: ``record_each`` must add each
occurrence's energy on its own, as the single calls do, because one
``energy * count`` addition rounds differently.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.device.stats import DeviceStats
from repro.telemetry import TelemetryHub, runtime

energies = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
ops = st.sampled_from(["write_bit", "shift", "carry_write"])
# Earlier activity the batch lands on top of: (op, cycles, energy).
histories = st.lists(
    st.tuples(ops, st.integers(0, 4), energies), max_size=6
)


def replay(stats: DeviceStats, history) -> None:
    for op, cycles, energy in history:
        stats.record(op, cycles, energy)


def singles(stats: DeviceStats, op, cycles, energy, count) -> None:
    for _ in range(count):
        stats.record(op, cycles, energy)


@given(histories, ops, st.integers(0, 4), energies, st.integers(0, 200))
def test_record_each_equals_single_records(history, op, cycles, energy, count):
    batched, single = DeviceStats(), DeviceStats()
    replay(batched, history)
    replay(single, history)
    batched.record_each(op, cycles, energy, count)
    singles(single, op, cycles, energy, count)
    assert batched.as_dict() == single.as_dict()


@given(histories, ops, st.integers(0, 4), energies, st.integers(0, 200))
def test_attached_hub_counters_match(history, op, cycles, energy, count):
    hubs = TelemetryHub(), TelemetryHub()
    batched, single = DeviceStats(sink=hubs[0]), DeviceStats(sink=hubs[1])
    replay(batched, history)
    replay(single, history)
    batched.record_each(op, cycles, energy, count)
    singles(single, op, cycles, energy, count)
    assert batched.as_dict() == single.as_dict()
    counters = [hub.metrics.as_dict()["counters"] for hub in hubs]
    assert counters[0] == counters[1]


@given(histories, ops, energies, st.integers(0, 50))
def test_active_hub_counters_match(history, op, energy, count):
    hubs = TelemetryHub(), TelemetryHub()
    states = []
    for hub, batch in zip(hubs, (True, False)):
        stats = DeviceStats()
        with runtime.activated(hub):
            replay(stats, history)
            if batch:
                stats.record_each(op, 0, energy, count)
            else:
                singles(stats, op, 0, energy, count)
        states.append(stats.as_dict())
    assert states[0] == states[1]
    counters = [hub.metrics.as_dict()["counters"] for hub in hubs]
    assert counters[0] == counters[1]
