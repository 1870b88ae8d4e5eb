"""Property test: ``record(count=n)`` under an activated hub reads as
``n`` single records.

Energies are whole fJ (as every device energy is), so the ledgers and
the hub's ``device.*`` counters are compared with ``==``.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.device.stats import DeviceStats
from repro.telemetry import TelemetryHub, runtime

energies = st.integers(0, 10**6).map(lambda fj: fj / 1000)
ops = st.sampled_from(["write_bit", "shift", "carry_write"])
# Earlier activity the batch lands on top of: (op, cycles, energy).
histories = st.lists(
    st.tuples(ops, st.integers(0, 4), energies), max_size=6
)


@given(histories, ops, energies, st.integers(0, 50))
def test_active_hub_counters_match(history, op, energy, count):
    hubs = TelemetryHub(), TelemetryHub()
    states = []
    for hub, batch in zip(hubs, (True, False)):
        with runtime.activated(hub):
            stats = DeviceStats()
            for past_op, cycles, past_energy in history:
                stats.record(past_op, cycles, past_energy)
            if batch:
                stats.record(op, 0, energy, count)
            else:
                for _ in range(count):
                    stats.record(op, 0, energy)
        assert stats.hub is hub
        states.append(stats.as_dict())
    assert states[0] == states[1]
    counters = [hub.metrics.as_dict()["counters"] for hub in hubs]
    assert counters[0] == counters[1]
