"""Property tests: the device ledger sums whole femtojoules, and a hub
reads its ledgers when asked.

Energies are whole fJ (as every device energy is), so every comparison
here is ``==``: no order of records, batching, or concurrent reader may
move a single femtojoule.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CoruscantSystem, MemoryGeometry
from repro.device.stats import DeviceStats
from repro.telemetry import TelemetryHub, runtime

energies = st.integers(0, 10**6).map(lambda fj: fj / 1000)
ops = st.sampled_from(["write_bit", "shift", "carry_write", "tr"])
# One record call: (op, cycles, energy_pj, count).
records = st.lists(
    st.tuples(ops, st.integers(0, 4), energies, st.integers(0, 50)),
    max_size=12,
)


def replay(stats: DeviceStats, history) -> None:
    for op, cycles, energy, count in history:
        stats.record(op, cycles, energy, count)


def device_counters(hub: TelemetryHub):
    return {
        name: value
        for name, value in hub.metrics_dict()["counters"].items()
        if name.startswith("device.")
    }


def expected_counters(ledgers):
    """What ``device.*`` must read: the ledgers merged, in pJ."""
    total = DeviceStats()
    for ledger in ledgers:
        total.merge(ledger)
    if not total.op_counts:
        return {}
    expected = {
        "device.ops": sum(total.op_counts.values()),
        "device.cycles": total.cycles,
        "device.energy_pj": total.energy_pj,
    }
    for op, count in total.op_counts.items():
        expected[f"device.{op}.count"] = count
        expected[f"device.{op}.cycles"] = total.cycles_for(op)
        expected[f"device.{op}.energy_pj"] = total.energy_for(op)
    return expected


@given(records.flatmap(lambda h: st.tuples(st.just(h), st.permutations(h))))
def test_record_order_does_not_change_the_ledger(pair):
    history, shuffled = pair
    a, b = DeviceStats(), DeviceStats()
    replay(a, history)
    replay(b, shuffled)
    assert a.as_dict() == b.as_dict()


@given(records, ops, st.integers(0, 4), energies, st.integers(0, 200))
def test_counted_record_equals_single_records(history, op, cycles, energy, n):
    batched, single = DeviceStats(), DeviceStats()
    replay(batched, history)
    replay(single, history)
    batched.record(op, cycles, energy, count=n)
    for _ in range(n):
        single.record(op, cycles, energy)
    assert batched.as_dict() == single.as_dict()
    assert batched == single


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), energies), min_size=1,
                max_size=300))
def test_concurrent_reads_see_exact_totals(steps):
    hub = TelemetryHub()
    ledgers = [DeviceStats() for _ in range(3)]
    for ledger in ledgers:
        hub.claim(ledger)
    errors = []
    writers_done = threading.Event()

    def write(k: int) -> None:
        # Fresh op names grow the ledger dicts while the reader copies.
        for i, (cycles, energy) in enumerate(steps):
            ledgers[k].record(f"op{k}_{i}", cycles, energy)

    def read() -> None:
        try:
            while not writers_done.is_set():
                counters = device_counters(hub)
                if counters:
                    per_op = sum(
                        value for name, value in counters.items()
                        if name.endswith(".cycles")
                        and name != "device.cycles"
                    )
                    assert counters["device.cycles"] == per_op
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    reader = threading.Thread(target=read)
    writers = [
        threading.Thread(target=write, args=(k,)) for k in range(3)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader.start()
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
        writers_done.set()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not reader.is_alive()
    assert not any(thread.is_alive() for thread in writers)
    assert errors == []
    assert device_counters(hub) == expected_counters(ledgers)


@settings(max_examples=10, deadline=None)
@given(records, records)
def test_activated_hub_counts_only_its_own_ledgers(outside, inside):
    active, own = TelemetryHub(), TelemetryHub()
    with runtime.activated(active):
        loose = DeviceStats()
        system = CoruscantSystem(
            geometry=MemoryGeometry(tracks_per_dbc=16), telemetry=own
        )
        dbc = system.pim_dbc()
    before = DeviceStats()
    replay(loose, inside)
    replay(dbc.stats, outside)
    replay(before, outside)
    assert loose.hub is active and dbc.stats.hub is own
    assert before.hub is None
    assert device_counters(active) == expected_counters([loose])
    assert device_counters(own) == expected_counters([dbc.stats])


def test_service_metrics_equal_the_ledgers_after_a_concurrent_run():
    from repro.service.gateway import Gateway

    async def scrape(port: int):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(
            b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: 0\r\n\r\n"
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        return json.loads(raw.partition(b"\r\n\r\n")[2])

    async def scenario():
        gateway = Gateway(port=0, workers=2)
        await gateway.start()
        try:
            requests = [
                ("add", {"words": [i, 7, 9], "n_bits": 8}) for i in range(8)
            ] + [("multiply", {"a": i, "b": 13, "n_bits": 8})
                 for i in range(4)]
            responses = await asyncio.gather(*(
                gateway.handle(kernel, {"payload": payload})
                for kernel, payload in requests
            ))
            assert [r.status for r in responses] == ["ok"] * len(requests)
            metrics = await scrape(gateway.port)
        finally:
            await gateway.shutdown()
        return gateway.telemetry, metrics

    hub, metrics = asyncio.run(scenario())
    device = {
        name: value for name, value in metrics["counters"].items()
        if name.startswith("device.")
    }
    assert device["device.cycles"] > 0
    assert device == expected_counters(hub.ledgers())
