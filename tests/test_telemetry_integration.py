"""End-to-end telemetry: system wiring, resilience spans, snapshots.

Covers the full plumbing: ``CoruscantSystem(telemetry=...)`` produces
nested span trees (facade > controller > core phases) with simulated
cycles/energy attributes, the resilience/scrub/breaker layers annotate
their verdicts, campaigns accept a hub, and every stats snapshot across
the stack is non-destructive (reading twice gives the same answer, and
mutating a returned dict never reaches back into the internals).
"""

import pytest

from repro import (
    CoruscantSystem,
    FaultConfig,
    MemoryGeometry,
    TelemetryHub,
)
from repro.core.isa import Address, CpimInstruction, CpimOp
from repro.telemetry.spans import NULL_TRACER


def _system(**kwargs):
    kwargs.setdefault("geometry", MemoryGeometry(tracks_per_dbc=64))
    return CoruscantSystem(**kwargs)


def _add_instruction(operands=2):
    address = Address(bank=0, subarray=0, tile=0, dbc=0, row=0)
    return CpimInstruction(
        op=CpimOp.ADD,
        blocksize=16,
        src=address,
        dest=address,
        operands=operands,
    )


def _stage_add(system, words=(13, 200)):
    from repro.core.addition import MultiOperandAdder

    dbc = system.pim_dbc()
    MultiOperandAdder(dbc).stage_words(list(words), 8, zero_extend_to=16)
    return dbc


# ----------------------------------------------------------------------
# system wiring


class TestSystemWiring:
    def test_telemetry_true_builds_a_hub(self):
        system = _system(telemetry=True)
        assert isinstance(system.telemetry, TelemetryHub)

    def test_telemetry_default_off_keeps_null_tracer(self):
        system = _system()
        assert system.telemetry is None
        dbc = system.pim_dbc()
        assert dbc.tracer is NULL_TRACER
        assert dbc.stats.hub is None
        system.multiply(7, 9, n_bits=8)  # runs without recording anything

    def test_mult_span_tree_nested_with_costs(self):
        system = _system(telemetry=True)
        result = system.multiply(173, 219, n_bits=8)
        tracer = system.telemetry.tracer
        (root,) = tracer.roots
        assert root.name == "pim.mult"
        assert root.attrs["cycles"] == result.cycles
        assert root.attrs["energy_pj"] > 0
        child_names = [c.name for c in root.children]
        assert child_names == [
            "mult.partial_products",
            "mult.reduction",
            "mult.final_add",
        ]
        final_add = root.children[2]
        assert final_add.children[0].name == "add.walk"
        # Phase cycles are real simulated costs that sum below the root.
        assert sum(
            c.attrs["cycles"] for c in root.children
        ) <= root.attrs["cycles"]

    def test_controller_dispatch_nests_cpim_under_resilience(self):
        system = _system(telemetry=True, resilience=True)
        _stage_add(system)
        result = system.execute(_add_instruction())
        tracer = system.telemetry.tracer
        (root,) = tracer.roots
        assert root.name == "resilience.op"
        assert root.attrs["verdict"] == "clean"
        assert root.attrs["attempts"] == 1
        (cpim,) = [c for c in root.children if c.name == "cpim.add"]
        assert cpim.attrs["cycles"] == result.cycles
        assert cpim.attrs["transverse_reads"] > 0
        assert cpim.children[0].name == "add.walk"

    def test_device_metrics_published_through_sink(self):
        system = _system(telemetry=True)
        system.multiply(173, 219, n_bits=8)
        counters = system.telemetry.metrics_dict()["counters"]
        assert counters["device.cycles"] > 0
        assert counters["device.energy_pj"] > 0
        assert counters["pim.mult.count"] == 1

    def test_memory_access_metrics_and_row_hits(self):
        system = _system(telemetry=True)
        address = Address(bank=0, subarray=0, tile=0, dbc=1, row=3)
        row = [0] * 64
        system.controller.write(address, row)
        assert system.controller.read(address) == row
        snapshot = system.telemetry.metrics_dict()
        assert snapshot["counters"]["mem.writes"] == 1
        assert snapshot["counters"]["mem.reads"] == 1
        assert snapshot["counters"]["mem.row_hits"] == 1
        assert snapshot["gauges"]["mem.row_buffer_hit_rate"] == 0.5

    def test_cpim_histograms_fed(self):
        system = _system(telemetry=True)
        _stage_add(system)
        system.execute(_add_instruction())
        hists = system.telemetry.metrics_dict()["histograms"]
        assert hists["cpim.tr_per_op"]["count"] == 1
        assert hists["cpim.op_cycles"]["count"] == 1

    def test_shared_hub_across_systems(self):
        hub = TelemetryHub()
        _system(telemetry=hub).multiply(3, 5, n_bits=8)
        _system(telemetry=hub).multiply(7, 9, n_bits=8)
        assert hub.metrics_dict()["counters"]["pim.mult.count"] == 2


# ----------------------------------------------------------------------
# resilience + scrub + breaker annotations


class TestResilienceTelemetry:
    def test_retry_verdict_and_instants_under_faults(self):
        system = _system(
            telemetry=True,
            resilience=True,
            fault_config=FaultConfig(tr_fault_rate=0.02, seed=3),
        )
        verdicts = set()
        for _ in range(40):
            _stage_add(system)
            try:
                system.execute(_add_instruction())
            except Exception:
                pass
        tracer = system.telemetry.tracer
        for root in tracer.roots:
            assert root.name == "resilience.op"
            verdicts.add(root.attrs.get("verdict"))
        assert "clean" in verdicts
        counters = system.telemetry.metrics_dict()["counters"]
        assert counters["resilience.ops"] == 40
        if system.executor.stats.retries:
            assert any(
                i["name"] == "resilience.retry" for i in tracer.instants
            )
            hist = system.telemetry.metrics_dict()["histograms"][
                "resilience.retry_depth"
            ]
            assert hist["max"] > 1

    def test_nmr_span_on_escalation(self):
        system = _system(
            telemetry=True,
            resilience=True,
            fault_config=FaultConfig(tr_fault_rate=0.30, seed=1),
        )
        for _ in range(20):
            _stage_add(system)
            try:
                system.execute(_add_instruction())
            except Exception:
                pass
        tracer = system.telemetry.tracer
        if system.executor.stats.escalations:
            nmr = tracer.find("resilience.nmr")
            assert nmr
            assert all("faults" in s.attrs or "error" in s.attrs for s in nmr)

    def test_scrub_pass_span_and_counters(self):
        system = _system(telemetry=True, scrub_interval=1)
        address = Address(bank=0, subarray=0, tile=0, dbc=1, row=0)
        system.controller.write(address, [0] * 64)
        system.controller.read(address)
        tracer = system.telemetry.tracer
        passes = tracer.find("scrub.pass")
        assert len(passes) == system.scrubber.stats.passes >= 1
        for span in passes:
            assert span.attrs["dbcs_checked"] >= 1
            assert "cycles" in span.attrs
        counters = system.telemetry.metrics_dict()["counters"]
        assert counters["scrub.passes"] == system.scrubber.stats.passes

    def test_breaker_transitions_published(self):
        system = _system(
            telemetry=True,
            resilience=True,
            adaptive=True,
            fault_config=FaultConfig(tr_fault_rate=0.30, seed=2),
        )
        for _ in range(60):
            _stage_add(system)
            try:
                system.execute(_add_instruction())
            except Exception:
                pass
        transitions = system.breaker.transitions
        if transitions:
            counters = system.telemetry.metrics_dict()["counters"]
            assert counters["breaker.transitions"] == len(transitions)
            tracer = system.telemetry.tracer
            assert len(tracer.find("breaker.transition")) == 0  # instants
            assert sum(
                1
                for i in tracer.instants
                if i["name"] == "breaker.transition"
            ) == len(transitions)


# ----------------------------------------------------------------------
# campaign plumbing


class TestCampaignTelemetry:
    def test_campaign_accepts_hub(self):
        from repro.reliability.campaign import (
            CampaignConfig,
            run_add_campaign,
        )

        hub = TelemetryHub()
        config = CampaignConfig(ops=10, tr_fault_rate=0.0, recovery=True)
        result = run_add_campaign(config, telemetry=hub)
        assert result.completed
        counters = hub.metrics_dict()["counters"]
        assert counters["resilience.ops"] == 10
        assert counters["cpim.add.count"] == 10
        assert hub.tracer.span_count() > 0

    def test_scheduler_publishes_queue_histogram(self):
        from repro.arch.scheduler import CommandScheduler, stream_from_counts
        from repro.arch.timing import DWM_DDR3_1600

        hub = TelemetryHub()
        scheduler = CommandScheduler(
            DWM_DDR3_1600, banks=4, telemetry=hub
        )
        stats = scheduler.run(stream_from_counts(50, banks=4, seed=1))
        snapshot = hub.metrics_dict()
        assert snapshot["counters"]["sched.requests"] == 50
        assert snapshot["histograms"]["sched.queue_cycles"]["count"] == 50
        assert snapshot["gauges"]["sched.row_hit_rate"] == pytest.approx(
            stats.hit_rate
        )


# ----------------------------------------------------------------------
# non-destructive snapshots (regression: reading stats must not reset)


class TestNonDestructiveSnapshots:
    def test_scrub_stats_snapshot_pure(self):
        system = _system(scrub_interval=1)
        address = Address(bank=0, subarray=0, tile=0, dbc=1, row=0)
        system.controller.write(address, [0] * 64)
        scrubber = system.scrubber
        first = scrubber.stats.as_dict()
        second = scrubber.stats.as_dict()
        assert first == second and first["passes"] >= 1
        first["passes"] = 999
        assert scrubber.stats.passes != 999
        state_a = scrubber.state()
        state_b = scrubber.state()
        assert state_a == state_b
        state_a["stats"]["passes"] = 999
        assert scrubber.stats.passes != 999

    def test_breaker_summary_and_serialize_pure(self):
        system = _system(
            resilience=True,
            adaptive=True,
            fault_config=FaultConfig(tr_fault_rate=0.3, seed=2),
        )
        for _ in range(30):
            _stage_add(system)
            try:
                system.execute(_add_instruction())
            except Exception:
                pass
        breaker = system.breaker
        assert breaker.summary() == breaker.summary()
        assert breaker.serialize() == breaker.serialize()
        summary = breaker.summary()
        summary["escalations"] = 999
        summary["levels"]["bogus"] = "NMR"
        assert breaker.summary()["escalations"] != 999
        assert "bogus" not in breaker.summary()["levels"]

    def test_executor_stats_snapshot_pure(self):
        system = _system(resilience=True)
        _stage_add(system)
        system.execute(_add_instruction())
        stats = system.executor.stats
        first = stats.as_dict()
        assert first == stats.as_dict()
        assert first["operations"] == 1
        assert first["faults_corrected"] == stats.faults_corrected
        first["operations"] = 999
        assert stats.operations == 1

    def test_device_stats_snapshot_pure(self):
        system = _system()
        system.multiply(173, 219, n_bits=8)
        stats = system.pim_dbc().stats
        first = stats.as_dict()
        assert first == stats.as_dict()
        first["op_counts"]["transverse_read"] = 999
        assert stats.count("transverse_read") != 999

    def test_controller_stats_snapshot_pure(self):
        system = _system()
        address = Address(bank=0, subarray=0, tile=0, dbc=1, row=0)
        system.controller.write(address, [0] * 64)
        system.controller.read(address)
        stats = system.controller.stats
        first = stats.as_dict()
        assert first == stats.as_dict()
        assert first["reads"] == 1 and first["writes"] == 1
        assert first["row_hits"] + first["row_misses"] == 2
        first["reads"] = 999
        assert stats.reads == 1

    def test_scheduler_stats_snapshot_pure(self):
        from repro.arch.scheduler import CommandScheduler, stream_from_counts
        from repro.arch.timing import DWM_DDR3_1600

        scheduler = CommandScheduler(DWM_DDR3_1600, banks=2)
        stats = scheduler.run(stream_from_counts(20, banks=2, seed=0))
        assert stats.as_dict() == stats.as_dict()
        snapshot = stats.as_dict()
        snapshot["requests"] = 999
        assert stats.requests == 20

    def test_metrics_and_trace_reads_repeatable(self):
        system = _system(telemetry=True, resilience=True)
        _stage_add(system)
        system.execute(_add_instruction())
        hub = system.telemetry
        assert hub.metrics_dict() == hub.metrics_dict()
        assert hub.chrome_trace() == hub.chrome_trace()
        assert hub.tracer.span_count() == hub.tracer.span_count()


# ----------------------------------------------------------------------
# zero overhead of the default null path


class TestNullOverhead:
    def test_core_units_untouched_without_telemetry(self):
        # The seed's Table III numbers must be reproduced bit-for-bit on
        # the un-instrumented path: same cycles, no spans, no sinks.
        from repro.arch.dbc import DomainBlockCluster
        from repro.core.multiplication import Multiplier
        from repro.device.parameters import DeviceParameters

        dbc = DomainBlockCluster(
            tracks=64, params=DeviceParameters(trd=7), pim_enabled=True
        )
        assert dbc.tracer is NULL_TRACER
        result = Multiplier(dbc).multiply(173, 219, n_bits=8)
        assert result.cycles == 64
        assert NULL_TRACER.span_count() == 0

    def test_checkpointed_campaign_unaffected_by_telemetry_fields(self):
        # Resume stays bit-identical with the extended DeviceStats.
        from repro.reliability.campaign import (
            CampaignConfig,
            run_add_campaign,
        )

        config = CampaignConfig(ops=20, tr_fault_rate=0.01, seed=5)
        full = run_add_campaign(config)
        assert full.completed
