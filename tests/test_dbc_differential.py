"""Differential tests: the bit-plane DBC against a lockstep list of wires.

:class:`WireCluster` below is the reference engine: one
:class:`~repro.device.nanowire.Nanowire` per track, every lockstep
operation a loop over the wires, and the cluster-level cost accounting
written out operation by operation. Hypothesis drives random operation
sequences — shifts under fault injection, TR/TW, row and bit writes,
zero-cost pokes, snapshots, guard checks, realignment, mid-run rate
switches and voted reads — through both engines, and after every
operation the domains, offsets, cost statistics, vote counters and
fault-injector state (RNG position plus counters) must agree exactly.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.dbc import (
    DomainBlockCluster,
    SenseVoteStats,
    pim_port_positions,
)
from repro.device.faults import FaultConfig, FaultInjector
from repro.device.nanowire import AccessPort, DataLossError, Nanowire
from repro.device.parameters import DeviceParameters
from repro.device.stats import DeviceStats


class WireCluster:
    """A DBC built from one Nanowire per track (the reference engine).

    It keeps one commanded offset for the whole cluster: when a shift
    stops at a guard edge, the wires' own commanded offsets are put back
    to the cluster's, so :meth:`realign` returns every track to it.
    """

    def __init__(self, tracks, domains, params, pim_enabled, injector, overhead):
        self.params = params
        self.tracks = tracks
        self.domains = domains
        self.injector = injector
        self.wires = [
            Nanowire(
                domains,
                [AccessPort(p) for p in _ports(domains, params, pim_enabled)],
                params=params,
                injector=injector,
                overhead=overhead,
            )
            for _ in range(tracks)
        ]
        self.commanded_offset = 0
        self.stats = DeviceStats()
        self.tr_vote_reads = 1
        self.vote_stats = SenseVoteStats()

    @property
    def window(self):
        if len(self.wires[0].ports) < 2:
            raise ValueError("no window")
        wire = self.wires[0]
        return wire.port_physical_position(0), wire.port_physical_position(1)

    @property
    def misaligned_tracks(self) -> List[int]:
        return [
            i for i, wire in enumerate(self.wires)
            if wire.offset != self.commanded_offset
        ]

    def _check_width(self, bits) -> None:
        if len(bits) != self.tracks:
            raise ValueError("row width")

    def poke_row(self, row, bits):
        self._check_width(bits)
        for wire in self.wires:  # validate before any write
            wire.row_physical_position(row)
        for bit in bits:
            Nanowire._check_bit(bit)
        for wire, bit in zip(self.wires, bits):
            wire.poke_row(row, bit)

    def peek_row(self, row):
        return [wire.peek_row(row) for wire in self.wires]

    def _slot(self, slot):
        lo, hi = self.window
        if not lo <= lo + slot <= hi:
            raise ValueError("slot")
        return lo + slot

    def poke_window_slot(self, slot, bits, start=None):
        if start is None:
            self._check_width(bits)
            start = 0
        elif start < 0 or start + len(bits) > self.tracks:
            raise ValueError("block")
        position = self._slot(slot)
        for bit in bits:
            Nanowire._check_bit(bit)
        for track, bit in enumerate(bits, start):
            self.wires[track].poke_physical(position, bit)

    def peek_window_slot(self, slot):
        position = self._slot(slot)
        return [wire.peek_physical(position) for wire in self.wires]

    def shift(self, direction, count=1):
        try:
            for wire in self.wires:
                wire.shift(direction, count, record=False)
        except DataLossError:
            for wire in self.wires:
                domains, offset, _ = wire.checkpoint()
                wire.restore((domains, offset, self.commanded_offset))
            raise
        self.commanded_offset += direction * count
        p = self.params.shift
        self.stats.record(
            "shift", p.cycles * count, p.energy_pj * self.tracks * count
        )

    def align(self, row, port_index=0):
        wire = self.wires[0]
        target = wire.port_physical_position(port_index)
        believed = wire.overhead_left + row + self.commanded_offset
        delta = target - believed
        if delta:
            self.shift(1 if delta > 0 else -1, abs(delta))
        return abs(delta)

    def read_row(self, port_index=0):
        bits = [wire.read(port_index, record=False) for wire in self.wires]
        p = self.params.read
        self.stats.record("read", p.cycles, p.energy_pj * self.tracks)
        return bits

    def write_row(self, bits, port_index=0):
        self._check_width(bits)
        self.wires[0].ports[port_index]
        for bit in bits:
            Nanowire._check_bit(bit)
        for wire, bit in zip(self.wires, bits):
            wire.write(port_index, bit, record=False)
        p = self.params.write
        self.stats.record("write", p.cycles, p.energy_pj * self.tracks)

    def _sense(self, wire):
        n = self.tr_vote_reads
        if n <= 1:
            return wire.transverse_read(0, 1, record=False)
        reads = [wire.transverse_read(0, 1, record=False) for _ in range(n)]
        self.vote_stats.votes += 1
        winner = max(set(reads), key=reads.count)
        if len(set(reads)) > 1:
            self.vote_stats.disagreements += 1
            if reads.count(winner) > n // 2:
                self.vote_stats.corrected += 1
            else:
                self.vote_stats.unresolved += 1
        return winner

    def _record_tr(self, senses):
        n = max(1, self.tr_vote_reads)
        p = self.params.transverse_read
        self.stats.record(
            "transverse_read", p.cycles * n, p.energy_pj * senses * n
        )
        if n > 1:
            self.vote_stats.overhead_cycles += p.cycles * (n - 1)

    def transverse_read_all(self):
        levels = [self._sense(wire) for wire in self.wires]
        self._record_tr(self.tracks)
        return levels

    def transverse_read_track(self, track):
        level = self._sense(self.wires[track])
        self._record_tr(1)
        return level

    def transverse_read_tracks(self, tracks):
        levels = [self._sense(self.wires[t]) for t in tracks]
        self._record_tr(len(levels))
        return levels

    def transverse_write_row(self, bits):
        self._check_width(bits)
        for bit in bits:
            Nanowire._check_bit(bit)
        ejected = [
            wire.transverse_write(bit, 0, 1, record=False)
            for wire, bit in zip(self.wires, bits)
        ]
        p = self.params.transverse_write
        self.stats.record("transverse_write", p.cycles, p.energy_pj * self.tracks)
        return ejected

    def write_bit(self, track, port_index, bit):
        self.wires[track].write(port_index, bit, record=False)
        self.stats.record("write_bit", 0, self.params.write.energy_pj)

    def position_error_check(self):
        p = self.params.transverse_read
        self.stats.record("position_check", p.cycles, p.energy_pj * self.tracks)
        return self.misaligned_tracks

    def realign(self):
        worst = 0
        moved = 0
        for wire in self.wires:
            correction = abs(wire.misalignment)
            if correction:
                worst = max(worst, correction)
                moved += correction
                wire.realign(record=False)
        if worst:
            p = self.params.shift
            self.stats.record("realign", p.cycles * worst, p.energy_pj * moved)
        return worst

    def snapshot(self):
        return (
            tuple(wire.checkpoint() for wire in self.wires),
            self.commanded_offset,
        )

    def restore(self, state):
        wires, commanded = state
        for wire, saved in zip(self.wires, wires):
            wire.restore(saved)
        self.commanded_offset = commanded


def _ports(domains, params, pim_enabled):
    if pim_enabled:
        return pim_port_positions(domains, params.trd)
    return (domains // 2,)


# ----------------------------------------------------------------------
# driving both engines


def build_pair(tracks, domains, trd, pim, overhead, seed, tr_rate, shift_rate):
    params = DeviceParameters(trd=trd)
    config = FaultConfig(
        tr_fault_rate=tr_rate, shift_fault_rate=shift_rate, seed=seed
    )
    dbc = DomainBlockCluster(
        tracks=tracks,
        domains=domains,
        params=params,
        pim_enabled=pim,
        injector=FaultInjector(config),
        overhead=overhead,
    )
    oracle = WireCluster(
        tracks, domains, params, pim, FaultInjector(config), overhead
    )
    return dbc, oracle


def outcome(engine, op, snapshots: Dict[int, object]):
    """Apply ``op`` to ``engine``: ("ok", value) or ("raised", class)."""
    name, args = op[0], op[1:]
    try:
        if name == "snapshot":
            snapshots[id(engine)] = engine.snapshot()
            return ("ok", None)
        if name == "restore":
            saved = snapshots.get(id(engine))
            if saved is not None:
                engine.restore(saved)
            return ("ok", None)
        if name == "set_rates":
            engine.injector.set_rates(*args)
            return ("ok", None)
        if name == "votes":
            engine.tr_vote_reads = args[0]
            return ("ok", None)
        return ("ok", getattr(engine, name)(*args))
    except (ValueError, IndexError, DataLossError) as exc:
        return ("raised", type(exc))


def state(engine):
    if isinstance(engine, WireCluster):
        saved = [wire.checkpoint() for wire in engine.wires]
        domains = [list(d) for d, _, _ in saved]
        offsets = [offset for _, offset, _ in saved]
    else:
        domains = engine.track_domains()
        offsets = engine.offsets
    return {
        "domains": domains,
        "offsets": offsets,
        "commanded": engine.commanded_offset,
        "misaligned": engine.misaligned_tracks,
        "stats": engine.stats.as_dict(),
        "votes": engine.vote_stats,
        # RNG position plus both fault counters.
        "injector": engine.injector.state(),
        "rates": engine.injector.config,
    }


@st.composite
def scenarios(draw):
    pim = draw(st.booleans()) if draw(st.integers(0, 4)) == 0 else True
    trd = draw(st.sampled_from([3, 5, 7]))
    domains = draw(st.sampled_from([8, 12, 16]))
    tracks = draw(st.integers(1, 6))
    overhead = draw(
        st.sampled_from([None, (1, 3), (3, 1), (2, 2), (0, 5)])
    )
    rate = st.sampled_from([0.0, 0.0, 0.05, 0.3])
    row = st.integers(-1, domains)
    track = st.integers(-tracks - 1, tracks)
    bit = st.integers(0, 1)
    bits = st.lists(bit, min_size=tracks, max_size=tracks)
    # An occasional wrong-width row or non-bit value must fail alike.
    bad_bits = st.one_of(
        st.lists(bit, min_size=tracks + 1, max_size=tracks + 1),
        bits.map(lambda b: b[:-1] + [2]),
    )
    any_bits = st.one_of(bits, bits, bits, bad_bits)
    slot = st.integers(-1, trd)
    port = st.integers(0, 2)
    op = st.one_of(
        st.tuples(st.just("shift"), st.sampled_from([1, -1, 1, -1, 0]),
                  st.integers(0, 4)),
        st.tuples(st.just("align"), row, port),
        st.tuples(st.just("transverse_read_all")),
        st.tuples(st.just("transverse_read_track"), track),
        st.tuples(st.just("transverse_read_tracks"),
                  st.lists(st.integers(0, tracks - 1), max_size=4)),
        st.tuples(st.just("transverse_write_row"), any_bits),
        st.tuples(st.just("read_row"), port),
        st.tuples(st.just("write_row"), any_bits, port),
        st.tuples(st.just("write_bit"), track, port, st.integers(0, 2)),
        st.tuples(st.just("peek_row"), row),
        st.tuples(st.just("poke_row"), row, any_bits),
        st.tuples(st.just("peek_window_slot"), slot),
        st.tuples(st.just("poke_window_slot"), slot, any_bits),
        st.tuples(st.just("poke_window_slot"), slot,
                  st.lists(bit, max_size=tracks), st.integers(-1, tracks)),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("restore")),
        st.tuples(st.just("position_error_check")),
        st.tuples(st.just("realign")),
        st.tuples(st.just("set_rates"), rate, rate),
        st.tuples(st.just("votes"), st.sampled_from([1, 3])),
    )
    return {
        "pair": (tracks, domains, trd, pim, overhead,
                 draw(st.integers(0, 2**16)), draw(rate), draw(rate)),
        "votes": draw(st.sampled_from([1, 3])),
        "ops": draw(st.lists(op, min_size=1, max_size=40)),
    }


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_bit_plane_matches_wire_list(scenario):
    dbc, oracle = build_pair(*scenario["pair"])
    dbc.tr_vote_reads = oracle.tr_vote_reads = scenario["votes"]
    snapshots: Dict[int, object] = {}
    assert state(dbc) == state(oracle)
    for op in scenario["ops"]:
        got = outcome(dbc, op, snapshots)
        want = outcome(oracle, op, snapshots)
        assert got == want, op
        assert state(dbc) == state(oracle), op


@pytest.mark.parametrize(
    "tracks, domains, trd, overhead, rate",
    [
        (48, 16, 7, (3, 3), 0.02),
        # One track: every shift fault or guard-edge stop leaves the
        # whole cluster off its commanded offset.
        (1, 8, 3, None, 0.05),
    ],
)
def test_long_faulty_run_matches_wire_list(tracks, domains, trd, overhead, rate):
    """Thousands of ops under faults: states and RNG streams stay in step."""
    rng = random.Random(11)
    dbc, oracle = build_pair(tracks, domains, trd, True, overhead, 5, rate, rate)
    dbc.tr_vote_reads = oracle.tr_vote_reads = 3
    snapshots: Dict[int, object] = {}
    for step in range(1500):
        bits = [rng.randint(0, 1) for _ in range(tracks)]
        op = rng.choice([
            ("shift", rng.choice([1, -1]), rng.randint(0, 3)),
            ("align", rng.randrange(domains), rng.randint(0, 1)),
            ("transverse_read_all",),
            ("transverse_read_tracks",
             [rng.randrange(tracks) for _ in range(3)]),
            ("transverse_write_row", bits),
            ("write_row", bits, rng.randint(0, 1)),
            ("poke_row", rng.randrange(domains), bits),
            ("peek_row", rng.randrange(domains)),
            ("realign",),
            ("snapshot",),
            ("restore",),
        ])
        assert outcome(dbc, op, snapshots) == outcome(oracle, op, snapshots)
        if step % 50 == 0:
            assert state(dbc) == state(oracle), step
    assert state(dbc) == state(oracle)
    assert dbc.injector.shift_faults_injected > 0
    assert dbc.injector.tr_faults_injected > 0


class ScriptedShifts(FaultInjector):
    """Shift faults on chosen perturb_shift calls, none elsewhere."""

    def __init__(self, script: Dict[int, int]) -> None:
        super().__init__(FaultConfig(shift_fault_rate=1.0))
        self.script = script
        self.calls = 0

    def perturb_shift(self, amount: int) -> int:
        scripted: Optional[int] = self.script.get(self.calls)
        self.calls += 1
        return amount if scripted is None else scripted

    def perturb_shifts(self, amount: int, steps: int) -> List[int]:
        return [self.perturb_shift(amount) for _ in range(steps)]


def test_data_loss_mid_shift_then_realign_restores_alignment():
    # Track 2 over-shifts on the first shift, so the long second shift
    # pushes it into its guard edge after tracks 0 and 1 have moved.
    dbc = DomainBlockCluster(
        tracks=4,
        domains=8,
        params=DeviceParameters(trd=3),
        injector=ScriptedShifts({2: 2}),
    )
    rng = random.Random(3)
    for row in range(dbc.domains):
        dbc.poke_row(row, [rng.randint(0, 1) for _ in range(4)])
    dbc.shift(1)
    assert dbc.misaligned_tracks == [2]
    rows_before = [dbc.peek_row(row) for row in range(dbc.domains)]
    commanded = dbc.commanded_offset
    with pytest.raises(DataLossError):
        dbc.shift(1, dbc.overhead_right - commanded)
    assert dbc.commanded_offset == commanded
    dbc.realign()
    assert dbc.misaligned_tracks == []
    assert dbc.offsets == [commanded] * 4
    assert [dbc.peek_row(row) for row in range(dbc.domains)] == rows_before
