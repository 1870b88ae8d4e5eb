"""Differential tests: the batched adder walk against the per-bit walk.

:func:`reference_run` is the carry-chain walk written one write at a
time: every step TRs the blocks' tracks, then calls ``dbc.write_bit``
for each block's S, C and C' (carries past the block's end masked), then
accounts the step's cycle. :meth:`MultiOperandAdder.run` batches a
step's writes into one ``write_bits`` call. Hypothesis drives both walks
over twin DBCs, and afterwards the plane bytes, cost statistics (exact
float equality), vote counters and fault-injector state must agree, as
must the sums or the class of the exception raised.
"""

from __future__ import annotations

import random
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.dbc import DomainBlockCluster
from repro.core.addition import MultiOperandAdder
from repro.core.pim_logic import adder_outputs
from repro.core.redundant_add import RedundantAdder, VotingMode
from repro.device.faults import FaultConfig, FaultInjector
from repro.device.parameters import DeviceParameters
from repro.utils.bitops import bits_to_int


def reference_run(
    adder: MultiOperandAdder,
    result_bits: int,
    start_track: int = 0,
    blocks: int = 1,
    block_stride: Optional[int] = None,
):
    """The per-bit walk: three ``write_bit`` calls per block and step."""
    dbc = adder.dbc
    stride = block_stride or result_bits
    if start_track + (blocks - 1) * stride + result_bits > dbc.tracks:
        raise ValueError("blocks extend past the DBC's tracks")
    before = dbc.stats.cycles
    for step in range(result_bits):
        tracks = [start_track + b * stride + step for b in range(blocks)]
        levels = dbc.transverse_read_tracks(tracks)
        for b, (track, level) in enumerate(zip(tracks, levels)):
            s, c, c_prime = adder_outputs(level)
            if c_prime and not adder.uses_super_carry:
                raise AssertionError("super carry")
            block_end = start_track + b * stride + result_bits
            dbc.write_bit(track, 0, s)
            if track + 1 < block_end:
                dbc.write_bit(track + 1, 1, c)
            if adder.uses_super_carry and track + 2 < block_end:
                dbc.write_bit(track + 2, 0, c_prime)
        dbc.tick(1, "carry_write")
    sums = dbc.peek_window_slot(0)
    bases = [start_track + b * stride for b in range(blocks)]
    values = [bits_to_int(sums[base:base + result_bits]) for base in bases]
    return values, dbc.stats.cycles - before


def make_dbc(trd: int, tracks: int, seed: int, tr_rate: float,
             shift_rate: float, votes: int) -> DomainBlockCluster:
    dbc = DomainBlockCluster(
        tracks=tracks,
        domains=32,
        params=DeviceParameters(trd=trd),
        injector=FaultInjector(FaultConfig(
            tr_fault_rate=tr_rate, shift_fault_rate=shift_rate, seed=seed,
        )),
    )
    dbc.tr_vote_reads = votes
    return dbc


def state(dbc: DomainBlockCluster):
    return (
        dbc.snapshot(),
        dbc.stats.as_dict(),
        dbc.vote_stats,
        dbc.injector.state(),
    )


def outcome(call):
    try:
        return "ok", call()
    except Exception as exc:  # the class must match, not the message
        return "raised", type(exc)


@st.composite
def walks(draw):
    trd = draw(st.sampled_from([3, 5, 7]))
    k = draw(st.integers(1, trd - 1 if trd == 3 else trd - 2))
    n_bits = draw(st.integers(1, 8))
    result_bits = draw(st.integers(n_bits, n_bits + 4))
    blocks = draw(st.integers(1, 8))
    stride = draw(st.integers(result_bits, result_bits + 3))
    start = draw(st.integers(0, 3))
    # Now and then the blocks run past the last track.
    tracks = start + (blocks - 1) * stride + result_bits
    tracks = max(1, tracks - draw(st.sampled_from([0, 0, 0, 1])))
    words = [
        [draw(st.integers(0, (1 << n_bits) - 1)) for _ in range(k)]
        for _ in range(blocks)
    ]
    rate = st.sampled_from([0.0, 1e-2])
    return {
        "dbc": (trd, tracks, draw(st.integers(0, 2**16)),
                draw(rate), draw(rate), draw(st.sampled_from([1, 3]))),
        "costed": blocks == 1 and draw(st.booleans()),
        "words": words,
        "n_bits": n_bits,
        "run": (result_bits, start, blocks, stride),
    }


def stage(adder: MultiOperandAdder, walk) -> None:
    result_bits, start, _, stride = walk["run"]
    n_bits = walk["n_bits"]
    if walk["costed"]:
        # Costed staging shifts the cluster, so shift faults can fire.
        adder.write_words(walk["words"][0], n_bits)
        return
    for b, words in enumerate(walk["words"]):
        first = start + b * stride
        if first + result_bits <= adder.dbc.tracks:
            adder.stage_words(words, n_bits, first, result_bits)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(walks())
def test_batched_walk_matches_per_bit_walk(walk):
    dbc, twin = make_dbc(*walk["dbc"]), make_dbc(*walk["dbc"])
    adder, reference = MultiOperandAdder(dbc), MultiOperandAdder(twin)
    got = outcome(lambda: stage(adder, walk))
    want = outcome(lambda: stage(reference, walk))
    assert got == want
    assert state(dbc) == state(twin)
    if got[0] == "raised":
        return
    k = len(walk["words"][0])
    result_bits, start, blocks, stride = walk["run"]

    def batched():
        result = adder.run(k, result_bits, start, blocks, stride)
        return result.values, result.cycles

    got = outcome(batched)
    want = outcome(
        lambda: reference_run(reference, result_bits, start, blocks, stride)
    )
    assert got == want
    assert state(dbc) == state(twin)


def test_paper_geometry_campaign_matches_per_bit_walk():
    """512 tracks, TRD 7, 16-bit blocks under faults, many steps."""
    rng = random.Random(3)
    dbc = make_dbc(7, 512, 9, 1e-2, 0.0, 1)
    twin = make_dbc(7, 512, 9, 1e-2, 0.0, 1)
    adder, reference = MultiOperandAdder(dbc), MultiOperandAdder(twin)
    for _ in range(20):
        for b in range(32):
            words = [rng.randrange(256) for _ in range(5)]
            adder.stage_words(words, 8, 16 * b, 16)
            reference.stage_words(words, 8, 16 * b, 16)
        got = adder.run(5, 16, blocks=32, block_stride=16)
        want = reference_run(reference, 16, blocks=32, block_stride=16)
        assert (got.values, got.cycles) == want
        assert state(dbc) == state(twin)
    assert dbc.injector.tr_faults_injected > 0
    assert dbc.stats.count("write_bit") == 20 * 32 * (16 + 15 + 14)


class PerBitRedundantAdder(RedundantAdder):
    """Per-step voting with the voted S/C/C' written bit by bit."""

    def _per_step(self, k, n_bits):
        for step in range(n_bits):
            outputs = [
                adder_outputs(dbc.transverse_read_track(step))
                for dbc in self.replicas
            ]
            s, c, cp = (
                self._majority([o[i] for o in outputs]) for i in range(3)
            )
            for dbc, adder in zip(self.replicas, self.adders):
                dbc.write_bit(step, 0, s)
                if step + 1 < n_bits:
                    dbc.write_bit(step + 1, 1, c)
                if adder.uses_super_carry and step + 2 < n_bits:
                    dbc.write_bit(step + 2, 0, cp)
                dbc.tick(1, "carry_write")
            for dbc in self.replicas:
                dbc.tick(1, "step_vote")
        return None


@pytest.mark.parametrize("trd, n", [(3, 3), (7, 3), (7, 5)])
def test_redundant_per_step_matches_per_bit_writes(trd, n):
    config = FaultConfig(tr_fault_rate=0.05, seed=21)
    batched = RedundantAdder(n=n, trd=trd, fault_config=config)
    per_bit = PerBitRedundantAdder(n=n, trd=trd, fault_config=config)
    rng = random.Random(trd * 10 + n)
    k = batched.adders[0].max_operands
    for _ in range(25):
        words = [rng.randrange(256) for _ in range(k)]
        batched.add_words(words, 8, mode=VotingMode.PER_STEP)
        per_bit.add_words(words, 8, mode=VotingMode.PER_STEP)
        for mine, theirs in zip(batched.replicas, per_bit.replicas):
            assert state(mine) == state(theirs)
    assert sum(
        dbc.injector.tr_faults_injected for dbc in batched.replicas
    ) > 0


class TestWriteBits:
    def make(self):
        return make_dbc(7, 16, 1, 0.0, 0.0, 1)

    def test_matches_write_bit_calls(self):
        dbc, twin = self.make(), self.make()
        writes = [(3, 0, 1), (4, 1, 1), (5, 0, 0), (9, 1, 1), (0, 0, 1)]
        dbc.write_bits(*map(list, zip(*writes)))
        for track, port, bit in writes:
            twin.write_bit(track, port, bit)
        assert state(dbc) == state(twin)
        assert dbc.stats.count("write_bit") == 5
        assert dbc.stats.cycles == 0

    def test_empty_batch_records_nothing(self):
        dbc = self.make()
        dbc.write_bits([], [], [])
        assert dbc.stats.as_dict() == self.make().stats.as_dict()

    def test_bad_bit_rejected_before_any_write(self):
        dbc = self.make()
        before = state(dbc)
        with pytest.raises(ValueError, match="expected bit 0 or 1"):
            dbc.write_bits([1, 2], [0, 0], [1, 2])
        assert state(dbc) == before

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError):
            self.make().write_bits([1, 2], [0], [1, 1])
