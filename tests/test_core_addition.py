"""Unit tests for CORUSCANT multi-operand addition."""

import pytest

from repro.arch.dbc import DomainBlockCluster
from repro.core.addition import MultiOperandAdder, max_addition_operands
from repro.device.parameters import DeviceParameters


def make_adder(tracks=64, trd=7):
    dbc = DomainBlockCluster(
        tracks=tracks, domains=32, params=DeviceParameters(trd=trd)
    )
    return MultiOperandAdder(dbc), dbc


class TestOperandLimits:
    def test_paper_limits(self):
        # TRD 7 -> five operands; TRD 3 -> two (Sections III-C, V-A).
        assert max_addition_operands(7) == 5
        assert max_addition_operands(5) == 3
        assert max_addition_operands(3) == 2

    def test_rejects_tiny_trd(self):
        with pytest.raises(ValueError):
            max_addition_operands(2)

    def test_adder_rejects_too_many(self):
        adder, _ = make_adder()
        with pytest.raises(ValueError):
            adder.add_words([1, 2, 3, 4, 5, 6], 8)


class TestCorrectness:
    @pytest.mark.parametrize(
        "words",
        [
            [0, 0],
            [255, 255],
            [1, 2, 3],
            [13, 200, 7, 99, 55],
            [255, 255, 255, 255, 255],
            [128, 64, 32, 16, 8],
        ],
    )
    def test_exact_sum(self, words):
        adder, _ = make_adder()
        assert adder.add_words(words, 8).value == sum(words)

    def test_single_operand(self):
        adder, _ = make_adder()
        assert adder.add_words([42], 8).value == 42

    def test_trd3_two_operand(self):
        adder, _ = make_adder(trd=3)
        assert adder.add_words([200, 100], 8).value == 300

    def test_trd5_three_operand(self):
        adder, _ = make_adder(trd=5)
        assert adder.add_words([200, 100, 255], 8).value == 555

    def test_wide_operands(self):
        adder, _ = make_adder(tracks=64)
        words = [40000, 1, 65535, 12345, 2]
        assert adder.add_words(words, 16).value == sum(words)

    def test_mod_semantics_when_truncated(self):
        adder, _ = make_adder()
        words = [200, 100, 50, 25, 12]
        got = adder.add_words(words, 8, result_bits=8).value
        assert got == sum(words) % 256


class TestCycleModel:
    def test_paper_26_cycles_for_8bit_5op(self):
        adder, _ = make_adder()
        r = adder.add_words(
            [1, 2, 3, 4, 5], 8, result_bits=8, costed_staging=True
        )
        assert r.cycles == 26
        assert r.staging_cycles == 10

    def test_paper_19_cycles_for_8bit_2op_trd3(self):
        adder, _ = make_adder(trd=3)
        r = adder.add_words([7, 9], 8, result_bits=8, costed_staging=True)
        assert r.cycles == 19
        assert r.staging_cycles == 3

    def test_two_cycles_per_bit(self):
        adder, _ = make_adder()
        r = adder.add_words([1, 2], 4, result_bits=4)
        assert r.cycles == 8


class TestBlocks:
    def test_packed_blocks_share_cycles(self):
        adder, dbc = make_adder(tracks=64)
        adder.stage_words([10, 20], 8, start_track=0, zero_extend_to=8)
        adder.stage_words([30, 40], 8, start_track=8, zero_extend_to=8)
        r = adder.run(2, result_bits=8, blocks=2, block_stride=8)
        assert r.values == [30, 70]
        assert r.cycles == 16  # same as a single 8-bit block

    def test_carry_masked_at_block_boundary(self):
        adder, _ = make_adder(tracks=64)
        adder.stage_words([255, 255], 8, start_track=0, zero_extend_to=8)
        adder.stage_words([1, 1], 8, start_track=8, zero_extend_to=8)
        r = adder.run(2, result_bits=8, blocks=2, block_stride=8)
        # Block 0 overflows mod 256; the carry must not leak into block 1.
        assert r.values == [(255 + 255) % 256, 2]

    def test_blocks_beyond_tracks_rejected(self):
        adder, _ = make_adder(tracks=16)
        with pytest.raises(ValueError):
            adder.run(2, result_bits=8, blocks=3, block_stride=8)

    def test_overlapping_blocks_rejected(self):
        # Each block would TR the other's tracks and overwrite its carries.
        adder, dbc = make_adder(tracks=64)
        adder.stage_words([10, 20], 8, start_track=0, zero_extend_to=8)
        before = (dbc.snapshot(), dbc.stats.as_dict())
        with pytest.raises(ValueError, match="overlap"):
            adder.run(2, result_bits=8, blocks=2, block_stride=6)
        assert (dbc.snapshot(), dbc.stats.as_dict()) == before


class TestStagingValidation:
    def test_operand_must_fit(self):
        adder, _ = make_adder()
        with pytest.raises(ValueError):
            adder.stage_words([256], 8)

    def test_negative_rejected(self):
        adder, _ = make_adder()
        with pytest.raises(ValueError):
            adder.stage_words([-1], 8)

    def test_stage_rows_width_checked(self):
        adder, _ = make_adder(tracks=8)
        with pytest.raises(ValueError):
            adder.stage_rows([[1, 0]])

    def test_requires_pim_dbc(self):
        plain = DomainBlockCluster(tracks=4, domains=32, pim_enabled=False)
        with pytest.raises(ValueError):
            MultiOperandAdder(plain)
