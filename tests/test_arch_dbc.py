"""Unit tests for the domain-block cluster."""

import pytest

from repro.arch.dbc import DomainBlockCluster, pim_port_positions
from repro.device.parameters import DeviceParameters


def make_dbc(tracks=16, trd=7, **kwargs):
    return DomainBlockCluster(
        tracks=tracks,
        domains=32,
        params=DeviceParameters(trd=trd),
        **kwargs,
    )


class TestPortPlacement:
    def test_paper_positions_for_trd7(self):
        # Section III-A: Y = 32, TRD = 7 puts the ports at 14 and 20.
        assert pim_port_positions(32, 7) == (14, 20)

    def test_window_size_equals_trd(self):
        for trd in (3, 5, 7):
            lo, hi = pim_port_positions(32, trd)
            assert hi - lo + 1 == trd

    def test_small_domain_clamping(self):
        lo, hi = pim_port_positions(8, 7)
        assert 0 <= lo and hi <= 7

    def test_rejects_trd_larger_than_domains(self):
        with pytest.raises(ValueError):
            pim_port_positions(4, 7)


class TestWindow:
    def test_window_size(self):
        assert make_dbc(trd=7).window_size == 7
        assert make_dbc(trd=3).window_size == 3

    def test_window_slots_map_to_rows(self):
        dbc = make_dbc()
        assert dbc.window_row_at(0) == 14
        assert dbc.window_row_at(6) == 20

    def test_window_slots_track_shifting(self):
        dbc = make_dbc()
        dbc.shift(1)
        assert dbc.window_row_at(0) == 13

    def test_poke_peek_window_slot(self):
        dbc = make_dbc(tracks=8)
        row = [1, 0, 1, 0, 1, 0, 1, 0]
        dbc.poke_window_slot(3, row)
        assert dbc.peek_window_slot(3) == row

    def test_non_pim_dbc_has_no_window(self):
        dbc = DomainBlockCluster(tracks=4, domains=32, pim_enabled=False)
        with pytest.raises(ValueError):
            _ = dbc.window


class TestLockstepOps:
    def test_row_write_read(self):
        dbc = make_dbc(tracks=8)
        bits = [1, 1, 0, 0, 1, 0, 1, 0]
        dbc.align(10, 0)
        dbc.write_row(bits, 0)
        assert dbc.read_row(0) == bits

    def test_row_width_checked(self):
        dbc = make_dbc(tracks=8)
        with pytest.raises(ValueError):
            dbc.write_row([1, 0], 0)

    def test_cycles_counted_once_per_lockstep_op(self):
        dbc = make_dbc(tracks=8)
        before = dbc.stats.cycles
        dbc.read_row(0)
        assert dbc.stats.cycles == before + 1

    def test_energy_scales_with_tracks(self):
        small = make_dbc(tracks=4)
        large = make_dbc(tracks=8)
        small.read_row(0)
        large.read_row(0)
        assert large.stats.energy_pj == pytest.approx(
            2 * small.stats.energy_pj
        )

    def test_shift_lockstep(self):
        dbc = make_dbc(tracks=4)
        dbc.poke_row(20, [1, 0, 1, 0])
        dbc.shift(1, 6)
        # Row 20 now aligned where row 14 was; align back and check.
        dbc.shift(-1, 6)
        assert dbc.peek_row(20) == [1, 0, 1, 0]


class TestTransverseOps:
    def test_tr_all_counts_per_track(self):
        dbc = make_dbc(tracks=4)
        dbc.poke_window_slot(0, [1, 1, 0, 0])
        dbc.poke_window_slot(3, [1, 0, 0, 0])
        assert dbc.transverse_read_all() == [2, 1, 0, 0]

    def test_tr_single_track(self):
        dbc = make_dbc(tracks=4)
        dbc.poke_window_slot(2, [0, 1, 0, 0])
        assert dbc.transverse_read_track(1) == 1
        assert dbc.transverse_read_track(0) == 0

    def test_tr_tracks_shares_cycle(self):
        dbc = make_dbc(tracks=8)
        before = dbc.stats.cycles
        dbc.transverse_read_tracks([0, 3, 5])
        assert dbc.stats.cycles == before + 1

    def test_tw_row(self):
        dbc = make_dbc(tracks=4)
        dbc.poke_window_slot(6, [1, 1, 1, 1])
        ejected = dbc.transverse_write_row([0, 1, 0, 1])
        assert ejected == [1, 1, 1, 1]
        assert dbc.peek_window_slot(0) == [0, 1, 0, 1]

    def test_overhead_override(self):
        dbc = make_dbc(tracks=2, overhead=(5, 100))
        assert dbc.overhead_right == 100


class TestLongNanowires:
    """The architecture scales to 32 <= Y <= 512 (Section II-B)."""

    def test_y512_dbc_operates(self):
        from repro.core.addition import MultiOperandAdder

        dbc = DomainBlockCluster(
            tracks=16, domains=512, params=DeviceParameters(trd=7)
        )
        assert dbc.window_size == 7
        adder = MultiOperandAdder(dbc)
        assert adder.add_words([100, 200], 8).value == 300

    def test_y512_port_positions_centered(self):
        lo, hi = pim_port_positions(512, 7)
        assert hi - lo + 1 == 7
        assert 200 < lo < 312

    def test_y128_shifting_and_overhead(self):
        dbc = DomainBlockCluster(
            tracks=4, domains=128, params=DeviceParameters(trd=7)
        )
        dbc.poke_row(64, [1, 0, 1, 0])
        dbc.align(64, 0)
        assert dbc.read_row(0) == [1, 0, 1, 0]
