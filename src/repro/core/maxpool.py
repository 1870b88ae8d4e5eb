"""The max() subroutine with transverse writes (Section IV-B, Figs. 8-9).

Up to TRD words are stored transposed in the window (word w = window slot
w, bit j on track j). The subroutine walks bit positions MSB to LSB; at
each position one TR on the bit's track senses whether *any* candidate
has a '1' there. If so, every candidate with a '0' is eliminated by a
predicated row-buffer reset as the words rotate through the right head:
read the word under the right head, conditionally zero it, and transverse
write it back at the left head. The TW's segmented shift returns each
word to its original slot without disturbing the rest of the nanowires.

After the LSB pass all surviving words equal the maximum, so a final TR
per bit position reads the max regardless of where (or how many times) it
appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.arch.dbc import DomainBlockCluster
from repro.utils.bitops import bits_from_int, bits_to_int


@dataclass(frozen=True)
class MaxResult:
    """Outcome of one max() subroutine run.

    Attributes:
        value: the maximum.
        cycles: DBC cycles consumed.
        survivors: how many window slots still hold a non-zero word.
    """

    value: int
    cycles: int
    survivors: int


class MaxUnit:
    """CORUSCANT pooling/max unit bound to one PIM DBC."""

    def __init__(self, dbc: DomainBlockCluster) -> None:
        if not dbc.pim_enabled:
            raise ValueError("max() requires a PIM-enabled DBC")
        self.dbc = dbc
        self.trd = dbc.window_size

    def stage_words(self, words: Sequence[int], n_bits: int) -> None:
        """Place candidate words transposed into the window (zero cost).

        Unused slots are zero-padded — zero never wins a max against any
        candidate, and if all candidates are zero the result is still
        correct.
        """
        if not 1 <= len(words) <= self.trd:
            raise ValueError(
                f"word count {len(words)} outside [1, {self.trd}]"
            )
        if n_bits > self.dbc.tracks:
            raise ValueError(
                f"n_bits {n_bits} exceeds DBC tracks {self.dbc.tracks}"
            )
        pad = [0] * (self.dbc.tracks - n_bits)
        for slot in range(self.trd):
            word = words[slot] if slot < len(words) else 0
            if word < 0 or word >> n_bits:
                raise ValueError(
                    f"word {word} does not fit in {n_bits} unsigned bits"
                )
            self.dbc.poke_window_slot(slot, bits_from_int(word, n_bits) + pad)

    def run(
        self,
        words: Optional[Sequence[int]] = None,
        n_bits: int = 8,
        use_transverse_write: bool = True,
    ) -> MaxResult:
        """Execute the subroutine; optionally stage ``words`` first.

        ``use_transverse_write=False`` runs the pre-TW variant: whole-
        nanowire shifts move the words, and each bit pass ends with TRD
        shifts back to restore alignment — the cost the TW was invented
        to remove.
        """
        if not use_transverse_write:
            needed = self.trd * n_bits
            room = self.dbc.overhead_right - self.dbc.commanded_offset
            if room < needed:
                raise ValueError(
                    f"the pre-TW variant migrates the word block "
                    f"{needed} positions; construct the DBC with "
                    f"overhead=(left, >={needed}) to run it"
                )
        if words is not None:
            self.stage_words(words, n_bits)
        before = self.dbc.stats.cycles
        for bit in range(n_bits - 1, -1, -1):
            level = self.dbc.transverse_read_track(bit)
            self._rotate_pass(bit, level, use_transverse_write)
        value_bits = []
        for bit in range(n_bits):
            level = self.dbc.transverse_read_track(bit)
            value_bits.append(1 if level > 0 else 0)
        value = bits_to_int(value_bits)
        survivors = sum(
            1
            for slot in range(self.trd)
            if any(self.dbc.peek_window_slot(slot))
        )
        return MaxResult(
            value=value,
            cycles=self.dbc.stats.cycles - before,
            survivors=survivors,
        )

    def _rotate_pass(self, bit: int, level: int, use_tw: bool) -> None:
        """Rotate all TRD words through the heads once, eliminating losers.

        The memory controller issues identical commands whether or not
        TR found a one — the row-buffer reset is predicated on the TR
        level and the tested bit (Section IV-B) — so the cycle cost never
        depends on the data.
        """
        if use_tw:
            for _ in range(self.trd):
                row = self.dbc.read_row(port_index=1)
                if level > 0 and row[bit] == 0:
                    row = [0] * self.dbc.tracks  # predicated buffer reset
                self.dbc.transverse_write_row(row)
        else:
            # Pre-TW variant: whole-nanowire shifts. Each round the word
            # under the right head is read, the wire shifts one position,
            # and the (possibly reset) word is written at the left head —
            # so after a full pass the word block has migrated TRD
            # positions and the pass for the next bit operates on the
            # migrated block. The offset accumulates across bit positions
            # (TRD x n_bits overhead domains needed), the cost that
            # motivates the transverse write.
            for _ in range(self.trd):
                row = self.dbc.read_row(port_index=1)
                if level > 0 and row[bit] == 0:
                    row = [0] * self.dbc.tracks
                self.dbc.shift(1)
                self.dbc.write_row(row, port_index=0)
