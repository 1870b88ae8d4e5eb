"""Domain-block cluster (DBC): the unit CORUSCANT computes in.

A DBC is X parallel racetracks of Y data domains each (Fig. 2d). The X
nanowires shift in lockstep, so a memory *row* is one domain position read
across all X tracks. PIM-enabled DBCs have two access ports per track
spaced TRD-1 domains apart so a transverse read spans exactly TRD domains
(Section III-A).

The cluster owns its track state as a bit plane:

* ``_plane``: one ``(length x tracks)`` uint8 array of physical domains,
  so plane row ``p`` is physical position ``p`` on every track;
* ``_offsets``: the physical shift offset of every track;
* ``_commanded_offset``: the one offset the controller believes every
  track is at. A track whose offset differs from it is misaligned.

A lockstep row operation is therefore one numpy expression across all
tracks. The conventions (overhead domains, data loss at the guard edges,
TR/TW windows) are those of :class:`~repro.device.nanowire.Nanowire`, the
single-wire model; the tests drive a list of them in lockstep as the
oracle for this engine.

Fault draws stay per track. With a nonzero rate every track draws from
the shared :class:`FaultInjector` in track order — step-major within a
track for shifts, read-major for voted TRs — which is the order one
wire at a time would draw in, so a seeded run repeats exactly. The
injector's stream is CPython's MT19937 stream for ``random.Random(seed)``,
bit for bit; batches only decide faster where it fires. A lockstep
shift or TR first asks :meth:`FaultInjector.clean_draws` whether any of
its draws fires: when none does, the draws are consumed and the
operation completes with no per-track work; when one does, nothing is
consumed and the per-track path makes the same draws one by one (as it
does for every batch when a configured rate is above the injector's
buffer cut-off). The rate is read on every operation because storm
profiles switch it mid-run.

Cost accounting happens at the cluster level: a lockstep operation across
all X tracks costs one operation's latency but X tracks' energy; the
DBC's own :class:`DeviceStats` is the source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.device.faults import FaultInjector
from repro.device.nanowire import DataLossError, default_overhead
from repro.device.parameters import DeviceParameters
from repro.device.stats import DeviceStats
from repro.telemetry.spans import NULL_TRACER


@dataclass
class SenseVoteStats:
    """Counters for the re-read-voting sense path.

    With :attr:`DomainBlockCluster.tr_vote_reads` > 1 every transverse
    read is repeated and majority-voted, which detects (and usually
    corrects) single TR level faults at the cost of the extra reads.
    """

    votes: int = 0
    disagreements: int = 0
    corrected: int = 0
    unresolved: int = 0
    overhead_cycles: int = 0

    def copy(self) -> "SenseVoteStats":
        return replace(self)


@dataclass(frozen=True)
class DBCSnapshot:
    """Zero-cost checkpoint of a whole cluster (transaction logging).

    ``plane`` and ``offsets`` are the raw bytes of the cluster's arrays,
    so two snapshots compare equal exactly when the states do.
    """

    shape: Tuple[int, int]
    plane: bytes
    offsets: bytes
    commanded_offset: int


def pim_port_positions(domains: int, trd: int) -> Tuple[int, int]:
    """Data-relative port positions for a PIM DBC.

    Ports are centered and spaced TRD-1 apart so the TR window covers TRD
    domains; for Y = 32, TRD = 7 this gives positions (14, 20) exactly as
    in Section III-A ("the ports would move to positions 14 and 20").
    """
    if trd < 2:
        raise ValueError(f"trd must be >= 2, got {trd}")
    if trd > domains:
        raise ValueError(f"trd {trd} cannot exceed domains {domains}")
    left = domains // 2 - trd // 2 + 1
    left = max(0, min(left, domains - trd))
    return left, left + trd - 1


def _bit_vector(bits: Sequence[int]) -> np.ndarray:
    """``bits`` as a uint8 vector; ValueError unless every entry is 0 or 1."""
    if not isinstance(bits, np.ndarray):
        try:
            raw = bytes(bits)
        except (TypeError, ValueError):
            pass
        else:
            # Deleting every 0 and 1 byte leaves nothing for a valid row.
            if not raw.translate(None, b"\x00\x01"):
                return np.frombuffer(raw, dtype=np.uint8)
    vector = np.asarray(bits)
    if vector.size and not ((vector == 0) | (vector == 1)).all():
        bad = next(bit for bit in bits if bit not in (0, 1))
        raise ValueError(f"expected bit 0 or 1, got {bad!r}")
    return vector


class DomainBlockCluster:
    """X lockstep racetracks forming one domain-block cluster."""

    def __init__(
        self,
        tracks: int = 512,
        domains: int = 32,
        params: Optional[DeviceParameters] = None,
        pim_enabled: bool = True,
        port_positions: Optional[Tuple[int, int]] = None,
        injector: Optional[FaultInjector] = None,
        overhead: Optional[Tuple[int, int]] = None,
    ) -> None:
        if tracks < 1:
            raise ValueError(f"tracks must be >= 1, got {tracks}")
        if domains < 1:
            raise ValueError(f"domains must be >= 1, got {domains}")
        self.params = params or DeviceParameters()
        self.tracks = tracks
        self.domains = domains
        self.pim_enabled = pim_enabled
        self.injector = injector or FaultInjector()
        if port_positions is None:
            if pim_enabled:
                port_positions = pim_port_positions(domains, self.params.trd)
            else:
                port_positions = (domains // 2,)  # single central port
        self.port_positions: Tuple[int, ...] = tuple(port_positions)
        if not self.port_positions:
            raise ValueError("a DBC needs at least one access port")
        ports = sorted(self.port_positions)
        for port in ports:
            if not 0 <= port < domains:
                raise ValueError(
                    f"port at data position {port} outside data region "
                    f"[0, {domains})"
                )
        if overhead is None:
            overhead = default_overhead(domains, ports)
        self.overhead_left, self.overhead_right = overhead
        if self.overhead_left < 0 or self.overhead_right < 0:
            raise ValueError("overhead domain counts must be >= 0")
        self.length = self.overhead_left + domains + self.overhead_right
        # Physical position of each port, indexed like Nanowire ports
        # (sorted by position); ports never move.
        self._ports = tuple(self.overhead_left + port for port in ports)
        self._plane = np.zeros((self.length, tracks), dtype=np.uint8)
        self._offsets = np.zeros(tracks, dtype=np.int64)
        # The offset every track shares, or None while they differ: the
        # common case addresses a data row with one plane slice.
        self._uniform_offset: Optional[int] = 0
        self._commanded_offset = 0
        self.stats = DeviceStats()
        # Telemetry attachment point: core units open phase spans on the
        # cluster they compute in. NULL_TRACER makes every span a no-op.
        self.tracer = NULL_TRACER
        # Re-read voting in the sense path: 1 disables, an odd n > 1
        # repeats every TR n times and majority-votes per track.
        self.tr_vote_reads = 1
        self.vote_stats = SenseVoteStats()

    # ------------------------------------------------------------------
    # geometry

    @property
    def window(self) -> Tuple[int, int]:
        """Inclusive physical window [left, right] a TR spans (PIM DBCs)."""
        if len(self.port_positions) < 2:
            raise ValueError("window is only defined for two-port (PIM) DBCs")
        return self._ports[0], self._ports[1]

    @property
    def window_size(self) -> int:
        lo, hi = self.window
        return hi - lo + 1

    def window_row_at(self, slot: int) -> Optional[int]:
        """Data row believed to occupy window slot ``slot`` (0 = left head).

        Computed from the *commanded* offset — what the controller thinks
        the cluster is at. After an undetected shift fault the physical
        row may differ; :meth:`position_error_check` exposes the gap.
        """
        lo, _ = self.window
        row = lo + slot - self.overhead_left - self._commanded_offset
        return row if 0 <= row < self.domains else None

    @property
    def commanded_offset(self) -> int:
        """Offset the controller believes all tracks are at."""
        return self._commanded_offset

    @property
    def offsets(self) -> List[int]:
        """Physical shift offset of every track."""
        return self._offsets.tolist()

    @property
    def misaligned_tracks(self) -> List[int]:
        """Tracks whose physical offset disagrees with the commanded one."""
        if self._uniform_offset == self._commanded_offset:
            return []
        return np.flatnonzero(
            self._offsets != self._commanded_offset
        ).tolist()

    # ------------------------------------------------------------------
    # zero-cost state accessors

    def poke_row(self, row: int, bits: Sequence[int]) -> None:
        """Set data row ``row`` across all tracks (no cost recorded)."""
        self._check_row_width(bits)
        self._plane[self._row_index(row)] = _bit_vector(bits)

    def peek_row(self, row: int) -> List[int]:
        """Read data row ``row`` across all tracks (no cost recorded)."""
        return self._plane[self._row_index(row)].tolist()

    def poke_window_slot(
        self, slot: int, bits: Sequence[int], start: Optional[int] = None
    ) -> None:
        """Set the domains at window slot ``slot`` (no cost recorded).

        With ``start``, ``bits`` covers only tracks ``start`` onwards and
        the other tracks keep their domains.
        """
        if start is None:
            self._check_row_width(bits)
            start = 0
        elif start < 0 or start + len(bits) > self.tracks:
            raise ValueError(
                f"tracks [{start}, {start + len(bits)}) outside "
                f"[0, {self.tracks})"
            )
        position = self._window_position(slot)
        self._plane[position, start:start + len(bits)] = _bit_vector(bits)

    def peek_window_slot(self, slot: int) -> List[int]:
        """Read the domains at window slot ``slot`` (no cost recorded)."""
        return self._plane[self._window_position(slot)].tolist()

    def track_domains(self) -> List[List[int]]:
        """Every track's physical domains, one list per track (no cost)."""
        return self._plane.T.tolist()

    def load_tracks(
        self,
        domains: Sequence[Sequence[int]],
        offsets: Sequence[int],
        commanded_offset: int,
    ) -> None:
        """Overwrite all track state at zero cost (checkpoint resume)."""
        if len(domains) != self.tracks or len(offsets) != self.tracks:
            raise ValueError(
                f"state holds {len(domains)} tracks and {len(offsets)} "
                f"offsets, cluster has {self.tracks}"
            )
        for track in domains:
            if len(track) != self.length:
                raise ValueError(
                    f"state holds {len(track)} domains, track has "
                    f"{self.length}"
                )
        self._plane[...] = np.array(domains, dtype=np.uint8).T
        self._offsets[...] = offsets
        self._commanded_offset = commanded_offset
        self._sync_uniform_offset()

    # ------------------------------------------------------------------
    # lockstep device operations (cost-recorded at cluster level)

    def shift(self, direction: int, count: int = 1) -> None:
        """Shift all tracks in lockstep."""
        if direction not in (1, -1):
            raise ValueError(f"direction must be +1 or -1, got {direction}")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if self.injector.config.shift_fault_rate == 0.0:
            self._shift_tracks(direction * count)
        else:
            self._shift_with_faults(direction, count)
        self._commanded_offset += direction * count
        p = self.params.shift
        self.stats.record(
            "shift", p.cycles * count, p.energy_pj * self.tracks * count
        )

    def align(self, row: int, port_index: int = 0) -> int:
        """Shift all tracks so data row ``row`` is under ``port_index``.

        The shift distance is computed from the commanded offset — the
        controller cannot see a misaligned track until a position-error
        check runs, so a prior shift fault leaves that track reading the
        wrong row.
        """
        target = self._ports[port_index]
        believed = self.overhead_left + row + self._commanded_offset
        delta = target - believed
        if delta:
            self.shift(1 if delta > 0 else -1, abs(delta))
        return abs(delta)

    def read_row(self, port_index: int = 0) -> List[int]:
        """Orthogonal read of the aligned row on every track (one cycle)."""
        bits = self._plane[self._ports[port_index]].tolist()
        p = self.params.read
        self.stats.record("read", p.cycles, p.energy_pj * self.tracks)
        return bits

    def write_row(self, bits: Sequence[int], port_index: int = 0) -> None:
        """Write a full row through the given port on every track."""
        self._check_row_width(bits)
        position = self._ports[port_index]
        self._plane[position] = _bit_vector(bits)
        p = self.params.write
        self.stats.record("write", p.cycles, p.energy_pj * self.tracks)

    def _sense(self, levels: List[int], size: int) -> List[int]:
        """Sense-path reads of per-track TR levels, voting if enabled.

        With ``tr_vote_reads`` = n > 1 each track's TR is repeated n
        times and the per-track majority wins — the 2-of-3 (or k-of-n)
        re-read scheme that detects single TR level faults in the sense
        path. Vote outcomes land in :attr:`vote_stats`; callers account
        the n-times cycle/energy cost at the batch level.
        """
        n = self.tr_vote_reads
        injector = self.injector
        rate = injector.config.tr_fault_rate
        if n <= 1:
            if rate == 0.0 or injector.clean_draws(rate, len(levels)):
                return levels
            return injector.perturb_tr_levels(levels, size)
        self.vote_stats.votes += len(levels)
        if rate == 0.0 or injector.clean_draws(rate, len(levels) * n):
            return levels
        # One track's n reads draw before the next track's.
        repeated = [level for level in levels for _ in range(n)]
        reads = injector.perturb_tr_levels(repeated, size)
        if reads == repeated:
            return levels
        winners = []
        for start in range(0, len(reads), n):
            track_reads = reads[start:start + n]
            winner = max(set(track_reads), key=track_reads.count)
            if len(set(track_reads)) > 1:
                self.vote_stats.disagreements += 1
                if track_reads.count(winner) > n // 2:
                    self.vote_stats.corrected += 1
                else:
                    self.vote_stats.unresolved += 1
            winners.append(winner)
        return winners

    def _record_tr(self, senses: int) -> None:
        """Account one TR batch of ``senses`` track reads (voted or not)."""
        n = max(1, self.tr_vote_reads)
        p = self.params.transverse_read
        self.stats.record(
            "transverse_read", p.cycles * n, p.energy_pj * senses * n
        )
        if n > 1:
            self.vote_stats.overhead_cycles += p.cycles * (n - 1)

    def transverse_read_all(self) -> List[int]:
        """TR every track in parallel; returns one level per track.

        This is the CORUSCANT polymorphic-gate read: each track's level is
        the count of '1's in its TRD-domain window, feeding the seven-level
        sense amp of Fig. 4(a).
        """
        lo, hi = self._tr_window()
        levels = self._plane[lo:hi + 1].sum(axis=0).tolist()
        levels = self._sense(levels, hi - lo + 1)
        self._record_tr(self.tracks)
        return levels

    def transverse_read_track(self, track: int) -> int:
        """TR a single track (the sequential addition walk of Fig. 6)."""
        column = self._plane[:, track]
        lo, hi = self._tr_window()
        (level,) = self._sense([int(column[lo:hi + 1].sum())], hi - lo + 1)
        self._record_tr(1)
        return level

    def transverse_read_tracks(self, tracks: Sequence[int]) -> List[int]:
        """TR several tracks in the same cycle.

        Used by blocksize-packed addition (Section III-E): the walks of
        independent blocks advance in lockstep, so the per-step TRs of
        different blocks share one cycle while each consumes TR energy.
        """
        tracks = list(tracks)
        levels: List[int] = []
        if tracks:
            columns = self._plane[:, tracks]
            lo, hi = self._tr_window()
            levels = self._sense(
                columns[lo:hi + 1].sum(axis=0).tolist(), hi - lo + 1
            )
        self._record_tr(len(levels))
        return levels

    def transverse_write_row(self, bits: Sequence[int]) -> List[int]:
        """TW a full row: write under the left head, segment-shift right.

        Returns the row ejected under the right head (Fig. 9).
        """
        self._check_row_width(bits)
        row = _bit_vector(bits)
        lo, hi = self._ports[0], self._ports[1]
        if lo >= hi:
            raise ValueError("transverse write requires left port left of right")
        plane = self._plane
        ejected = plane[hi].tolist()
        plane[lo + 1:hi + 1] = plane[lo:hi]
        plane[lo] = row
        p = self.params.transverse_write
        self.stats.record("transverse_write", p.cycles, p.energy_pj * self.tracks)
        return ejected

    def write_bit(self, track: int, port_index: int, bit: int) -> None:
        """Write one track's domain under a port (carry-chain writes).

        Latency is accounted by the caller (the carry writes of one
        addition step land in the same cycle as the sum write), so this
        records energy only.
        """
        column = self._plane[:, track]
        position = self._ports[port_index]
        if bit not in (0, 1):
            raise ValueError(f"expected bit 0 or 1, got {bit!r}")
        column[position] = bit
        self.stats.record("write_bit", 0, self.params.write.energy_pj)

    def write_bits(
        self,
        tracks: Sequence[int],
        ports: Sequence[int],
        bits: Sequence[int],
    ) -> None:
        """:meth:`write_bit` for each ``(tracks[i], ports[i], bits[i])``.

        The writes of one addition step, as one call. They must hit
        distinct cells. The stats end up exactly as after one
        ``write_bit`` per entry.
        """
        n = len(tracks)
        if len(ports) != n or len(bits) != n:
            raise ValueError(
                f"tracks, ports and bits differ in length: "
                f"{n}, {len(ports)}, {len(bits)}"
            )
        for bit in bits:
            if bit not in (0, 1):
                raise ValueError(f"expected bit 0 or 1, got {bit!r}")
        plane = self._plane
        port_at = self._ports
        for track, port, bit in zip(tracks, ports, bits):
            plane[port_at[port], track] = bit
        self.stats.record("write_bit", 0, self.params.write.energy_pj, n)

    def tick(self, cycles: int = 1, label: str = "tick") -> None:
        """Account cycles with no device activity (controller overhead)."""
        self.stats.record(label, cycles, 0.0)

    # ------------------------------------------------------------------
    # resilience primitives

    def position_error_check(self) -> List[int]:
        """Guard-row checksum check: which tracks are misaligned?

        Models the alignment-fault detection the paper delegates to the
        TAPestry/Hi-Fi/PIETT line of work: the overhead domains adjacent
        to the window hold a known guard pattern, and one extra TR over
        them reveals whether the track sits where the controller thinks
        it does. Costs one TR batch; returns the misaligned track
        indices (empty when the cluster is aligned).
        """
        p = self.params.transverse_read
        self.stats.record(
            "position_check", p.cycles, p.energy_pj * self.tracks
        )
        return self.misaligned_tracks

    def realign(self) -> int:
        """Move every misaligned track back to the commanded offset.

        The recovery shifts bypass fault injection: a real controller
        performs them slowly, one position at a time, re-checking the
        guard rows after each step. Tracks are corrected independently
        (per-track shift enables are already required by the TW path),
        so the latency is the worst single-track correction while every
        corrected track pays shift energy. Returns that worst-case shift
        count (0 if aligned).
        """
        if self._uniform_offset == self._commanded_offset:
            return 0
        drift = self._offsets - self._commanded_offset
        distance = np.abs(drift)
        worst = int(distance.max())
        moved = int(distance.sum())
        self._shift_tracks(-drift)
        p = self.params.shift
        self.stats.record("realign", p.cycles * worst, p.energy_pj * moved)
        return worst

    def snapshot(self) -> DBCSnapshot:
        """Zero-cost checkpoint of all track state (transaction begin)."""
        return DBCSnapshot(
            shape=self._plane.shape,
            plane=self._plane.tobytes(),
            offsets=self._offsets.tobytes(),
            commanded_offset=self._commanded_offset,
        )

    def restore(self, state: DBCSnapshot) -> None:
        """Zero-cost rollback to a :meth:`snapshot` (transaction abort)."""
        length, tracks = state.shape
        if tracks != self.tracks:
            raise ValueError(
                f"snapshot holds {tracks} tracks, cluster has {self.tracks}"
            )
        if length != self.length:
            raise ValueError(
                f"snapshot holds {length} domains per track, cluster has "
                f"{self.length}"
            )
        self._plane[...] = np.frombuffer(state.plane, dtype=np.uint8).reshape(
            state.shape
        )
        self._offsets[...] = np.frombuffer(state.offsets, dtype=np.int64)
        self._commanded_offset = state.commanded_offset
        self._sync_uniform_offset()

    # ------------------------------------------------------------------
    # internals

    def _shift_with_faults(self, direction: int, count: int) -> None:
        """Shift under fault injection, drawing track by track.

        Each track draws for its ``count`` steps before the next track
        draws: the draws are those of one ``random()`` per track and
        step, and the injector's stream is CPython's MT19937 stream for
        ``random.Random(seed)``, bit for bit; batches only decide faster
        where it fires. When a fault-free shift keeps every track clear of its
        guard edges and the injector finds that none of the
        ``tracks * count`` draws fires, every track shifts by
        ``direction * count`` in one call. Otherwise, when even an
        over-shift on every step keeps every track clear, the draws are
        made in one batch; failing that, the tracks step one position at
        a time, and the first one that would push a data domain off the
        wire raises :class:`DataLossError` with no further draws.
        """
        lo, hi = -self.overhead_left, self.overhead_right
        move = direction * count
        first = last = self._uniform_offset
        if first is None:
            first, last = int(self._offsets.min()), int(self._offsets.max())
        injector = self.injector
        if (
            lo <= first + move
            and last + move <= hi
            and injector.clean_draws(
                injector.config.shift_fault_rate, self.tracks * count
            )
        ):
            self._shift_tracks(move)
            return
        reach = 2 * move
        if lo <= first + reach and last + reach <= hi:
            amounts = injector.perturb_shifts(direction, self.tracks * count)
            moves = np.asarray(amounts, dtype=np.int64)
            self._shift_tracks(moves.reshape(self.tracks, count).sum(axis=1))
            return
        moves = np.zeros(self.tracks, dtype=np.int64)
        perturb = injector.perturb_shift
        for track, offset in enumerate(self._offsets.tolist()):
            position = offset
            for _ in range(count):
                amount = perturb(direction)
                for _ in range(abs(amount)):
                    if not lo <= position + direction <= hi:
                        moves[track] = position - offset
                        self._shift_tracks(moves)
                        side = "right" if direction > 0 else "left"
                        raise DataLossError(
                            f"shift {side} would eject a data domain"
                        )
                    position += direction
            moves[track] = position - offset
        self._shift_tracks(moves)

    def _shift_tracks(self, moves: Union[int, np.ndarray]) -> None:
        """Shift track ``t`` by ``moves[t]`` positions (or all by one int).

        Vacated domains fill with zeros. Tracks move in track order: the
        first track that would push a data domain off the wire stops at
        its guard edge and raises :class:`DataLossError`, and the tracks
        after it do not move.
        """
        lo, hi = -self.overhead_left, self.overhead_right
        uniform = self._uniform_offset
        if isinstance(moves, int):
            if uniform is not None and lo <= uniform + moves <= hi:
                if moves:
                    self._shift_columns(slice(None), moves)
                    self._offsets += moves
                    self._uniform_offset = uniform + moves
                return
            moves = np.full(self.tracks, moves, dtype=np.int64)
        target = self._offsets + moves
        lost = np.flatnonzero((target < lo) | (target > hi))
        if lost.size:
            first = int(lost[0])
            moves = moves.copy()
            moves[first + 1:] = 0
            moves[first] = min(max(int(target[first]), lo), hi) - int(
                self._offsets[first]
            )
        for delta in np.unique(moves).tolist():
            if delta:
                self._shift_columns(np.flatnonzero(moves == delta), delta)
        self._offsets += moves
        self._sync_uniform_offset()
        if lost.size:
            side = "right" if target[first] > hi else "left"
            raise DataLossError(f"shift {side} would eject a data domain")

    def _shift_columns(self, columns, delta: int) -> None:
        """Move the domains of ``columns`` by ``delta`` positions."""
        plane = self._plane
        if delta > 0:
            plane[delta:, columns] = plane[:-delta, columns]
            plane[:delta, columns] = 0
        else:
            plane[:delta, columns] = plane[-delta:, columns]
            plane[delta:, columns] = 0

    def _sync_uniform_offset(self) -> None:
        first = int(self._offsets[0])
        same = bool((self._offsets == first).all())
        self._uniform_offset = first if same else None

    def _row_index(self, row: int):
        """Plane index of data row ``row`` on every track."""
        if not 0 <= row < self.domains:
            raise ValueError(f"row {row} outside [0, {self.domains})")
        base = self.overhead_left + row
        if self._uniform_offset is not None:
            return base + self._uniform_offset
        return base + self._offsets, np.arange(self.tracks)

    def _window_position(self, slot: int) -> int:
        lo, hi = self.window
        if not lo <= lo + slot <= hi:
            raise ValueError(f"slot {slot} outside window of {self.window_size}")
        return lo + slot

    def _tr_window(self) -> Tuple[int, int]:
        """Inclusive physical span a TR between ports 0 and 1 senses."""
        lo, hi = self._ports[0], self._ports[1]
        size = hi - lo + 1
        if size > self.params.trd:
            raise ValueError(
                f"TR window of {size} domains exceeds TRD={self.params.trd}"
            )
        return lo, hi

    def _check_row_width(self, bits: Sequence[int]) -> None:
        if len(bits) != self.tracks:
            raise ValueError(
                f"row must have {self.tracks} bits, got {len(bits)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DomainBlockCluster(tracks={self.tracks}, domains={self.domains}, "
            f"ports={self.port_positions}, pim={self.pim_enabled})"
        )
