"""Fault injection for the DWM device model.

Two fault classes matter for CORUSCANT (Sections II-A and V-F):

* **Shift faults** — a lateral current pulse over/under-shifts the domain
  walls, misaligning the nanowire by one position. The paper assumes the
  alignment-fault literature (TAPestry, Hi-Fi, PIETT, ...) handles these
  with <1% overhead, so by default we inject none; they remain available
  for failure-injection tests.
* **TR level faults** — process variation makes a transverse read report
  one level higher or lower than the true count of ones. The paper derives
  an intrinsic rate of circa 1e-6 per TR; faults off by two or more levels
  are negligible and we do not model them.

Every draw comes from one ``random.Random(seed)``: the injector's stream
is CPython's MT19937 stream for ``random.Random(seed)``, bit for bit. At
low rates the injector reads that stream a buffer of whole generator
blocks at a time and finds the next firing draw by lookup, so batches
only decide faster where it fires; at high rates, where most batches
fire, it calls ``random()`` per draw. Either way, which faults fire,
and the state :meth:`FaultInjector.state` reports, are those of a plain
``random()`` loop.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class FaultConfig:
    """Probabilities of the modeled fault mechanisms.

    Attributes:
        tr_fault_rate: chance one TR misreads by exactly one level.
        shift_fault_rate: chance one shift over- or under-shifts by one.
        seed: RNG seed so experiments are reproducible.
    """

    tr_fault_rate: float = 0.0
    shift_fault_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("tr_fault_rate", "shift_fault_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be a probability, got {rate}")

    @classmethod
    def intrinsic(cls, seed: int = 0) -> "FaultConfig":
        """The paper's intrinsic TR misread rate, no shift faults.

        The rate itself lives in :mod:`repro.reliability.tr_faults`
        (where Section V-F derives it); this constructor is the single
        way to ask for "the device as the paper models it" without
        restating the number.
        """
        # Imported lazily: reliability sits above device in the layering
        # and tr_faults has no repro imports, so there is no cycle.
        from repro.reliability.tr_faults import TR_FAULT_RATE

        return cls(tr_fault_rate=TR_FAULT_RATE, seed=seed)


#: Words of MT19937 state; one twist of the generator makes this many.
_BLOCK = 624
#: Blocks read from the generator per refill of the word buffer.
_REFILL_BLOCKS = 8
#: Highest fault rate the word buffer is used at. At a rate above it
#: most batches fire, and a fired draw costs more through the buffer
#: than one ``random()`` call does, so the injector calls the generator
#: once per draw instead.
_BUFFER_MAX_RATE = 0.01
#: ``random()`` returns ``key / 2**53`` for a 53-bit integer key.
_TWO_53 = 9007199254740992.0


def _temper(words: np.ndarray) -> np.ndarray:
    """MT19937 output words of the state words ``words``."""
    y = words ^ (words >> 11)
    y ^= (y << 7) & 0x9D2C5680
    y ^= (y << 15) & 0xEFC60000
    return y ^ (y >> 18)


def _untemper(words: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_temper`: the state words behind output words."""
    y = words ^ (words >> 18)
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(4):  # each pass fixes 7 more low bits
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x
    for _ in range(2):  # each pass fixes 11 more high bits
        x = y ^ (x >> 11)
    return x


class FaultInjector:
    """Draws fault events according to a :class:`FaultConfig`.

    A single injector is shared by all nanowires of a DBC so one seed
    controls the whole experiment.

    Each draw is one ``random()`` of ``random.Random(seed)``, made from
    two 32-bit generator words ``a, b`` as ``((a >> 5) * 2**26 + (b >> 6))
    / 2**53``; a side draw (the sign of a misread, the kind of a
    misshift) reads the next words as ``choice`` and ``random()`` would.
    While no configured rate exceeds ``_BUFFER_MAX_RATE``, the words are
    read a buffer of whole 624-word MT19937 blocks at a time, and for
    every rate in use the buffer keeps the sorted word indices at which
    a draw would fire, so a batch of n draws finds its first fault with
    one bisect. Above that rate each draw calls the generator, as a
    plain ``random()`` loop does. The buffer is built on the first draw
    at a nonzero rate: a zero-rate injector never holds one.
    """

    def __init__(self, config: Optional[FaultConfig] = None) -> None:
        self.config = config or FaultConfig()
        self._rng = random.Random(self.config.seed)
        self.tr_faults_injected = 0
        self.shift_faults_injected = 0
        self._words: Optional[np.ndarray] = None
        # Index of the next unread word in _words; the generator itself
        # stands at the end of the buffer, on a block boundary.
        self._cursor = 0
        # Generator state at cursor 0 (the key there is not in the buffer).
        self._origin: Optional[Tuple[Any, ...]] = None
        # rate -> sorted indices of firing draws (even start, odd start).
        self._hits: Dict[float, Tuple[List[int], List[int]]] = {}
        # True while draws call the generator directly; no buffer then.
        self._direct = False
        self._pick_path()

    def perturb_tr_level(self, level: int, max_level: int) -> int:
        """Possibly misread a TR level by +/-1, clamped to [0, max_level]."""
        rate = self.config.tr_fault_rate
        if rate == 0.0 or not self._draw(rate):
            return level
        return self._misread(level, max_level)

    def perturb_tr_levels(
        self, levels: Sequence[int], max_level: int
    ) -> List[int]:
        """:meth:`perturb_tr_level` over ``levels``, in order.

        Makes exactly the draws one call per level would make, so a
        batch of tracks and a loop over them leave the RNG in one state.
        """
        rate = self.config.tr_fault_rate
        if rate == 0.0:
            return list(levels)
        if self._direct:
            draw = self._rng.random
            return [
                level if draw() >= rate else self._misread(level, max_level)
                for level in levels
            ]
        out = list(levels)
        for i in self._faults(rate, len(out)):
            out[i] = self._misread(out[i], max_level)
        return out

    def _misread(self, level: int, max_level: int) -> int:
        self.tr_faults_injected += 1
        if level == 0:
            return 1
        if level == max_level:
            return max_level - 1
        if self._direct:
            return level + self._rng.choice((-1, 1))
        # choice((-1, 1)): the top two bits of a word, 2 and 3 redrawn.
        while True:
            pick = self._word() >> 30
            if pick < 2:
                return level + (-1, 1)[pick]

    def perturb_shift(self, amount: int) -> int:
        """Possibly over/under-shift a one-position shift by one.

        ``amount`` is +1 or -1; a fault turns it into 0 (under-shift) or
        +/-2 (over-shift) with equal probability.
        """
        rate = self.config.shift_fault_rate
        if rate == 0.0 or not self._draw(rate):
            return amount
        return self._misshift(amount)

    def perturb_shifts(self, amount: int, steps: int) -> List[int]:
        """:meth:`perturb_shift` ``steps`` times, with the same draws."""
        rate = self.config.shift_fault_rate
        if rate == 0.0:
            return [amount] * steps
        if self._direct:
            draw = self._rng.random
            return [
                amount if draw() >= rate else self._misshift(amount)
                for _ in range(steps)
            ]
        out = [amount] * steps
        for i in self._faults(rate, steps):
            out[i] = self._misshift(amount)
        return out

    def _misshift(self, amount: int) -> int:
        self.shift_faults_injected += 1
        if self._direct:
            under = self._rng.random() < 0.5
        else:
            # random() < 0.5 exactly when its first word's top bit is clear.
            under = self._word() < 0x80000000
            self._word()
        return 0 if under else amount * 2

    def clean_draws(self, rate: float, n: int) -> bool:
        """Make ``n`` draws at ``rate`` if none of them fires.

        Returns True after consuming the n draws when no fault would
        fire, and False, consuming nothing, when one would: the caller
        then makes the draws itself. A zero rate draws nothing, as in
        the ``perturb_*`` methods. Without the buffer (a configured rate
        above ``_BUFFER_MAX_RATE``) the answer is always False for a
        nonzero rate, since finding out would cost the draws themselves.
        """
        if rate == 0.0 or n <= 0:
            return True
        if self._direct or self._scan(rate, n) < n:
            return False
        self._cursor += 2 * n
        return True

    # ------------------------------------------------------------------
    # the word buffer

    def _pick_path(self) -> None:
        """Draw through the buffer, or straight from the generator.

        The choice follows the configured rates; leaving the buffer puts
        the generator back at the cursor, so the stream goes on unbroken.
        """
        config = self.config
        direct = max(config.tr_fault_rate, config.shift_fault_rate) > (
            _BUFFER_MAX_RATE
        )
        if direct and self._words is not None:
            version, internal, gauss_next = self.state()["rng"]
            self._rng.setstate((version, tuple(internal), gauss_next))
            self._set_buffer(None, 0)
        self._direct = direct

    def _faults(self, rate: float, n: int):
        """Make n draws at ``rate``, yielding the index of each that fires.

        The caller makes the fired draw's side draws before resuming, so
        the draws after them start where ``random()`` would.
        """
        done = 0
        while done < n:
            clean = self._scan(rate, n - done)
            self._cursor += 2 * clean
            done += clean
            if done == n:
                return
            self._cursor += 2
            yield done
            done += 1

    def _draw(self, rate: float) -> bool:
        """One ``random() < rate`` draw."""
        if self._direct:
            return self._rng.random() < rate
        fires = self._scan(rate, 1) == 0
        self._cursor += 2
        return fires

    def _scan(self, rate: float, n: int) -> int:
        """How many of the next ``n`` draws pass before one fires.

        Consumes nothing; ``n`` when none of them fires.
        """
        cursor = self._cursor
        if self._words is None or cursor + 2 * n > len(self._words):
            self._fill(2 * n)
            cursor = self._cursor
        hits = self._hits.get(rate)
        if hits is None:
            hits = self._hits[rate] = self._find_hits(rate)
        same_parity = hits[cursor & 1]
        i = bisect_left(same_parity, cursor)
        if i < len(same_parity) and same_parity[i] < cursor + 2 * n:
            return (same_parity[i] - cursor) >> 1
        return n

    def _find_hits(self, rate: float) -> Tuple[List[int], List[int]]:
        """Word indices at which a ``random() < rate`` draw fires."""
        words = self._words
        # key / 2**53 < rate exactly when key < rate * 2**53; and
        # key >= (a >> 5) * 2**26, so only a small first word ``a`` can
        # start a firing draw.
        threshold = rate * _TWO_53
        limit = math.ceil(threshold / 67108864.0) * 32
        if limit > 0xFFFFFFFF:
            start = np.arange(len(words) - 1)
        else:
            start = np.flatnonzero(words[:-1] < limit)
        keys = (words[start] >> 5) * 67108864.0 + (words[start + 1] >> 6)
        start = start[keys < threshold]
        odd = (start & 1).astype(bool)
        return start[~odd].tolist(), start[odd].tolist()

    def _word(self) -> int:
        """The next 32-bit generator word."""
        if self._words is None or self._cursor >= len(self._words):
            self._fill(1)
        word = int(self._words[self._cursor])
        self._cursor += 1
        return word

    def _attach(self) -> None:
        """Start a buffer at the generator's position.

        The words of the generator's current block that it has not yet
        read are rebuilt from its state, and the generator is moved to
        the end of that block, where the buffer's next refill reads on.
        """
        version, internal, gauss_next = self._origin = self._rng.getstate()
        position = internal[-1]
        if position < _BLOCK:
            self._rng.setstate((version, internal[:-1] + (_BLOCK,), gauss_next))
            key = np.array(internal[:-1], dtype=np.uint32)
            self._set_buffer(_temper(key), position)
        else:
            self._set_buffer(np.empty(0, dtype=np.uint32), 0)

    def _fill(self, need: int) -> None:
        """Make at least ``need`` words readable past the cursor.

        Keeps the block of the last word read, so :meth:`state` can still
        recover the generator state, and appends whole fresh blocks.
        """
        if self._words is None:
            self._attach()
        words, cursor = self._words, self._cursor
        start = (cursor - 1) // _BLOCK * _BLOCK if cursor else 0
        if start:
            self._origin = None
        kept = words[start:]
        cursor -= start
        missing = cursor + need - len(kept)
        count = max(_REFILL_BLOCKS, -(-missing // _BLOCK)) * _BLOCK
        raw = self._rng.getrandbits(32 * count).to_bytes(4 * count, "little")
        fresh = np.frombuffer(raw, dtype="<u4")
        self._set_buffer(np.concatenate((kept, fresh)), cursor)

    def _set_buffer(self, words: Optional[np.ndarray], cursor: int) -> None:
        self._words = words
        self._cursor = cursor
        self._hits = {}

    # ------------------------------------------------------------------
    # rate switching & checkpoint support

    def set_rates(
        self,
        tr_fault_rate: Optional[float] = None,
        shift_fault_rate: Optional[float] = None,
    ) -> FaultConfig:
        """Swap fault rates mid-run without disturbing the RNG stream.

        Used for storm/calm fault profiles: the draw sequence continues
        from where it is, only the thresholds change, so a run with a
        rate switch is still a pure function of the seed.
        """
        updates: Dict[str, float] = {}
        if tr_fault_rate is not None:
            updates["tr_fault_rate"] = tr_fault_rate
        if shift_fault_rate is not None:
            updates["shift_fault_rate"] = shift_fault_rate
        if updates:
            self.config = replace(self.config, **updates)
            self._pick_path()
        return self.config

    def state(self) -> Dict[str, Any]:
        """Serializable injector state (RNG position + fault counters).

        ``rng`` is exactly ``random.Random.getstate()`` of a generator
        that has made the same draws: 624 state words and the position
        in them, 624 (not 0) at a block end.
        """
        version, internal, gauss_next = self._rng.getstate()
        words, cursor = self._words, self._cursor
        if words is not None and cursor < len(words):
            if cursor == 0:
                version, internal, gauss_next = self._origin
            else:
                start = (cursor - 1) // _BLOCK * _BLOCK
                key = _untemper(words[start:start + _BLOCK]).tolist()
                internal = key + [cursor - start]
        return {
            "rng": [version, list(internal), gauss_next],
            "tr_faults_injected": self.tr_faults_injected,
            "shift_faults_injected": self.shift_faults_injected,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        version, internal, gauss_next = state["rng"]
        self._rng.setstate((version, tuple(internal), gauss_next))
        self._set_buffer(None, 0)
        self.tr_faults_injected = int(state["tr_faults_injected"])
        self.shift_faults_injected = int(state["shift_faults_injected"])
