"""The buffered fault injector against a plain ``random.Random`` one.

At low rates :class:`FaultInjector` reads CPython's MT19937 a buffer of
whole blocks at a time and finds the next firing draw by lookup; above
``_BUFFER_MAX_RATE`` it calls the generator once per draw. Either way
its stream must be ``random.Random(seed)``'s, bit for bit: every output,
both fault counters and ``state()`` (which is
``random.Random.getstate()``) must match an injector that makes one
``random()`` call per draw. That injector, as it was before the buffer,
is copied below as the oracle.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.dbc import DomainBlockCluster
from repro.device import faults
from repro.device.faults import FaultConfig, FaultInjector
from repro.sim.system import CoruscantSystem

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Words per MT19937 block, and the words one refill of the buffer reads.
BLOCK = 624
REFILL_WORDS = faults._REFILL_BLOCKS * BLOCK
#: Nonzero, yet a draw fires at it only on a 53-bit key of 0.
NEVER = 1e-300


class ReferenceInjector:
    """The one-``random()``-per-draw injector, as it was before buffering."""

    def __init__(self, config: Optional[FaultConfig] = None) -> None:
        self.config = config or FaultConfig()
        self._rng = random.Random(self.config.seed)
        self.tr_faults_injected = 0
        self.shift_faults_injected = 0

    def perturb_tr_level(self, level: int, max_level: int) -> int:
        rate = self.config.tr_fault_rate
        if rate == 0.0 or self._rng.random() >= rate:
            return level
        return self._misread(level, max_level)

    def perturb_tr_levels(
        self, levels: Sequence[int], max_level: int
    ) -> List[int]:
        rate = self.config.tr_fault_rate
        if rate == 0.0:
            return list(levels)
        draw = self._rng.random
        return [
            level if draw() >= rate else self._misread(level, max_level)
            for level in levels
        ]

    def _misread(self, level: int, max_level: int) -> int:
        self.tr_faults_injected += 1
        if level == 0:
            return 1
        if level == max_level:
            return max_level - 1
        return level + self._rng.choice((-1, 1))

    def perturb_shift(self, amount: int) -> int:
        rate = self.config.shift_fault_rate
        if rate == 0.0 or self._rng.random() >= rate:
            return amount
        return self._misshift(amount)

    def perturb_shifts(self, amount: int, steps: int) -> List[int]:
        rate = self.config.shift_fault_rate
        if rate == 0.0:
            return [amount] * steps
        draw = self._rng.random
        return [
            amount if draw() >= rate else self._misshift(amount)
            for _ in range(steps)
        ]

    def _misshift(self, amount: int) -> int:
        self.shift_faults_injected += 1
        if self._rng.random() < 0.5:
            return 0
        return amount * 2

    def clean_draws(self, rate: float, n: int) -> bool:
        """``n`` draws if none fires; else rewind (the contract, spelled out)."""
        if rate == 0.0 or n <= 0:
            return True
        before = self._rng.getstate()
        if any(self._rng.random() < rate for _ in range(n)):
            self._rng.setstate(before)
            return False
        return True

    def set_rates(self, tr_fault_rate=None, shift_fault_rate=None):
        if tr_fault_rate is not None:
            self.config = replace(self.config, tr_fault_rate=tr_fault_rate)
        if shift_fault_rate is not None:
            self.config = replace(
                self.config, shift_fault_rate=shift_fault_rate
            )
        return self.config

    def state(self) -> Dict[str, Any]:
        version, internal, gauss_next = self._rng.getstate()
        return {
            "rng": [version, list(internal), gauss_next],
            "tr_faults_injected": self.tr_faults_injected,
            "shift_faults_injected": self.shift_faults_injected,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        version, internal, gauss_next = state["rng"]
        self._rng.setstate((version, tuple(internal), gauss_next))
        self.tr_faults_injected = int(state["tr_faults_injected"])
        self.shift_faults_injected = int(state["shift_faults_injected"])


def position(injector) -> int:
    """Index of the next word in the current MT19937 block (624 = end)."""
    return injector.state()["rng"][1][-1]


class Pair:
    """The injector under test and the reference, driven in lockstep."""

    def __init__(self, seed: int, tr_rate: float, shift_rate: float) -> None:
        config = FaultConfig(tr_rate, shift_rate, seed)
        self.fast = FaultInjector(config)
        self.slow = ReferenceInjector(config)

    def call(self, method: str, *args):
        got = getattr(self.fast, method)(*args)
        before = self.slow.state()
        want = getattr(self.slow, method)(*args)
        if method == "clean_draws" and want and not got:
            # Without the buffer the injector cannot tell a clean batch
            # without making its draws, so it declines every one.
            assert self.fast._direct
            self.slow.restore_state(before)
        else:
            assert got == want, method
        self.check()
        return got

    def check(self) -> None:
        for name in ("tr_faults_injected", "shift_faults_injected"):
            assert getattr(self.fast, name) == getattr(self.slow, name), name
        assert self.fast.state() == self.slow.state()

    def round_trip(self) -> None:
        """Move both sides into fresh injectors through ``state()``."""
        document = self.fast.state()
        self.fast = FaultInjector(replace(self.fast.config, seed=12345))
        self.fast.restore_state(document)
        self.slow.restore_state(self.slow.state())
        self.check()

    def to_block_end(self) -> None:
        """Advance both sides until the generator sits at a block end."""
        if position(self.slow) % 2:
            saved = self.slow.config
            for side in (self.fast, self.slow):
                side.set_rates(tr_fault_rate=1.0)
            # A certain misread in mid-range draws 2 words, then 1 or more
            # for the sign; repeat until an even number is left.
            while position(self.slow) % 2:
                self.call("perturb_tr_level", 3, 7)
            for side in (self.fast, self.slow):
                side.set_rates(tr_fault_rate=saved.tr_fault_rate)
        left = (BLOCK - position(self.slow)) // 2
        saved = self.slow.config
        for side in (self.fast, self.slow):
            side.set_rates(shift_fault_rate=NEVER)
        self.call("perturb_shifts", 1, left)
        for side in (self.fast, self.slow):
            side.set_rates(shift_fault_rate=saved.shift_fault_rate)
        assert position(self.slow) == BLOCK


rates = st.sampled_from([0.0, 1e-4, 1e-3, 0.05, 0.5, 1.0])
sizes = st.sampled_from([0, 1, 2, 311, 312, 623, 624, 625, 1249]) | st.just(
    REFILL_WORDS // 2 + 7
)
max_levels = st.sampled_from([1, 2, 3, 7])
operations = st.one_of(
    st.tuples(st.just("rates"), rates, rates),
    st.tuples(st.just("level"), max_levels, st.integers(0, 7)),
    st.tuples(st.just("levels"), max_levels, sizes, st.integers(1, 5)),
    st.tuples(st.just("shift"), st.sampled_from([1, -1])),
    st.tuples(st.just("shifts"), st.sampled_from([1, -1]), sizes),
    st.tuples(st.just("clean"), rates | st.just(NEVER), sizes),
    st.tuples(st.just("round_trip")),
    st.tuples(st.just("block_end")),
)


def apply(pair: Pair, operation) -> None:
    kind = operation[0]
    if kind == "rates":
        for side in (pair.fast, pair.slow):
            side.set_rates(operation[1], operation[2])
    elif kind == "level":
        _, max_level, level = operation
        pair.call("perturb_tr_level", min(level, max_level), max_level)
    elif kind == "levels":
        _, max_level, n, stride = operation
        # Every level from 0 to max_level turns up, ends included.
        levels = [(i * stride) % (max_level + 1) for i in range(n)]
        pair.call("perturb_tr_levels", levels, max_level)
    elif kind == "shift":
        pair.call("perturb_shift", operation[1])
    elif kind == "shifts":
        pair.call("perturb_shifts", operation[1], operation[2])
    elif kind == "clean":
        pair.call("clean_draws", operation[1], operation[2])
    elif kind == "round_trip":
        pair.round_trip()
    else:
        pair.to_block_end()


#: Buffer cut-offs to test at: every nonzero rate direct, the shipped
#: cut-off (so rate switches cross it), every rate through the buffer.
buffer_max_rates = [0.0, faults._BUFFER_MAX_RATE, 1.0]


@pytest.mark.parametrize("buffer_max_rate", buffer_max_rates)
@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32),
    rates,
    rates,
    st.lists(operations, min_size=1, max_size=12),
)
def test_buffered_stream_matches_random(
    buffer_max_rate, seed, tr_rate, shift_rate, ops
):
    with mock.patch.object(faults, "_BUFFER_MAX_RATE", buffer_max_rate):
        pair = Pair(seed, tr_rate, shift_rate)
        pair.check()
        for operation in ops:
            apply(pair, operation)


def test_rate_above_cut_off_draws_without_buffer():
    """Past the cut-off the generator is called per draw, mid-run too."""
    pair = Pair(4, 1e-3, 0.0)
    pair.call("perturb_tr_levels", [3] * 700, 7)
    assert pair.fast._words is not None
    for side in (pair.fast, pair.slow):
        side.set_rates(tr_fault_rate=0.4)
    pair.check()
    assert pair.fast._words is None
    pair.call("perturb_tr_levels", [3] * 700, 7)
    assert pair.fast._words is None
    for side in (pair.fast, pair.slow):
        side.set_rates(tr_fault_rate=1e-3)
    pair.call("perturb_tr_levels", [3] * 700, 7)
    assert pair.fast._words is not None


@pytest.mark.parametrize("draws", [0, 1, 311, 312, 313, 623, 624, 9984, 9985])
def test_state_is_getstate_around_block_ends(draws):
    """``state()`` reports pos 624 at a block end, as ``getstate()`` does."""
    injector = FaultInjector(FaultConfig(tr_fault_rate=NEVER, seed=3))
    reference = random.Random(3)
    assert injector.clean_draws(NEVER, draws)
    for _ in range(draws):
        reference.random()
    version, internal, gauss_next = reference.getstate()
    assert injector.state()["rng"] == [version, list(internal), gauss_next]


def test_refused_batch_leaves_state_untouched():
    """A firing ``clean_draws`` reads the buffer but consumes nothing."""
    injector = FaultInjector(FaultConfig(tr_fault_rate=1e-3, seed=5))
    before = injector.state()
    assert not injector.clean_draws(1.0, 3)
    assert injector._words is not None
    assert injector.state() == before
    version, internal, gauss_next = random.Random(5).getstate()
    assert before["rng"] == [version, list(internal), gauss_next]


@pytest.mark.parametrize("refills", [1, 2])
def test_refused_batch_at_buffer_end_keeps_state(refills):
    """A refill at a block end keeps the block ``state()`` is read from."""
    draws = refills * REFILL_WORDS // 2
    injector = FaultInjector(FaultConfig(seed=9))
    reference = random.Random(9)
    assert injector.clean_draws(NEVER, draws)
    for _ in range(draws):
        reference.random()
    assert not injector.clean_draws(1.0, 5000)
    version, internal, gauss_next = reference.getstate()
    assert internal[-1] == BLOCK
    assert injector.state()["rng"] == [version, list(internal), gauss_next]


@pytest.mark.parametrize("rate", [0.005, 0.05])
@pytest.mark.parametrize("pos", [0, 1, 311, 623, 624])
def test_restore_then_state_round_trips(pos, rate):
    """Any valid generator position survives restore -> state unchanged."""
    source = random.Random(11)
    source.random()
    version, internal, gauss_next = source.getstate()
    document = {
        "rng": [version, list(internal[:-1]) + [pos], gauss_next],
        "tr_faults_injected": 4,
        "shift_faults_injected": 2,
    }
    injector = FaultInjector(FaultConfig(tr_fault_rate=rate, seed=0))
    injector.restore_state(document)
    assert injector.state() == document
    reference = ReferenceInjector(FaultConfig(tr_fault_rate=rate))
    reference.restore_state(document)
    levels = [3] * 700
    assert injector.perturb_tr_levels(levels, 7) == (
        reference.perturb_tr_levels(levels, 7)
    )
    assert injector.state() == reference.state()


def untemper(word: int) -> int:
    """The MT19937 state word that tempers to output ``word``."""
    word ^= word >> 18
    word ^= (word << 15) & 0xEFC60000
    result = word
    for _ in range(4):
        result = word ^ ((result << 7) & 0x9D2C5680 & 0xFFFFFFFF)
    word = result
    for _ in range(2):
        result = word ^ (result >> 11)
    return result


@pytest.mark.parametrize("buffer_max_rate", [0.0, 1.0])
@pytest.mark.parametrize("low_word", [0, 64])
@pytest.mark.parametrize("above", [False, True])
def test_draw_equal_to_rate_does_not_fire(low_word, above, buffer_max_rate):
    """``random() < rate`` is strict: a draw equal to the rate passes."""
    internal = [untemper(0x80000000), untemper(low_word)]
    internal += [5489] * (BLOCK - 2) + [0]
    reference = random.Random()
    reference.setstate((3, tuple(internal), None))
    draw = reference.random()
    assert draw == (2**52 + low_word // 64) / 2**53
    rate = math.nextafter(draw, 1.0) if above else draw
    with mock.patch.object(faults, "_BUFFER_MAX_RATE", buffer_max_rate):
        injector = FaultInjector(FaultConfig(tr_fault_rate=rate))
    injector.restore_state(
        {"rng": [3, internal, None], "tr_faults_injected": 0,
         "shift_faults_injected": 0}
    )
    assert (injector.perturb_tr_level(3, 7) != 3) is above
    assert injector.tr_faults_injected == int(above)


def test_zero_rate_injector_builds_no_buffer():
    """Fault-free DBC and system traffic never reads the generator."""
    dbc = DomainBlockCluster(tracks=16, domains=16)
    dbc.tr_vote_reads = 3
    dbc.shift(1, 2)
    dbc.transverse_read_all()
    dbc.transverse_read_tracks([0, 3])
    dbc.shift(-1, 2)
    assert dbc.injector._words is None
    system = CoruscantSystem(trd=7)
    assert system.add([13, 200, 7, 99, 55], n_bits=8).value == 374
    injectors = {id(system.memory.injector): system.memory.injector}
    for injector in injectors.values():
        assert injector._words is None
        assert injector.state() == FaultInjector().state()


def test_faulty_campaign_does_not_import_numpy_random():
    """The injector reads CPython's generator; numpy.random costs ~6 MiB."""
    script = (
        "import sys\n"
        "import numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "from repro.reliability.campaign import CampaignConfig, "
        "run_add_campaign\n"
        "outcome = run_add_campaign(CampaignConfig(ops=4, tracks=512, "
        "tr_fault_rate=1e-3, shift_fault_rate=1e-4, seed=7, "
        "storage_rows=8))\n"
        "assert outcome.injected_tr_faults + outcome.injected_shift_faults\n"
        "print('eager' if eager else "
        "('numpy.random' in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    verdict = result.stdout.strip().splitlines()[-1]
    if verdict == "eager":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert verdict == "False"
