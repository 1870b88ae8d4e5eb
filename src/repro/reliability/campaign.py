"""End-to-end fault campaigns with recovery on or off.

The analytic Table V rates and the Monte Carlo runs say how often an
*unprotected* operation errs; this harness closes the loop at the system
level. It replays a stream of multi-operand additions (and, separately,
a CNN convolution layer) under injected TR/shift faults, once through
the resilient execution layer and once bare, and reports what the
recovery ladder actually bought: faults injected, detected, corrected,
escaped into results, and the recovery cycles paid for it — validated
against the analytic per-op error rate.

Beyond the PIM stream, a campaign can model three system-level layers:

* **Storage traffic** (``storage_rows``): regular controller reads and
  writes against a plain (non-PIM) DBC, the rows validated against
  golden copies. This is the traffic the executor ladder does *not*
  protect — only background scrubbing catches its alignment faults
  before a read lands on the wrong row.
* **A storm/calm fault profile** (``storm_ops`` + the calm rates): the
  injected rates drop after ``storm_ops`` operations, so one run shows
  the adaptive ladder escalating under pressure and de-escalating when
  the storm passes.
* **Crash-safe checkpointing** (``checkpoint_path``): the runner
  journals its complete state every ``checkpoint_every`` ops and
  resumes bit-identically after an interruption.
"""

from __future__ import annotations

import os
import random
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.arch.geometry import MemoryGeometry
from repro.core.isa import Address, CpimInstruction, CpimOp
from repro.device.faults import FaultConfig
from repro.reliability.op_error import add_error_probability
from repro.resilience import checkpoint as ckpt
from repro.resilience.breaker import BreakerConfig
from repro.resilience.policy import RetryPolicy
from repro.utils.bitops import bits_from_int
from repro.utils.streams import derive_seed, derive_stream


@dataclass(frozen=True)
class CampaignConfig:
    """One fault campaign's shape.

    Attributes:
        ops: operations to replay.
        operands: words per multi-operand addition.
        n_bits: operand width.
        blocksize: cpim blocksize (also the result width per block).
        trd: transverse read distance.
        tracks: DBC width for the campaign system.
        tr_fault_rate: injected per-TR fault probability.
        shift_fault_rate: injected per-shift fault probability.
        seed: RNG seed (fault draws and operand stream).
        recovery: run under the resilient execution layer.
        policy: recovery policy (defaults to :class:`RetryPolicy`).
        scrub_interval: run a background alignment scrub pass every this
            many memory operations (``None`` = no scrubbing).
        adaptive: run the per-DBC adaptive protection ladder (requires
            ``recovery``).
        breaker: ladder thresholds (defaults to :class:`BreakerConfig`).
        storm_ops: after this many campaign ops the injected rates drop
            to the calm rates (``None`` = one regime for the whole run).
        calm_tr_fault_rate: per-TR rate after the storm passes.
        calm_shift_fault_rate: per-shift rate after the storm passes.
        storage_rows: rotate regular writes/reads over this many rows of
            a plain storage DBC, validating reads against golden copies
            (0 = no storage traffic).
    """

    ops: int = 1000
    operands: int = 5
    n_bits: int = 8
    blocksize: int = 16
    trd: int = 7
    tracks: int = 64
    tr_fault_rate: float = 1e-3
    shift_fault_rate: float = 0.0
    seed: int = 0
    recovery: bool = True
    policy: Optional[RetryPolicy] = None
    scrub_interval: Optional[int] = None
    adaptive: bool = False
    breaker: Optional[BreakerConfig] = None
    storm_ops: Optional[int] = None
    calm_tr_fault_rate: float = 0.0
    calm_shift_fault_rate: float = 0.0
    storage_rows: int = 0

    def __post_init__(self) -> None:
        if self.ops < 1:
            raise ValueError(f"ops must be >= 1, got {self.ops}")
        if self.blocksize < self.n_bits:
            raise ValueError(
                "blocksize must hold the operand width: "
                f"{self.blocksize} < {self.n_bits}"
            )
        if self.adaptive and not self.recovery:
            raise ValueError("adaptive protection requires recovery=True")
        if self.scrub_interval is not None and self.scrub_interval < 1:
            raise ValueError(
                f"scrub_interval must be >= 1, got {self.scrub_interval}"
            )
        if self.storm_ops is not None and self.storm_ops < 0:
            raise ValueError(f"storm_ops must be >= 0, got {self.storm_ops}")
        if self.storage_rows < 0:
            raise ValueError(
                f"storage_rows must be >= 0, got {self.storage_rows}"
            )
        # The campaign system keeps the geometry's rows per DBC.
        rows = MemoryGeometry().rows_per_dbc
        if self.storage_rows > rows:
            raise ValueError(
                f"storage_rows={self.storage_rows} exceeds the "
                f"{rows}-row storage DBC"
            )

    def fingerprint(self) -> Dict[str, Any]:
        """JSON-comparable identity used to guard checkpoint resume."""
        fp: Dict[str, Any] = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("policy", "breaker")
        }
        fp["policy"] = asdict(self.policy) if self.policy else None
        fp["breaker"] = asdict(self.breaker) if self.breaker else None
        return fp


@dataclass
class CampaignResult:
    """Outcome of one campaign run.

    ``detected``/``corrected`` count faults the sense-path vote saw and
    neutralised (plus repaired misalignments); ``escaped`` counts
    operations whose committed result was still wrong — the number that
    must shrink when recovery is on. ``storage_wrong`` is the analogous
    escape count for the plain storage traffic, and ``scrub`` /
    ``protection`` carry the background layers' own accounting.
    """

    ops: int = 0
    recovery: bool = False
    injected_tr_faults: int = 0
    injected_shift_faults: int = 0
    detected: int = 0
    corrected: int = 0
    escaped: int = 0
    retries: int = 0
    escalations: int = 0
    uncorrectable: int = 0
    remaps: int = 0
    overhead_cycles: int = 0
    total_cycles: int = 0
    analytic_op_error_rate: float = 0.0
    completed: bool = True
    resumed_from: Optional[int] = None
    checkpoints_written: int = 0
    storage_ops: int = 0
    storage_wrong: int = 0
    scrub: Optional[Dict[str, int]] = None
    protection: Optional[Dict[str, object]] = None

    @property
    def detection_rate(self) -> float:
        """Share of injected faults the detectors saw."""
        injected = self.injected_tr_faults + self.injected_shift_faults
        return self.detected / injected if injected else 1.0

    @property
    def correction_rate(self) -> float:
        """Share of injected faults detected *and* corrected."""
        injected = self.injected_tr_faults + self.injected_shift_faults
        return self.corrected / injected if injected else 1.0

    @property
    def observed_op_error_rate(self) -> float:
        return self.escaped / self.ops if self.ops else 0.0

    @property
    def wrong_results(self) -> int:
        """Application-visible corruption: PIM escapes + storage escapes."""
        return self.escaped + self.storage_wrong

    def summary(self) -> Dict[str, object]:
        summary: Dict[str, object] = {
            "ops": self.ops,
            "recovery": self.recovery,
            "completed": self.completed,
            "injected": (
                self.injected_tr_faults + self.injected_shift_faults
            ),
            "detected": self.detected,
            "corrected": self.corrected,
            "escaped": self.escaped,
            "retries": self.retries,
            "escalations": self.escalations,
            "uncorrectable": self.uncorrectable,
            "overhead_cycles": self.overhead_cycles,
            "total_cycles": self.total_cycles,
            "detection_rate": round(self.detection_rate, 4),
            "correction_rate": round(self.correction_rate, 4),
            "observed_op_error_rate": round(
                self.observed_op_error_rate, 6
            ),
            "analytic_op_error_rate": round(
                self.analytic_op_error_rate, 6
            ),
        }
        if self.resumed_from is not None:
            summary["resumed_from"] = self.resumed_from
        if self.storage_ops:
            summary["storage_ops"] = self.storage_ops
            summary["storage_wrong"] = self.storage_wrong
        if self.scrub is not None:
            summary["scrub"] = dict(self.scrub)
        if self.protection is not None:
            summary["protection"] = self.protection
        return summary


def shard_bounds(ops: int, shard: int, shards: int) -> Tuple[int, int]:
    """The global op range ``[lo, hi)`` shard ``shard`` of ``shards`` runs.

    Contiguous, gap-free, and balanced to within one op; the partition
    is part of the sharded campaign's *definition*, so the same bounds
    are used whether shards run in worker processes or sequentially in
    one process.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if not 0 <= shard < shards:
        raise ValueError(f"shard must be in [0, {shards}), got {shard}")
    if shards > ops:
        raise ValueError(f"cannot split {ops} ops into {shards} shards")
    return shard * ops // shards, (shard + 1) * ops // shards


def _campaign_system(config: CampaignConfig, shard: int = 0, telemetry=None):
    """Build the system under test (import deferred to avoid cycles)."""
    from repro.sim.system import CoruscantSystem

    policy = config.policy or RetryPolicy()
    return CoruscantSystem(
        trd=config.trd,
        geometry=MemoryGeometry(tracks_per_dbc=config.tracks),
        fault_config=FaultConfig(
            tr_fault_rate=config.tr_fault_rate,
            shift_fault_rate=config.shift_fault_rate,
            seed=derive_seed(config.seed, "campaign.faults", shard),
        ),
        resilience=policy if config.recovery else False,
        scrub_interval=config.scrub_interval,
        adaptive=(
            (config.breaker or True) if config.adaptive else False
        ),
        telemetry=telemetry or False,
    )


_STORAGE_DBC = 1  # a plain (non-PIM) cluster in the PIM tile


def run_add_campaign(
    config: CampaignConfig,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 100,
    stop_after: Optional[int] = None,
    telemetry=None,
    shard: int = 0,
    shards: int = 1,
    on_op: Optional[Callable[[int], None]] = None,
) -> CampaignResult:
    """Replay ``config.ops`` multi-operand additions under faults.

    Each op stages fresh operand words (zero-cost, modelling resident
    data), dispatches a cpim ADD through the system — resiliently or
    bare — and compares the block-0 sum against the golden value;
    optional storage traffic and the storm/calm rate switch run in the
    same deterministic stream.

    Args:
        config: the campaign's shape.
        checkpoint_path: journal file for crash-safe resume. When the
            file exists the run resumes from it (the journal must match
            ``config``); the journal is rewritten every
            ``checkpoint_every`` ops and at the end of the invocation.
        checkpoint_every: ops between journal writes (when journaling).
        stop_after: execute at most this many ops in *this* invocation
            and return with ``completed=False`` — an orderly stand-in
            for a crash in tests and sliced long runs.
        telemetry: optional :class:`~repro.telemetry.TelemetryHub`; the
            campaign system publishes traces and metrics into it.
        shard: which slice of the op range this invocation runs.
        shards: total shard count the campaign is split into. Shard
            ``shard`` runs global ops ``shard_bounds(config.ops, shard,
            shards)`` on its own system, with operand and fault streams
            derived per shard via
            :func:`~repro.utils.streams.derive_stream` — so a shard's
            result is a pure function of ``(config, shard, shards)``
            regardless of which process runs it. The default (0 of 1)
            is the plain single-process campaign.
        on_op: test hook invoked with the global op index before each
            executed op (used by the sharded supervisor's crash
            injection; never set in production runs).

    A run interrupted at any point and resumed from its journal produces
    a final report bit-identical to the uninterrupted run.
    """
    from repro.core.addition import MultiOperandAdder
    from repro.resilience.errors import UncorrectableFaultError

    lo, hi = shard_bounds(config.ops, shard, shards)
    system = _campaign_system(config, shard=shard, telemetry=telemetry)
    dbc = system.pim_dbc()
    adder = MultiOperandAdder(dbc)
    if config.operands > adder.max_operands:
        raise ValueError(
            f"{config.operands} operands exceed the TRD-{config.trd} "
            f"limit of {adder.max_operands}"
        )
    address = Address(bank=0, subarray=0, tile=0, dbc=0, row=0)
    instruction = CpimInstruction(
        op=CpimOp.ADD,
        blocksize=config.blocksize,
        src=address,
        dest=address,
        operands=config.operands,
    )
    rng = derive_stream(config.seed, "campaign.operands", shard)
    injector = dbc.injector
    result = CampaignResult(
        ops=hi - lo,
        recovery=config.recovery,
        analytic_op_error_rate=add_error_probability(
            config.blocksize, config.tr_fault_rate
        ),
    )
    expected_rows: Dict[int, List[int]] = {}
    start = lo
    if checkpoint_path:
        ckpt.discard_torn_temp(checkpoint_path)
    if checkpoint_path and os.path.exists(checkpoint_path):
        start = _restore_campaign(
            checkpoint_path, config, system, rng, result, expected_rows,
            shard, shards,
        )
        result.resumed_from = start
    if config.storm_ops is not None and start >= config.storm_ops:
        injector.set_rates(
            config.calm_tr_fault_rate, config.calm_shift_fault_rate
        )
    modulus = 1 << config.blocksize
    result.completed = True
    for index in range(start, hi):
        if stop_after is not None and index - start >= stop_after:
            result.completed = False
            break
        if config.storm_ops is not None and index == config.storm_ops:
            injector.set_rates(
                config.calm_tr_fault_rate, config.calm_shift_fault_rate
            )
        if on_op is not None:
            on_op(index)
        words = [
            rng.randrange(1 << config.n_bits)
            for _ in range(config.operands)
        ]
        adder.stage_words(
            words, config.n_bits, zero_extend_to=config.blocksize
        )
        golden = sum(words) % modulus
        try:
            outcome = system.execute(instruction)
        except UncorrectableFaultError:
            result.escaped += 1
            outcome = None
        if outcome is not None and outcome.values[0] != golden:
            result.escaped += 1
        if config.storage_rows:
            _storage_op(system, config, rng, index, expected_rows, result)
        if (
            checkpoint_path
            and checkpoint_every
            and (index + 1) % checkpoint_every == 0
            and index + 1 < hi
        ):
            _save_campaign(
                checkpoint_path, config, system, rng, result,
                expected_rows, index + 1, shard, shards,
            )
    else:
        start = hi  # loop ran to the end (or resumed past it)
    stopped_at = start if result.completed else start + (stop_after or 0)
    result.injected_tr_faults = injector.tr_faults_injected
    result.injected_shift_faults = injector.shift_faults_injected
    result.total_cycles = dbc.stats.cycles
    result.detected = dbc.vote_stats.disagreements
    result.corrected = dbc.vote_stats.corrected
    if system.executor is not None:
        stats = system.executor.stats
        result.retries = stats.retries
        result.escalations = stats.escalations
        result.uncorrectable = stats.uncorrectable
        result.remaps = stats.remaps
        result.overhead_cycles = stats.overhead_cycles
        result.detected = max(result.detected, stats.faults_detected)
        result.corrected += stats.misalignments_repaired
    if system.scrubber is not None:
        result.scrub = system.scrubber.stats.as_dict()
    if system.breaker is not None:
        result.protection = system.breaker.summary()
    if checkpoint_path:
        _save_campaign(
            checkpoint_path, config, system, rng, result,
            expected_rows, stopped_at, shard, shards,
        )
    return result


def resume_add_campaign(
    config: CampaignConfig,
    checkpoint_path: str,
    checkpoint_every: int = 100,
    stop_after: Optional[int] = None,
) -> CampaignResult:
    """Resume a journaled campaign; fails if no journal exists yet."""
    if not os.path.exists(checkpoint_path):
        raise ckpt.CheckpointError(
            f"no checkpoint to resume at {checkpoint_path}"
        )
    return run_add_campaign(
        config,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        stop_after=stop_after,
    )


def _storage_op(
    system,
    config: CampaignConfig,
    rng: random.Random,
    index: int,
    expected_rows: Dict[int, List[int]],
    result: CampaignResult,
) -> None:
    """One write + one (staggered) validated read of plain storage.

    The read targets a row written a few ops ago rather than the one
    just written: a shift fault corrupts reads *relative to the store*,
    so reading back immediately through the same skewed alignment would
    hide it. Mismatches are counted once — the golden copy is refreshed
    after a miss so persistent loss of one row is one event, not one per
    revisit.
    """
    from repro.device.nanowire import DataLossError

    # Rows are allocated around the storage port's home position so the
    # commanded offset stays small: the overhead domains then have slack
    # on both sides to absorb shift-fault excursions (rows far from the
    # port park the wire at its guard edge, where any over-shift ejects).
    dbc = _storage_dbc(system)
    base = dbc.port_positions[0] - config.storage_rows // 2
    base = max(0, min(base, dbc.domains - config.storage_rows))
    write_row = base + index % config.storage_rows
    value = rng.randrange(1 << config.n_bits)
    bits = bits_from_int(value, config.n_bits)
    bits = bits + [0] * (config.tracks - len(bits))
    try:
        system.controller.write(_storage_address(write_row), bits)
        expected_rows[write_row] = bits
    except DataLossError:
        # Accumulated misalignment walked the wire into its guard edge
        # and the access aborted: the write is lost and the controller
        # recalibrates alignment before continuing.
        result.storage_wrong += 1
        dbc.realign()
    result.storage_ops += 1
    read_row = base + (
        (index + max(1, config.storage_rows // 2)) % config.storage_rows
    )
    if read_row in expected_rows:
        result.storage_ops += 1
        try:
            got = system.controller.read(_storage_address(read_row))
        except DataLossError:
            result.storage_wrong += 1
            dbc.realign()
            return
        if got != expected_rows[read_row]:
            result.storage_wrong += 1
            expected_rows[read_row] = list(got)


def _storage_dbc(system):
    return (
        system.memory.bank(0).subarray(0).tile(0).dbc(_STORAGE_DBC)
    )


def _storage_address(row: int) -> Address:
    return Address(bank=0, subarray=0, tile=0, dbc=_STORAGE_DBC, row=row)


# ----------------------------------------------------------------------
# checkpoint plumbing

def _save_campaign(
    path: str,
    config: CampaignConfig,
    system,
    rng: random.Random,
    result: CampaignResult,
    expected_rows: Dict[int, List[int]],
    ops_done: int,
    shard: int = 0,
    shards: int = 1,
) -> None:
    fingerprint = config.fingerprint()
    payload: Dict[str, Any] = {
        "fingerprint": fingerprint,
        "config_hash": ckpt.config_hash(fingerprint),
        "shard": shard,
        "shards": shards,
        "ops_done": ops_done,
        "stream_rng": ckpt.rng_state_to_json(rng.getstate()),
        "injector": system.memory.injector.state(),
        "dbcs": [
            [list(key), ckpt.dbc_state(cluster)]
            for key, cluster in system.memory.iter_materialized_dbcs()
        ],
        "executor_stats": (
            asdict(system.executor.stats)
            if system.executor is not None
            else None
        ),
        "health": ckpt.health_state(system.health),
        "breaker": (
            system.breaker.serialize()
            if system.breaker is not None
            else None
        ),
        "scrub": (
            system.scrubber.state()
            if system.scrubber is not None
            else None
        ),
        "expected_rows": {
            str(row): bits for row, bits in expected_rows.items()
        },
        "partial": {
            "escaped": result.escaped,
            "storage_ops": result.storage_ops,
            "storage_wrong": result.storage_wrong,
            "checkpoints_written": result.checkpoints_written + 1,
        },
    }
    ckpt.save_checkpoint(path, payload)
    result.checkpoints_written += 1


def _restore_campaign(
    path: str,
    config: CampaignConfig,
    system,
    rng: random.Random,
    result: CampaignResult,
    expected_rows: Dict[int, List[int]],
    shard: int = 0,
    shards: int = 1,
) -> int:
    """Load a journal into a freshly built system; returns ops done."""
    from repro.resilience.executor import RecoveryStats

    document = ckpt.load_checkpoint(path)
    ckpt.verify_resume(
        document, config.fingerprint(), path, shard=shard, shards=shards
    )
    rng.setstate(ckpt.rng_state_from_json(document["stream_rng"]))
    system.memory.injector.restore_state(document["injector"])
    for key, state in document["dbcs"]:
        bank, subarray, tile, dbc_index = key
        cluster = (
            system.memory.bank(bank)
            .subarray(subarray)
            .tile(tile)
            .dbc(dbc_index)
        )
        ckpt.restore_dbc_state(cluster, state)
    if system.executor is not None and document["executor_stats"]:
        system.executor.stats = RecoveryStats(**document["executor_stats"])
    ckpt.restore_health_state(system.health, document["health"])
    if system.breaker is not None and document["breaker"]:
        system.breaker.restore(document["breaker"])
    if system.scrubber is not None and document["scrub"]:
        system.scrubber.restore_state(document["scrub"])
    expected_rows.clear()
    expected_rows.update(
        {int(row): bits for row, bits in document["expected_rows"].items()}
    )
    partial = document["partial"]
    result.escaped = partial["escaped"]
    result.storage_ops = partial["storage_ops"]
    result.storage_wrong = partial["storage_wrong"]
    result.checkpoints_written = partial["checkpoints_written"]
    return int(document["ops_done"])


def run_cnn_campaign(
    config: CampaignConfig,
    image_size: int = 6,
    kernel_size: int = 3,
    pixel_bits: int = 4,
) -> CampaignResult:
    """Convolve one CNN layer on the PIM engine under injected faults.

    Every MAC runs on the simulated hardware; with recovery on, the
    engine's DBC senses through the re-read vote (the executor ladder
    applies to controller-dispatched ops; a conv layer exercises the
    detection primitive end-to-end). ``escaped`` counts wrong output
    pixels against the numpy reference.
    """
    import numpy as np

    from repro.device.faults import FaultInjector
    from repro.workloads.cnn.inference import PimCnnEngine

    policy = config.policy or RetryPolicy()
    injector = FaultInjector(
        FaultConfig(
            tr_fault_rate=config.tr_fault_rate,
            shift_fault_rate=config.shift_fault_rate,
            seed=derive_seed(config.seed, "cnn.faults"),
        )
    )
    engine = PimCnnEngine(
        trd=config.trd,
        tracks=config.tracks,
        injector=injector,
        tr_vote_reads=policy.tr_vote_reads if config.recovery else 1,
    )
    rng = np.random.default_rng(derive_seed(config.seed, "cnn.pixels"))
    image = rng.integers(0, 1 << pixel_bits, (image_size, image_size))
    kernel = rng.integers(0, 1 << pixel_bits, (kernel_size, kernel_size))
    out = engine.conv2d(image, kernel, n_bits=pixel_bits)
    golden = np.zeros_like(out)
    kh, kw = kernel.shape
    for i in range(golden.shape[0]):
        for j in range(golden.shape[1]):
            golden[i, j] = int(
                (image[i : i + kh, j : j + kw] * kernel).sum()
            )
    result = CampaignResult(
        ops=int(out.size),
        recovery=config.recovery,
        injected_tr_faults=injector.tr_faults_injected,
        injected_shift_faults=injector.shift_faults_injected,
        detected=engine.dbc.vote_stats.disagreements,
        corrected=engine.dbc.vote_stats.corrected,
        escaped=int((out != golden).sum()),
        overhead_cycles=engine.dbc.vote_stats.overhead_cycles,
        total_cycles=engine.dbc.stats.cycles,
    )
    return result


def run_recovery_comparison(
    config: CampaignConfig,
    telemetry=None,
) -> Dict[str, CampaignResult]:
    """The same campaign with recovery on and off, for side-by-side.

    The bare baseline also drops the adaptive ladder and the background
    scrubber — it is the fault-oblivious pipeline the protected run is
    measured against. A shared ``telemetry`` hub (when given) collects
    both runs' traces and metrics.
    """
    on = run_add_campaign(replace(config, recovery=True), telemetry=telemetry)
    off = run_add_campaign(
        replace(config, recovery=False, adaptive=False, scrub_interval=None),
        telemetry=telemetry,
    )
    return {"recovery_on": on, "recovery_off": off}
