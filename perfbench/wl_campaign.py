"""``campaign-faults``: the add fault campaign at paper geometry.

One ``run_add_campaign`` call with 512 tracks, TRD 7, 5 operands,
``tr_fault_rate=1e-3``, ``shift_fault_rate=1e-4``, 8 storage rows and
recovery on, in this process. It is one campaign on one system, so the
state a long run builds up (misalignment and realignment, resilience
and storage rows) carries from op to op. Its op count follows from
``--seconds`` (``OPS_PER_S`` ops per second asked for, at least
``TRACE_OPS``), not from the clock, so the campaign and everything it
simulates is a pure function of the seed and the run length. Per-op
host latency comes from the public ``on_op`` hook.

``run_add_campaign`` compares every sum with Python arithmetic itself
and counts a miss as an escape; under faults a few escape by design
(``uncorrected_frac``). The benchmark's own golden check is therefore a
second, fault-free campaign over the first ``GOLDEN_OPS`` ops of the
same seed (the same operands and storage values), in which every sum
and every storage read must come back right: each miss there is a
failed op. Under faults, every wrong result must be explained by an
injected fault.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from perfbench import common, layers

#: Campaign ops per second of ``--seconds``.
OPS_PER_S = 25
#: Ops of each of the traced run's two campaigns, and the fewest any
#: run makes: a short untraced run runs the traced run's campaign.
TRACE_OPS = 100
#: Ops of the fault-free golden campaign.
GOLDEN_OPS = 50
#: Ops per timing segment (see ``common.timing_metrics``).
SEGMENT_OPS = 10
#: Set-ups timed before and after the campaign.
SETUPS_BEFORE = 5
SETUPS_AFTER = 4
SETUP_OPS = 2

#: Per-layer metrics this workload has nothing to report for.
ABSENT = (
    "service.server_ms_per_req", "service.rejected_frac",
    "service.retries_per_req",
)


def campaign_ops(seconds: float) -> int:
    return max(TRACE_OPS, round(seconds * OPS_PER_S))


def config(seed: int, ops: int, faults: bool = True):
    from repro.reliability.campaign import CampaignConfig

    return CampaignConfig(
        ops=ops,
        operands=5,
        n_bits=8,
        trd=7,
        tracks=512,
        tr_fault_rate=1e-3 if faults else 0.0,
        shift_fault_rate=1e-4 if faults else 0.0,
        seed=seed,
        recovery=True,
        storage_rows=8,
    )


@contextlib.contextmanager
def capture_systems(into: List[Any]):
    """Collect every CoruscantSystem built inside the block.

    The campaign builds its system internally; the benchmark needs it
    afterwards for the device statistics the result does not carry.
    """
    from repro.sim.system import CoruscantSystem

    original = CoruscantSystem.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        into.append(self)

    CoruscantSystem.__init__ = init
    try:
        yield into
    finally:
        CoruscantSystem.__init__ = original


@dataclass
class Campaign:
    """One finished campaign: its result, its system, per-op host time."""

    ops: int
    outcome: Any
    system: Any
    latency: List[float]

    @property
    def injected(self) -> int:
        return (
            self.outcome.injected_tr_faults
            + self.outcome.injected_shift_faults
        )

    def simulated(self) -> Dict[str, Any]:
        """Everything the campaign simulated; repeats exactly per seed."""
        return {
            "summary": self.outcome.summary(),
            "device": common.system_device_stats([self.system]),
        }


def run_campaign(cfg, probes: Optional[List[float]] = None) -> Campaign:
    """Run ``cfg``, timing each op from ``on_op`` to the next.

    With ``probes``, :func:`common.probe` runs before every
    SEGMENT_OPS-th op and after the last, off the ops' clock, and its
    times are appended there.
    """
    # Looked up per call, so the traced run's wrapper is picked up.
    from repro.reliability import campaign as module

    ends: List[float] = []
    starts: List[float] = []
    systems: List[Any] = []
    clock = time.perf_counter

    def on_op(index: int) -> None:
        ends.append(clock())
        if probes is not None and index % SEGMENT_OPS == 0:
            probes.append(common.probe())
        starts.append(clock())

    with capture_systems(systems):
        outcome = module.run_add_campaign(cfg, on_op=on_op)
    ends = ends[1:] + [clock()]
    if probes is not None:
        probes.append(common.probe())
    latency = [end - start for start, end in zip(starts, ends)]
    return Campaign(cfg.ops, outcome, systems[-1], latency)


def check_campaign(result: common.RunResult, campaign: Campaign) -> int:
    """Checks on a campaign under faults; returns its failed ops.

    A campaign that fails them is wrong as a whole, so all its ops fail.
    """
    outcome, ops = campaign.outcome, campaign.ops
    ok = (
        outcome.ops == ops
        and outcome.completed
        and campaign.system.executor.stats.operations == ops
        and ops <= outcome.storage_ops <= 2 * ops
        and outcome.wrong_results <= campaign.injected
    )
    common.check(
        result, ok,
        f"campaign: {outcome.wrong_results} wrong results from "
        f"{campaign.injected} injected faults, {outcome.summary()}",
    )
    return 0 if ok else ops


def golden_check(result: common.RunResult, seed: int) -> Campaign:
    """The seed's first GOLDEN_OPS ops, fault-free: no result may be wrong."""
    golden = run_campaign(config(seed, GOLDEN_OPS, faults=False))
    outcome = golden.outcome
    common.check(
        result,
        golden.injected == 0 and outcome.wrong_results == 0,
        f"fault-free campaign: {outcome.escaped} wrong sums, "
        f"{outcome.storage_wrong} wrong storage reads",
    )
    return golden


def _setup_once(seed: int) -> float:
    """A short campaign on another seed: builds its system, warms paths."""
    from repro.reliability.campaign import run_add_campaign

    seconds, _outcome = common.timed(
        lambda: run_add_campaign(config(seed + 7919, SETUP_OPS))
    )
    return seconds


def run(seed: int, seconds: float, trace: bool) -> common.RunResult:
    result = common.RunResult(attempted=0, failed=0, correct=True)
    if trace:
        _setup_once(seed)
        return _run_traced(seed, result)
    setup = [_setup_once(seed) for _ in range(SETUPS_BEFORE)]
    probes: List[float] = []
    main = run_campaign(config(seed, campaign_ops(seconds)), probes)
    setup += [_setup_once(seed) for _ in range(SETUPS_AFTER)]
    golden = golden_check(result, seed)

    ops = main.ops
    result.attempted = ops + golden.ops
    result.failed = (
        check_campaign(result, main) + golden.outcome.wrong_results
    )
    result.metric("setup_s", statistics.median(setup), "s")
    segments = [
        (
            sum(main.latency[lo:lo + SEGMENT_OPS]), lo, lo + SEGMENT_OPS,
            (probes[k] + probes[k + 1]) / 2,
        )
        for k, lo in enumerate(range(0, ops - SEGMENT_OPS + 1, SEGMENT_OPS))
    ]
    common.timing_metrics(result, segments, main.latency)
    device = common.system_device_stats([main.system])
    result.metric("sim_cycles_per_op", device["cycles"] / ops, "cycles")
    result.metric("sim_energy_pj_per_op", device["energy_pj"] / ops, "pJ")
    result.metric("peak_rss_mb", common.peak_rss_mb(), "MiB")
    result.report.update(
        digest=common.digest(
            {"campaign": main.simulated(), "golden": golden.simulated()}
        ),
        ops=ops,
        setups=len(setup),
        uncorrected_frac=main.outcome.wrong_results / ops,
        failed_frac=result.failed / result.attempted,
    )
    return result


def _run_traced(seed: int, result: common.RunResult) -> common.RunResult:
    """One TRACE_OPS campaign three times: plain, under the wrappers, plain.

    A campaign is one call, so the passes cannot be interleaved op by
    op; comparing each traced op with the mean of the same op in the
    plain passes before and after it cancels a host that drifts
    steadily during the run.
    """
    from repro.reliability import campaign as module

    cfg = config(seed, TRACE_OPS)
    before = run_campaign(cfg)
    recorder = layers.Recorder()
    extra = [(module, "run_add_campaign", "reliability", None)]
    with layers.installed(recorder, extra):
        start = time.perf_counter()
        traced = run_campaign(cfg)
        wall = time.perf_counter() - start
    after = run_campaign(cfg)
    golden = golden_check(result, seed)
    simulated = traced.simulated()
    common.check(
        result,
        before.simulated() == simulated == after.simulated(),
        "traced run changed simulated results",
    )
    ops = TRACE_OPS
    result.attempted = 3 * ops + golden.ops
    result.failed = (
        sum(check_campaign(result, c) for c in (before, traced, after))
        + golden.outcome.wrong_results
    )
    result.report.update(
        digest=common.digest(
            {"campaign": simulated, "golden": golden.simulated()}
        ),
        ops=ops,
    )
    for name, value in layers.fold(recorder.totals(), ops, wall).items():
        result.metric(name, value, layers.unit_of(name))
    common.device_layer_metrics(
        result, simulated["device"]["op_counts"], traced.injected, ops
    )
    executor = traced.system.executor.stats
    result.metric(
        "resilience.attempts_per_op", executor.attempts / ops, "count"
    )
    result.metric(
        "resilience.useful_frac", executor.operations / executor.attempts,
        "ratio",
    )
    result.metric(
        "reliability.uncorrected_frac",
        traced.outcome.wrong_results / ops, "ratio",
    )
    result.metric(
        "trace.overhead_frac",
        common.overhead(
            [(a + b) / 2 for a, b in zip(before.latency, after.latency)],
            traced.latency,
        ),
        "ratio",
    )
    for name in ABSENT:
        result.metric(name, 0.0, layers.unit_of(name))
    result.spans = recorder
    return result
