"""``kernels-paper``: Table III kernels on 512-track DBCs at TRD 3, 5, 7.

A seeded stream of rounds; each round runs the nine (TRD, kernel)
pairs once, in a seeded order, with seeded operands: multi-operand add
of TRD-2 words, 8-bit multiply, and max of TRD words. Systems are built
once, fault-free, on the bare pipeline with telemetry off, and driven
back to back from one thread. Every result is checked against Python
arithmetic.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any, Dict, List, Tuple

from perfbench import common, layers

TRDS = (3, 5, 7)
KERNELS = ("add", "mult", "max")
TRACKS = 512
N_BITS = 8
#: Rounds every run completes; simulated counts are taken over these.
PREFIX_ROUNDS = 24
#: Rounds per timing segment (see ``common.timing_metrics``).
SEGMENT_ROUNDS = 2
#: A set-up is timed again after each this many seconds of the run.
SETUP_EVERY_S = 2.0

#: Per-layer metrics this workload has nothing to report for.
ABSENT = (
    "resilience.attempts_per_op", "resilience.useful_frac",
    "reliability.uncorrected_frac", "service.server_ms_per_req",
    "service.rejected_frac", "service.retries_per_req",
)

Call = Tuple[int, str, Tuple[Any, ...]]


def round_plan(seed: int, index: int) -> List[Call]:
    """Round ``index`` of the stream: nine calls, order and operands seeded."""
    rng = random.Random(f"kernels-paper/{seed}/{index}")
    calls: List[Call] = []
    top = 1 << N_BITS
    for trd in TRDS:
        words = [rng.randrange(top) for _ in range(2 * trd - 2)]
        calls.append((trd, "add", tuple(words[: trd - 2])))
        calls.append((trd, "mult", (rng.randrange(top), rng.randrange(top))))
        calls.append((trd, "max", tuple(words[trd - 2:])))
    rng.shuffle(calls)
    return calls


def golden(kernel: str, args: Tuple[Any, ...]) -> int:
    if kernel == "add":
        return sum(args)
    if kernel == "mult":
        return args[0] * args[1]
    return max(args)


def call(system, kernel: str, args: Tuple[Any, ...]) -> Any:
    if kernel == "add":
        return system.add(list(args), N_BITS)
    if kernel == "mult":
        return system.multiply(args[0], args[1], N_BITS)
    return system.maximum(list(args), N_BITS)


def build_systems() -> Dict[int, Any]:
    """One fault-free, bare, telemetry-off system per TRD, warmed up."""
    from repro.arch.geometry import MemoryGeometry
    from repro.sim.system import CoruscantSystem

    systems = {}
    for trd in TRDS:
        system = CoruscantSystem(
            trd=trd, geometry=MemoryGeometry(tracks_per_dbc=TRACKS)
        )
        for kernel, args in (
            ("add", tuple(range(1, trd - 1))),
            ("mult", (3, 5)),
            ("max", tuple(range(trd))),
        ):
            call(system, kernel, args)
        systems[trd] = system
    return systems


def _stats(systems: Dict[int, Any]) -> Dict[str, Any]:
    return common.system_device_stats(systems[trd] for trd in TRDS)


def _diff(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """``DeviceStats.as_dict`` documents subtracted, zero entries dropped."""
    delta: Dict[str, Any] = {}
    for key, value in after.items():
        if isinstance(value, dict):
            changed = {
                op: n - before[key].get(op, 0)
                for op, n in sorted(value.items())
            }
            delta[key] = {op: n for op, n in changed.items() if n}
        else:
            delta[key] = value - before[key]
    return delta


class _Stream:
    """Runs rounds on one set of systems, checking every result."""

    def __init__(self, systems: Dict[int, Any], seed: int, result) -> None:
        self.systems = systems
        self.seed = seed
        self.result = result
        self.rounds = 0
        self.ops = 0
        self.failed = 0
        self.latency: List[float] = []
        self.labels: List[Tuple[int, str]] = []
        self.outputs: List[List[Any]] = []
        self.baseline = _stats(systems)

    def run_round(self) -> None:
        clock = time.perf_counter
        for trd, kernel, args in round_plan(self.seed, self.rounds):
            start = clock()
            try:
                out = call(self.systems[trd], kernel, args)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                self.latency.append(clock() - start)
                self.labels.append((trd, kernel))
                self.failed += 1
                self.ops += 1
                common.check(self.result, False, f"{kernel}@{trd}: {exc!r}")
                continue
            self.latency.append(clock() - start)
            self.labels.append((trd, kernel))
            self.ops += 1
            want = golden(kernel, args)
            if out.value != want:
                self.failed += 1
                common.check(
                    self.result, False,
                    f"{kernel}@{trd}{list(args)} = {out.value}, want {want}",
                )
            if self.rounds < PREFIX_ROUNDS:
                self.outputs.append([trd, kernel, out.value, out.cycles])
        self.rounds += 1

    def prefix_stats(self) -> Dict[str, Any]:
        return _diff(_stats(self.systems), self.baseline)


def _sim_report(result, stream: _Stream, stats: Dict[str, Any]) -> int:
    ops = len(stream.outputs)
    result.report["digest"] = common.digest(
        {"outputs": stream.outputs, "device": stats}
    )
    result.report["prefix_ops"] = ops
    return ops


def run(seed: int, seconds: float, trace: bool) -> common.RunResult:
    result = common.RunResult(attempted=0, failed=0, correct=True)
    if trace:
        return _run_traced(seed, result)
    setup_s, systems = common.timed(build_systems)
    setup = [setup_s]
    stream = _Stream(systems, seed, result)
    clock = time.perf_counter
    deadline = clock() + seconds
    next_setup = clock() + SETUP_EVERY_S
    segments: List[common.Segment] = []
    prefix = None
    before = common.probe()
    while prefix is None or clock() < deadline:
        lo = stream.ops
        start = clock()
        for _ in range(SEGMENT_ROUNDS):
            stream.run_round()
        wall = clock() - start
        after = common.probe()
        segments.append((wall, lo, stream.ops, (before + after) / 2))
        before = after
        if stream.rounds == PREFIX_ROUNDS:
            prefix = stream.prefix_stats()
        if clock() >= next_setup:
            # Set-up is timed spread over the run, off the segment clock,
            # so its median sees the host as the run did.
            setup.append(common.timed(build_systems)[0])
            next_setup = clock() + SETUP_EVERY_S
            before = common.probe()

    result.attempted, result.failed = stream.ops, stream.failed
    prefix_ops = _sim_report(result, stream, prefix)
    result.metric("setup_s", statistics.median(setup), "s")
    common.timing_metrics(result, segments, stream.latency)
    result.metric("sim_cycles_per_op", prefix["cycles"] / prefix_ops, "cycles")
    result.metric(
        "sim_energy_pj_per_op", prefix["energy_pj"] / prefix_ops, "pJ"
    )
    result.metric("peak_rss_mb", common.peak_rss_mb(), "MiB")
    for kernel in KERNELS:
        result.report[f"kernel_{kernel}_us"] = statistics.median(
            seconds
            for seconds, label in zip(stream.latency, stream.labels)
            if label == (7, kernel)
        ) * 1e6
    result.report.update(
        rounds=stream.rounds,
        setups=len(setup),
        failed_frac=stream.failed / stream.ops,
    )
    return result


def _run_traced(seed: int, result: common.RunResult) -> common.RunResult:
    """The prefix on two fresh sets of systems, round by round.

    Each round runs untraced on the first set, then under the wrappers
    on the second, so the two passes share the host's state.
    """
    plain = _Stream(build_systems(), seed, result)
    traced = _Stream(build_systems(), seed, result)
    recorder = layers.Recorder()
    wall = 0.0
    while plain.rounds < PREFIX_ROUNDS:
        plain.run_round()
        with layers.installed(recorder):
            start = time.perf_counter()
            traced.run_round()
            wall += time.perf_counter() - start
    stats = [plain.prefix_stats(), traced.prefix_stats()]
    common.check(
        result,
        plain.outputs == traced.outputs and stats[0] == stats[1],
        "traced run changed simulated results",
    )
    ops = _sim_report(result, traced, stats[1])
    result.attempted = plain.ops + traced.ops
    result.failed = plain.failed + traced.failed
    for name, value in layers.fold(recorder.totals(), ops, wall).items():
        result.metric(name, value, layers.unit_of(name))
    common.device_layer_metrics(result, stats[1]["op_counts"], 0, ops)
    result.metric(
        "trace.overhead_frac",
        common.overhead(plain.latency, traced.latency), "ratio",
    )
    for name in ABSENT:
        result.metric(name, 0.0, layers.unit_of(name))
    result.spans = recorder
    return result
