"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's tables and figures, or run one-off PIM
operations for exploration:

    python -m repro table1          # area overhead
    python -m repro table3          # operation comparison
    python -m repro table4          # CNN FPS
    python -m repro table5          # reliability
    python -m repro table6          # CNN with NMR
    python -m repro fig10           # Polybench latency
    python -m repro fig11           # Polybench energy
    python -m repro fig12           # bitmap indices
    python -m repro all             # everything
    python -m repro add 13 200 7    # one PIM addition with cycle cost
    python -m repro mult 173 219    # one PIM multiplication
    python -m repro campaign --fault-rate 1e-3 --ops 1000
                                    # fault campaign, recovery on vs off
    python -m repro campaign --shards 4 --journal runs/c1
                                    # sharded campaign: supervised worker
                                    # processes, per-shard journals, and
                                    # a merged report bit-identical to
                                    # the single-process run (exit 3 on
                                    # a degraded partial report)
    python -m repro mc additions --trials 10000 --shards 2
                                    # Monte Carlo fault injection, sharded
    python -m repro trace mult --out trace.json
                                    # Chrome-trace one kernel end to end
    python -m repro report --format md
                                    # reproduction-fidelity scoreboard
    python -m repro bench --compare BENCH_history.jsonl
                                    # bench + regression gate (exit 1 on
                                    # regression vs the baseline)
    python -m repro serve --port 8787 --profile storm:tr_fault_rate=0.4
                                    # the resilient kernel gateway:
                                    # admission control, deadlines,
                                    # retries, per-profile breakers;
                                    # SIGTERM drains and exits 0
    python -m repro loadbench --profile mixed --requests 80 \
                              --concurrency 4 --compare LOADBENCH_history.jsonl
                                    # deterministic closed-loop load
                                    # bench against the in-process
                                    # gateway: sustained req/s +
                                    # p50/p90/p99 latency, gated by the
                                    # same regression detector as bench
                                    # (exit 1 on latency regression,
                                    # 3 if any request failed; add
                                    # --slo to also gate on the SLO
                                    # burn-rate engine)
    python -m repro profile bench --repeats 2 --no-history
                                    # wrap any command in the sampling
                                    # profiler; writes speedscope JSON
                                    # (--profile-out) and collapsed
                                    # stacks (--folded-out); add
                                    # --virtual-clock for bit-identical
                                    # folded output derived from the
                                    # simulated span tree
    python -m repro slo --history LOADBENCH_history.jsonl --format md
                                    # multi-window SLO burn-rate report
                                    # over the loadbench history (exit
                                    # 3 while an objective is burning)

Each command accepts only the flags it reads (``python -m repro
<command> --help`` lists them). Every command but ``serve`` takes
``--json`` to emit its result as one JSON document on stdout (always
carrying the command's ``exit_status``); the table/figure commands,
``report``, ``trace``, ``campaign`` and ``mc`` take ``--metrics-json
PATH`` to dump the telemetry metrics gathered while the command ran.
Every malformed invocation exits 2 before any work runs.

Exit codes follow the stack-wide contract in :mod:`repro.exitcodes`:
0 ok, 1 error, 2 usage, 3 degraded-but-usable.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import re
import sys
from typing import Any, Callable, Dict, List, Optional

from repro.exitcodes import EXIT_DEGRADED, EXIT_ERROR, EXIT_OK


class OutputWriter:
    """Routes command output to text (stdout) or one JSON document.

    Text mode prints the familiar ``== title ==`` tables immediately;
    JSON mode accumulates every section into a single payload that
    :meth:`close` dumps to the stream. All ``_run_*`` helpers write
    through this so ``--json`` works uniformly across subcommands.
    """

    def __init__(self, json_mode: bool = False, stream=None) -> None:
        self.json_mode = json_mode
        self.stream = stream if stream is not None else sys.stdout
        self.payload: Dict[str, Any] = {}

    def section(self, title: str, data: Dict[str, Any]) -> None:
        """One titled key/value table."""
        if self.json_mode:
            self.payload[title] = data
            return
        print(f"\n== {title} ==", file=self.stream)
        for key, value in data.items():
            if isinstance(value, dict):
                print(f"  {key}:", file=self.stream)
                for k2, v2 in value.items():
                    print(f"    {k2}: {v2}", file=self.stream)
            else:
                print(f"  {key}: {value}", file=self.stream)

    def rows(
        self,
        title: str,
        records: List[Dict[str, Any]],
        lines: List[str],
    ) -> None:
        """One titled list: preformatted lines (text) or records (JSON)."""
        if self.json_mode:
            self.payload[title] = records
            return
        print(f"\n== {title} ==", file=self.stream)
        for line in lines:
            print(line, file=self.stream)

    def text(self, title: str, body: str) -> None:
        """Free-form text block (the report); stored verbatim in JSON."""
        if self.json_mode:
            self.payload[title] = body
            return
        print(body, file=self.stream)

    def line(self, text: str, **record: Any) -> None:
        """One standalone result line (the add/mult one-off commands)."""
        if self.json_mode:
            self.payload.update(record)
            return
        print(text, file=self.stream)

    def meta(self, **record: Any) -> None:
        """Top-level JSON payload fields (schema ids etc.); silent in text."""
        if self.json_mode:
            self.payload.update(record)

    def close(self, exit_status: int = 0) -> None:
        """Flush JSON output; the document always records the exit status."""
        if self.json_mode:
            self.payload["exit_status"] = exit_status
            json.dump(self.payload, self.stream, indent=2, sort_keys=False)
            self.stream.write("\n")


def _writes(run: Callable[[OutputWriter, argparse.Namespace], int]):
    """Make ``run(writer, args) -> code`` a command: it gets a fresh
    :class:`OutputWriter`, closed with the exit code ``run`` returns."""

    @functools.wraps(run)
    def command(args: argparse.Namespace) -> int:
        writer = OutputWriter(json_mode=args.json)
        code = run(writer, args)
        writer.close(code)
        return code

    return command


def _run_table1(writer: OutputWriter) -> None:
    """Table I: area overhead"""
    from repro.sim.experiments import area_table

    writer.section("Table I: area overhead (%)", area_table())


def _run_table3(writer: OutputWriter) -> None:
    """Table III: operation comparison"""
    from repro.sim.experiments import operation_comparison, operation_speedups

    writer.section("Table III: operations", operation_comparison())
    writer.section(
        "Table III: headline ratios vs SPIM", operation_speedups()
    )


def _run_table4(writer: OutputWriter) -> None:
    """Table IV: CNN inference FPS"""
    from repro.sim.experiments import cnn_experiment

    writer.section("Table IV: CNN inference (FPS)", cnn_experiment())


def _run_table5(writer: OutputWriter) -> None:
    """Table V: reliability"""
    from repro.sim.experiments import reliability_table

    writer.section("Table V: reliability", reliability_table())


def _run_table6(writer: OutputWriter) -> None:
    """Table VI: CNN with NMR"""
    from repro.sim.experiments import cnn_nmr_experiment

    writer.section("Table VI: CNN with NMR (FPS)", cnn_nmr_experiment())


def _run_fig10(writer: OutputWriter) -> None:
    """Fig. 10: Polybench latency"""
    from repro.sim.experiments import polybench_experiment, polybench_summary

    results = polybench_experiment()
    writer.rows(
        "Fig. 10: Polybench normalized latency",
        [
            {
                "name": r.name,
                "latency_dram_cpu": r.latency_dram_cpu,
                "latency_dwm": 1.0,
                "latency_pim": r.latency_pim,
                "speedup_vs_dwm": r.speedup_vs_dwm,
            }
            for r in results
        ],
        [
            f"  {r.name:10s} DRAM {r.latency_dram_cpu:5.2f}  DWM 1.00  "
            f"PIM {r.latency_pim:5.2f}  (speedup {r.speedup_vs_dwm:.2f}x)"
            for r in results
        ],
    )
    writer.section("summary", polybench_summary(results))


def _run_fig11(writer: OutputWriter) -> None:
    """Fig. 11: Polybench energy"""
    from repro.sim.experiments import polybench_experiment

    results = polybench_experiment()
    writer.rows(
        "Fig. 11: Polybench energy reduction",
        [
            {"name": r.name, "energy_reduction": r.energy_reduction}
            for r in results
        ],
        [f"  {r.name:10s} {r.energy_reduction:6.1f}x" for r in results],
    )


def _run_fig12(writer: OutputWriter) -> None:
    """Fig. 12: bitmap query speedups"""
    from repro.sim.experiments import bitmap_experiment

    results = bitmap_experiment()
    writer.rows(
        "Fig. 12: bitmap query speedups",
        [
            {
                "weeks": r.weeks,
                "speedup_ambit": r.speedup_ambit,
                "speedup_elp2im": r.speedup_elp2im,
                "speedup_coruscant": r.speedup_coruscant,
            }
            for r in results
        ],
        [
            f"  w={r.weeks}: Ambit {r.speedup_ambit:6.1f}x  "
            f"ELP2IM {r.speedup_elp2im:6.1f}x  "
            f"CORUSCANT {r.speedup_coruscant:6.1f}x"
            for r in results
        ],
    )


def _run_report(writer: OutputWriter) -> None:
    from repro.sim.report import generate_report

    writer.text("report", generate_report())


_EXPERIMENTS = {
    "report": _run_report,
    "table1": _run_table1,
    "table3": _run_table3,
    "table4": _run_table4,
    "table5": _run_table5,
    "table6": _run_table6,
    "fig10": _run_fig10,
    "fig11": _run_fig11,
    "fig12": _run_fig12,
}


@_writes
def _run_experiment(writer: OutputWriter, args) -> int:
    """One table/figure command (``args.experiment``)."""
    if not args.metrics_json:
        args.experiment(writer)
        return EXIT_OK
    # Experiment commands build DBCs internally; the process-wide
    # active hub catches their device-level stats.
    from repro.telemetry import TelemetryHub, runtime

    hub = TelemetryHub()
    with runtime.activated(hub):
        args.experiment(writer)
    _write_json(args.metrics_json, hub.metrics_dict())
    return EXIT_OK


@_writes
def _run_all(writer: OutputWriter, args) -> int:
    for run in _EXPERIMENTS.values():
        run(writer)
    return EXIT_OK


# ----------------------------------------------------------------------
# observability commands (report scoreboard + bench regression gate)


def _run_report_command(args) -> int:
    """Fidelity scoreboard: paper-vs-measured records + hotspots."""
    from repro.obs import RENDERERS, FidelitySuite

    fmt = args.format or ("json" if args.json else "md")
    suite = FidelitySuite()
    report = suite.run()
    if fmt == "json":
        document = report.as_dict()
        document["exit_status"] = 0
        json.dump(document, sys.stdout, indent=2, sort_keys=False)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(RENDERERS[fmt](report))
    if args.metrics_json:
        _write_json(args.metrics_json, report.metrics)
    return 0


@_writes
def _run_bench(writer: OutputWriter, args) -> int:
    """Run the bench kernels, extend the history, gate on regressions."""
    from repro.obs import run_benchmarks

    current = run_benchmarks(args.repeats)
    writer.rows(
        "bench kernels",
        current["kernels"],
        [
            f"  {k['name']:12s} {k['sim_cycles']:5d} cycles  "
            f"{k['sim_energy_pj']:10.1f} pJ  "
            f"{k['wall_seconds_min'] * 1e3:7.2f} ms"
            for k in current["kernels"]
        ],
    )

    return _gate(writer, args, current, "bench", "BENCH_history.jsonl", 12)


def _gate(
    writer, args, current, name: str, default_history: str, width: int
) -> int:
    """The bench/loadbench history and regression gate.

    With ``--compare BASELINE`` a regression verdict exits 1; without
    it, the drift against the last history entry is reported but never
    gated on. Then the history is extended (unless ``--no-history``)
    and ``--bench-out`` written.
    """
    import time

    from repro.obs import BenchHistory, RegressionDetector, load_baseline

    history_path = args.history or default_history
    if args.compare:
        baseline = load_baseline(args.compare)
        if baseline is None:
            raise SystemExit(
                f"--compare baseline {args.compare!r} does not exist"
            )
        baseline_source = args.compare
    else:
        baseline = (
            BenchHistory(history_path).last()
            if not args.no_history
            else None
        )
        baseline_source = history_path if baseline is not None else None

    code = EXIT_OK
    if baseline is not None:
        detector = RegressionDetector(wall_tolerance=args.wall_tolerance)
        comparison = detector.compare(current, baseline)
        writer.rows(
            f"{name} comparison",
            [c.as_dict() for c in comparison.comparisons],
            [
                f"  {c.kernel:{width}s} {c.metric:18s} "
                f"{c.verdict.value:9s} {c.note}"
                for c in comparison.comparisons
                if c.verdict.value != "unchanged"
            ]
            or ["  all metrics unchanged"],
        )
        summary = comparison.summary()
        summary["baseline"] = baseline_source
        writer.section(f"{name} verdicts", summary)
        if args.compare and comparison.has_regression:
            code = EXIT_ERROR
            writer.line(
                f"\n{name} regressed vs baseline", regressed=True
            )

    if not args.no_history:
        BenchHistory(history_path).append(
            current, meta={"recorded_unix": int(time.time())}
        )
    if args.bench_out:
        _write_json(args.bench_out, current)
    return code


@_writes
def _run_loadbench(writer: OutputWriter, args) -> int:
    """Closed-loop service load bench + latency regression gate.

    Mirrors :func:`_run_bench`'s history/compare contract, but the
    document under test is the ``coruscant-loadbench/1`` service-level
    one: sustained req/s plus p50/p90/p99 request latency, produced by
    a deterministic seeded schedule against the in-process gateway.
    """
    from repro.obs import run_loadbench

    slo_engine = None
    if args.slo:
        from repro.obs.slo import SloEngine

        slo_engine = SloEngine(burn_threshold=args.slo_burn_threshold)
    with _service_telemetry(args.event_log) as telemetry:
        client = None
        if telemetry is not None:
            from repro.service.client import ServiceClient
            from repro.service.gateway import Gateway

            client = ServiceClient(
                gateway=Gateway(
                    workers=args.concurrency, telemetry=telemetry
                )
            )
            client.start()
        try:
            current = run_loadbench(
                profile=args.profile,
                requests=args.requests,
                seed=args.seed,
                concurrency=args.concurrency,
                duration=args.duration,
                budget_s=args.default_budget_s,
                client=client,
                slo_engine=slo_engine,
                slo_step=args.slo_step,
            )
        finally:
            if client is not None:
                client.close()

    writer.meta(schema=current["schema"])
    writer.section(
        "loadbench",
        {
            "profile": current["profile"],
            "seed": current["seed"],
            "concurrency": current["concurrency"],
            "requests_scheduled": current["requests_scheduled"],
            "requests_completed": current["requests_completed"],
            "requests_skipped": current["requests_skipped"],
            "requests_failed": current["requests_failed"],
            "statuses": current["statuses"],
            "elapsed_seconds": round(current["elapsed_seconds"], 3),
            "throughput_rps": round(current["throughput_rps"], 2),
        },
    )
    writer.rows(
        "loadbench latency",
        current["kernels"],
        [
            f"  {k['name']:22s} n={k.get('requests', 0):4d}  "
            f"min {k['wall_seconds_min'] * 1e3:7.2f} ms  "
            f"p50 {k['wall_seconds_median'] * 1e3:7.2f} ms  "
            f"p90 {k.get('wall_seconds_p90', 0.0) * 1e3:7.2f} ms  "
            f"p99 {k.get('wall_seconds_p99', 0.0) * 1e3:7.2f} ms"
            for k in current["kernels"]
        ],
    )

    code = _gate(
        writer, args, current, "loadbench", "LOADBENCH_history.jsonl", 22
    )
    if current["requests_failed"]:
        writer.line(
            f"\n{current['requests_failed']} request(s) failed "
            "(status not ok/degraded)",
            failed=current["requests_failed"],
        )
        if code == EXIT_OK:
            code = EXIT_DEGRADED

    if args.slo and "slo" in current:
        report = current["slo"]["report"]
        writer.rows(
            "slo",
            report["slos"],
            [
                "  {name:14s} compliance {compliance}  "
                "burn fast {fast:.3f} / slow {slow:.3f}  {status}".format(
                    name=entry["name"],
                    compliance=(
                        f"{entry['compliance']:.4f}"
                        if entry["compliance"] is not None
                        else "n/a"
                    ),
                    fast=entry["burn_rate_fast"],
                    slow=entry["burn_rate_slow"],
                    status=entry["status"],
                )
                for entry in report["slos"]
            ],
        )
        violated = report["burning"] or any(
            entry["compliance"] is not None
            and entry["compliance"] < entry["objective"]
            for entry in report["slos"]
        )
        if violated:
            writer.line(
                "\nSLO violated (error budget burning or compliance "
                "below objective)",
                slo_violated=True,
            )
            if code == EXIT_OK:
                code = EXIT_DEGRADED
    return code


def _demo_system(trd: int, **options):
    """The 64-track system the add, mult and trace commands run on."""
    from repro import CoruscantSystem, MemoryGeometry

    return CoruscantSystem(
        trd=trd, geometry=MemoryGeometry(tracks_per_dbc=64), **options
    )


@_writes
def _run_add(writer: OutputWriter, args) -> int:
    values, trd = [args.first, *args.rest], args.trd
    n_bits = max(8, max(values).bit_length())
    try:
        result = _demo_system(trd).add(values, n_bits=n_bits)
    except ValueError as exc:  # operands the 64-track DBC cannot hold
        args.parser.error(str(exc))
    writer.line(
        f"{' + '.join(map(str, values))} = {result.value} "
        f"[{result.cycles} cycles, TRD={trd}]",
        operands=values,
        value=result.value,
        cycles=result.cycles,
        trd=trd,
    )
    return EXIT_OK


@_writes
def _run_mult(writer: OutputWriter, args) -> int:
    a, b, trd = args.a, args.b, args.trd
    n_bits = max(8, a.bit_length(), b.bit_length())
    try:
        result = _demo_system(trd).multiply(a, b, n_bits=n_bits)
    except ValueError as exc:  # operands the 64-track DBC cannot hold
        args.parser.error(str(exc))
    writer.line(
        f"{a} * {b} = {result.value} "
        f"[{result.cycles} cycles, TRD={trd}, {result.breakdown}]",
        a=a,
        b=b,
        value=result.value,
        cycles=result.cycles,
        trd=trd,
        breakdown=result.breakdown,
    )
    return EXIT_OK


# The stack-wide exit-code contract lives in repro.exitcodes (0 ok,
# 1 error, 2 usage, 3 degraded). The campaign/mc names below are the
# command-specific readings of codes 1 and 3: EXIT_UNCORRECTABLE flags
# a completed campaign whose recovery ladder still let faults through;
# EXIT_INCOMPLETE_SHARDS flags a sharded run that had to degrade to a
# partial report (some shard exhausted its retries).
EXIT_UNCORRECTABLE = EXIT_ERROR
EXIT_INCOMPLETE_SHARDS = EXIT_DEGRADED


def _campaign_config(args):
    from repro.reliability.campaign import CampaignConfig

    return CampaignConfig(
        ops=args.ops,
        tr_fault_rate=args.fault_rate,
        shift_fault_rate=args.shift_fault_rate,
        trd=args.trd,
        seed=args.seed,
        recovery=args.resilience,
        scrub_interval=args.scrub_interval,
        adaptive=args.adaptive,
        storm_ops=args.storm_ops,
        calm_tr_fault_rate=args.calm_fault_rate,
        calm_shift_fault_rate=args.calm_shift_fault_rate,
        storage_rows=args.storage_rows,
    )


def _run_sharded_campaign(writer: OutputWriter, args, telemetry) -> int:
    from repro.reliability.sharded import (
        CAMPAIGN_SCHEMA,
        run_sharded_campaign,
    )

    config = _campaign_config(args)
    result = run_sharded_campaign(
        config,
        shards=args.shards or 1,
        journal_dir=args.journal,
        workers=args.workers,
        shard_timeout=args.shard_timeout,
        max_shard_retries=args.max_shard_retries,
        checkpoint_every=args.checkpoint_every,
        telemetry=telemetry,
        crash=args.inject_worker_crash,
    )
    summaries = result.shard_summaries()
    writer.meta(schema=CAMPAIGN_SCHEMA, config=result.report["config"])
    writer.section("Sharded campaign (merged)", result.report["merged"])
    writer.rows(
        "shards",
        summaries,
        [
            f"  shard {s['shard']}: ops [{s['start']},{s['stop']})  "
            f"injected {s['injected']}  escaped {s['escaped']}  "
            f"retries {s['retries']}  "
            f"attempts {s['supervisor_attempts']}  "
            f"{s['wall_seconds']:.2f}s"
            for s in summaries
        ],
    )
    writer.rows(
        "supervisor attempts",
        [a.as_dict() for a in result.attempts],
        [
            f"  shard {a.shard} attempt {a.attempt}: {a.status} "
            f"({a.wall_seconds:.2f}s)"
            for a in result.attempts
        ],
    )
    exit_code = 0
    if not result.complete:
        _incomplete_rows(writer, result)
        writer.line(
            "\ncampaign degraded to a partial report "
            f"(incomplete shards: {result.incomplete_shards})",
            incomplete_shards=result.incomplete_shards,
        )
        exit_code = EXIT_INCOMPLETE_SHARDS
    elif (
        config.recovery
        and result.report["merged"].get("uncorrectable", 0) > 0
    ):
        writer.line(
            "\ncampaign ended with uncorrectable faults",
            uncorrectable_exit=True,
        )
        exit_code = EXIT_UNCORRECTABLE
    if args.journal:
        writer.line(
            f"\nmerged report -> {args.journal}/report.json",
            report_path=f"{args.journal}/report.json",
        )
    return exit_code


@contextlib.contextmanager
def _shard_telemetry(args, sharded: bool):
    """The hub for a campaign/mc run, per the telemetry flags.

    Yields None unless ``--metrics-json`` or ``--event-log`` asked for
    instrumentation. Unsharded runs stamp ``shard_id: 0`` onto every
    event record via the log's common fields; sharded supervisors emit
    shard lifecycle records that already carry their ``shard_id``
    explicitly. Closes the event log on the way out, then writes
    ``--metrics-json`` if the run completed.
    """
    if not (args.metrics_json or args.event_log):
        yield None
        return
    from repro.telemetry import TelemetryHub

    event_log = None
    if args.event_log:
        from repro.telemetry import EventLog, JsonlSink

        event_log = EventLog(
            JsonlSink(args.event_log),
            common=None if sharded else {"shard_id": 0},
        )
    hub = TelemetryHub(events=event_log)
    try:
        yield hub
    finally:
        if event_log is not None:
            event_log.close()
    if args.metrics_json:
        _write_json(args.metrics_json, hub.metrics_dict())


@contextlib.contextmanager
def _service_telemetry(path):
    """A traced hub streaming service events to ``path``, if given."""
    if not path:
        yield None
        return
    from repro.telemetry import EventLog, JsonlSink, TelemetryHub, Tracer

    event_log = EventLog(JsonlSink(path))
    try:
        yield TelemetryHub(tracer=Tracer(max_roots=4096), events=event_log)
    finally:
        event_log.close()


@_writes
def _run_mc(writer: OutputWriter, args) -> int:
    from repro.reliability.sharded import MC_SCHEMA, run_sharded_mc

    kind = args.kind
    if (args.shards or 1) > args.trials:
        args.parser.error(
            f"cannot split {args.trials} trials into {args.shards} shards"
        )
    with _shard_telemetry(args, sharded=True) as telemetry:
        result = run_sharded_mc(
            kind,
            trials=args.trials,
            shards=args.shards or 1,
            fault_rate=args.fault_rate,
            trd=args.trd,
            seed=args.seed,
            journal_dir=args.journal,
            workers=args.workers,
            shard_timeout=args.shard_timeout,
            max_shard_retries=args.max_shard_retries,
            checkpoint_every=args.checkpoint_every,
            telemetry=telemetry,
        )
    summaries = result.shard_summaries()
    writer.meta(schema=MC_SCHEMA, config=result.report["config"])
    writer.section(f"Monte Carlo ({kind}, merged)", result.report["merged"])
    writer.rows(
        "shards",
        summaries,
        [
            f"  shard {s['shard']}: trials [{s['start']},{s['stop']})  "
            f"errors {s['errors']}  "
            f"attempts {s['supervisor_attempts']}  "
            f"{s['wall_seconds']:.2f}s"
            for s in summaries
        ],
    )
    if not result.complete:
        _incomplete_rows(writer, result)
        return EXIT_INCOMPLETE_SHARDS
    return 0


def _incomplete_rows(writer: OutputWriter, result) -> None:
    incomplete = result.report["incomplete_shards"]
    writer.rows(
        "incomplete shards",
        incomplete,
        [f"  shard {e['shard']}: {e['reason']}" for e in incomplete],
    )


@_writes
def _run_campaign(writer: OutputWriter, args) -> int:
    """Fault campaign: sharded (``--shards``/``--journal``) or local."""
    error = args.parser.error
    sharded = args.shards is not None or bool(args.journal)
    if args.adaptive and not args.resilience:
        error("--adaptive requires the resilient layer "
              "(drop --no-resilience)")
    if sharded and args.checkpoint:
        error("sharded campaigns journal per shard; use "
              "--journal DIR instead of --checkpoint")
    if sharded and args.stop_after is not None:
        error("--stop-after is the single-process crash stand-in; "
              "sharded runs are interrupted per worker instead")
    if (args.shards or 1) > args.ops:
        error(f"cannot split {args.ops} ops into {args.shards} shards")
    if args.inject_worker_crash is not None:
        if not sharded:
            error("--inject-worker-crash requires a sharded run "
                  "(--shards N)")
        if args.workers == 0:
            error("--inject-worker-crash needs worker processes "
                  "(--workers >= 1); in-process shards cannot be killed")
    run = _run_sharded_campaign if sharded else _run_local_campaign
    with _shard_telemetry(args, sharded=sharded) as telemetry:
        return run(writer, args, telemetry)


def _run_local_campaign(writer: OutputWriter, args, telemetry) -> int:
    from repro.reliability.campaign import (
        run_add_campaign,
        run_recovery_comparison,
    )

    config = _campaign_config(args)
    if args.checkpoint:
        # Journaled (and resumable) runs are single-leg: a bare baseline
        # sharing the journal would corrupt the resume stream.
        name = "recovery_on" if config.recovery else "recovery_off"
        runs = {
            name: run_add_campaign(
                config,
                checkpoint_path=args.checkpoint,
                checkpoint_every=args.checkpoint_every,
                stop_after=args.stop_after,
                telemetry=telemetry,
            )
        }
    elif args.resilience:
        runs = run_recovery_comparison(config, telemetry=telemetry)
    else:
        runs = {
            "recovery_off": run_add_campaign(config, telemetry=telemetry)
        }
    from repro.reliability.sharded import CAMPAIGN_SCHEMA

    writer.meta(schema=CAMPAIGN_SCHEMA)
    exit_code = 0
    for name, result in runs.items():
        writer.section(f"Fault campaign ({name})", result.summary())
        if result.recovery and result.uncorrectable > 0:
            exit_code = EXIT_UNCORRECTABLE
    if exit_code:
        writer.line(
            "\ncampaign ended with uncorrectable faults",
            uncorrectable_exit=True,
        )
    return exit_code


# ----------------------------------------------------------------------
# trace command

_TRACE_KERNELS = ("add", "mult", "max", "bulk")


@_writes
def _run_trace(writer: OutputWriter, args) -> int:
    """Trace one kernel end to end and write a Chrome trace file."""
    from repro.core.addition import MultiOperandAdder
    from repro.core.isa import Address, CpimInstruction, CpimOp
    from repro.core.pim_logic import BulkOp
    from repro.telemetry import TelemetryHub, write_chrome_trace

    kernel = args.kernel
    hub = TelemetryHub()
    system = _demo_system(args.trd, resilience=True, telemetry=hub)
    if kernel == "mult":
        result = system.multiply(173, 219, n_bits=8)
        outcome = {"value": result.value, "cycles": result.cycles}
    elif kernel == "add":
        # Dispatch through the controller so the trace shows the full
        # resilience.op > cpim.add > add.walk nesting.
        dbc = system.pim_dbc()
        adder = MultiOperandAdder(dbc)
        words = [13, 200, 7, 31, 42][: adder.max_operands]
        adder.stage_words(words, 8, zero_extend_to=16)
        address = Address(bank=0, subarray=0, tile=0, dbc=0, row=0)
        result = system.execute(
            CpimInstruction(
                op=CpimOp.ADD,
                blocksize=16,
                src=address,
                dest=address,
                operands=len(words),
            )
        )
        outcome = {"value": result.values[0], "cycles": result.cycles}
    elif kernel == "max":
        result = system.maximum([13, 200, 7, 31, 42], n_bits=8)
        outcome = {"value": result.value, "cycles": result.cycles}
    else:  # bulk
        rows = [[1, 0, 1, 1, 0, 0, 1, 0], [1, 1, 0, 1, 0, 1, 1, 0]]
        result = system.bulk_op(BulkOp.AND, rows)
        outcome = {"cycles": result.cycles}
    document = write_chrome_trace(hub.tracer, args.out)
    writer.line(
        f"traced kernel {kernel!r}: {hub.tracer.span_count()} spans "
        f"-> {args.out} ({len(document['traceEvents'])} events)",
        kernel=kernel,
        out=args.out,
        spans=hub.tracer.span_count(),
        events=len(document["traceEvents"]),
        **outcome,
    )
    if args.metrics_json:
        _write_json(args.metrics_json, hub.metrics_dict())
        writer.line(
            f"metrics -> {args.metrics_json}", metrics_json=args.metrics_json
        )
    return 0


def _write_json(path: str, document: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_serve(args) -> int:
    """The resilient kernel gateway: serve until a signal drains us.

    Exit codes follow :mod:`repro.exitcodes`: 0 after a clean drain
    (SIGTERM/SIGINT landed every admitted request), 1 on a hard
    failure, 2 for bad flags (argparse), 3 if the drain had to shed
    deadline-expired work on the way out.
    """
    import asyncio

    from repro.service.admission import AdmissionPolicy
    from repro.service.breaker import RequestBreakerConfig
    from repro.service.dispatch import RetryConfig
    from repro.service.gateway import (
        Gateway,
        parse_profile_specs,
        run_gateway,
    )

    try:
        profiles = parse_profile_specs(args.profile)
    except ValueError as exc:
        args.parser.error(str(exc))

    def announce(host: str, port: int) -> None:
        print(f"serving on http://{host}:{port}", flush=True)
        if args.port_file:
            with open(args.port_file, "w") as handle:
                handle.write(f"{port}\n")

    with _service_telemetry(args.event_log) as telemetry:
        gateway = Gateway(
            profiles=profiles,
            host=args.host,
            port=args.port,
            admission=AdmissionPolicy(
                capacity=args.queue_capacity,
                high_reserve=args.high_reserve,
            ),
            breaker=RequestBreakerConfig(
                open_seconds=args.breaker_open_seconds
            ),
            retry=RetryConfig(attempts=args.retry_attempts, seed=args.seed),
            workers=args.workers,
            default_budget_s=args.default_budget_s,
            telemetry=telemetry,
            enable_profiling=args.enable_profiling,
        )
        try:
            asyncio.run(run_gateway(gateway, announce))
        except OSError as exc:
            print(f"serve failed: {exc}", file=sys.stderr)
            return EXIT_ERROR
    dropped = sum(d.dropped for d in gateway.dispatchers.values())
    if dropped:
        # Should be unreachable — the drain path has no drop branch —
        # but if it ever regresses the exit code must say degraded.
        print(f"drain dropped {dropped} request(s)", file=sys.stderr)
        return EXIT_DEGRADED
    print("drained clean", flush=True)
    return EXIT_OK


# ----------------------------------------------------------------------
# continuous profiling + SLO commands


def _run_profile(args) -> int:
    """``repro profile <command> ...``: wrap any command in the profiler.

    Wall mode samples every ``--profile-interval-ms`` milliseconds via
    the background :class:`SamplingProfiler`; ``--virtual-clock``
    instead derives deterministic folded stacks from the simulated span
    tree plus the ``device.<op>.cycles`` counters after the wrapped
    command finishes, so two identical invocations produce bit-identical
    folded output.
    """
    from repro.telemetry import TelemetryHub, runtime
    from repro.telemetry.profiler import (
        SamplingProfiler,
        fold_tracer,
        profile_document,
        render_collapsed,
        speedscope_document,
        top_frames,
    )

    hub = TelemetryHub()
    interval_s = args.profile_interval_ms / 1000.0
    with runtime.activated(hub):
        if args.virtual_clock:
            code = args.run_wrapped(args)
            folded = fold_tracer(hub.tracer, hub.metrics)
            document = profile_document(folded, mode="virtual")
            speedscope = speedscope_document(
                folded, name=f"repro {args.wrapped} (virtual)"
            )
        else:
            profiler = SamplingProfiler(
                interval_s=interval_s, tracer=hub.tracer
            )
            profiler.start()
            try:
                code = args.run_wrapped(args)
            finally:
                profiler.stop()
            folded = profiler.folded()
            document = profiler.document(mode="wall")
            speedscope = speedscope_document(
                folded, name=f"repro {args.wrapped}", interval_s=interval_s
            )

    _write_json(args.profile_out, speedscope)
    if args.folded_out:
        with open(args.folded_out, "w", encoding="utf-8") as fh:
            fh.write(render_collapsed(folded))
    if args.profile_record:
        with open(args.profile_record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(document, sort_keys=True) + "\n")

    mode = "virtual" if args.virtual_clock else "wall"
    print(
        f"profile ({mode}): {document['samples']} samples over "
        f"{len(folded)} stacks -> {args.profile_out}",
        file=sys.stderr,
    )
    for frame, weight in top_frames(folded, limit=5):
        print(f"  {weight:>12d}  {frame}", file=sys.stderr)
    return code


def _run_slo(args) -> int:
    """``repro slo``: burn-rate report over the loadbench history.

    Replays every history entry through the SLO engine on the virtual
    request clock and exits 3 (degraded) while any objective is
    burning, 0 otherwise.
    """
    from repro.obs import BenchHistory
    from repro.obs.slo import (
        evaluate_history,
        render_slo_markdown,
        slo_exit_code,
    )

    fmt = args.format or ("json" if args.json else "md")
    history_path = args.history or "LOADBENCH_history.jsonl"
    documents = [
        entry["bench"] for entry in BenchHistory(history_path).load()
    ]
    report = evaluate_history(
        documents,
        burn_threshold=args.slo_burn_threshold,
        virtual_step_s=args.slo_step,
    )
    report["history"] = history_path
    code = slo_exit_code(report)
    if fmt == "json":
        report["exit_status"] = code
        json.dump(report, sys.stdout, indent=2, sort_keys=False)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(render_slo_markdown(report))
    return code


def _run_chaos(args) -> int:
    """``repro chaos``: seed-reproducible service-stack fault campaign.

    Compiles a deterministic fault timeline, drives the loadgen mix
    against an in-process gateway while the faults fire, then crashes,
    recovers, and replays the request journal. Exits 3 the moment any
    steady-state invariant is red, 0 when all are green. The report
    (schema ``coruscant-chaos/1``) is byte-identical across runs of the
    same seed/flags.
    """
    from repro.chaos.campaign import run_campaign

    report = run_campaign(
        seed=args.seed,
        fault_specs=args.faults,
        duration_ops=args.duration_ops,
        journal_dir=args.journal,
        load_profile=args.profile,
        inject_violation=args.inject_invariant_violation,
    )
    code = EXIT_OK if report["ok"] else EXIT_DEGRADED
    if args.report_out:
        # The canonical byte form: two runs of the same seed/flags
        # write identical files (CI compares them with cmp).
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, sort_keys=True) + "\n")
    if args.json:
        report["exit_status"] = code
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return code
    fired = len(report["fired"])
    print(
        f"chaos campaign: seed={args.seed} "
        f"ops={args.duration_ops} mix={args.profile} "
        f"faults={fired} fired / {len(report['unfired'])} unfired"
    )
    journal = report["journal"]
    print(
        f"journal: {journal['phase_a']['intents']} intents, "
        f"{journal['acked_on_disk']} acks on disk, "
        f"{journal['recovered']['torn_records']} torn records, "
        f"{report['replay']['count']} replayed after restart, "
        f"{report['resubmits']['count']} idempotent resubmits"
    )
    for invariant in report["invariants"]:
        mark = "PASS" if invariant["ok"] else "FAIL"
        print(f"  [{mark}] {invariant['name']}")
        if not invariant["ok"]:
            print(f"         {invariant['detail']}")
    print("all invariants green" if report["ok"]
          else "INVARIANT VIOLATION — exiting 3")
    return code


# ----------------------------------------------------------------------
# argument types: a rejected value raises ArgumentTypeError, which
# argparse reports as a usage error (exit 2) naming the flag


def _checked(convert: Callable[[str], Any], accept, requirement: str):
    """An argparse ``type=``: ``convert`` the text, then ``accept`` it."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if accept(value):
                return value
        raise argparse.ArgumentTypeError(
            f"must be {requirement}, got {text!r}"
        )

    return parse


positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
nonneg_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
positive_float = _checked(float, lambda v: v > 0, "a number > 0")
nonneg_float = _checked(float, lambda v: v >= 0, "a number >= 0")
probability = _checked(
    float, lambda v: 0.0 <= v <= 1.0, "a probability in [0, 1]"
)
nonzero_probability = _checked(
    float, lambda v: 0.0 < v <= 1.0, "a probability in (0, 1]"
)
tcp_port = _checked(int, lambda v: 0 <= v <= 65535, "a port in [0, 65535]")

_CRASH_SPEC = re.compile(r"(\d+):(\d+)(?::(kill|hang|kill-always))?")


def crash_spec(text: str) -> Dict[str, Any]:
    """``SHARD:OP[:MODE]`` -> the sharded runner's crash dict."""
    match = _CRASH_SPEC.fullmatch(text)
    if match is None:
        raise argparse.ArgumentTypeError(
            "wants SHARD:OP[:MODE] with MODE kill, hang or kill-always, "
            f"got {text!r}"
        )
    shard, op, mode = match.groups()
    crash = {"shard": int(shard), "at_op": int(op)}
    if mode:
        crash["mode"] = mode
    return crash


def _lazy_choice(module: str, table: str, what: str):
    """A ``type=`` that checks a name against ``module.table``.

    The module is imported only when a value is parsed, so building the
    parser (which every ``serve`` start does) stays cheap.
    """

    def parse(name: str) -> str:
        names = getattr(importlib.import_module(module), table)
        if name not in names:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {name!r}; "
                f"pick one of {', '.join(sorted(names))}"
            )
        return name

    return parse


load_mix = _lazy_choice("repro.obs.loadgen", "LOAD_PROFILES", "load profile")
mc_kind = _lazy_choice("repro.reliability.sharded", "MC_KINDS", "mc kind")


def fault_specs(text: str):
    """Chaos ``--faults``: comma-joined ``kind:count[@param]`` specs."""
    from repro.chaos.faults import parse_fault_specs

    try:
        return parse_fault_specs(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# ----------------------------------------------------------------------
# the parser


def _flag_groups() -> Dict[str, argparse.ArgumentParser]:
    """Flag groups several commands read, as argparse parent parsers."""
    groups = {
        name: argparse.ArgumentParser(add_help=False)
        for name in (
            "output", "metrics", "trd", "seed", "event_log", "budget",
            "mix", "sharding", "history", "gate", "slo",
        )
    }
    groups["output"].add_argument(
        "--json", action="store_true",
        help="emit the command's result as one JSON document on stdout",
    )
    groups["metrics"].add_argument(
        "--metrics-json", metavar="PATH",
        help="dump the telemetry metrics registry gathered while the "
             "command ran to PATH (trace, campaign, report)",
    )
    groups["trd"].add_argument(
        "--trd", type=int, default=7, choices=(3, 5, 7),
        help="transverse read distance (default 7)",
    )
    groups["seed"].add_argument(
        "--seed", type=int, default=0, help="campaign RNG seed",
    )
    groups["event_log"].add_argument(
        "--event-log", metavar="PATH",
        help="serve/loadbench/campaign/mc: write the structured "
             "coruscant-events/1 JSONL event stream (size-rotated) to "
             "PATH; campaign/mc records carry a shard_id",
    )
    groups["budget"].add_argument(
        "--default-budget-s", type=positive_float, default=10.0,
        metavar="SECONDS",
        help="serve: deadline budget for requests that do not carry "
             "one (default 10)",
    )
    groups["mix"].add_argument(
        "--profile", type=load_mix, default="mixed", metavar="NAME",
        help="the load-mix name (mixed, arithmetic, analytics; "
             "default mixed)",
    )

    groups["sharding"].add_argument(
        "--shards", type=positive_int, metavar="N",
        help="split the campaign/mc run into N supervised worker "
             "processes with per-shard journals and a merged report "
             "bit-identical to the single-process run",
    )
    groups["sharding"].add_argument(
        "--workers", type=nonneg_int, metavar="N",
        help="worker processes per wave for sharded runs (default: one "
             "per shard; 0 runs the shards sequentially in-process)",
    )
    groups["sharding"].add_argument(
        "--journal", metavar="DIR",
        help="directory for per-shard journals (journal.shard-K.json) "
             "and the merged report.json; shards resume from it",
    )
    groups["sharding"].add_argument(
        "--shard-timeout", type=positive_float, metavar="SECONDS",
        help="kill and retry a shard worker that runs longer than this",
    )
    groups["sharding"].add_argument(
        "--max-shard-retries", type=nonneg_int, default=2, metavar="R",
        help="retries per shard before the run degrades to a partial "
             "report (default 2); exhausted shards are listed in "
             "incomplete_shards and the command exits 3",
    )
    groups["sharding"].add_argument(
        "--checkpoint-every", type=positive_int, default=100, metavar="OPS",
        help="ops between journal writes (default 100)",
    )

    groups["history"].add_argument(
        "--history", metavar="PATH",
        help="history JSONL the bench/loadbench commands append to "
             "and, without --compare, report drift against (defaults: "
             "BENCH_history.jsonl for bench, LOADBENCH_history.jsonl "
             "for loadbench)",
    )
    groups["gate"].add_argument(
        "--no-history", action="store_true",
        help="neither read nor extend the bench history file",
    )
    groups["gate"].add_argument(
        "--compare", metavar="BASELINE",
        help="gate the bench run against BASELINE (a bench history "
             "JSONL or one BENCH_pim_ops.json document); exits 1 on "
             "any regression verdict",
    )
    groups["gate"].add_argument(
        "--bench-out", metavar="PATH",
        help="also write the bench document to PATH",
    )
    groups["gate"].add_argument(
        "--wall-tolerance", type=nonneg_float, default=0.25, metavar="FRAC",
        help="relative wall-clock noise band for bench verdicts "
             "(default 0.25)",
    )

    groups["slo"].add_argument(
        "--slo-burn-threshold", type=positive_float, default=14.4, metavar="X",
        help="slo/loadbench: multi-window burn-rate alert threshold "
             "(default 14.4, the SRE fast-page value)",
    )
    groups["slo"].add_argument(
        "--slo-step", type=positive_float, default=6.0, metavar="SECONDS",
        help="slo/loadbench: virtual seconds per completed request "
             "(default 6; 50 requests = one fast window)",
    )

    return groups


def _add_commands(
    commands,
    key: str,
    groups: Dict[str, argparse.ArgumentParser],
    extra: List[argparse.ArgumentParser],
) -> None:
    """Add every command but ``profile`` to the ``commands`` subparsers.

    A command's runner lands in the namespace attribute ``key``, its
    subparser in ``parser`` (for the ``parser.error`` checks across
    flags). It takes the flag ``groups`` it names plus ``extra``.
    """

    def command(name, run, help, *group_names, **defaults):
        sub = commands.add_parser(
            name,
            help=help,
            description=help,
            parents=[*(groups[g] for g in group_names), *extra],
        )
        sub.set_defaults(parser=sub, **{key: run}, **defaults)
        return sub

    for name, run in _EXPERIMENTS.items():
        if name != "report":  # the scoreboard command is below
            command(
                name, _run_experiment, run.__doc__, "output", "metrics",
                experiment=run,
            )

    report = command(
        "report", _run_report_command,
        "reproduction-fidelity scoreboard", "output", "metrics",
    )
    report.add_argument(
        "--format", choices=("md", "html", "json"),
        help="scoreboard format for the report command (default md)",
    )

    command("all", _run_all, "every table and figure", "output")

    add = command(
        "add", _run_add, "one PIM addition with its cycle cost",
        "output", "trd",
    )
    add.add_argument("first", type=nonneg_int, metavar="OPERAND")
    add.add_argument(
        "rest", type=nonneg_int, nargs="+", metavar="OPERAND",
        help="non-negative integers to add (at least two)",
    )

    mult = command(
        "mult", _run_mult, "one PIM multiplication with its cycle cost",
        "output", "trd",
    )
    mult.add_argument("a", type=nonneg_int, metavar="A")
    mult.add_argument(
        "b", type=nonneg_int, metavar="B",
        help="the two non-negative integers to multiply",
    )

    campaign = command(
        "campaign", _run_campaign,
        "fault campaign, recovery on vs off (sharded with --shards or "
        "--journal)",
        "output", "metrics", "trd", "seed", "event_log", "sharding",
    )
    campaign.add_argument(
        "--fault-rate", type=probability, default=1e-3,
        help="injected per-TR fault probability for campaigns",
    )
    campaign.add_argument(
        "--shift-fault-rate", type=probability, default=0.0,
        help="injected per-shift fault probability for campaigns",
    )
    campaign.add_argument(
        "--resilience", action=argparse.BooleanOptionalAction, default=True,
        help="run campaigns under the resilient execution layer "
             "(default; prints the unprotected baseline alongside); "
             "--no-resilience runs them bare: faults silently corrupt "
             "results",
    )
    campaign.add_argument(
        "--ops", type=positive_int, default=1000,
        help="operations per campaign (default 1000)",
    )
    campaign.add_argument(
        "--scrub-interval", type=positive_int, metavar="OPS",
        help="proactively scrub every N memory operations (campaigns)",
    )
    campaign.add_argument(
        "--adaptive", action="store_true",
        help="adaptive BARE->VOTED->NMR protection ladder per DBC "
             "(campaigns; requires resilience)",
    )
    campaign.add_argument(
        "--checkpoint", metavar="PATH",
        help="journal campaign state to PATH; resumes from it if present "
             "(single-process runs; sharded runs use --journal DIR)",
    )
    campaign.add_argument(
        "--inject-worker-crash", type=crash_spec, metavar="SHARD:OP[:MODE]",
        help="test/CI hook: SIGKILL (kill), hang (hang), or repeatedly "
             "kill (kill-always) the worker of SHARD at global op OP",
    )
    campaign.add_argument(
        "--stop-after", type=nonneg_int, metavar="OPS",
        help="run at most N ops this invocation (resume later from the "
             "journal)",
    )
    campaign.add_argument(
        "--storm-ops", type=nonneg_int, metavar="OPS",
        help="after N ops drop the injected rates to the calm rates",
    )
    campaign.add_argument(
        "--calm-fault-rate", type=probability, default=0.0,
        help="per-TR fault probability after the storm (default 0)",
    )
    campaign.add_argument(
        "--calm-shift-fault-rate", type=probability, default=0.0,
        help="per-shift fault probability after the storm (default 0)",
    )
    campaign.add_argument(
        "--storage-rows", type=nonneg_int, default=0, metavar="N",
        help="also drive validated regular reads/writes over N storage "
             "rows (exercises the scrubber)",
    )

    mc = command(
        "mc", _run_mc, "Monte Carlo fault-injection trials, sharded",
        "output", "metrics", "trd", "seed", "event_log", "sharding",
    )
    mc.add_argument(
        "kind", type=mc_kind, nargs="?", default="additions", metavar="KIND",
        help="the trial kind (additions, multiplies, tmr_additions; "
             "default additions)",
    )
    mc.add_argument(
        "--fault-rate", type=nonzero_probability, default=1e-3,
        help="injected per-TR fault probability for campaigns",
    )
    mc.add_argument(
        "--trials", type=positive_int, default=1000, metavar="N",
        help="Monte Carlo trials for the mc command (default 1000)",
    )

    trace = command(
        "trace", _run_trace, "Chrome-trace one kernel end to end",
        "output", "metrics", "trd",
    )
    trace.add_argument(
        "kernel", nargs="?", default="mult", choices=_TRACE_KERNELS,
        help="the kernel to trace (default mult)",
    )
    trace.add_argument(
        "--out", metavar="PATH", default="trace.json",
        help="Chrome trace output path for the trace command "
             "(default trace.json)",
    )

    bench = command(
        "bench", _run_bench, "bench kernels + regression gate",
        "output", "history", "gate",
    )
    bench.add_argument(
        "--repeats", type=positive_int, default=3, metavar="N",
        help="wall-clock repeats per bench kernel (default 3)",
    )

    loadbench = command(
        "loadbench", _run_loadbench,
        "closed-loop service load bench + latency regression gate",
        "output", "seed", "event_log", "budget", "mix", "history", "gate",
        "slo",
    )
    loadbench.add_argument(
        "--requests", type=positive_int, default=50, metavar="N",
        help="loadbench: schedule length (default 50)",
    )
    loadbench.add_argument(
        "--duration", type=positive_float, metavar="SECONDS",
        help="loadbench: wall-clock cap; requests still unissued when "
             "it expires are counted as skipped (default: run the "
             "whole schedule)",
    )
    loadbench.add_argument(
        "--concurrency", type=positive_int, default=2, metavar="N",
        help="loadbench: closed-loop generator threads, each waiting "
             "for its previous response before issuing the next "
             "request (default 2)",
    )
    loadbench.add_argument(
        "--slo", action="store_true",
        help="loadbench: replay the run through the SLO burn-rate "
             "engine and exit 3 when an objective is violated",
    )

    serve = command(
        "serve", _run_serve, "the resilient kernel gateway",
        "seed", "event_log", "budget",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="serve: bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=tcp_port, default=0,
        help="serve: TCP port (default 0 = pick a free port)",
    )
    serve.add_argument(
        "--port-file", metavar="PATH",
        help="serve: write the bound port to PATH once listening "
             "(lets scripts use --port 0 races-free)",
    )
    serve.add_argument(
        "--profile", action="append", metavar="NAME[:k=v,...]",
        help="serve: add a device profile, e.g. "
             "storm:trd=7,tr_fault_rate=0.4 (repeatable; 'default' "
             "always exists)",
    )
    serve.add_argument(
        "--workers", type=positive_int, default=2, metavar="N",
        help="serve: worker systems per device profile (default 2)",
    )
    serve.add_argument(
        "--queue-capacity", type=positive_int, default=16, metavar="N",
        help="serve: per-kernel queue slots batch traffic may fill "
             "(default 16)",
    )
    serve.add_argument(
        "--high-reserve", type=nonneg_int, default=4, metavar="N",
        help="serve: extra queue slots only interactive requests may "
             "use (default 4)",
    )
    serve.add_argument(
        "--retry-attempts", type=positive_int, default=3, metavar="N",
        help="serve: tries per work item, 1 = no retry (default 3)",
    )
    serve.add_argument(
        "--breaker-open-seconds", type=positive_float, default=5.0,
        metavar="SECONDS",
        help="serve: wall-clock cooldown before an open breaker "
             "half-opens (default 5)",
    )
    serve.add_argument(
        "--enable-profiling", action="store_true",
        help="serve: allow POST /debug/profile/start|stop on the "
             "gateway (rejected 403 otherwise)",
    )

    slo_report = command(
        "slo", _run_slo,
        "multi-window SLO burn-rate report over the loadbench history",
        "output", "history", "slo",
    )
    slo_report.add_argument(
        "--format", choices=("md", "json"),
        help="report format (default md)",
    )

    chaos = command(
        "chaos", _run_chaos,
        "seed-reproducible service-stack chaos campaign",
        "output", "seed", "mix",
    )
    chaos.add_argument(
        "--faults", type=fault_specs, default="worker-crash:1,torn-wal:1",
        metavar="SPEC",
        help="chaos: comma-joined kind:count[@param] fault specs, e.g. "
             "worker-crash:2,torn-wal:2,kernel-latency:4@0.002 "
             "(default worker-crash:1,torn-wal:1)",
    )
    chaos.add_argument(
        "--duration-ops", type=positive_int, default=40, metavar="N",
        help="chaos: operations in the campaign's load schedule "
             "(default 40)",
    )
    chaos.add_argument(
        "--journal", metavar="DIR",
        help="chaos: directory for the request journal (default: a "
             "fresh temporary directory)",
    )
    chaos.add_argument(
        "--report-out", metavar="PATH",
        help="chaos: write the canonical coruscant-chaos/1 report "
             "(sorted-key JSON, byte-identical across runs of one "
             "seed) to PATH",
    )
    chaos.add_argument(
        "--inject-invariant-violation", action="store_true",
        help="chaos: CI hook — fabricate a lost acked request so the "
             "no-acked-request-lost invariant goes red and the command "
             "exits 3",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser: one subcommand per command.

    Every subcommand accepts only the flags its runner reads and checks
    their values as it parses them. ``profile`` nests a second copy of
    the command set whose subcommands also take the profiler's flags.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CORUSCANT processing-in-racetrack-memory simulator",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    groups = _flag_groups()
    _add_commands(commands, "run", groups, extra=[])

    profile = commands.add_parser(
        "profile",
        help="wrap another command in the sampling profiler",
        description="Run another repro command under the sampling "
                    "profiler; the profiler's flags follow the wrapped "
                    "command's own.",
    )
    profile.set_defaults(run=_run_profile)
    profiling = argparse.ArgumentParser(add_help=False)
    profiling.add_argument(
        "--profile-out", metavar="PATH", default="profile.speedscope.json",
        help="profile: speedscope JSON output path "
             "(default profile.speedscope.json)",
    )
    profiling.add_argument(
        "--folded-out", metavar="PATH",
        help="profile: also write collapsed-stack text "
             "(flamegraph.pl / speedscope import format) to PATH",
    )
    profiling.add_argument(
        "--profile-record", metavar="PATH",
        help="profile: append the coruscant-profile/1 JSONL record "
             "(folded stacks + phases + per-request ledger) to PATH",
    )
    profiling.add_argument(
        "--profile-interval-ms", type=positive_float, default=5.0,
        metavar="MS",
        help="profile: wall sampling interval in milliseconds "
             "(default 5)",
    )
    profiling.add_argument(
        "--virtual-clock", action="store_true",
        help="profile: derive deterministic folded stacks from the "
             "simulated span tree + device cycle counters instead of "
             "wall sampling (bit-identical across runs)",
    )
    _add_commands(
        profile.add_subparsers(dest="wrapped", required=True),
        "run_wrapped",
        groups,
        extra=[profiling],
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
