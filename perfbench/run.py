"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kernels-paper --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that prints the per-layer
metrics and writes its spans to ``.perfbench_run/``; it runs a fixed
piece of each workload, whatever ``--seconds`` says. Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in turn, each in its own
process, and prints each one's block as above.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"

WORKLOADS = {
    "kernels-paper": "perfbench.wl_kernels",
    "campaign-faults": "perfbench.wl_campaign",
    "service-http": "perfbench.wl_service",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def expected_metrics(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        m["name"]: m["unit"]
        for m in spec["per_layer" if trace else "end_to_end"]
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        codes = [
            subprocess.run(
                [
                    sys.executable, __file__, "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                ],
                check=False,
            ).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    expected = expected_metrics(bool(args.trace))
    module = importlib.import_module(WORKLOADS[args.workload])
    result = module.run(args.seed, args.seconds, bool(args.trace))

    produced = {name: unit for name, (_v, unit) in result.metrics.items()}
    if produced != expected:
        wrong_units = sorted(
            n for n in expected if produced.get(n, expected[n]) != expected[n]
        )
        print(
            "perfbench: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(produced))}, "
            f"extra {sorted(set(produced) - set(expected))}, "
            f"units {wrong_units}",
            file=sys.stderr,
        )
        return 1
    if result.spans is not None:
        RUN_DIR.mkdir(exist_ok=True)
        path = RUN_DIR / f"spans-{args.workload}.json"
        path.write_text(json.dumps(result.spans.chrome_trace()))
        result.report["spans_file"] = str(path.relative_to(ROOT))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name in expected:
        value, unit = result.metrics[name]
        print(f"  {name:<36} {value:>16.6f} {unit}")
    print("report " + json.dumps(result.report, sort_keys=True))
    for problem in result.problems:
        print(f"problem: {problem}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": result.metrics[name][0], "unit": unit}
                    for name, unit in expected.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
