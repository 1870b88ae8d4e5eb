"""Self-tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

They start the real workloads with short runs (each still completes
its fixed minimum of work), so the module takes about two minutes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import (  # noqa: E402
    common, layers, wl_campaign, wl_kernels, wl_service,
)

WORKLOADS = ("kernels-paper", "campaign-faults", "service-http")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", "0.5", "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = next(
        json.loads(line[len("report "):])
        for line in lines if line.startswith("report ")
    )
    return json.loads(lines[-1]), report


_CACHE = {}


def cached(workload: str, seed: int, trace: int):
    key = (workload, seed, trace)
    if key not in _CACHE:
        _CACHE[key] = parse(run_bench(workload, seed, trace))
    return _CACHE[key]


def test_workload_names_match_the_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_printed_metrics_match_benchmark_json(workload, trace):
    result, _report = cached(workload, 3, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_simulated_results_exactly(workload):
    first, first_report = cached(workload, 3, 0)
    again, again_report = parse(run_bench(workload, 3, 0))
    assert first_report["digest"] == again_report["digest"]
    for name in ("sim_cycles_per_op", "sim_energy_pj_per_op"):
        assert first["metrics"][name] == again["metrics"][name]
    # The traced run replays the same prefix under the wrappers.
    _traced, traced_report = cached(workload, 3, 1)
    assert traced_report["digest"] == first_report["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_and_other_add_up_to_the_traced_wall(workload):
    result, _report = cached(workload, 3, 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    total = sum(metrics[name] for name in layers.summands())
    assert total == pytest.approx(metrics["trace.wall_ms_per_op"], rel=1e-6)
    assert abs(metrics["other.self_ms_per_op"]) < 0.05 * total


def test_campaign_time_goes_mostly_to_dbc_peek_poke():
    result, _report = cached("campaign-faults", 3, 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    largest = max(layers.summands(), key=metrics.__getitem__)
    assert largest == "dbc.peek_poke.self_ms_per_op"


def test_different_seed_gives_a_different_schedule():
    assert wl_kernels.round_plan(1, 0) != wl_kernels.round_plan(2, 0)
    assert wl_service.schedules(1, 50) != wl_service.schedules(2, 50)
    assert wl_campaign.config(1, 10) != wl_campaign.config(2, 10)
    _result, report_a = cached("campaign-faults", 3, 0)
    _result, report_b = cached("campaign-faults", 4, 0)
    assert report_a["digest"] != report_b["digest"]


def test_wrong_kernel_result_raises_failed_frac(monkeypatch):
    from repro.sim.system import CoruscantSystem

    original = CoruscantSystem.maximum

    def off_by_one(self, words, n_bits, *args, **kwargs):
        out = original(self, words, n_bits, *args, **kwargs)
        return dataclasses.replace(out, value=out.value + 1)

    monkeypatch.setattr(CoruscantSystem, "maximum", off_by_one)
    result = wl_kernels.run(seed=5, seconds=0.01, trace=False)
    assert result.correct is False
    assert result.failed == result.attempted // 3
    assert result.report["failed_frac"] == pytest.approx(1 / 3)


def test_wrong_service_reply_is_caught():
    warmup, _schedule = wl_service.schedules(1, 1)
    item = next(i for i in warmup if i.kernel == "add")
    field, want = wl_service.golden(item.kernel, item.payload)
    good = {"status": "ok", "result": {field: want}}
    bad = {"status": "ok", "result": {field: want + 1}}
    assert wl_service.reply_ok(item, 200, good)
    assert not wl_service.reply_ok(item, 200, bad)
    assert not wl_service.reply_ok(item, 429, good)
    result = common.RunResult(attempted=1, failed=0, correct=True)
    sample = (0, 0.001, 200, bad)
    assert wl_service.check_replies(result, [item], [sample]) == 1
    assert result.correct is False


def test_wrong_campaign_sum_raises_failed_frac(monkeypatch):
    from repro.sim.system import CoruscantSystem

    original = CoruscantSystem.execute

    def off_by_one(self, instruction, *args, **kwargs):
        out = original(self, instruction, *args, **kwargs)
        return dataclasses.replace(out, values=[v + 1 for v in out.values])

    monkeypatch.setattr(CoruscantSystem, "execute", off_by_one)
    result = wl_campaign.run(seed=5, seconds=0.01, trace=False)
    assert result.correct is False
    # Every sum of the fault-free golden campaign is wrong.
    assert result.failed >= wl_campaign.GOLDEN_OPS
    assert result.report["failed_frac"] > 0


def test_more_wrong_results_than_faults_is_caught():
    campaign = wl_campaign.run_campaign(wl_campaign.config(1, 4))
    result = common.RunResult(attempted=1, failed=0, correct=True)
    assert wl_campaign.check_campaign(result, campaign) == 0
    campaign.outcome.storage_wrong = campaign.injected + 1
    assert wl_campaign.check_campaign(result, campaign) == 4
    assert result.correct is False


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench("kernels-paper", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
