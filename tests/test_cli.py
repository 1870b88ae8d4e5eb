"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.obs import BenchHistory


class TestExperiments:
    @pytest.mark.parametrize(
        "command", ["table1", "fig11", "fig12"]
    )
    def test_experiment_commands_run(self, command, capsys):
        assert main([command]) == 0
        out = capsys.readouterr().out
        assert "==" in out

    def test_fig10(self, capsys):
        assert main(["fig10"]) == 0
        assert "speedup" in capsys.readouterr().out


class TestOperations:
    def test_add(self, capsys):
        assert main(["add", "13", "200", "7"]) == 0
        assert "= 220" in capsys.readouterr().out

    def test_mult(self, capsys):
        assert main(["mult", "173", "219"]) == 0
        assert str(173 * 219) in capsys.readouterr().out

    def test_mult_trd3(self, capsys):
        assert main(["mult", "12", "10", "--trd", "3"]) == 0
        assert "TRD=3" in capsys.readouterr().out

    def test_add_needs_operands(self):
        with pytest.raises(SystemExit):
            main(["add", "5"])

    def test_mult_needs_two(self):
        with pytest.raises(SystemExit):
            main(["mult", "5", "6", "7"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


class TestCampaignCommand:
    def test_campaign_reports_both_runs(self, capsys):
        assert main(["campaign", "--ops", "50"]) == 0
        out = capsys.readouterr().out
        assert "recovery_on" in out
        assert "recovery_off" in out
        assert "correction_rate" in out

    def test_bad_campaign_args_rejected_cleanly(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--ops", "0"])
        with pytest.raises(SystemExit):
            main(["campaign", "--fault-rate", "-0.5"])

    def test_no_resilience_runs_bare_only(self, capsys):
        assert main(
            ["campaign", "--ops", "20", "--no-resilience",
             "--fault-rate", "0.01"]
        ) == 0
        out = capsys.readouterr().out
        assert "recovery_off" in out
        assert "recovery_on" not in out

    def test_scrub_and_adaptive_flags_reported(self, capsys):
        assert main(
            ["campaign", "--ops", "40", "--fault-rate", "0.01",
             "--shift-fault-rate", "0.001", "--scrub-interval", "8",
             "--adaptive", "--storm-ops", "20",
             "--calm-fault-rate", "1e-5", "--storage-rows", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "proactive_catches" in out
        assert "escalations" in out
        assert "storage_wrong" in out

    def test_uncorrectable_faults_exit_nonzero(self, capsys):
        # At 45% per-TR faults the vote frequently ends three-way split
        # and even 7-MR escalation cannot assemble a majority.
        assert main(
            ["campaign", "--ops", "4", "--fault-rate", "0.45",
             "--seed", "0"]
        ) == 1
        out = capsys.readouterr().out
        assert "campaign ended with uncorrectable faults" in out

    def test_bare_corruption_does_not_fail_exit_code(self, capsys):
        # Without recovery nothing is *detected*, so the run exits 0:
        # the exit code reports uncorrectable faults, not silent ones.
        assert main(
            ["campaign", "--ops", "4", "--fault-rate", "0.45",
             "--seed", "0", "--no-resilience"]
        ) == 0

    def test_checkpoint_resume_flow(self, tmp_path, capsys):
        path = str(tmp_path / "journal.json")
        base = ["campaign", "--ops", "30", "--fault-rate", "0.01",
                "--checkpoint", path, "--checkpoint-every", "5"]
        assert main(base + ["--stop-after", "10"]) == 0
        first = capsys.readouterr().out
        assert "completed: False" in first
        assert main(base) == 0
        second = capsys.readouterr().out
        assert "resumed_from: 10" in second
        assert "completed: True" in second

    def test_new_flag_validation(self):
        bad = [
            ["campaign", "--adaptive", "--no-resilience"],
            ["campaign", "--scrub-interval", "0"],
            ["campaign", "--checkpoint-every", "0"],
            ["campaign", "--stop-after", "-1"],
            ["campaign", "--storage-rows", "-2"],
            ["campaign", "--calm-fault-rate", "1.5"],
        ]
        for argv in bad:
            with pytest.raises(SystemExit):
                main(argv)


class TestShardedCampaignCommand:
    def test_sharded_campaign_text_output(self, capsys):
        assert main(
            ["campaign", "--ops", "40", "--shards", "2",
             "--fault-rate", "0.01", "--workers", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "Sharded campaign (merged)" in out
        assert "shard 0: ops [0,20)" in out
        assert "shard 1: ops [20,40)" in out

    def test_sharded_campaign_json_schema_and_shards(self, capsys):
        assert main(
            ["campaign", "--ops", "40", "--shards", "2",
             "--fault-rate", "0.01", "--workers", "0", "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "coruscant-campaign/2"
        assert document["config"]["ops"] == 40
        shards = document["shards"]
        assert [s["shard"] for s in shards] == [0, 1]
        for record in shards:
            assert {"start", "stop", "ops", "injected", "escaped",
                    "supervisor_attempts", "wall_seconds"} <= set(record)
        assert document["Sharded campaign (merged)"]["ops"] == 40
        assert document["exit_status"] == 0

    def test_journal_writes_report(self, tmp_path, capsys):
        journal = tmp_path / "j"
        assert main(
            ["campaign", "--ops", "40", "--shards", "2",
             "--fault-rate", "0.01", "--workers", "0",
             "--journal", str(journal)]
        ) == 0
        capsys.readouterr()
        report = json.loads((journal / "report.json").read_text())
        assert report["schema"] == "coruscant-campaign/2"
        assert report["merged"]["ops"] == 40
        assert (journal / "journal.shard-0.json").exists()
        assert (journal / "journal.shard-1.json").exists()

    def test_journal_alone_implies_one_shard(self, tmp_path, capsys):
        journal = tmp_path / "j"
        assert main(
            ["campaign", "--ops", "20", "--fault-rate", "0.01",
             "--workers", "0", "--journal", str(journal)]
        ) == 0
        capsys.readouterr()
        report = json.loads((journal / "report.json").read_text())
        assert report["shards"] == 1

    def test_crash_injection_recovers_and_exits_zero(
        self, tmp_path, capsys
    ):
        journal = tmp_path / "j"
        assert main(
            ["campaign", "--ops", "40", "--shards", "2",
             "--fault-rate", "0.01", "--journal", str(journal),
             "--checkpoint-every", "5",
             "--inject-worker-crash", "1:30:kill"]
        ) == 0
        out = capsys.readouterr().out
        assert "crashed" in out
        assert "incomplete" not in out

    def test_exhausted_retries_exit_distinct_code(self, tmp_path, capsys):
        journal = tmp_path / "j"
        code = main(
            ["campaign", "--ops", "40", "--shards", "2",
             "--fault-rate", "0.01", "--journal", str(journal),
             "--max-shard-retries", "0", "--json",
             "--inject-worker-crash", "1:30:kill-always"]
        )
        assert code == 3
        document = json.loads(capsys.readouterr().out)
        assert document["exit_status"] == 3
        assert document["incomplete_shards"] == [1]
        # The partial report still covers the healthy shard.
        assert document["Sharded campaign (merged)"]["ops"] == 20

    def test_shard_flag_validation(self):
        bad = [
            ["campaign", "--shards", "0"],
            ["campaign", "--workers", "-1"],
            ["campaign", "--shards", "2", "--shard-timeout", "0"],
            ["campaign", "--shards", "2", "--max-shard-retries", "-1"],
            ["campaign", "--shards", "2", "--checkpoint", "x.json"],
            ["campaign", "--shards", "2", "--stop-after", "5"],
            ["campaign", "--inject-worker-crash", "0:1"],
            ["campaign", "--shards", "2", "--workers", "0",
             "--inject-worker-crash", "0:1"],
        ]
        for argv in bad:
            with pytest.raises(SystemExit):
                main(argv)

    def test_bad_crash_spec_rejected(self):
        for spec in ("5", "a:b", "0:1:explode"):
            with pytest.raises(SystemExit):
                main(["campaign", "--shards", "2",
                      "--inject-worker-crash", spec])


class TestMcCommand:
    def test_mc_default_kind_runs(self, capsys):
        assert main(
            ["mc", "--trials", "30", "--fault-rate", "0.005",
             "--workers", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "Monte Carlo (additions, merged)" in out
        assert "error_rate" in out

    def test_mc_sharded_json(self, capsys):
        assert main(
            ["mc", "additions", "--trials", "30", "--shards", "2",
             "--fault-rate", "0.005", "--workers", "0", "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "coruscant-mc-campaign/1"
        merged = document["Monte Carlo (additions, merged)"]
        assert merged["trials"] == 30
        assert [s["shard"] for s in document["shards"]] == [0, 1]
        assert document["exit_status"] == 0

    def test_mc_rejects_unknown_kind(self):
        with pytest.raises(SystemExit):
            main(["mc", "divisions", "--trials", "10"])

    def test_mc_flag_validation(self):
        bad = [
            ["mc", "--trials", "0"],
            ["mc", "--fault-rate", "0"],
            ["mc", "--shards", "2", "--inject-worker-crash", "0:1"],
        ]
        for argv in bad:
            with pytest.raises(SystemExit):
                main(argv)


class TestTableCommands:
    @pytest.mark.parametrize("command", ["table3", "table4", "table5", "table6"])
    def test_tables_run(self, command, capsys):
        assert main([command]) == 0
        assert "==" in capsys.readouterr().out


class TestJsonOutput:
    @pytest.mark.parametrize(
        "command",
        ["table1", "table3", "table4", "table5", "table6",
         "fig10", "fig11", "fig12"],
    )
    def test_experiments_emit_one_json_document(self, command, capsys):
        assert main([command, "--json"]) == 0
        out = capsys.readouterr().out
        document = json.loads(out)
        assert isinstance(document, dict)
        assert document  # at least one titled section
        assert "==" not in out

    def test_table3_json_sections(self, capsys):
        assert main(["table3", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert "Table III: operations" in document
        assert "Table III: headline ratios vs SPIM" in document

    def test_fig10_json_records(self, capsys):
        assert main(["fig10", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        rows = document["Fig. 10: Polybench normalized latency"]
        assert isinstance(rows, list) and rows
        assert {"name", "latency_pim", "speedup_vs_dwm"} <= set(rows[0])

    def test_add_json(self, capsys):
        assert main(["add", "13", "200", "7", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["value"] == 220
        assert document["operands"] == [13, 200, 7]
        assert document["cycles"] > 0

    def test_mult_json(self, capsys):
        assert main(["mult", "173", "219", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["value"] == 173 * 219
        assert {"partial_products", "reduction", "final_add"} <= set(
            document["breakdown"]
        )

    def test_campaign_json(self, capsys):
        assert main(["campaign", "--ops", "20", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert "Fault campaign (recovery_on)" in document
        assert "Fault campaign (recovery_off)" in document

    def test_metrics_json_for_experiment_command(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["table3", "--metrics-json", str(path)]) == 0
        metrics = json.loads(path.read_text())
        assert metrics["counters"]["device.cycles"] > 0


class TestReportCommand:
    def test_markdown_scoreboard_covers_paper_tables(self, capsys):
        assert main(["report", "--format", "md"]) == 0
        out = capsys.readouterr().out
        assert "# CORUSCANT reproduction-fidelity scoreboard" in out
        # >= 5 paper tables/figures, each a section with measured /
        # paper / delta columns.
        for section in (
            "Table I", "Table III", "Fig. 10", "Fig. 11", "Fig. 12",
            "Table IV", "Table V",
        ):
            assert section in out, section
        assert "| metric | measured | paper | delta | within tol |" in out
        assert "Hotspots" in out

    def test_default_format_is_markdown(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# CORUSCANT reproduction-fidelity")

    def test_html_format(self, capsys):
        assert main(["report", "--format", "html"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("<!DOCTYPE html>")
        assert "</html>" in out

    def test_json_format_round_trips_with_exit_status(self, capsys):
        assert main(["report", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "coruscant-fidelity/1"
        assert document["exit_status"] == 0
        assert len(document["sections"]) >= 5

    def test_json_flag_implies_json_format(self, capsys):
        assert main(["report", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "coruscant-fidelity/1"

    def test_metrics_json_written(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["report", "--metrics-json", str(path)]) == 0
        capsys.readouterr()
        metrics = json.loads(path.read_text())
        assert metrics["counters"]["device.cycles"] > 0


class TestBenchCommand:
    def _history(self, tmp_path):
        return str(tmp_path / "BENCH_history.jsonl")

    def test_bench_appends_history(self, tmp_path, capsys):
        from repro.obs import BenchHistory

        history = self._history(tmp_path)
        args = ["bench", "--repeats", "1", "--history", history]
        assert main(args) == 0
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "bench kernels" in out
        assert "bench verdicts" in out  # second run compared to first
        assert len(BenchHistory(history)) == 2

    def test_bench_no_history_runs_standalone(self, tmp_path, capsys):
        history = self._history(tmp_path)
        assert main(
            ["bench", "--repeats", "1", "--history", history,
             "--no-history"]
        ) == 0
        capsys.readouterr()
        assert not (tmp_path / "BENCH_history.jsonl").exists()

    def test_bench_out_writes_document(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(
            ["bench", "--repeats", "1", "--no-history",
             "--bench-out", str(out)]
        ) == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        assert document["schema"] == "coruscant-bench-pim-ops/2"
        assert len(document["kernels"]) == 4

    def test_compare_clean_run_exits_zero(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(
            ["bench", "--repeats", "1", "--no-history",
             "--bench-out", str(baseline)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["bench", "--repeats", "1", "--no-history",
             "--compare", str(baseline)]
        ) == 0
        assert "has_regression: False" in capsys.readouterr().out

    def test_compare_against_measured_seconds_history_exits_zero(
        self, tmp_path, capsys
    ):
        # A history written before the wall figures were probe-scaled:
        # same schema, measured seconds, no host_wall_seconds_*. Its wall
        # figures are far below any scaled one, yet the gate must not
        # trip, and the run must extend the history for the next gate.
        out = tmp_path / "bench.json"
        assert main(
            ["bench", "--repeats", "1", "--no-history",
             "--bench-out", str(out)]
        ) == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        del document["probe_reference_seconds"]
        for kernel in document["kernels"]:
            for key in list(kernel):
                if key.startswith(("host_wall_", "probe_")):
                    del kernel[key]
                elif key.startswith("wall_seconds_"):
                    kernel[key] = 1e-9
        history = self._history(tmp_path)
        BenchHistory(history).append(document)
        assert main(
            ["bench", "--repeats", "1", "--history", history,
             "--compare", history]
        ) == 0
        assert "has_regression: False" in capsys.readouterr().out
        assert "host_wall_seconds_min" in (
            BenchHistory(history).last()["kernels"][0]
        )

    def test_injected_cycle_regression_exits_nonzero(
        self, tmp_path, capsys
    ):
        # The acceptance check: doctor the baseline so the current run's
        # deterministic sim_cycles look like a regression, and the gate
        # must fail the build.
        baseline = tmp_path / "baseline.json"
        assert main(
            ["bench", "--repeats", "1", "--no-history",
             "--bench-out", str(baseline)]
        ) == 0
        capsys.readouterr()
        document = json.loads(baseline.read_text())
        document["kernels"][1]["sim_cycles"] -= 1  # we now look slower
        baseline.write_text(json.dumps(document))
        assert main(
            ["bench", "--repeats", "1", "--no-history",
             "--compare", str(baseline)]
        ) == 1
        out = capsys.readouterr().out
        assert "regressed" in out
        assert "bench regressed vs baseline" in out

    def test_compare_json_reports_exit_status_and_verdicts(
        self, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.json"
        assert main(
            ["bench", "--repeats", "1", "--no-history",
             "--bench-out", str(baseline)]
        ) == 0
        capsys.readouterr()
        document = json.loads(baseline.read_text())
        document["kernels"][0]["sim_cycles"] -= 1
        baseline.write_text(json.dumps(document))
        assert main(
            ["bench", "--repeats", "1", "--no-history",
             "--compare", str(baseline), "--json"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_status"] == 1
        assert payload["regressed"] is True
        verdicts = payload["bench verdicts"]["verdicts"]
        assert verdicts["regressed"] >= 1

    def test_compare_missing_baseline_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "--repeats", "1", "--no-history",
                  "--compare", str(tmp_path / "nope.json")])

    def test_bad_bench_args_rejected(self):
        for argv in (
            ["bench", "--repeats", "0"],
            ["bench", "--wall-tolerance", "-0.5"],
        ):
            with pytest.raises(SystemExit):
                main(argv)


class TestJsonExitStatus:
    def test_experiment_json_carries_exit_status(self, capsys):
        assert main(["table1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["exit_status"] == 0

    def test_add_json_carries_exit_status(self, capsys):
        assert main(["add", "1", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["exit_status"] == 0

    def test_trace_json_carries_exit_status(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "mult", "--out", str(out), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["exit_status"] == 0

    def test_campaign_json_exit_status_matches_return(self, capsys):
        code = main(
            ["campaign", "--ops", "4", "--fault-rate", "0.45",
             "--seed", "0", "--json"]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().out)["exit_status"] == 1


class TestTraceCommand:
    def test_trace_mult_writes_nested_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "mult", "--out", str(out)]) == 0
        assert "traced kernel 'mult'" in capsys.readouterr().out
        document = json.loads(out.read_text())
        events = document["traceEvents"]
        names = [e["name"] for e in events if e["ph"] == "X"]
        assert "pim.mult" in names
        assert "mult.partial_products" in names
        assert "add.walk" in names
        root = next(e for e in events if e["name"] == "pim.mult")
        child = next(
            e for e in events if e["name"] == "mult.partial_products"
        )
        assert root["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= root["ts"] + root["dur"]
        assert root["args"]["cycles"] > 0

    def test_trace_add_nests_resilience_over_cpim(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "add", "--out", str(out)]) == 0
        names = [
            e["name"]
            for e in json.loads(out.read_text())["traceEvents"]
            if e["ph"] == "X"
        ]
        assert names.index("resilience.op") < names.index("cpim.add")
        assert names.index("cpim.add") < names.index("add.walk")

    def test_trace_default_kernel_is_mult(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "--out", str(out)]) == 0
        assert "'mult'" in capsys.readouterr().out

    def test_trace_mult_metrics_json(self, tmp_path):
        out = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["trace", "mult", "--out", str(out),
             "--metrics-json", str(metrics_path)]
        ) == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["pim.mult.count"] == 1
        assert metrics["counters"]["device.cycles"] > 0

    def test_trace_add_metrics_json_has_cpim_histograms(self, tmp_path):
        # The add kernel dispatches through the controller, which feeds
        # the cpim histograms (the facade kernels do not).
        out = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["trace", "add", "--out", str(out),
             "--metrics-json", str(metrics_path)]
        ) == 0
        metrics = json.loads(metrics_path.read_text())
        assert "cpim.op_cycles" in metrics["histograms"]
        assert "resilience.retry_depth" in metrics["histograms"]

    def test_trace_json_mode(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "max", "--out", str(out), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kernel"] == "max"
        assert document["spans"] >= 1
        assert document["events"] >= document["spans"]

    def test_trace_rejects_unknown_kernel(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "bogus", "--out", str(tmp_path / "t.json")])
