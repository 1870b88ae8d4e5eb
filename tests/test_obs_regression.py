"""Tests for the bench-history store and the regression detector."""

import copy
import json

import pytest

from repro.obs import (
    BenchHistory,
    HISTORY_SCHEMA,
    RegressionDetector,
    Verdict,
    load_baseline,
)


def _bench_doc(cycles=64, energy=680.0, spans=10, wall=0.002):
    return {
        "schema": "coruscant-bench-pim-ops/2",
        "repeats": 3,
        "kernels": [
            {
                "name": "mult8_trd7",
                "trd": 7,
                "repeats": 3,
                "sim_cycles": cycles,
                "sim_energy_pj": energy,
                "spans": spans,
                "wall_seconds_min": wall,
                "wall_seconds_mean": wall * 1.1,
                "wall_seconds_median": wall * 1.05,
            }
        ],
    }


class TestBenchHistory:
    def test_append_and_load_round_trip(self, tmp_path):
        history = BenchHistory(str(tmp_path / "h.jsonl"))
        assert history.load() == []
        assert history.last() is None
        history.append(_bench_doc(), meta={"recorded_unix": 123})
        history.append(_bench_doc(cycles=60))
        entries = history.load()
        assert [e["seq"] for e in entries] == [1, 2]
        assert entries[0]["schema"] == HISTORY_SCHEMA
        assert entries[0]["meta"] == {"recorded_unix": 123}
        assert history.last()["kernels"][0]["sim_cycles"] == 60
        assert len(history) == 2

    def test_corrupt_line_raises_with_location(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="h.jsonl:1"):
            BenchHistory(str(path)).load()

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text(json.dumps({"schema": "bogus/9"}) + "\n")
        with pytest.raises(ValueError, match="bogus/9"):
            BenchHistory(str(path)).load()


class TestLoadBaseline:
    def test_missing_file_returns_none(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) is None

    def test_bare_bench_document(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(_bench_doc(cycles=99)))
        assert load_baseline(str(path))["kernels"][0]["sim_cycles"] == 99

    def test_history_file_returns_newest_entry(self, tmp_path):
        history = BenchHistory(str(tmp_path / "h.jsonl"))
        history.append(_bench_doc(cycles=64))
        history.append(_bench_doc(cycles=32))
        assert (
            load_baseline(history.path)["kernels"][0]["sim_cycles"] == 32
        )

    def test_unrecognisable_content_raises(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError):
            load_baseline(str(path))

    def test_empty_file_returns_none(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert load_baseline(str(path)) is None


class TestRegressionDetector:
    def _verdict(self, report, metric):
        return next(
            c.verdict for c in report.comparisons if c.metric == metric
        )

    def test_identical_runs_are_unchanged(self):
        doc = _bench_doc()
        report = RegressionDetector().compare(doc, copy.deepcopy(doc))
        assert not report.has_regression
        assert report.exit_code == 0
        assert all(
            c.verdict is Verdict.UNCHANGED for c in report.comparisons
        )

    def test_cycle_increase_is_a_regression(self):
        base = _bench_doc(cycles=64)
        report = RegressionDetector().compare(_bench_doc(cycles=65), base)
        assert self._verdict(report, "sim_cycles") is Verdict.REGRESSED
        assert report.exit_code == 1

    def test_cycle_decrease_is_an_improvement(self):
        base = _bench_doc(cycles=64)
        report = RegressionDetector().compare(_bench_doc(cycles=60), base)
        assert self._verdict(report, "sim_cycles") is Verdict.IMPROVED
        assert report.exit_code == 0

    def test_energy_compared_exactly(self):
        base = _bench_doc(energy=680.0)
        report = RegressionDetector().compare(
            _bench_doc(energy=680.001), base
        )
        assert self._verdict(report, "sim_energy_pj") is Verdict.REGRESSED

    def test_span_drift_flags_either_direction(self):
        for spans in (9, 11):
            report = RegressionDetector().compare(
                _bench_doc(spans=spans), _bench_doc(spans=10)
            )
            assert self._verdict(report, "spans") is Verdict.REGRESSED

    def test_wall_noise_within_band_is_unchanged(self):
        base = _bench_doc(wall=0.002)
        report = RegressionDetector(wall_tolerance=0.25).compare(
            _bench_doc(wall=0.0024), base
        )
        assert (
            self._verdict(report, "wall_seconds_min") is Verdict.UNCHANGED
        )

    def test_wall_slowdown_beyond_band_regresses(self):
        base = _bench_doc(wall=0.002)
        report = RegressionDetector(wall_tolerance=0.25).compare(
            _bench_doc(wall=0.004), base
        )
        assert (
            self._verdict(report, "wall_seconds_min") is Verdict.REGRESSED
        )

    def test_wall_speedup_beyond_band_improves(self):
        base = _bench_doc(wall=0.004)
        report = RegressionDetector(wall_tolerance=0.25).compare(
            _bench_doc(wall=0.002), base
        )
        assert (
            self._verdict(report, "wall_seconds_min") is Verdict.IMPROVED
        )

    def test_wall_needs_min_and_median_to_agree(self):
        # min doubled but median stayed put: one noisy repeat must not
        # flip the verdict.
        base = _bench_doc(wall=0.002)
        current = _bench_doc(wall=0.004)
        current["kernels"][0]["wall_seconds_median"] = base["kernels"][0][
            "wall_seconds_median"
        ]
        report = RegressionDetector(wall_tolerance=0.25).compare(
            current, base
        )
        assert (
            self._verdict(report, "wall_seconds_min") is Verdict.UNCHANGED
        )

    def test_v1_baseline_without_median_falls_back_to_mean(self):
        base = _bench_doc(wall=0.002)
        del base["kernels"][0]["wall_seconds_median"]
        report = RegressionDetector(wall_tolerance=0.25).compare(
            _bench_doc(wall=0.004), base
        )
        assert (
            self._verdict(report, "wall_seconds_min") is Verdict.REGRESSED
        )

    def _scaled(self, doc):
        """``doc`` as a probe-scaled document, its host seconds 1000x."""
        kernel = doc["kernels"][0]
        kernel["host_wall_seconds_min"] = kernel["wall_seconds_min"] * 1000
        kernel["probe_seconds_min"] = 0.0009
        return doc

    def test_scaled_wall_not_gated_against_measured_baseline(self):
        # A baseline written before the wall figures were probe-scaled
        # holds measured seconds; against it a scaled run is ungated,
        # however far apart the two figures are, in both directions.
        for wall in (0.0001, 0.2):
            report = RegressionDetector(wall_tolerance=0.25).compare(
                self._scaled(_bench_doc(wall=wall)), _bench_doc(wall=0.002)
            )
            assert (
                self._verdict(report, "wall_seconds_min") is Verdict.NEW
            )
            assert report.exit_code == 0
        report = RegressionDetector().compare(
            _bench_doc(), self._scaled(_bench_doc())
        )
        assert self._verdict(report, "wall_seconds_min") is Verdict.NEW

    def test_scaled_wall_gated_against_scaled_baseline(self):
        report = RegressionDetector(wall_tolerance=0.25).compare(
            self._scaled(_bench_doc(wall=0.004)),
            self._scaled(_bench_doc(wall=0.002)),
        )
        assert (
            self._verdict(report, "wall_seconds_min") is Verdict.REGRESSED
        )

    def test_new_kernel_gets_new_verdict(self):
        current = _bench_doc()
        current["kernels"].append(
            dict(current["kernels"][0], name="shiny_new")
        )
        report = RegressionDetector().compare(current, _bench_doc())
        new = [c for c in report.comparisons if c.verdict is Verdict.NEW]
        assert [c.kernel for c in new] == ["shiny_new"]
        assert report.exit_code == 0

    def test_removed_kernel_fails_the_gate(self):
        base = _bench_doc()
        base["kernels"].append(dict(base["kernels"][0], name="gone"))
        report = RegressionDetector().compare(_bench_doc(), base)
        assert report.removed_kernels == ["gone"]
        assert report.has_regression

    def test_summary_and_as_dict_round_trip(self):
        report = RegressionDetector().compare(
            _bench_doc(cycles=66), _bench_doc(cycles=64)
        )
        document = report.as_dict()
        json.dumps(document)
        assert document["summary"]["has_regression"] is True
        assert document["summary"]["verdicts"]["regressed"] == 1

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            RegressionDetector(wall_tolerance=-0.1)
