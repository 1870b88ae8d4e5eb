"""Regression detection between two benchmark documents.

The simulator's cycle/energy/span numbers are deterministic, so any
drift between runs is a real behavioural change: those metrics are
compared exactly. Host wall-clock is noisy, so it is compared through
min/median thresholds with a configurable tolerance band. Every
comparison yields a typed :class:`Verdict` — improved / unchanged /
regressed / new — and a :class:`RegressionReport` rolls them up into the
exit status CI gates on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


class Verdict(enum.Enum):
    IMPROVED = "improved"
    UNCHANGED = "unchanged"
    REGRESSED = "regressed"
    NEW = "new"


# Deterministic per-kernel metrics: identical runs must produce
# identical values, and for cycles/energy smaller is better. Span-count
# drift has no better/worse direction, so any change is flagged.
EXACT_METRICS = ("sim_cycles", "sim_energy_pj", "spans")
DIRECTIONLESS_METRICS = frozenset({"spans"})


@dataclass(frozen=True)
class Comparison:
    """One kernel-metric comparison between baseline and current run."""

    kernel: str
    metric: str
    baseline: Optional[float]
    current: Optional[float]
    verdict: Verdict
    note: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kernel": self.kernel,
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "verdict": self.verdict.value,
            "note": self.note,
        }


@dataclass
class RegressionReport:
    """All comparisons of one bench run against its baseline."""

    comparisons: List[Comparison] = field(default_factory=list)
    removed_kernels: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[Comparison]:
        return [
            c for c in self.comparisons if c.verdict is Verdict.REGRESSED
        ]

    @property
    def has_regression(self) -> bool:
        return bool(self.regressions) or bool(self.removed_kernels)

    @property
    def exit_code(self) -> int:
        return 1 if self.has_regression else 0

    def verdict_counts(self) -> Dict[str, int]:
        counts = {verdict.value: 0 for verdict in Verdict}
        for comparison in self.comparisons:
            counts[comparison.verdict.value] += 1
        return counts

    def summary(self) -> Dict[str, Any]:
        return {
            "comparisons": len(self.comparisons),
            "verdicts": self.verdict_counts(),
            "removed_kernels": list(self.removed_kernels),
            "has_regression": self.has_regression,
        }

    def as_dict(self) -> Dict[str, Any]:
        return {
            "summary": self.summary(),
            "comparisons": [c.as_dict() for c in self.comparisons],
        }


class RegressionDetector:
    """Compares a current bench document against a baseline one.

    ``wall_tolerance`` is the relative noise band for wall-clock
    comparisons: a kernel only counts as regressed (or improved) when
    *both* its best-case (``wall_seconds_min``) and its typical-case
    (``wall_seconds_median``, falling back to the mean for pre-v2
    baselines) moved outside the band — one noisy repeat cannot flip the
    verdict. Wall figures are compared only when both documents hold the
    same kind: probe-scaled ones (which come with
    ``host_wall_seconds_min``) or measured seconds (older documents of
    the same schema). Across kinds the verdict is NEW.
    """

    def __init__(self, wall_tolerance: float = 0.25) -> None:
        if wall_tolerance < 0:
            raise ValueError("wall_tolerance must be >= 0")
        self.wall_tolerance = wall_tolerance

    # ------------------------------------------------------------------

    def compare(
        self,
        current: Dict[str, Any],
        baseline: Dict[str, Any],
    ) -> RegressionReport:
        """Every kernel-metric verdict of ``current`` vs ``baseline``."""
        report = RegressionReport()
        base_kernels = {k["name"]: k for k in baseline.get("kernels", [])}
        curr_kernels = {k["name"]: k for k in current.get("kernels", [])}
        for name, kernel in curr_kernels.items():
            base = base_kernels.get(name)
            if base is None:
                report.comparisons.append(
                    Comparison(
                        kernel=name,
                        metric="*",
                        baseline=None,
                        current=kernel.get("sim_cycles"),
                        verdict=Verdict.NEW,
                        note="kernel absent from baseline",
                    )
                )
                continue
            for metric in EXACT_METRICS:
                report.comparisons.append(
                    self._compare_exact(name, metric, base, kernel)
                )
            report.comparisons.append(self._compare_wall(name, base, kernel))
        report.removed_kernels = sorted(
            set(base_kernels) - set(curr_kernels)
        )
        return report

    # ------------------------------------------------------------------

    def _compare_exact(
        self,
        name: str,
        metric: str,
        base: Dict[str, Any],
        curr: Dict[str, Any],
    ) -> Comparison:
        b, c = base.get(metric), curr.get(metric)
        if b is None:
            verdict, note = Verdict.NEW, "metric absent from baseline"
        elif c == b:
            verdict, note = Verdict.UNCHANGED, ""
        elif metric in DIRECTIONLESS_METRICS:
            verdict = Verdict.REGRESSED
            note = (
                "deterministic metric drifted (no better/worse "
                "direction); update the baseline if intentional"
            )
        elif c < b:
            verdict, note = Verdict.IMPROVED, f"-{_pct(b, c)} vs baseline"
        else:
            verdict, note = Verdict.REGRESSED, f"+{_pct(b, c)} vs baseline"
        return Comparison(
            kernel=name, metric=metric, baseline=b, current=c,
            verdict=verdict, note=note,
        )

    def _compare_wall(
        self,
        name: str,
        base: Dict[str, Any],
        curr: Dict[str, Any],
    ) -> Comparison:
        b_min = base.get("wall_seconds_min")
        c_min = curr.get("wall_seconds_min")
        b_typ = base.get("wall_seconds_median", base.get("wall_seconds_mean"))
        c_typ = curr.get("wall_seconds_median", curr.get("wall_seconds_mean"))
        if b_min is None or c_min is None:
            return Comparison(
                kernel=name, metric="wall_seconds_min",
                baseline=b_min, current=c_min,
                verdict=Verdict.NEW, note="wall-clock absent from baseline",
            )
        if ("host_wall_seconds_min" in base) != (
            "host_wall_seconds_min" in curr
        ):
            return Comparison(
                kernel=name, metric="wall_seconds_min",
                baseline=b_min, current=c_min, verdict=Verdict.NEW,
                note="probe-scaled and measured wall-clock not compared",
            )
        upper = 1.0 + self.wall_tolerance
        lower = 1.0 - self.wall_tolerance
        slower = c_min > b_min * upper and (
            b_typ is None or c_typ is None or c_typ > b_typ * upper
        )
        faster = c_min < b_min * lower and (
            b_typ is None or c_typ is None or c_typ < b_typ * lower
        )
        if slower:
            verdict = Verdict.REGRESSED
            note = f"min +{_pct(b_min, c_min)} (tolerance {self.wall_tolerance:.0%})"
        elif faster:
            verdict = Verdict.IMPROVED
            note = f"min -{_pct(b_min, c_min)}"
        else:
            verdict = Verdict.UNCHANGED
            note = "within noise tolerance"
        return Comparison(
            kernel=name, metric="wall_seconds_min",
            baseline=b_min, current=c_min, verdict=verdict, note=note,
        )


def _pct(baseline: float, current: float) -> str:
    if baseline == 0:
        return "inf%"
    return f"{abs(current - baseline) / baseline:.1%}"


__all__ = [
    "Comparison",
    "EXACT_METRICS",
    "RegressionDetector",
    "RegressionReport",
    "Verdict",
]
