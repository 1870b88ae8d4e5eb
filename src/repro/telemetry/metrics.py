"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the pull-based side of the telemetry subsystem: layers
publish into named instruments as they run, and a campaign/CLI snapshot
exports everything with :meth:`MetricsRegistry.as_dict` — always
non-destructively (reading a metric never resets it). Counters another
object already keeps (the hub's device ledgers) join the snapshot
through :attr:`MetricsRegistry.collect` when it is read.

Instrument naming follows a dotted ``layer.thing`` convention:
``device.cycles``, ``mem.row_hits``, ``cpim.tr_per_op``,
``resilience.retry_depth``, ``sched.queue_cycles``, ...
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value (queue depth, hit rate, ladder level)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def add(self, amount: Number) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram with inclusive upper edges.

    ``edges`` are strictly increasing upper bounds; an observation ``v``
    lands in the first bucket whose edge satisfies ``v <= edge``, i.e.
    bucket ``i`` counts ``edges[i-1] < v <= edges[i]``. Values above the
    last edge land in the overflow bucket (``counts[-1]``), so
    ``len(counts) == len(edges) + 1`` and no observation is ever lost.
    """

    __slots__ = ("name", "edges", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, edges: Sequence[Number]) -> None:
        if not edges:
            raise ValueError(f"histogram {name} needs at least one edge")
        normalized: Tuple[Number, ...] = tuple(edges)
        if any(b <= a for a, b in zip(normalized, normalized[1:])):
            raise ValueError(
                f"histogram {name} edges must be strictly increasing: "
                f"{normalized}"
            )
        self.name = name
        self.edges = normalized
        self.counts: List[int] = [0] * (len(normalized) + 1)
        self.count = 0
        self.sum: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None

    def observe(self, value: Number) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile from the bucket counts.

        Linearly interpolates within the bucket holding the target rank,
        the way ``histogram_quantile`` does: bucket ``i`` is assumed
        uniform over ``(edges[i-1], edges[i]]``. The first bucket's
        lower bound is the observed minimum and the overflow bucket's
        upper bound is the observed maximum (so estimates never leave
        the observed range). Returns ``None`` for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        assert self.min is not None and self.max is not None
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                lower = self.min if i == 0 else self.edges[i - 1]
                upper = self.max if i == len(self.edges) else self.edges[i]
                # Clamp to the observed range: the min/max may sit
                # strictly inside this bucket's nominal bounds.
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                if upper <= lower:
                    return float(upper)
                fraction = (rank - (cumulative - bucket_count)) / bucket_count
                return float(lower + (upper - lower) * min(1.0, fraction))
        return float(self.max)  # pragma: no cover - defensive

    def cumulative_counts(self) -> List[int]:
        """Running bucket totals, OpenMetrics style.

        Entry ``i`` counts every observation ``<= edges[i]``; the final
        entry is the ``+Inf`` bucket and always equals ``count``.
        """
        totals: List[int] = []
        running = 0
        for bucket_count in self.counts:
            running += bucket_count
            totals.append(running)
        return totals

    def as_dict(self) -> Dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "cumulative": self.cumulative_counts(),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Get-or-create home for every instrument, exported as one dict."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # Called by every as_dict(); adds to the counters it names.
        self.collect: Optional[Callable[[], Dict[str, Number]]] = None

    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_free(name, self._counters)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_free(name, self._gauges)
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, edges: Optional[Sequence[Number]] = None
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            if edges is None:
                raise KeyError(
                    f"histogram {name!r} not registered; pass its bucket "
                    "edges on first use"
                )
            self._check_free(name, self._histograms)
            instrument = self._histograms[name] = Histogram(name, edges)
        elif edges is not None and tuple(edges) != instrument.edges:
            raise ValueError(
                f"histogram {name!r} already registered with edges "
                f"{instrument.edges}, got {tuple(edges)}"
            )
        return instrument

    def _check_free(self, name: str, owner: Dict[str, Any]) -> None:
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if table is not owner and name in table:
                raise ValueError(
                    f"metric name {name!r} already registered as a {kind}"
                )

    # ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-ready, non-destructive snapshot of every instrument."""
        counters = {n: c.value for n, c in sorted(self._counters.items())}
        for name, value in (self.collect() if self.collect else {}).items():
            counters[name] = counters.get(name, 0) + value
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.as_dict()
                for name, h in sorted(self._histograms.items())
            },
        }

    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges) + len(self._histograms)
        )


__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]
