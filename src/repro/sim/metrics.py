"""Metric primitives for experiments.

Counters, gauges, histograms, and time series, grouped in a registry.
The benchmark harness prints experiment rows straight from a registry
snapshot, so every metric supports a plain-dict export.
"""

from __future__ import annotations

import math
from typing import Optional


class Counter:
    """A monotonically increasing count.

    Hot callbacks hold a direct reference (a *cached handle*) obtained
    once from :meth:`MetricsRegistry.counter` instead of re-looking the
    name up per event; ``__slots__`` keeps the instances lean.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that can move in either direction."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, initial: float = 0.0):
        self.name = name
        self.value = initial

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming distribution summary with exact quantiles.

    Cost model: :meth:`observe` is O(1) — it appends to an unsorted
    list.  The list is sorted in place only when something reads it
    (:meth:`quantile`, :attr:`min`, :attr:`max`, :meth:`snapshot`), so
    the first read after new observations pays one sort and later reads
    pay nothing until the next observation.  Experiment scales here are
    small (≤ millions of points), so exactness is worth keeping every
    value.

    Every ``observe`` and every read runs on one thread: the simulator
    loop, or the asyncio loop of the control plane.  The read side is
    still safe against an append landing mid-read: it captures the
    count *before* sorting and records that as the sorted count, so a
    value appended during or after the sort forces one more sort on the
    next read instead of being skipped.
    """

    def __init__(self, name: str):
        self.name = name
        self._values: list[float] = []
        self._sorted_count = 0
        self._sum = 0.0
        self._watchers: list = []

    def observe(self, value: float) -> None:
        if math.isnan(value):
            raise ValueError(f"histogram {self.name} observed NaN")
        self._values.append(value)
        self._sum += value
        if self._watchers:
            for watcher in self._watchers:
                watcher(value)

    def subscribe(self, watcher) -> None:
        """Stream every future observation to ``watcher(value)``.

        This is how O(1)-memory online estimators (EWMA) ride along
        a histogram without re-walking its values; the hot
        :meth:`observe` path pays one truthiness check when nobody
        subscribed.
        """
        self._watchers.append(watcher)

    def _sorted(self) -> tuple[list[float], int]:
        """``(values, n)`` with ``values[:n]`` sorted: the observations
        seen when the read began."""
        values = self._values
        n = len(values)
        if n != self._sorted_count:
            values.sort()
            self._sorted_count = n
        return values, n

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        return self._sum / len(self._values) if self._values else 0.0

    @property
    def min(self) -> float:
        values, n = self._sorted()
        return values[0] if n else 0.0

    @property
    def max(self) -> float:
        values, n = self._sorted()
        return values[n - 1] if n else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """The q-quantile (0 ≤ q ≤ 1) by linear interpolation, or
        ``None`` when nothing has been observed yet.

        ``None`` — not a silent ``0.0`` — because downstream health
        logic must distinguish "no data" from "genuinely zero": a fresh
        link with an empty RTT histogram is *unknown*, not perfect.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        values, n = self._sorted()
        if not n:
            return None
        idx = q * (n - 1)
        lo = int(math.floor(idx))
        hi = int(math.ceil(idx))
        if lo == hi or values[lo] == values[hi]:
            return values[lo]
        frac = idx - lo
        return values[lo] * (1 - frac) + values[hi] * frac

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class TimeSeries:
    """(time, value) samples, e.g. aggregate heat over simulated time."""

    def __init__(self, name: str):
        self.name = name
        self.samples: list[tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        if self.samples and time < self.samples[-1][0]:
            raise ValueError(f"time series {self.name} must be recorded in time order")
        self.samples.append((time, value))

    def values(self) -> list[float]:
        return [v for _, v in self.samples]

    def last(self) -> Optional[float]:
        return self.samples[-1][1] if self.samples else None

    def peak(self) -> float:
        return max((v for _, v in self.samples), default=0.0)

    def time_above(self, threshold: float) -> float:
        """Total simulated time spent strictly above ``threshold``.

        Uses step interpolation: each sample's value holds until the next
        sample's timestamp.
        """
        total = 0.0
        for (t0, v0), (t1, _v1) in zip(self.samples, self.samples[1:]):
            if v0 > threshold:
                total += t1 - t0
        return total

    def snapshot(self) -> dict:
        return {
            "type": "timeseries",
            "count": len(self.samples),
            "last": self.last(),
            "peak": self.peak(),
        }


class MetricsRegistry:
    """Namespace of metrics for one simulation run."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def timeseries(self, name: str) -> TimeSeries:
        return self._get_or_create(name, TimeSeries)

    def _get_or_create(self, name: str, cls):
        existing = self._metrics.get(name)
        if existing is None:
            existing = cls(name)
            self._metrics[name] = existing
        elif not isinstance(existing, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(existing).__name__}"
            )
        return existing

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict:
        return {name: metric.snapshot() for name, metric in sorted(self._metrics.items())}

    def value(self, name: str, default: float = 0.0) -> float:
        """Convenience: the scalar value of a counter/gauge, or ``default``."""
        metric = self._metrics.get(name)
        if isinstance(metric, (Counter, Gauge)):
            return metric.value
        return default
