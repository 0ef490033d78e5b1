"""Periodic fleet-health sampling: metrics in, SLI stream out.

A :class:`HealthMonitor` rides one :class:`~repro.sim.simulator.
PeriodicTask` per simulation.  On each tick it evaluates every
registered SLI (service-level indicator), publishes the readings as
``health.<sli>`` gauges — so each Prometheus snapshot carries the live
fleet view for free — and hands the full reading dict to subscribers
(the alert engine, benchmarks).

SLIs come in a few shapes, all O(1) memory per tick:

* ``track_ewma`` — an :class:`Ewma` subscribed to a histogram's
  observation stream; nothing re-walks the histogram's sorted list.
* ``track_rate`` — per-second rate of a monotonic counter, from samples
  taken at tick time.
* ``track_ratio`` — windowed ratio of two counter deltas (e.g. dead
  letters per send attempt over the last tick).
* ``track_value`` — any callable; ``len(sim.queue)`` and storage sizes
  plug in here.
* ``derive_roc`` — rate of change of another SLI between ticks, for
  trend-based alert rules.

An SLI that answers ``None`` has no data yet; it is simply absent from
the reading (and from the gauges) rather than reported as zero, so
downstream rules can tell "unknown" from "healthy".
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.telemetry.health.estimators import Ewma, RateTracker

#: Gauge prefix under which every SLI reading is published.
GAUGE_PREFIX = "health."


class HealthMonitor:
    """Samples registered SLIs on a periodic task and fans out readings."""

    def __init__(self, sim, interval: float = 1.0, start_after: Optional[float] = None):
        self.sim = sim
        self.interval = interval
        self.ticks = 0
        self._slis: dict[str, Callable[[float], Optional[float]]] = {}
        self._roc_sources: list[str] = []
        self._gauges: dict[str, object] = {}
        self._subscribers: list[Callable[[float, dict], None]] = []
        self._state: dict[str, float] = {}
        self._peaks: dict[str, float] = {}
        self._task = sim.every(interval, self._tick,
                               start_after=start_after, label="health-monitor")

    # -- registration -----------------------------------------------------------

    def track_value(self, name: str,
                    fn: Callable[[float], Optional[float]]) -> None:
        """Register ``fn(now) -> reading`` as the SLI ``name``."""
        if name in self._slis:
            raise ValueError(f"SLI {name!r} already registered")
        self._slis[name] = fn

    def track_ewma(self, name: str, histogram: str, alpha: float = 0.3) -> Ewma:
        """SLI ``name`` = EWMA of ``histogram``'s observation stream."""
        estimator = Ewma(alpha)
        self.sim.metrics.histogram(histogram).subscribe(estimator.observe)
        self.track_value(name, lambda _now: estimator.value)
        return estimator

    def track_rate(self, name: str, counter: str,
                   alpha: Optional[float] = None) -> RateTracker:
        """SLI ``name`` = per-second rate of the ``counter`` total."""
        tracker = RateTracker(alpha)
        metrics = self.sim.metrics

        def read(now: float) -> Optional[float]:
            return tracker.sample(now, metrics.value(counter))

        self.track_value(name, read)
        return tracker

    def track_ratio(self, name: str, numerator: str, denominator: str) -> None:
        """SLI ``name`` = delta(``numerator``) / delta(``denominator``)
        over the last tick — ``None`` while the denominator is idle."""
        metrics = self.sim.metrics
        last = {"num": 0.0, "den": 0.0}

        def read(_now: float) -> Optional[float]:
            num, den = metrics.value(numerator), metrics.value(denominator)
            d_num, d_den = num - last["num"], den - last["den"]
            last["num"], last["den"] = num, den
            if d_den <= 0:
                return None
            return d_num / d_den

        self.track_value(name, read)

    def derive_roc(self, source: str) -> str:
        """Publish ``<source>.roc`` — the source SLI's per-second rate of
        change between consecutive ticks."""
        if source not in self._slis:
            raise ValueError(f"cannot derive rate-of-change of unknown SLI {source!r}")
        self._roc_sources.append(source)
        return source + ".roc"

    def subscribe(self, listener: Callable[[float, dict], None]) -> None:
        """``listener(now, readings)`` runs after every sampling tick."""
        self._subscribers.append(listener)

    # -- sampling ---------------------------------------------------------------

    def _tick(self) -> None:
        now = self.sim.now
        previous = self._state
        readings: dict[str, float] = {}
        for name, fn in self._slis.items():
            value = fn(now)
            if value is None:
                continue
            readings[name] = value
        for source in self._roc_sources:
            if source in readings and source in previous:
                readings[source + ".roc"] = (
                    (readings[source] - previous[source]) / self.interval)
        gauges = self._gauges
        metrics = self.sim.metrics
        peaks = self._peaks
        for name, value in readings.items():
            gauge = gauges.get(name)
            if gauge is None:
                gauge = gauges[name] = metrics.gauge(GAUGE_PREFIX + name)
            gauge.set(value)
            if value > peaks.get(name, float("-inf")):
                peaks[name] = value
        self._state = readings
        self.ticks += 1
        for listener in self._subscribers:
            listener(now, readings)

    # -- queries ----------------------------------------------------------------

    @property
    def state(self) -> dict:
        """The latest readings (SLI name → value; ``None``s omitted)."""
        return dict(self._state)

    def peak(self, name: str) -> Optional[float]:
        """The highest reading ``name`` ever produced, or ``None``."""
        return self._peaks.get(name)

    def stop(self) -> None:
        self._task.cancel()
