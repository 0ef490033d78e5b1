"""Closed-loop consumers: alerts actuate the safeguards they watch.

Two ROADMAP items end here — the measurement side has existed since
E18/E19 (the ``reliable.rtt`` histogram, the ``store.*`` pressure
gauges); these classes are the missing *tuning/trigger policies*:

* :class:`AdaptiveQuarantine` — a fixed ``quarantine_after`` trades
  false self-quarantines (transient loss) against rogue lifetime (true
  partition).  The discriminator is the ack-RTT stream: global
  degradation makes *successful* acks need retries, so the fleet RTT
  SLI surges; a truly partitioned device's retries never ack at all and
  leave the fleet RTT untouched.  While the link-degradation alert is
  active every overseer link tolerates more consecutive dead letters;
  the moment it resolves the base fail-closed threshold is back.
* :class:`CompactionController` — snapshots were time-driven
  (``every(20s)``): under sustained write pressure a journal grows
  unboundedly between ticks.  This controller compacts a journal the
  tick its blob crosses a byte budget — but only while the
  storage-pressure alert is active, so quiet fleets never pay a sweep —
  and can batch journal flushes while pressure lasts.
"""

from __future__ import annotations

from typing import Optional


class AdaptiveQuarantine:
    """Tunes ``OverseerLink.quarantine_after`` from link-health alerts.

    Every managed link is written directly: ``relaxed`` when ``rule``
    fires, ``base`` when it resolves.
    """

    def __init__(self, sim, engine, links, base: int = 3, relaxed: int = 8,
                 rule: str = "link.degraded"):
        if relaxed < base:
            raise ValueError("relaxed threshold must not undercut the base "
                             "(adaptive mode never weakens fail-closed below it)")
        self.sim = sim
        self.links = list(links)
        self.base = base
        self.relaxed = relaxed
        self.rule = rule
        self._gauge = sim.metrics.gauge("health.quarantine_after")
        self._gauge.set(float(base))
        self._adjustments = sim.metrics.counter("health.quarantine_adjustments")
        for link in self.links:
            link.quarantine_after = base
        engine.on_fire(self._on_fire)
        engine.on_resolve(self._on_resolve)

    def _apply(self, threshold: int, cause: str) -> None:
        for link in self.links:
            link.quarantine_after = threshold
        self._gauge.set(float(threshold))
        self._adjustments.inc()
        self.sim.record("health.quarantine_tune", cause,
                        quarantine_after=threshold)

    def _on_fire(self, alert) -> None:
        if alert.rule.name == self.rule:
            self._apply(self.relaxed, alert.rule.name)

    def _on_resolve(self, alert) -> None:
        if alert.rule.name == self.rule:
            self._apply(self.base, alert.rule.name)


class CompactionController:
    """Size-triggered journal compaction gated on storage-pressure alerts.

    Registered journals publish their summed blob bytes as the
    ``store.journal_bytes`` SLI.  While ``rule`` is active, any journal
    whose blob has outgrown ``compact_bytes`` is checkpointed on the
    spot (snapshot + compact); optionally, flushes batch up while the
    alert lasts and drain the moment it resolves — the explicit
    durability trade under pressure, never silent.
    """

    #: SLI name under which registered journals' total bytes publish.
    SLI = "store.journal_bytes"

    def __init__(self, sim, engine, monitor, compact_bytes: int = 16384,
                 rule: str = "store.pressure",
                 flush_batch: Optional[int] = None):
        self.sim = sim
        self.engine = engine
        self.compact_bytes = compact_bytes
        self.rule = rule
        self.flush_batch = flush_batch
        self._components: list[tuple[str, object, object]] = []
        self._base_flush: dict[int, int] = {}
        self._compactions = sim.metrics.counter("store.compactions_sized")
        monitor.track_value(self.SLI, self._total_bytes)
        monitor.subscribe(self._on_tick)
        if flush_batch is not None:
            engine.on_fire(self._on_fire)
            engine.on_resolve(self._on_resolve)

    def register(self, label: str, journal, checkpoint) -> None:
        """Track ``journal`` with ``checkpoint()`` as its compaction hook
        (e.g. :meth:`repro.audit.log.AuditLog.checkpoint`)."""
        self._components.append((label, journal, checkpoint))

    def _total_bytes(self, _now: float) -> Optional[float]:
        if not self._components:
            return None
        return float(sum(journal.storage.size(journal.name)
                         for _label, journal, _checkpoint in self._components))

    def _on_tick(self, now: float, _readings: dict) -> None:
        if not self.engine.is_active(self.rule):
            return
        for label, journal, checkpoint in self._components:
            size = journal.storage.size(journal.name)
            if size < self.compact_bytes:
                continue
            upto = checkpoint()
            if upto is None:
                continue                    # component declined (e.g. crashed)
            self._compactions.inc()
            self.sim.record("store.compact", label, trigger="size",
                            bytes=size, upto=upto)

    def _on_fire(self, alert) -> None:
        if alert.rule.name != self.rule:
            return
        for _label, journal, _checkpoint in self._components:
            key = id(journal)
            if key not in self._base_flush:
                self._base_flush[key] = journal.flush_every
            journal.flush_every = max(self.flush_batch, journal.flush_every)

    def _on_resolve(self, alert) -> None:
        if alert.rule.name != self.rule:
            return
        for _label, journal, _checkpoint in self._components:
            base = self._base_flush.pop(id(journal), None)
            if base is not None:
                journal.flush_every = base
                journal.flush()
