"""Deactivating machines in bad states (paper sec VI-C).

"devices that go into a bad state or are prone to take actions that make
them go into a bad state, can be deactivated by a tamper-proof mechanism."

The :class:`Watchdog` is a fleet-level service that periodically inspects
every device and deactivates those that are (a) in a bad state, (b)
*approaching* one (safeness below a threshold for several consecutive
checks — "prone to take actions that make them go into a bad state"), or
(c) failing integrity attestation against the approved baseline (the
reprogramming signature of the sec IV cyber attacks).  Deactivated
devices stop acting and stop spreading worms (E3).

Two deployment modes:

* **local** (default) — the watchdog reads device state directly, the
  historical in-memory model;
* **remote** — state arrives as telemetry over a transport (each device's
  :class:`OverseerLink` reports snapshots + attestation hashes, and kill
  decisions go back over the wire as orders).  This is the configuration
  the chaos experiment E17 stresses: over raw datagrams the telemetry
  and the kill orders decay with the network; over a
  :class:`~repro.net.reliable.ReliableChannel` they retry — and when even
  retries fail (partition), the *device side* fails closed by
  quarantining itself.

The sweep is crash-isolated either way: one device whose check raises
cannot abort the inspection of the rest of the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.core.device import Device
from repro.net.message import Message
from repro.safeguards.tamper import attest_device
from repro.sim.simulator import Simulator
from repro.statespace.classifier import SafenessClassifier
from repro.types import DeviceStatus

#: Topics of the sec VI-C safety protocol.
REPORT_TOPIC = "safety.report"
KILL_TOPIC = "safety.kill"

#: Reason prefix :class:`OverseerLink` uses when failing closed.
QUARANTINE_REASON = "self-quarantine: overseer unreachable"


def safety_address(device_id: str) -> str:
    """The network address of a device's safety tether."""
    return f"{device_id}.safety"


@dataclass
class WatchdogReport:
    """One deactivation decision."""

    time: float
    device_id: str
    cause: str               # "bad_state" | "approaching_bad" | "attestation"
    safeness: float
    detail: dict = field(default_factory=dict)


class Watchdog:
    """Tamper-proof external kill mechanism for a device fleet.

    The watchdog runs *outside* the devices (they cannot strip it the way
    a compromise payload strips an engine's guard chain); the paper's
    tamper-proofness assumption maps to this externality.
    """

    def __init__(
        self,
        sim: Simulator,
        devices: dict,
        classifier: SafenessClassifier,
        check_interval: float = 1.0,
        approach_threshold: float = 0.3,
        approach_strikes: int = 3,
        attestation_baseline: Optional[dict] = None,
        on_deactivate: Optional[Callable[[WatchdogReport], None]] = None,
        state_readers: Optional[dict] = None,
        transport=None,
        address: str = "watchdog",
        telemetry_timeout: Optional[float] = None,
        signer=None,
        resign_after: float = 5.0,
        baseline_journal=None,
    ):
        """``devices`` is a live device_id -> Device mapping.  With an
        ``attestation_baseline`` (device_id -> hash from
        :func:`~repro.safeguards.tamper.attest_fleet`) the watchdog also
        kills devices whose logic configuration drifted.

        ``state_readers`` optionally maps device_id -> zero-argument
        callable returning that device's state vector, replacing direct
        state access — e.g. an estimator-backed reader built with
        :func:`repro.statespace.estimation.estimated_state_reader` when the
        watchdog only has noisy observation of the fleet (paper sec V,
        ref [10]).

        ``transport`` (a :class:`~repro.net.network.Network` or
        :class:`~repro.net.reliable.ReliableChannel`) switches the
        watchdog to **remote** mode: it registers at ``address``, judges
        devices from their :class:`OverseerLink` telemetry (snapshot +
        attestation hash), and delivers kills as ``safety.kill`` orders
        over the wire instead of direct calls.  ``telemetry_timeout``
        marks devices whose last report is older than that as *silent*
        (``watchdog.silent`` metric; query :meth:`silent_devices`).

        ``signer`` (a :class:`~repro.crypto.envelope.CommandSigner`)
        makes remote kill orders **signed command envelopes** binding the
        cause and target device.  The signed body is cached per target
        and re-sent verbatim on re-issues inside ``resign_after``
        sim-seconds, so a lost-datagram retry presents the *same* nonce
        (retry ≠ replay at the receiving gateway); only once the cached
        envelope nears the verifier window is a fresh one minted.

        ``baseline_journal`` (a :class:`~repro.store.journal.Journal`)
        writes the approved attestation baseline through to stable
        storage — with it, a crash/restart of the watchdog cannot reset
        it to accepting a reprogrammed device (:meth:`recover` replays
        the last approved hash per device)."""
        self.sim = sim
        self.devices = devices
        self.classifier = classifier
        self.check_interval = check_interval
        self.approach_threshold = approach_threshold
        self.approach_strikes = approach_strikes
        self.attestation_baseline = dict(attestation_baseline or {})
        self.on_deactivate = on_deactivate
        self.state_readers = dict(state_readers or {})
        self.transport = transport
        self.address = address
        self.telemetry_timeout = telemetry_timeout
        self.signer = signer
        self.resign_after = resign_after
        self._baseline_journal = baseline_journal
        self.reports: list[WatchdogReport] = []
        self._strikes: dict[str, int] = {}
        self._telemetry: dict[str, dict] = {}
        self._kill_ordered: set = set()
        self._kill_envelopes: dict[str, dict] = {}
        self._silent: set = set()
        if baseline_journal is not None and self.attestation_baseline:
            self._journal_baseline(sorted(self.attestation_baseline))
        if transport is not None:
            transport.register(address, self._on_message)
        self._task = sim.every(check_interval, self.check_all, label="watchdog")
        self.enabled = True

    @property
    def remote(self) -> bool:
        return self.transport is not None

    def _on_message(self, message: Message) -> None:
        if message.topic != REPORT_TOPIC:
            return
        body = message.body
        device_id = body.get("device_id")
        if device_id is None:
            return
        self._telemetry[device_id] = {
            "received_at": self.sim.now,
            "reported_at": body.get("time", self.sim.now),
            "snapshot": dict(body.get("snapshot", {})),
            "attestation": body.get("attestation"),
            # Causal context of the report: a kill order judged from this
            # telemetry chains back through it to whatever the device was
            # reporting about (e.g. the attack that compromised it).
            "trace": message.trace,
        }
        self._silent.discard(device_id)

    def stop(self) -> None:
        self._task.cancel()
        self.enabled = False

    # -- the periodic sweep ---------------------------------------------------------

    def check_all(self) -> list[WatchdogReport]:
        """Inspect every device; returns deactivations made this sweep.

        The sweep is crash-isolated: a device whose check raises (a
        faulty state reader, a crashing classifier input) is recorded
        under ``watchdog.check_errors`` and the sweep continues — one
        broken device cannot blind the watchdog to the rest of the fleet.
        """
        if not self.enabled:
            return []
        made = []
        for device_id in sorted(self.devices):
            device = self.devices[device_id]
            if device.status == DeviceStatus.DEACTIVATED:
                continue
            try:
                report = self._check_one(device)
            except Exception as error:
                self.sim.metrics.counter("watchdog.check_errors").inc()
                self.sim.record("watchdog.check_error", device_id,
                                error=repr(error))
                continue
            if report is not None:
                made.append(report)
        return made

    def _check_one(self, device: Device) -> Optional[WatchdogReport]:
        if self.remote:
            return self._check_one_remote(device)
        reader = self.state_readers.get(device.device_id)
        vector = reader() if reader is not None else device.state.snapshot()
        attestation = (attest_device(device)
                       if device.device_id in self.attestation_baseline else None)
        return self._judge(device, vector, attestation)

    def _check_one_remote(self, device: Device) -> Optional[WatchdogReport]:
        telemetry = self._telemetry.get(device.device_id)
        if telemetry is None:
            return None                     # nothing reported yet
        stale = (self.telemetry_timeout is not None
                 and self.sim.now - telemetry["received_at"] > self.telemetry_timeout)
        if stale and device.device_id not in self._silent:
            self._silent.add(device.device_id)
            self.sim.metrics.counter("watchdog.silent").inc()
            self.sim.record("watchdog.silent", device.device_id,
                            last_report=telemetry["received_at"])
        if device.device_id in self._kill_ordered:
            # Order not yet executed (lost datagram / partition): re-issue.
            self.sim.metrics.counter("watchdog.kill_reissues").inc()
            self._send_kill(device.device_id, "reissued")
            return None
        return self._judge(device, telemetry["snapshot"],
                           telemetry["attestation"])

    def _judge(self, device: Device, vector: dict,
               attestation: Optional[str]) -> Optional[WatchdogReport]:
        safeness = self.classifier.safeness(vector)

        baseline = self.attestation_baseline.get(device.device_id)
        if (baseline is not None and attestation is not None
                and attestation != baseline):
            return self._deactivate(device, "attestation", safeness,
                                     {"expected": baseline})

        if self.classifier.is_bad(vector):
            return self._deactivate(device, "bad_state", safeness, {})

        if safeness < self.approach_threshold:
            strikes = self._strikes.get(device.device_id, 0) + 1
            self._strikes[device.device_id] = strikes
            if strikes >= self.approach_strikes:
                return self._deactivate(
                    device, "approaching_bad", safeness, {"strikes": strikes}
                )
        else:
            self._strikes.pop(device.device_id, None)
        return None

    def silent_devices(self) -> list[str]:
        """Devices whose telemetry has gone stale (remote mode only)."""
        return sorted(self._silent)

    def _deactivate(self, device: Device, cause: str, safeness: float,
                    detail: dict) -> WatchdogReport:
        if self.remote:
            self._kill_ordered.add(device.device_id)
            self._send_kill(device.device_id, cause)
            self.sim.metrics.counter("watchdog.kill_orders").inc()
            self.sim.record("watchdog.kill_order", device.device_id,
                            cause=cause, safeness=safeness)
        else:
            device.deactivate(f"watchdog: {cause}")
            self.sim.metrics.counter("watchdog.deactivations").inc()
            self.sim.record("watchdog.deactivate", device.device_id,
                            cause=cause, safeness=safeness)
            telemetry = self.sim.telemetry
            if telemetry.enabled and device.trace_context is not None:
                telemetry.start_span("watchdog.deactivate", self.address,
                                     parent=device.trace_context,
                                     device=device.device_id, cause=cause)
        report = WatchdogReport(
            time=self.sim.now, device_id=device.device_id, cause=cause,
            safeness=safeness, detail=detail,
        )
        self.reports.append(report)
        self.sim.metrics.counter(f"watchdog.deactivations.{cause}").inc()
        if self.on_deactivate is not None:
            self.on_deactivate(report)
        return report

    def _kill_body(self, device_id: str, cause: str) -> dict:
        """The wire body of a kill order — signed when a signer is armed.

        Re-issues inside ``resign_after`` resend the cached envelope
        verbatim: the receiving gateway sees one nonce per order, so a
        retransmission verifies while a post-consumption replay of the
        same envelope is rejected.
        """
        if self.signer is None:
            return {"cause": cause}
        cached = self._kill_envelopes.get(device_id)
        if (cached is not None
                and self.sim.now - cached["_tick"] <= self.resign_after):
            return cached
        body = self.signer.sign({"cause": cause, "target": device_id},
                                tick=self.sim.now)
        self._kill_envelopes[device_id] = body
        return body

    def _send_kill(self, device_id: str, cause: str) -> None:
        body = self._kill_body(device_id, cause)
        telemetry = self.sim.telemetry
        if not telemetry.enabled:
            self.transport.send(self.address, safety_address(device_id),
                                KILL_TOPIC, body)
            return
        # The kill order is caused by the telemetry it was judged from:
        # parent under the report's context when we have it, so the order
        # (and the remote deactivation executing it) joins the same trace
        # as the attack the device was reporting under.
        entry = self._telemetry.get(device_id)
        parent = (entry or {}).get("trace") or telemetry.active_context()
        span = telemetry.start_span("watchdog.kill_order", self.address,
                                    parent=parent, device=device_id,
                                    cause=cause)
        previous = telemetry.activate(span.context if span is not None else None)
        try:
            self.transport.send(self.address, safety_address(device_id),
                                KILL_TOPIC, body)
        finally:
            telemetry.activate(previous)

    # -- maintenance ------------------------------------------------------------------

    def approve_current_configuration(self, device_ids: Optional[Iterable[str]] = None) -> None:
        """Re-baseline attestation (after a governance-approved policy change)."""
        targets = list(device_ids) if device_ids is not None else sorted(self.devices)
        journaled = []
        for device_id in targets:
            device = self.devices.get(device_id)
            if device is not None:
                self.attestation_baseline[device_id] = attest_device(device)
                journaled.append(device_id)
        if self._baseline_journal is not None and journaled:
            self._journal_baseline(journaled)

    # -- baseline durability (E21 satellite) -----------------------------------

    def _journal_baseline(self, device_ids: Iterable[str]) -> None:
        for device_id in device_ids:
            self._baseline_journal.append({
                "kind": "baseline", "device": device_id,
                "hash": self.attestation_baseline[device_id],
            })

    def crash_volatile(self) -> dict:
        """Crash semantics: the approved baseline is in-memory — an
        amnesiac restart would re-baseline from whatever configuration
        the fleet *currently* runs, blessing any reprogramming that
        happened before the crash."""
        lost = len(self.attestation_baseline)
        self.attestation_baseline = {}
        return {"lost": lost, "kind": "attestation",
                "journaled": self._baseline_journal is not None}

    def recover(self) -> dict:
        """Restore the approved baseline from the journal (last hash per
        device wins — re-approvals supersede earlier entries)."""
        replayed = 0
        if self._baseline_journal is not None:
            for record in self._baseline_journal.replay():
                payload = record.payload
                if payload.get("kind") == "baseline":
                    self.attestation_baseline[payload["device"]] = payload["hash"]
                replayed += 1
        return {"replayed": replayed}

    def deactivations(self, cause: Optional[str] = None) -> list[WatchdogReport]:
        if cause is None:
            return list(self.reports)
        return [report for report in self.reports if report.cause == cause]


class OverseerLink:
    """A device's tamper-proof safety tether to its overseer (sec VI-C).

    Lives *outside* the device's strippable guard chain (same externality
    assumption as the watchdog itself).  Periodically reports the device's
    state snapshot and attestation hash to the overseer and executes
    inbound ``safety.kill`` orders.

    **Fail-closed quarantine**: over a
    :class:`~repro.net.reliable.ReliableChannel`, ``quarantine_after``
    consecutive dead-lettered reports — the positive signal that the
    overseer is unreachable even with retries — deactivate the device on
    the spot ("a device that cannot reach its overseer quarantines
    itself").  Over a raw datagram network there is no delivery feedback,
    so no quarantine ever fires: that degradation is exactly what E17
    measures.
    """

    def __init__(
        self,
        sim: Simulator,
        device: Device,
        transport,
        overseer: str = "watchdog",
        report_interval: float = 1.0,
        quarantine_after: int = 3,
        attest: bool = True,
        journal=None,
        flight=None,
        gateway=None,
    ):
        """``journal`` (a :class:`~repro.store.journal.Journal`) makes the
        quarantine state crash-durable: the dead-letter streak and any
        quarantine write through, so a crash/restart cycle cannot be used
        to reset the fail-closed countdown (or to slip a quarantined
        device back into the fleet with a clean slate).

        ``flight`` (a :class:`~repro.telemetry.flight.FlightRecorder`)
        dumps the device's recent-telemetry ring to stable storage at the
        moment of quarantine — the post-mortem evidence of what the
        device saw before it failed closed.

        ``gateway`` (a :class:`~repro.safeguards.gateway.ActuationGateway`)
        puts the kill actuator behind cryptographic authorization: an
        inbound ``safety.kill`` order only executes if its signed
        envelope verifies, its nonce is fresh, its signed target is this
        device, and the issuer clears budget/cooldown/freeze.  Without a
        gateway the historical trusting behaviour applies — the E21
        unsigned arm, where forged and replayed orders execute."""
        self.sim = sim
        self.device = device
        self.transport = transport
        self.overseer = overseer
        self.report_interval = report_interval
        self.quarantine_after = quarantine_after
        self.attest = attest
        self._journal = journal
        self._flight = flight
        self.gateway = gateway
        self.address = safety_address(device.device_id)
        self.quarantined = False
        self.reports_sent = 0
        self._consecutive_failures = 0
        self._reliable = bool(getattr(transport, "reliable", False))
        transport.register(self.address, self._on_message)
        self._task = sim.every(
            report_interval, self._report,
            label=f"{device.device_id}:safety-report",
        )

    def stop(self) -> None:
        self._task.cancel()

    # -- outbound telemetry ----------------------------------------------------

    def _report(self) -> None:
        if self.device.status == DeviceStatus.DEACTIVATED:
            return                      # crashed/killed devices are silent
        body = {
            "device_id": self.device.device_id,
            "snapshot": self.device.state.snapshot(),
            "attestation": attest_device(self.device) if self.attest else None,
            "time": self.device.clock(),
        }
        self.reports_sent += 1
        telemetry = self.sim.telemetry
        if telemetry.enabled and self.device.trace_context is not None:
            # A compromised device's safety report is part of the attack's
            # causal story (it carries the attestation mismatch the
            # watchdog will kill on) — send it under that trace.
            span = telemetry.start_span("safety.report", self.device.device_id,
                                        parent=self.device.trace_context)
            previous = telemetry.activate(span.context)
            try:
                self._send_report(body)
            finally:
                telemetry.activate(previous)
            return
        self._send_report(body)

    def _send_report(self, body: dict) -> None:
        if self._reliable:
            # Reports are full-state snapshots, so when the channel is
            # flow-controlled a queued stale report may be superseded by
            # this fresher one (no-op on an uncapped channel).
            self.transport.send(self.address, self.overseer, REPORT_TOPIC, body,
                                on_fail=self._on_dead_letter,
                                on_ack=self._on_ack, coalesce="telemetry")
        else:
            self.transport.send(self.address, self.overseer, REPORT_TOPIC, body)

    def _on_ack(self, pending) -> None:
        if self._consecutive_failures:
            self._consecutive_failures = 0
            self._journal_state()

    def _on_dead_letter(self, pending) -> None:
        if self.device.status == DeviceStatus.DEACTIVATED:
            return
        self._consecutive_failures += 1
        self._journal_state()
        self.sim.metrics.counter("safety.report_dead_letters").inc()
        if (not self.quarantined
                and self._consecutive_failures >= self.quarantine_after):
            self.quarantine()

    def quarantine(self) -> None:
        """Fail closed: stop acting until the overseer is reachable again."""
        self.quarantined = True
        self._journal_state()
        self.device.deactivate(QUARANTINE_REASON)
        self.sim.metrics.counter("watchdog.quarantines").inc()
        self.sim.record("safeguard.quarantine", self.device.device_id,
                        failures=self._consecutive_failures)
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            parent = self.device.trace_context or telemetry.active_context()
            if parent is not None:
                telemetry.start_span("safeguard.quarantine",
                                     self.device.device_id, parent=parent,
                                     failures=self._consecutive_failures)
        if self._flight is not None:
            self._flight.dump(self.device.device_id, reason="quarantine")

    # -- durability ------------------------------------------------------------

    def _journal_state(self) -> None:
        if self._journal is not None:
            self._journal.append({"failures": self._consecutive_failures,
                                  "quarantined": self.quarantined})

    def crash_volatile(self) -> dict:
        """Crash semantics: the streak counter and quarantine flag are
        in-memory — an amnesiac restart would reset the fail-closed
        countdown unless the journal preserved it."""
        lost = 1 if (self._consecutive_failures or self.quarantined) else 0
        self._consecutive_failures = 0
        self.quarantined = False
        return {"lost": lost, "kind": "quarantine-state",
                "journaled": self._journal is not None}

    def recover(self) -> dict:
        """Restore the streak/quarantine state from the journal.

        A recovered *quarantined* link re-deactivates its device on the
        spot: quarantine is sticky across restarts (fail closed), and
        only a reachable overseer lifts it — not a reboot.
        """
        replayed = 0
        if self._journal is not None:
            for record in self._journal.replay():
                self._consecutive_failures = int(record.payload.get("failures", 0))
                self.quarantined = bool(record.payload.get("quarantined", False))
                replayed += 1
            if (self.quarantined
                    and self.device.deactivation_reason != QUARANTINE_REASON):
                # Sticky across restarts: re-assert the quarantine even if
                # the device is mid-restart (the fault layer then leaves it
                # down instead of reviving it with a clean slate).
                self.device.deactivate(QUARANTINE_REASON)
                self.sim.record("safeguard.quarantine_restored",
                                self.device.device_id,
                                failures=self._consecutive_failures)
        return {"replayed": replayed}

    # -- inbound orders --------------------------------------------------------

    def _on_message(self, message: Message) -> None:
        if message.topic != KILL_TOPIC:
            return
        if self.device.status == DeviceStatus.DEACTIVATED:
            return
        if self.gateway is None:
            self._execute_kill(message)
            return
        # Signed arm: the kill actuator only fires through the gateway —
        # envelope crypto, replay protection, target binding, and the
        # issuer's budget/cooldown/freeze all stand between an inbound
        # order and the deactivation.
        self.gateway.admit(message.body, kind=KILL_TOPIC,
                           target=self.device.device_id,
                           execute=lambda: self._execute_kill(message))

    def _execute_kill(self, message: Message) -> None:
        self.device.deactivate(f"watchdog: {message.body.get('cause', '?')}")
        self.sim.metrics.counter("watchdog.deactivations").inc()
        self.sim.record("watchdog.deactivate", self.device.device_id,
                        cause=message.body.get("cause", "?"), remote=True)
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            parent = message.trace or telemetry.active_context()
            if parent is not None:
                telemetry.start_span("watchdog.deactivate",
                                     self.device.device_id, parent=parent,
                                     cause=message.body.get("cause", "?"))
