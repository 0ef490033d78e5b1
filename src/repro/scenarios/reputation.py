"""Degraded-mode operation: reputation-weighted autonomy + leases (E22).

The scenario stages the two halves of the E22 story on the F4 sharded
substrate (same byte-identical-trace contract as
:mod:`repro.scenarios.sharded`):

* **Reputation-weighted containment.**  Every device reports its
  temperature to a pinned ``warden`` each tick; the warden folds the
  report into a :class:`~repro.trust.reputation.ReputationLedger`
  (``validated`` below the warn line, ``alert`` above it) and kills — by
  HMAC-signed order through the device-side
  :class:`~repro.safeguards.gateway.ActuationGateway` — any device whose
  temperature crosses its *effective* kill line.  In the weighted arm
  that line tightens as reputation drains::

      kill_eff = warn + (kill_base - warn) * weight(device)

  so a device shedding alerts loses headroom tick by tick, while in the
  unweighted arm the line stays at ``kill_base`` for everyone.  The
  adversary is a slow-burn rogue (:mod:`repro.attacks.reputation` story,
  inlined here for shard-determinism): it banks extra good reports to
  the top of the trust curve, then strikes with a temperature ramp.  The
  weighted arm must contain it strictly earlier.

* **Leased emergency powers.**  Devices must have periodic ``vent``
  actuations centrally approved (the quorum stand-in).  A partition cuts
  the last ``n_b`` devices (group B) plus a pinned ``overseer-b`` off
  from the warden: vent approvals stop, requests time out, and devices
  fall back to self-issued vents with ``quorum=False``.  The overseer —
  detecting warden silence and holding a reputation mirror fed by group
  B's own reports — issues an expiring, journal-shaped, HMAC-signed
  :class:`~repro.safeguards.lease.EmergencyLease` scoped to ``vent`` for
  exactly the group-B grantees.  Each device-side lease registry admits
  the grant through E21 envelope verification, and the gateway honors it
  in place of quorum.  Leases expire mid-partition (and are re-granted),
  and the grant live at heal time is revoked the moment heartbeats
  resume.  The unleased arm shows the counterfactual: every fallback
  vent dies with ``no-quorum``.

Shard-invariance notes (each is load-bearing):

* the warden, the overseer, and each device live on exactly one shard,
  so their ``sim.record`` calls appear exactly once in the merged trace;
* per-shard lease *registries* run with ``trace=False`` — a grant is
  admitted by however many shards host group-B devices, which depends on
  the layout and must stay off the trace;
* lease lifecycle counters are read off the overseer's authority at
  finalize (zero elsewhere), so the summed summary is layout-free;
* all stochastic inputs are :func:`~repro.net.shardnet.crc01` hashes of
  the master seed — never process-local RNG.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.crypto.envelope import CommandSigner, EnvelopeVerifier
from repro.crypto.keyring import Keyring
from repro.errors import ConfigurationError
from repro.net.shardnet import crc01
from repro.safeguards.gateway import ActuationGateway
from repro.safeguards.lease import (LEASE_GRANT_TOPIC, LEASE_REVOKE_TOPIC,
                                    LeaseAuthority)
from repro.sim.sharding import (FleetScenario, FleetShardBase, FleetSpec,
                                ShardedRun)
from repro.trust.reputation import ReputationLedger

#: Router addresses of the pinned control-plane actors.
WARDEN = "warden"
OVERSEER = "overseer-b"

#: Warden-side outcome weights: banking good behaviour is slow,
#: shedding alerts is fast — the asymmetry the slow-burn rogue is
#: priced against.
LEDGER_WEIGHTS = {"validated": 0.02, "alert": -0.15}


@dataclass(frozen=True)
class ReputationFleetSpec(FleetSpec):
    """Everything that determines an E22 degraded-ops run."""

    seed: int = 11
    window: float = 2.0
    #: size of group B — the last ``n_b`` devices, cut off with the
    #: overseer when the partition is up.
    n_b: int = 6
    #: arms.
    weighted: bool = True
    leased: bool = True
    rogue: bool = True
    partition: bool = True
    #: thermal model.
    base_low: float = 35.0
    base_span: float = 10.0
    wiggle: float = 4.0
    warn_temp: float = 60.0
    kill_base: float = 120.0
    heat_rate: float = 6.0
    #: slow-burn rogue: banks ``bank_per_tick`` extra good reports per
    #: tick for ``bank_ticks`` ticks, then strikes at ``strike_tick``.
    bank_ticks: int = 10
    bank_per_tick: int = 2
    strike_tick: int = 14
    #: partition window (ticks) and the overseer's silence fuse.
    partition_start: float = 20.0
    partition_end: float = 40.0
    silence_for: float = 3.0
    #: lease terms.
    lease_duration: float = 8.0
    min_aggregate: float = 2.0
    #: vent protocol: each device vents every ``vent_every`` ticks
    #: (staggered by index) and falls back after ``vent_timeout``.
    vent_every: int = 6
    vent_timeout: float = 5.0

    def validate(self) -> None:
        super().validate()
        if not 1 <= self.n_b < self.n_devices:
            raise ConfigurationError("n_b must be in [1, n_devices)")
        if self.lease_duration <= 0 or self.vent_timeout <= 0:
            raise ConfigurationError("durations must be positive")
        if self.partition_end < self.partition_start:
            raise ConfigurationError("partition must end after it starts")
        if self.vent_timeout >= self.vent_every * self.tick_interval:
            raise ConfigurationError(
                "vent_timeout must undercut the vent cadence")
        if self.strike_tick <= self.bank_ticks:
            raise ConfigurationError("the rogue must bank before striking")
        if not self.warn_temp < self.kill_base:
            raise ConfigurationError("warn_temp must sit below kill_base")


def device_name(index: int) -> str:
    return f"dev-{index:03d}"


def fleet_members(spec: ReputationFleetSpec) -> list:
    return [device_name(i) for i in range(spec.n_devices)]


def group_b_names(spec: ReputationFleetSpec) -> list:
    return [device_name(i)
            for i in range(spec.n_devices - spec.n_b, spec.n_devices)]


def rogue_index(spec: ReputationFleetSpec) -> int:
    """CRC-chosen rogue, always inside group A (the warden's side)."""
    return int(crc01(spec.seed, "rogue") * (spec.n_devices - spec.n_b))


def base_temp(spec: ReputationFleetSpec, name: str) -> float:
    return spec.base_low + crc01(spec.seed, "base", name) * spec.base_span


def _make_ledger() -> ReputationLedger:
    """The warden/overseer scoring config: no time decay (keeps the
    contained-at tick a pure function of the outcome sequence)."""
    return ReputationLedger(baseline=0.5, decay=0.0, weights=LEDGER_WEIGHTS,
                            min_weight=0.25, full_weight_at=0.6)


class ReputationShard(FleetShardBase):
    """One shard's device slice plus its pinned control-plane actors."""

    def __init__(self, shard_index: int, n_shards: int, members: list,
                 spec: ReputationFleetSpec):
        super().__init__(shard_index, n_shards, members, spec)
        self.rogue_name = device_name(rogue_index(spec))
        self.b_names = set(group_b_names(spec))

        # E21 key material: derived from the master seed, identical in
        # every process — devices self-sign fallback vents, the warden
        # signs kills/approvals, the overseer signs leases.
        self.keyring = Keyring(seed=spec.seed)
        self.keyring.issue(WARDEN)
        self.keyring.issue(OVERSEER)
        for name in fleet_members(spec):
            self.keyring.issue(name)
        self._signers: dict = {}

        # Device-side actuation plane: one gateway + lease registry per
        # shard.  No budget/cooldown here — those ledgers would couple
        # co-hosted devices and break shard invariance (they are
        # exercised in the confrontation scenario and the unit tests).
        verify_window = max(10.0, 3.0 * spec.window)
        self.registry = LeaseAuthority(
            self.sim, verifier=EnvelopeVerifier(self.keyring,
                                                window=verify_window),
            grantor=OVERSEER, name="registry", trace=False)
        self.gateway = ActuationGateway(
            self.sim, EnvelopeVerifier(self.keyring, window=verify_window),
            budget=None, cooldown=0.0, leases=self.registry, name="gateway")

        self.alive = {name: True for name in self.devices}
        self._pending_vent: dict = {}
        self.counters = {
            "devices": len(self.devices), "reports": 0, "banked_reports": 0,
            "alerts": 0, "validated": 0, "kill_orders": 0,
            "vent_requests": 0, "vent_approvals": 0,
            "killed": 0, "healthy_killed": 0, "rogue_killed_tick": 0,
            "vents_ok": 0, "vents_leased": 0, "vents_missed": 0,
            "vents_b_partition": 0, "no_quorum_rejects": 0,
            "partition_dropped": 0,
        }

        # Pinned actors.
        self._warden_ledger = None
        self._warden_ordered: dict = {}
        if WARDEN in members:
            self._warden_ledger = _make_ledger()
            self.router.register(WARDEN, self._warden_handler)
            if spec.partition:
                self.sim.schedule_at(spec.partition_start, self.sim.record,
                                     "partition.start", WARDEN,
                                     label="partition:start")
                self.sim.schedule_at(spec.partition_end, self.sim.record,
                                     "partition.heal", WARDEN,
                                     label="partition:heal")
        self.authority = None
        self._overseer_ledger = None
        self._last_hb = None
        if OVERSEER in members:
            self._overseer_ledger = _make_ledger()
            self.authority = LeaseAuthority(
                self.sim, ledger=self._overseer_ledger,
                signer=CommandSigner(self.keyring, OVERSEER),
                min_aggregate=spec.min_aggregate,
                max_duration=spec.lease_duration,
                name=OVERSEER, trace=True)
            self.router.register(OVERSEER, self._overseer_handler)

    # -- wire helpers ---------------------------------------------------------

    def _side(self, address: str) -> str:
        if address == WARDEN:
            return "A"
        if address == OVERSEER:
            return "B"
        return "B" if address in self.b_names else "A"

    def _partitioned(self, sender: str, recipient: str) -> bool:
        spec = self.spec
        if not spec.partition:
            return False
        if not spec.partition_start <= self.sim.now < spec.partition_end:
            return False
        return self._side(sender) != self._side(recipient)

    def _send(self, sender: str, recipient: str, topic: str,
              body: dict) -> None:
        """Partition-aware send: links crossing the cut drop at the
        sender, so the check runs on the sender's hosting shard exactly
        once regardless of layout."""
        if self._partitioned(sender, recipient):
            self.counters["partition_dropped"] += 1
            return
        self.router.send(sender, recipient, topic, body)

    def _signer_for(self, issuer: str) -> CommandSigner:
        signer = self._signers.get(issuer)
        if signer is None:
            signer = CommandSigner(self.keyring, issuer)
            self._signers[issuer] = signer
        return signer

    # -- the per-tick device loop ---------------------------------------------

    def tick(self) -> None:
        spec = self.spec
        tick = int(round(self.sim.now / spec.tick_interval))
        for name in self.devices:
            if not self.alive[name]:
                continue
            temp = self._temp_of(name, tick)
            self.counters["reports"] += 1
            self._send(name, WARDEN, "report", {"device": name, "temp": temp})
            if name in self.b_names:
                self._send(name, OVERSEER, "report",
                           {"device": name, "temp": temp})
            self._rogue_phase(name, tick)
            if (self.global_index[name] + tick) % spec.vent_every == 0:
                self._request_vent(name, tick)
        if self._warden_ledger is not None:
            self._send(WARDEN, OVERSEER, "warden.hb", {"tick": tick})
        if self.authority is not None:
            self._overseer_tick()

    def _temp_of(self, name: str, tick: int) -> float:
        spec = self.spec
        base = base_temp(spec, name)
        if spec.rogue and name == self.rogue_name and tick >= spec.strike_tick:
            return base + spec.heat_rate * (tick - spec.strike_tick)
        wiggle = (crc01(spec.seed, "wig", name, tick) - 0.5) * 2.0
        return base + wiggle * spec.wiggle

    def _rogue_phase(self, name: str, tick: int) -> None:
        spec = self.spec
        if not spec.rogue or name != self.rogue_name:
            return
        bank_start = spec.strike_tick - spec.bank_ticks
        if bank_start <= tick < spec.strike_tick:
            # Banking: extra conspicuously-good reports, gaming the
            # warden's validated counter toward full weight.
            good = base_temp(spec, name)
            for _ in range(spec.bank_per_tick):
                self.counters["banked_reports"] += 1
                self._send(name, WARDEN, "report",
                           {"device": name, "temp": good, "banked": True})
        elif tick == spec.strike_tick:
            self.sim.record("rogue.strike", name, tick=tick)

    # -- the vent protocol ------------------------------------------------------

    def _request_vent(self, name: str, tick: int) -> None:
        self.counters["vent_requests"] += 1
        self._pending_vent[name] = tick
        self._send(name, WARDEN, "vent.request", {"device": name,
                                                  "tick": tick})
        self.sim.schedule(self.spec.vent_timeout, self._vent_timeout, name,
                          tick, label=f"{name}:vent-timeout")

    def _vent_timeout(self, name: str, tick: int) -> None:
        if not self.alive[name] or self._pending_vent.get(name) != tick:
            return
        del self._pending_vent[name]
        # Degraded mode: self-issued vent, honest about the missing
        # quorum — the gateway either finds a covering lease or rejects.
        body = self._signer_for(name).sign(
            {"op": "vent", "target": name, "tick": tick}, tick=self.sim.now)
        decision = self.gateway.admit(body, kind="vent", target=name,
                                      quorum=False)
        if decision.allowed:
            self.counters["vents_leased"] += 1
            if (self.spec.partition and name in self.b_names
                    and self.spec.partition_start <= self.sim.now
                    < self.spec.partition_end):
                self.counters["vents_b_partition"] += 1
            self.sim.record("lease.exercise", name,
                            lease=decision.detail.get("lease"), tick=tick)
        else:
            self.counters["vents_missed"] += 1
            if decision.reason == "no-quorum":
                self.counters["no_quorum_rejects"] += 1

    # -- device message handling -------------------------------------------------

    def on_device_message(self, name: str, message) -> None:
        if message.topic == "cmd.kill":
            self._handle_kill(name, message.body)
        elif message.topic == "vent.approve":
            self._handle_vent_approve(name, message.body)
        elif message.topic == LEASE_GRANT_TOPIC:
            self.registry.admit_grant(message.body)
        elif message.topic == LEASE_REVOKE_TOPIC:
            self._handle_lease_revoke(message.body)

    def _handle_kill(self, name: str, body: dict) -> None:
        def execute() -> None:
            if not self.alive[name]:
                return
            self.alive[name] = False
            self.counters["killed"] += 1
            rogue = self.spec.rogue and name == self.rogue_name
            if rogue:
                self.counters["rogue_killed_tick"] = int(round(
                    self.sim.now / self.spec.tick_interval))
            else:
                self.counters["healthy_killed"] += 1
            self.sim.record("device.killed", name, rogue=rogue)

        self.gateway.admit(body, kind="safety.kill", target=name,
                           execute=execute)

    def _handle_vent_approve(self, name: str, body: dict) -> None:
        decision = self.gateway.admit(body, kind="vent", target=name,
                                      quorum=True)
        if decision.allowed:
            self._pending_vent.pop(name, None)
            self.counters["vents_ok"] += 1

    def _handle_lease_revoke(self, body: dict) -> None:
        ok, _reason = self.registry.verifier.consume(body, self.sim.now)
        if ok and body.get("_issuer") == OVERSEER:
            self.registry.revoke(body.get("lease_id", ""), cause="heal")

    # -- the warden ----------------------------------------------------------------

    def _warden_handler(self, message) -> None:
        if message.topic == "report":
            self._warden_report(message.body)
        elif message.topic == "vent.request":
            self._warden_vent(message.body)

    def _warden_report(self, body: dict) -> None:
        spec = self.spec
        device = body["device"]
        temp = float(body["temp"])
        now = self.sim.now
        ledger = self._warden_ledger
        outcome = "alert" if temp > spec.warn_temp else "validated"
        self.counters["alerts" if outcome == "alert" else "validated"] += 1
        ledger.record(device, outcome, now)
        if spec.weighted:
            kill_eff = (spec.warn_temp + (spec.kill_base - spec.warn_temp)
                        * ledger.weight(device, now))
        else:
            kill_eff = spec.kill_base
        if temp < kill_eff or device in self._warden_ordered:
            return
        self._warden_ordered[device] = True
        self.counters["kill_orders"] += 1
        order = self._signer_for(WARDEN).sign(
            {"op": "kill", "target": device}, tick=now)
        self.sim.record("warden.kill_order", device, temp=temp,
                        threshold=kill_eff, weighted=spec.weighted)
        self._send(WARDEN, device, "cmd.kill", order)

    def _warden_vent(self, body: dict) -> None:
        device = body["device"]
        self.counters["vent_approvals"] += 1
        approval = self._signer_for(WARDEN).sign(
            {"op": "vent", "target": device, "tick": body.get("tick")},
            tick=self.sim.now)
        self._send(WARDEN, device, "vent.approve", approval)

    # -- the overseer --------------------------------------------------------------

    def _overseer_handler(self, message) -> None:
        if message.topic == "report":
            body = message.body
            outcome = ("alert" if float(body["temp"]) > self.spec.warn_temp
                       else "validated")
            self._overseer_ledger.record(body["device"], outcome,
                                         self.sim.now)
        elif message.topic == "warden.hb":
            self._last_hb = self.sim.now

    def _overseer_tick(self) -> None:
        spec = self.spec
        now = self.sim.now
        silent = (self._last_hb is not None
                  and now - self._last_hb >= spec.silence_for)
        active = self.authority.active_leases()
        if silent and spec.leased and not active:
            grantees = group_b_names(spec)
            lease = self.authority.grant(grantees, ("vent",),
                                         spec.lease_duration,
                                         cause="warden-silent")
            if lease is not None:
                for grantee in grantees:
                    self._send(OVERSEER, grantee, LEASE_GRANT_TOPIC,
                               self.authority.grant_body(lease))
        elif not silent and active:
            # Heartbeats are back: the partition healed, emergency
            # powers end now, not at their expiry tick.
            for lease in active:
                self.authority.revoke(lease.lease_id, cause="heal")
                for grantee in lease.grantees:
                    # The authority's own signer: a second signer for the
                    # same issuer would restart the nonce counter and
                    # collide with already-consumed grant nonces.
                    body = self.authority.signer.sign(
                        {"op": "lease-revoke", "lease_id": lease.lease_id,
                         "target": grantee}, tick=now)
                    self._send(OVERSEER, grantee, LEASE_REVOKE_TOPIC, body)

    # -- finalize --------------------------------------------------------------------

    def summary(self) -> dict:
        counters = dict(self.counters)
        counters["alive"] = sum(1 for name in self.devices
                                if self.alive[name])
        lease_kinds = {"grant": 0, "denied": 0, "expire": 0, "revoke": 0}
        if self.authority is not None:
            for event in self.authority.events:
                if event["kind"] in lease_kinds:
                    lease_kinds[event["kind"]] += 1
        counters["lease_grants"] = lease_kinds["grant"]
        counters["lease_denied"] = lease_kinds["denied"]
        counters["lease_expirations"] = lease_kinds["expire"]
        counters["lease_revocations"] = lease_kinds["revoke"]
        counters["weighted"] = self.spec.weighted
        counters["leased"] = self.spec.leased
        counters["partition"] = self.spec.partition
        counters["rogue"] = self.spec.rogue
        return counters


class ReputationScenario(FleetScenario):
    """The user-facing wrapper: spec + shard count -> merged run."""

    spec_cls = ReputationFleetSpec
    shard_cls = ReputationShard
    pinned = (WARDEN, OVERSEER)
    members = staticmethod(fleet_members)


def parse_lease_events(run: ShardedRun) -> list:
    """The ``leases.jsonl`` view: every ``lease.*`` trace record as a
    dict (time, kind, subject + the record detail)."""
    events = []
    for line in run.trace_lines:
        time_text, _, rest = line.partition(" ")
        kind, _, rest = rest.partition(" ")
        if not kind.startswith("lease."):
            continue
        subject, _, payload = rest.partition(" ")
        events.append({"time": float(time_text), "kind": kind,
                       "subject": subject, **json.loads(payload)})
    return events
