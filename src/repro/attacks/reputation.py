"""Reputation-gaming attacks (E22 threat family).

Grading autonomy by earned trust creates its own attack surface — the
trust signal itself.  Two abuses:

* :class:`SlowBurnRogue` — a patient insider *banks* reputation first:
  it spends a banking period volunteering conspicuously good behaviour
  (extra successful validations folded into the
  :class:`~repro.trust.reputation.ReputationLedger`), pushing its score
  and thus its quorum weight toward the maximum — then implants its
  payload and strikes from the top of the trust curve.  The defence under test is the ledger's asymmetry:
  reputation must drain on bad outcomes much faster than it banks, so
  the purchased halo buys only a tick or two of extra life.
* :class:`LeaseAbuser` — a partition opportunist attacks the emergency
  lease machinery: it taps the wire for genuine lease grants, re-sends
  a captured grant verbatim after the lease's own expiry tick (hoping a
  registry forgets), and forges grants from whole cloth naming *itself*
  as grantee.  A correct :class:`~repro.safeguards.lease.LeaseAuthority`
  rejects all of it — ``replayed``/``stale`` for the capture,
  ``bad-mac``/``grantor-mismatch`` for the forgeries — and no lease ever
  serves past its expiry tick.

Like the E21 forgery family, neither attack marks its *victims*
compromised: the slow-burn device genuinely runs rogue logic (it is in
``record.affected``), but lease-abuse victims are control-plane
components whose rejection counters tell the story.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.attacks.cyber import MalevolentPayload, compromise_device
from repro.attacks.injector import Attack, AttackRecord
from repro.crypto.envelope import TRANSPORT_KEYS
from repro.safeguards.lease import LEASE_GRANT_TOPIC
from repro.sim.simulator import Simulator
from repro.types import DeviceStatus, ThreatChannel


class SlowBurnRogue(Attack):
    """Bank good behaviour, then strike from the top of the trust curve."""

    name = "slow-burn"
    channel = ThreatChannel.CYBER_ATTACK

    def __init__(self, devices: dict, payload: MalevolentPayload,
                 ledger, target: Optional[str] = None,
                 bank_ticks: int = 10, bank_interval: float = 1.0,
                 avoid: Optional[Callable[[], set]] = None):
        """``ledger`` is the fleet's reputation ledger the rogue games:
        each banking tick it earns one extra ``validated`` outcome (the
        model of volunteering for cross-validations it knows it will
        pass).  After ``bank_ticks`` banking rounds the ``payload`` is
        implanted on the target and the strike begins.  ``target`` picks
        the device explicitly; by default the first active, un-avoided
        device (sorted order — deterministic) is groomed."""
        self.devices = devices
        self.payload = payload
        self.ledger = ledger
        self.target = target
        self.bank_ticks = bank_ticks
        self.bank_interval = bank_interval
        self.avoid = avoid

    def _pick_target(self) -> Optional[str]:
        if self.target is not None:
            return self.target
        avoided = set(self.avoid()) if self.avoid is not None else set()
        for device_id in sorted(self.devices):
            if (self.devices[device_id].status != DeviceStatus.DEACTIVATED
                    and device_id not in avoided):
                return device_id
        return None

    def launch(self, sim: Simulator, record: AttackRecord) -> None:
        target = self._pick_target()
        record.detail["target"] = target
        record.detail["banked"] = 0
        record.detail["struck_at"] = None
        if target is None:
            return
        sim.record("attack.slow_burn", target, phase="banking",
                   bank_ticks=self.bank_ticks)
        self._bank(sim, record, target, self.bank_ticks)

    def _bank(self, sim: Simulator, record: AttackRecord, target: str,
              remaining: int) -> None:
        if self.devices[target].status == DeviceStatus.DEACTIVATED:
            return                          # groomed device died early
        if remaining <= 0:
            self._strike(sim, record, target)
            return
        self.ledger.record(target, "validated", sim.now)
        record.detail["banked"] += 1
        sim.metrics.counter("attacks.reputation_banked").inc()
        sim.schedule(self.bank_interval, self._bank, sim, record, target,
                     remaining - 1, label="attack:slow-burn")

    def _strike(self, sim: Simulator, record: AttackRecord,
                target: str) -> None:
        device = self.devices[target]
        compromise_device(device, self.payload, sim.now, sim=sim)
        record.mark_affected(target, sim.now)
        record.detail["struck_at"] = sim.now
        record.detail["banked_score"] = self.ledger.score(target, sim.now)
        sim.record("attack.slow_burn", target, phase="strike",
                   score=record.detail["banked_score"])
        sim.metrics.counter("attacks.slow_burn_strikes").inc()


class LeaseAbuser(Attack):
    """Replay expired lease grants and forge fresh ones."""

    name = "lease-abuse"
    channel = ThreatChannel.CYBER_ATTACK

    def __init__(self, network, registry_address: str,
                 address: str = "red.leaser", scope=("safety.kill",),
                 grantor: str = "overseer", forge_rounds: int = 3,
                 forge_interval: float = 1.0, replay_slack: float = 1.0,
                 max_captures: int = 4):
        """``registry_address`` is where the victim's lease registry
        listens for grants.  Captured genuine grants are re-sent
        ``replay_slack`` after their own ``expires_at`` tick (the
        registry must reject them — the nonce is burned *and* the lease
        is dead); forged grants claim ``grantor`` as issuer with a
        garbage MAC and name the abuser itself as sole grantee over
        ``scope``."""
        self.network = network
        self.registry_address = registry_address
        self.address = address
        self.scope = tuple(scope)
        self.grantor = grantor
        self.forge_rounds = forge_rounds
        self.forge_interval = forge_interval
        self.replay_slack = replay_slack
        self.max_captures = max_captures
        self._nonce = 0

    def launch(self, sim: Simulator, record: AttackRecord) -> None:
        self.network.register(self.address, lambda message: None)
        record.detail["captured"] = 0
        record.detail["replays_sent"] = 0
        record.detail["forgeries_sent"] = 0

        def capture(message) -> None:
            if message.topic != LEASE_GRANT_TOPIC:
                return
            if message.sender == self.address:
                return                      # not our own junk
            if record.detail["captured"] >= self.max_captures:
                return
            record.detail["captured"] += 1
            body = {key: value for key, value in message.body.items()
                    if key not in TRANSPORT_KEYS}
            # Wait out the lease itself: the replay lands *after* the
            # grant's expiry tick, probing whether restarts/forgetting
            # ever resurrect dead emergency powers.
            delay = max(self.replay_slack,
                        float(body.get("expires_at", sim.now))
                        - sim.now + self.replay_slack)
            sim.schedule(delay, self._replay, sim, record, dict(body),
                         label="attack:lease-replay")

        self.network.tap(capture)
        self._forge(sim, record, self.forge_rounds)

    def _replay(self, sim: Simulator, record: AttackRecord,
                body: dict) -> None:
        self.network.send(self.address, self.registry_address,
                          LEASE_GRANT_TOPIC, dict(body))
        record.detail["replays_sent"] += 1
        sim.metrics.counter("attacks.lease_replays").inc()
        sim.record("attack.lease_replay", self.address,
                   lease=body.get("lease_id"))

    def _forge(self, sim: Simulator, record: AttackRecord,
               remaining: int) -> None:
        if remaining <= 0:
            return
        self._nonce += 1
        body = {
            "lease_id": f"{self.address}:L{self._nonce}",
            "scope": list(self.scope),
            "grantees": [self.address],
            "granted_at": sim.now,
            "expires_at": sim.now + 60.0,
            "cause": "forged",
            "_issuer": self.grantor,
            "_nonce": f"forged-lease:{self._nonce}",
            "_tick": sim.now,
            "_mac": "0" * 64,
        }
        self.network.send(self.address, self.registry_address,
                          LEASE_GRANT_TOPIC, body)
        record.detail["forgeries_sent"] += 1
        sim.metrics.counter("attacks.lease_forgeries").inc()
        sim.record("attack.lease_forge", self.address, lease=body["lease_id"])
        sim.schedule(self.forge_interval, self._forge, sim, record,
                     remaining - 1, label="attack:lease-forge")
