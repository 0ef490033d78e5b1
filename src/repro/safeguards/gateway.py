"""Replay-proof actuation gateway (E21, modelled on the Sentinel SCA).

The sec VI safeguards actuate over the wire: kill orders, quarantine
commands, join verdicts.  The :class:`ActuationGateway` sits in front of
the actuator and **verifies-then-executes**: an inbound command body must
carry a valid :mod:`repro.crypto` envelope (HMAC over payload + issuer +
nonce + tick, fresh nonce, tick inside the window) *and* clear the
gateway's operational safety rails before the actuator fires:

* **target binding** — the signed payload names the device it actuates;
  a captured envelope re-addressed at a different device fails here even
  before the nonce cache would catch an exact replay;
* **per-issuer budget** — at most ``budget`` actuations per issuer per
  ``budget_window`` sim-seconds; exceeding it trips the global freeze
  (a stolen key cannot sign its way through the whole fleet);
* **per-issuer cooldown** — minimum spacing between actuations;
* **global freeze** — a journaled kill switch that fails closed: while
  frozen, *every* actuation is rejected until an operator unfreezes.

Every reject is metered (``authz.rejected.<reason>``), traced
(``safeguard.authz`` spans), audit-chained, and journaled; accepted
nonces journal through too, so a crash/restart cannot launder a replayed
order (E18 durability) — :meth:`recover` re-burns them into the verifier
and re-asserts the freeze state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.crypto.envelope import EnvelopeVerifier
from repro.errors import ConfigurationError

#: Stable rejection reasons the gateway adds on top of the verifier's.
GATEWAY_REASONS = ("frozen", "target-mismatch", "budget", "cooldown",
                   "no-quorum")


@dataclass
class AuthzDecision:
    """One gateway verdict (accepted or rejected)."""

    time: float
    kind: str
    target: Optional[str]
    issuer: Optional[str]
    nonce: Optional[str]
    allowed: bool
    reason: str
    detail: dict = field(default_factory=dict)


class ActuationGateway:
    """Fleet-level verify-then-execute front for device actuators."""

    def __init__(
        self,
        sim,
        verifier: EnvelopeVerifier,
        budget: Optional[int] = None,
        budget_window: float = 60.0,
        cooldown: float = 0.0,
        freeze_on_budget: bool = True,
        journal=None,
        audit=None,
        name: str = "gateway",
        leases=None,
    ):
        """``budget`` is the per-issuer acceptance cap inside a rolling
        ``budget_window`` (``None`` = uncapped).  ``cooldown`` is the
        minimum sim-time between two acceptances from one issuer.
        ``freeze_on_budget`` makes a budget violation trip the global
        freeze — the Sentinel kill-switch reading of "a key is being
        spent faster than any legitimate issuer would".

        ``journal`` (a :class:`~repro.store.journal.Journal`) makes the
        consumed-nonce set and the freeze flag crash-durable;
        ``audit`` (an :class:`~repro.audit.log.AuditLog`) chains every
        reject and freeze transition into tamper-evident history.

        ``leases`` (a :class:`~repro.safeguards.lease.LeaseAuthority`)
        lets :meth:`admit` honor an active emergency lease in place of
        quorum when the caller passes ``quorum=False``."""
        if budget is not None and budget < 1:
            raise ConfigurationError("budget must be >= 1 or None")
        if budget_window <= 0:
            raise ConfigurationError("budget_window must be positive")
        if cooldown < 0:
            raise ConfigurationError("cooldown must be non-negative")
        self.sim = sim
        self.verifier = verifier
        self.budget = budget
        self.budget_window = budget_window
        self.cooldown = cooldown
        self.freeze_on_budget = freeze_on_budget
        self.name = name
        self.leases = leases
        self._journal = journal
        self._audit = audit
        self.frozen = False
        self.freeze_reason: Optional[str] = None
        self.decisions: list[AuthzDecision] = []
        self._accept_times: dict[str, deque] = {}
        self._last_accept: dict[str, float] = {}

    # -- the verify-then-execute path -------------------------------------------

    def admit(
        self,
        body: dict,
        kind: str,
        target: Optional[str] = None,
        execute: Optional[Callable[[], None]] = None,
        quorum: Optional[bool] = None,
    ) -> AuthzDecision:
        """Authorize ``body`` for actuation ``kind`` on ``target``.

        Runs the full chain — freeze, envelope crypto + replay, target
        binding, quorum/lease, cooldown, budget — and only then calls
        ``execute``.  The envelope's nonce is burned exactly when the
        command is accepted, so a rejected-for-budget envelope could in
        principle retry later; a *consumed* one can never actuate twice.

        ``quorum`` is the caller's governance evidence: ``None`` means
        the actuation kind needs no quorum (legacy path, unchanged);
        ``True`` means quorum formed; ``False`` means it could not — the
        gateway then honors an active :class:`~repro.safeguards.lease`
        emergency lease covering ``kind`` for this issuer (E22), or
        rejects with ``no-quorum``.
        """
        now = self.sim.now
        issuer = body.get("_issuer")
        nonce = body.get("_nonce")
        if self.frozen:
            return self._reject(kind, target, issuer, nonce, "frozen")
        ok, reason = self.verifier.verify(body, now)
        if not ok:
            return self._reject(kind, target, issuer, nonce, reason)
        if target is not None and body.get("target") != target:
            return self._reject(kind, target, issuer, nonce, "target-mismatch",
                                claimed=body.get("target"))
        lease = None
        if quorum is False:
            lease = (self.leases.lease_for(kind, issuer)
                     if self.leases is not None else None)
            if lease is None:
                return self._reject(kind, target, issuer, nonce, "no-quorum")
        last = self._last_accept.get(issuer)
        if self.cooldown > 0 and last is not None and now - last < self.cooldown:
            return self._reject(kind, target, issuer, nonce, "cooldown",
                                since_last=now - last)
        accepts = self._accept_times.setdefault(issuer, deque())
        while accepts and now - accepts[0] > self.budget_window:
            accepts.popleft()
        budget = self.budget
        if budget is not None and len(accepts) >= budget:
            decision = self._reject(kind, target, issuer, nonce, "budget",
                                    window=self.budget_window,
                                    budget=budget)
            if self.freeze_on_budget:
                self.freeze(f"issuer {issuer!r} exceeded budget "
                            f"{budget}/{self.budget_window}")
            return decision
        # All rails cleared: burn the nonce, account, actuate.
        self.verifier.consume(body, now)
        accepts.append(now)
        self._last_accept[issuer] = now
        self._journal_write({"kind": "nonce", "nonce": nonce,
                             "tick": float(body.get("_tick", now)),
                             "issuer": issuer})
        detail = {}
        if lease is not None:
            self.leases.exercise(lease.lease_id)
            detail["lease"] = lease.lease_id
        decision = AuthzDecision(time=now, kind=kind, target=target,
                                 issuer=issuer, nonce=nonce,
                                 allowed=True, reason="ok", detail=detail)
        self.decisions.append(decision)
        self.sim.metrics.counter("authz.accepted").inc()
        if execute is not None:
            execute()
        return decision

    # -- the kill switch ---------------------------------------------------------

    def freeze(self, reason: str) -> None:
        """Trip the global freeze: every actuation rejects until unfrozen."""
        if self.frozen:
            return
        self.frozen = True
        self.freeze_reason = reason
        self.sim.metrics.counter("authz.freezes").inc()
        self.sim.record("authz.freeze", self.name, reason=reason)
        self._journal_write({"kind": "freeze", "frozen": True,
                            "reason": reason})
        self._audit_write("authz.freeze", {"reason": reason})
        telemetry = self.sim.telemetry
        if telemetry.enabled and telemetry.active_context() is not None:
            telemetry.start_span("safeguard.authz", self.name,
                                 parent=telemetry.active_context(),
                                 action="freeze", reason=reason)

    def unfreeze(self, operator: str = "operator") -> None:
        """Operator-side release (after key rotation / forensics)."""
        if not self.frozen:
            return
        self.frozen = False
        self.freeze_reason = None
        self.sim.record("authz.unfreeze", self.name, operator=operator)
        self._journal_write({"kind": "freeze", "frozen": False,
                            "reason": operator})
        self._audit_write("authz.unfreeze", {"operator": operator})

    # -- accounting --------------------------------------------------------------

    def _reject(self, kind: str, target: Optional[str], issuer, nonce,
                reason: str, **detail) -> AuthzDecision:
        decision = AuthzDecision(time=self.sim.now, kind=kind, target=target,
                                 issuer=issuer, nonce=nonce,
                                 allowed=False, reason=reason, detail=detail)
        self.decisions.append(decision)
        self.sim.metrics.counter("authz.rejected").inc()
        self.sim.metrics.counter(f"authz.rejected.{reason}").inc()
        self.sim.record("authz.reject", target or self.name, command=kind,
                        issuer=issuer, reason=reason)
        self._audit_write("authz.reject", {
            "kind": kind, "target": target, "issuer": issuer,
            "nonce": nonce, "reason": reason, **detail,
        })
        telemetry = self.sim.telemetry
        if telemetry.enabled and telemetry.active_context() is not None:
            telemetry.start_span("safeguard.authz", target or self.name,
                                 parent=telemetry.active_context(),
                                 kind=kind, reason=reason, issuer=issuer)
        return decision

    def _journal_write(self, payload: dict) -> None:
        if self._journal is not None:
            self._journal.append(payload)

    def _audit_write(self, kind: str, detail: dict) -> None:
        if self._audit is not None:
            self._audit.append(self.sim.now, kind, self.name, detail)

    def rejects(self, reason: Optional[str] = None) -> list[AuthzDecision]:
        out = [d for d in self.decisions if not d.allowed]
        if reason is not None:
            out = [d for d in out if d.reason == reason]
        return out

    def accepts(self) -> list[AuthzDecision]:
        return [d for d in self.decisions if d.allowed]

    # -- durability (E18) --------------------------------------------------------

    def crash_volatile(self) -> dict:
        """Crash semantics: the nonce cache, budget ledgers, and freeze
        flag live in process memory — without the journal a restart
        would accept a replayed order and forget an active freeze."""
        lost = self.verifier.cache_len() + (1 if self.frozen else 0)
        self.verifier.forget_all()
        self._accept_times = {}
        self._last_accept = {}
        self.frozen = False
        self.freeze_reason = None
        return {"lost": lost, "kind": "authz",
                "journaled": self._journal is not None}

    def recover(self) -> dict:
        """Replay consumed nonces and the freeze state from the journal.

        Budget ledgers are deliberately *not* reconstructed (their
        rolling windows have usually expired across a restart); the
        replay-proofing and the kill switch are what must survive.
        """
        replayed = 0
        if self._journal is not None:
            for record in self._journal.replay():
                payload = record.payload
                if payload.get("kind") == "nonce":
                    self.verifier.restore(payload["nonce"],
                                          float(payload.get("tick", 0.0)))
                elif payload.get("kind") == "freeze":
                    self.frozen = bool(payload.get("frozen"))
                    self.freeze_reason = (payload.get("reason")
                                          if self.frozen else None)
                replayed += 1
        return {"replayed": replayed}
