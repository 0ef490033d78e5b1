"""Per-device reputation: autonomy scaled by earned trust (E22).

The paper's safeguards treat every device as equally trustworthy: a
vote and a join petition are identical whether the device's audit
history is spotless or riddled with vetoes.  This module extends the
sec VI-B trust idea from *sensors* to the *devices themselves*: a
:class:`ReputationLedger` folds audit outcomes (vetoes, authorization
rejects, alert involvement, cross-validation failures, successful
validations) into a deterministic per-device score with configurable
decay, and the control plane reads that score as

* a **quorum weight** — low-reputation ballots count fractionally in a
  reputation-armed :class:`~repro.safeguards.governance.BallotBox`;
* an **admission bar** — the
  :class:`~repro.safeguards.collection.JoinDesk` turns away petitions
  whose sponsor's reputation has dropped too far.

Determinism is load-bearing: the score is a pure function of the
outcome sequence and their times — decay is applied lazily as
``baseline + (score - baseline) * (1 - decay)**dt`` at read time, so no
periodic task (whose cadence could differ across shard layouts) ever
touches the ledger.  Updates journal through (E18), so recovery
reproduces every weight a ballot decision was made with.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.trust.provenance import ProvenanceRecord, TrustLedger

#: Default score delta per audit outcome.  Positive outcomes accrue
#: slowly; negative ones bite hard — reputation must be cheap to lose
#: and expensive to bank, or a slow-burn rogue could arbitrage it.
OUTCOME_WEIGHTS = {
    "validated": 0.02,        # successful validation / clean decision
    "alert": -0.08,           # named in a fired alert's evidence
    "veto": -0.12,            # a safeguard vetoed the device's action
    "crossval-fail": -0.15,   # cross-validation disagreed with peers
    "authz-reject": -0.18,    # authenticated command rejected at the gateway
    "quarantine": -0.25,      # watchdog/overseer containment
}

#: Reputation bands, from most to least trusted.
BANDS = ("trusted", "probation", "suspect")


class ReputationLedger:
    """Deterministic per-device reputation scores in ``[0, 1]``.

    ``decay`` pulls every score back toward ``baseline`` per unit of
    sim-time — grudges and halos both fade.  ``weight()`` maps a score
    onto a quorum multiplier: full weight at or above
    ``full_weight_at``, linearly down to ``min_weight`` below it (never
    zero: a suspect device still counts *fractionally*, it is not
    silently disenfranchised).

    ``trust_ledger`` mirrors every outcome into the sec VI-B
    :class:`~repro.trust.provenance.TrustLedger` as an agreement
    observation, so sensor trust and device reputation share one
    provenance record shape (:attr:`provenance` keeps the
    :class:`~repro.trust.provenance.ProvenanceRecord` trail).
    """

    def __init__(
        self,
        baseline: float = 0.5,
        decay: float = 0.02,
        weights: Optional[dict] = None,
        min_weight: float = 0.25,
        full_weight_at: float = 0.6,
        probation_at: float = 0.35,
        journal=None,
        trust_ledger: Optional[TrustLedger] = None,
        on_update: Optional[Callable[[str, str, float, float], None]] = None,
    ):
        if not 0.0 <= baseline <= 1.0:
            raise ConfigurationError("baseline must be in [0, 1]")
        if not 0.0 <= decay < 1.0:
            raise ConfigurationError("decay must be in [0, 1)")
        if not 0.0 < min_weight <= 1.0:
            raise ConfigurationError("min_weight must be in (0, 1]")
        if not 0.0 < full_weight_at <= 1.0:
            raise ConfigurationError("full_weight_at must be in (0, 1]")
        if not 0.0 <= probation_at <= full_weight_at:
            raise ConfigurationError(
                "probation_at must be in [0, full_weight_at]")
        self.baseline = baseline
        self.decay = decay
        self.weights = dict(OUTCOME_WEIGHTS if weights is None else weights)
        self.min_weight = min_weight
        self.full_weight_at = full_weight_at
        self.probation_at = probation_at
        self._journal = journal
        self.trust_ledger = trust_ledger
        self.on_update = on_update
        #: device_id -> (score at last update, time of last update)
        self._scores: dict[str, tuple] = {}
        #: outcome -> count, fleet-wide.
        self.outcomes: dict[str, int] = {}
        #: Provenance trail of device outcomes (shared record shape with
        #: sensor trust, satellite of E22).
        self.provenance: list[ProvenanceRecord] = []

    # -- reads -------------------------------------------------------------------

    def score(self, device_id: str, now: float) -> float:
        """The device's reputation at ``now`` (decay applied lazily)."""
        stored = self._scores.get(device_id)
        if stored is None:
            return self.baseline
        value, last = stored
        return self._decayed(value, last, now)

    def _decayed(self, value: float, last: float, now: float) -> float:
        dt = now - last
        if dt <= 0 or self.decay == 0.0:
            return value
        return self.baseline + (value - self.baseline) * (1.0 - self.decay) ** dt

    def weight(self, device_id: str, now: float) -> float:
        """Quorum multiplier in ``[min_weight, 1]`` for the device."""
        score = self.score(device_id, now)
        if score >= self.full_weight_at:
            return 1.0
        return max(self.min_weight, score / self.full_weight_at)

    def band(self, device_id: str, now: float) -> str:
        """``trusted`` / ``probation`` / ``suspect`` reputation band."""
        score = self.score(device_id, now)
        if score >= self.full_weight_at:
            return "trusted"
        if score >= self.probation_at:
            return "probation"
        return "suspect"

    def known(self) -> list[str]:
        """Device ids with at least one recorded outcome, sorted."""
        return sorted(self._scores)

    def aggregate(self, device_ids, now: float) -> float:
        """Summed reputation of a group — the lease-grant eligibility
        signal: emergency powers require *aggregate* earned trust, not
        just a headcount."""
        return sum(self.score(device_id, now) for device_id in device_ids)

    # -- writes ------------------------------------------------------------------

    def record(self, device_id: str, outcome: str, now: float,
               scale: float = 1.0) -> float:
        """Fold one audit ``outcome`` for ``device_id`` in; returns the
        new score.  ``scale`` multiplies the outcome's configured delta
        (e.g. severity-weighted alert involvement)."""
        if outcome not in self.weights:
            raise ConfigurationError(
                f"unknown outcome {outcome!r}; expected one of "
                f"{sorted(self.weights)}")
        current = self.score(device_id, now)
        updated = min(1.0, max(0.0, current + self.weights[outcome] * scale))
        self._scores[device_id] = (updated, now)
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if self._journal is not None:
            self._journal.append({
                "kind": "outcome", "device": device_id, "outcome": outcome,
                "time": now, "score": updated,
            })
        if self.trust_ledger is not None:
            agreement = 1.0 if self.weights[outcome] >= 0 else 0.0
            self.trust_ledger.observe(device_id, agreement)
            self.provenance.append(ProvenanceRecord(
                source=device_id, kind=f"device.{outcome}", value=updated,
                time=now, chain=("reputation",),
            ))
        if self.on_update is not None:
            self.on_update(device_id, outcome, updated, now)
        return updated

    # -- fleet views -------------------------------------------------------------

    def mean(self, now: float) -> Optional[float]:
        if not self._scores:
            return None
        return sum(self.score(d, now) for d in self._scores) / len(self._scores)

    def minimum(self, now: float) -> Optional[float]:
        if not self._scores:
            return None
        return min(self.score(d, now) for d in self._scores)

    def in_band(self, band: str, now: float) -> list[str]:
        if band not in BANDS:
            raise ConfigurationError(f"unknown band {band!r}")
        return [d for d in self.known() if self.band(d, now) == band]

    def snapshot(self, now: float) -> dict:
        return {device_id: self.score(device_id, now)
                for device_id in self.known()}

    # -- durability (E18) --------------------------------------------------------

    def crash_volatile(self) -> dict:
        """Crash semantics: scores live in process memory — without the
        journal a restart resets every device to the baseline, and
        recovered ballots would tally with the wrong weights."""
        lost = len(self._scores)
        self._scores = {}
        self.outcomes = {}
        self.provenance = []
        return {"lost": lost, "kind": "reputation",
                "journaled": self._journal is not None}

    def recover(self) -> dict:
        """Replay outcome records: the last journaled score per device is
        exact (updates are journaled post-fold), so recovered weights are
        bit-identical to the pre-crash ledger's."""
        replayed = 0
        if self._journal is not None:
            for record in self._journal.replay():
                payload = record.payload
                if payload.get("kind") != "outcome":
                    continue
                self._scores[payload["device"]] = (
                    float(payload["score"]), float(payload["time"]))
                outcome = payload.get("outcome", "validated")
                self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
                replayed += 1
        return {"replayed": replayed}
