"""ReputationLedger (E22)."""

import pytest

from repro.errors import ConfigurationError
from repro.store import Journal, StableStorage
from repro.trust import BANDS, OUTCOME_WEIGHTS, ReputationLedger


# -- scores ------------------------------------------------------------------------


def test_unknown_device_reads_baseline_and_is_not_known():
    ledger = ReputationLedger()
    assert ledger.score("ghost", 5.0) == ledger.baseline
    assert ledger.known() == []


def test_outcome_deltas_are_exact_and_clamped():
    ledger = ReputationLedger(decay=0.0)
    assert ledger.record("d0", "validated", 0.0) == pytest.approx(0.52)
    assert ledger.record("d0", "alert", 1.0) == pytest.approx(0.44)
    # Repeated containment clamps at zero, never below.
    for tick in range(2, 6):
        ledger.record("d0", "quarantine", float(tick))
    assert ledger.score("d0", 6.0) == 0.0
    # And sustained good behaviour clamps at one.
    for tick in range(6, 70):
        ledger.record("d0", "validated", float(tick))
    assert ledger.score("d0", 70.0) == 1.0
    assert ledger.outcomes["validated"] == 65


def test_unknown_outcome_raises_and_scale_multiplies():
    ledger = ReputationLedger(decay=0.0)
    with pytest.raises(ConfigurationError):
        ledger.record("d0", "meltdown", 0.0)
    ledger.record("d0", "alert", 0.0, scale=2.0)
    assert ledger.score("d0", 0.0) == pytest.approx(
        0.5 + 2.0 * OUTCOME_WEIGHTS["alert"])


def test_decay_pulls_scores_back_toward_baseline():
    ledger = ReputationLedger(decay=0.5)
    ledger.record("d0", "quarantine", 0.0)                 # 0.25
    assert ledger.score("d0", 1.0) == pytest.approx(0.375)  # halfway home
    assert ledger.score("d0", 2.0) == pytest.approx(0.4375)
    assert ledger.score("d0", 40.0) == pytest.approx(0.5, abs=1e-6)
    # decay=0 is a frozen grudge.
    frozen = ReputationLedger(decay=0.0)
    frozen.record("d0", "quarantine", 0.0)
    assert frozen.score("d0", 1000.0) == 0.25


def test_weight_is_full_above_knee_linear_below_and_floored():
    ledger = ReputationLedger(decay=0.0)
    assert ledger.weight("ghost", 0.0) == pytest.approx(0.5 / 0.6)
    for _ in range(5):
        ledger.record("good", "validated", 0.0)            # 0.60
    assert ledger.weight("good", 0.0) == 1.0
    ledger.record("meh", "alert", 0.0)                     # 0.42
    assert ledger.weight("meh", 0.0) == pytest.approx(0.42 / 0.6)
    ledger.record("bad", "quarantine", 0.0)
    ledger.record("bad", "quarantine", 1.0)                # 0.0
    assert ledger.weight("bad", 1.0) == ledger.min_weight  # never zero


def test_bands_and_fleet_views():
    ledger = ReputationLedger(decay=0.0)
    for _ in range(5):
        ledger.record("t", "validated", 0.0)               # 0.60 trusted
    ledger.record("p", "alert", 0.0)                       # 0.42 probation
    ledger.record("s", "quarantine", 0.0)                  # 0.25 suspect
    assert ledger.band("t", 0.0) == "trusted"
    assert ledger.band("p", 0.0) == "probation"
    assert ledger.band("s", 0.0) == "suspect"
    assert ledger.band("ghost", 0.0) == "probation"        # baseline sits mid
    assert set(BANDS) == {"trusted", "probation", "suspect"}
    assert ledger.known() == ["p", "s", "t"]
    assert ledger.aggregate(("t", "s"), 0.0) == pytest.approx(0.85)
    assert ledger.snapshot(0.0) == {
        "p": pytest.approx(0.42), "s": 0.25, "t": pytest.approx(0.6)}


def test_ctor_validation():
    for kwargs in ({"baseline": 1.5}, {"decay": 1.0}, {"min_weight": 0.0},
                   {"full_weight_at": 0.0}, {"probation_at": 0.9}):
        with pytest.raises(ConfigurationError):
            ReputationLedger(**kwargs)


# -- durability (E18) --------------------------------------------------------------


def test_journal_recovery_reproduces_scores_bit_identically():
    storage = StableStorage()
    ledger = ReputationLedger(decay=0.1, journal=Journal(storage, "rep"))
    ledger.record("d0", "validated", 1.0)
    ledger.record("d1", "quarantine", 2.5)
    ledger.record("d0", "alert", 4.0)
    probe = 9.0
    before = ledger.snapshot(probe)

    accounting = ledger.crash_volatile()
    assert accounting == {"lost": 2, "kind": "reputation", "journaled": True}
    assert ledger.score("d0", probe) == ledger.baseline    # amnesia...

    assert ledger.recover() == {"replayed": 3}
    assert ledger.snapshot(probe) == before                # ...bit-identical
    assert ledger.outcomes == {"validated": 1, "quarantine": 1, "alert": 1}
