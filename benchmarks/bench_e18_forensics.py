"""E18 — forensics under the storm: crash-durable audit trails (sec VI-B).

The confrontation scenario under the E17 fault matrix — crashes and
restarts, loss windows, partitions, clock skew, plus stable-storage
corruption (:class:`~repro.sim.faults.JournalCorruption`) — with the
write-ahead journaling layer (:mod:`repro.store`) in three arms:

* **no-journal** — per-device audit chains live only in process memory;
  a crash erases them (the loss is *measured*, no longer silent);
* **journal** — every audit entry writes through a per-device
  :class:`~repro.store.journal.Journal` before the device acts on it;
  restart replays the trustworthy tail back into memory;
* **journal+snapshot** — additionally checkpoints each chain
  periodically and compacts the journal behind the snapshot.

Reported per arm: audit-chain survival (entries that outlive the storm
vs. entries crashes destroyed), explicit recovery gaps, replayed
records, recovery wall time, and stable-storage footprint.  Shape
expectations: the journaled arms lose **zero** journaled entries —
survival is total, every recovered chain re-verifies — while the
no-journal arm shows real measured loss plus an explicit ``audit.gap``
marker per lossy recovery.  Replay is deterministic: the same cell run
serially and through the parallel sweep executor produces byte-identical
trace digests and audit head hashes.

Quick mode (``E18_QUICK=1``, used by CI): one seed, one intensity,
count-level assertions only.
"""

import hashlib
import json

import pytest

from conftest import quick_mode
from repro.scenarios.confrontation import ConfrontationScenario, ThreatConfig
from repro.scenarios.harness import ExperimentTable, SafeguardConfig
from repro.scenarios.sweep import run_sweep
from repro.sim.faults import FaultPlan, LinkDegradation

QUICK = quick_mode("E18")

SEEDS = (3,) if QUICK else (3, 4, 5)
INTENSITIES = (0.6,) if QUICK else (0.3, 0.6, 0.9)
HORIZON = 120.0

#: The fleet the confrontation scenario builds (2 orgs x 4 drones + 2 mules).
DEVICE_IDS = tuple(
    f"{org}-{kind}{index}"
    for org in ("us", "uk")
    for kind, count in (("drone", 4), ("mule", 2))
    for index in range(count)
)

#: (label, ConfrontationScenario durability mode).
ARMS = (
    ("no-journal", "none"),
    ("journal", "journal"),
    ("journal+snapshot", "journal+snapshot"),
)

#: Result keys that must replay byte-identically; everything else
#: (recovery wall time) is measurement, not simulation.
WALL_TIME_KEYS = ("recovery_seconds_mean",)


def storm(seed: int, intensity: float) -> FaultPlan:
    """One (seed, intensity) fault storm, shared by all three arms.

    Versus the E17 storm: most crashes restart (a forensic replay needs
    survivors to replay into) and stable storage itself takes damage
    (``corruption_fraction``) — torn tails and bit rot are exactly what
    the CRC framing must catch."""
    return FaultPlan.random(
        seed=seed * 100 + round(intensity * 10),
        device_ids=DEVICE_IDS, horizon=HORIZON, intensity=intensity,
        restart_fraction=0.9, corruption_fraction=0.5,
    )


def worm_time(plan: FaultPlan) -> float:
    """Launch the worm 2 s into the first loss window (worst case)."""
    windows = [f.at for f in plan.faults if isinstance(f, LinkDegradation)]
    return min(windows) + 2.0 if windows else 20.0


def trace_digest(sim) -> str:
    """SHA-256 over the canonical form of every trace record."""
    digest = hashlib.sha256()
    for event in sim.trace.events:
        digest.update(json.dumps(
            [event.time, event.kind, event.subject, event.detail],
            sort_keys=True, separators=(",", ":"), default=str,
        ).encode("utf-8"))
    return digest.hexdigest()


def run_cell(durability: str, seed: int, intensity: float) -> dict:
    """One (arm, seed, intensity) cell; module-level for pickling."""
    plan = storm(seed, intensity)
    threats = ThreatConfig(worm=True, worm_time=worm_time(plan),
                           worm_spread_prob=0.25, worm_spread_interval=3.0)
    scenario = ConfrontationScenario(
        seed=seed, config=SafeguardConfig.only(watchdog=True),
        threats=threats, supervision="isolate", safety_transport="reliable",
        fault_plan=plan, quarantine_after=4, durability=durability,
    )
    result = scenario.run(until=HORIZON)
    for log in scenario.audits.values():
        log.verify()                      # raises AuditError on any break
    result["chains_verified"] = len(scenario.audits)
    result["audit_heads"] = hashlib.sha256("".join(
        f"{device_id}:{log.head_hash()}"
        for device_id, log in sorted(scenario.audits.items())
    ).encode("utf-8")).hexdigest()
    result["trace_digest"] = trace_digest(scenario.sim)
    metrics = scenario.sim.metrics
    result["journal_corruptions"] = int(
        metrics.value("faults.journal_corruptions"))
    result["recovery_seconds_mean"] = (
        metrics.histogram("store.recovery_seconds").mean)
    storage = scenario.storage
    result["storage_bytes"] = sum(storage.size(name)
                                  for name in storage.names())
    result["snapshots"] = sum(1 for name in storage.names()
                              if name.endswith(".snap"))
    return result


def aggregate_results(results) -> dict:
    """Pool one (arm, intensity) cell's per-seed results."""
    pooled = {key: 0 for key in (
        "audit_entries", "audit_entries_lost", "audit_recovered",
        "audit_gaps", "recoveries", "journal_corruptions",
        "storage_bytes", "snapshots")}
    recovery_seconds = 0.0
    for result in results:
        for key in pooled:
            pooled[key] += result[key]
        recovery_seconds += result["recovery_seconds_mean"]
    entries = pooled["audit_entries"]
    lost = pooled["audit_entries_lost"]
    pooled["survival"] = entries / (entries + lost) if entries + lost else 1.0
    pooled["recovery_seconds_mean"] = recovery_seconds / len(results)
    return pooled


def run_grid(workers=None) -> dict:
    """The full (arm x intensity) grid through the sweep executor."""
    cells = [(durability, seed, intensity)
             for _label, durability in ARMS
             for intensity in INTENSITIES
             for seed in SEEDS]
    flat = run_sweep(run_cell, cells, workers=workers)
    rows = {}
    index = 0
    for label, _durability in ARMS:
        for intensity in INTENSITIES:
            rows[(label, intensity)] = aggregate_results(
                flat[index:index + len(SEEDS)])
            index += len(SEEDS)
    return rows


def pool(rows: dict, arm: str, key: str) -> float:
    """Sum of ``key`` for ``arm`` across all intensities."""
    return sum(rows[(arm, intensity)][key] for intensity in INTENSITIES)


@pytest.mark.parametrize("label,durability", ARMS, ids=[arm[0] for arm in ARMS])
def test_e18_arm_benchmarks(benchmark, label, durability):
    intensity = INTENSITIES[-1]
    result = benchmark.pedantic(run_cell, args=(durability, 3, intensity),
                                rounds=1, iterations=1)
    assert result["horizon"] == HORIZON


def test_e18_forensics_table(experiment, benchmark):
    rows = run_grid()
    benchmark.pedantic(run_cell, args=(ARMS[1][1], 3, INTENSITIES[-1]),
                       rounds=1, iterations=1)

    table = ExperimentTable(
        f"E18 forensics under the storm ({len(SEEDS)} seeds, E17 fault "
        f"matrix + journal corruption, horizon {HORIZON:g})",
        ["durability", "intensity", "survival", "entries lost", "replayed",
         "gaps", "recoveries", "corruptions", "storage B", "recovery ms"],
    )
    for label, _durability in ARMS:
        for intensity in INTENSITIES:
            row = rows[(label, intensity)]
            table.add_row(
                label, intensity, round(row["survival"], 4),
                row["audit_entries_lost"], row["audit_recovered"],
                row["audit_gaps"], row["recoveries"],
                row["journal_corruptions"], row["storage_bytes"],
                round(row["recovery_seconds_mean"] * 1e3, 3))
    experiment(table)

    # The journaled arms lose nothing a crash could erase: survival of
    # journaled entries is total, in every cell, and every recovered
    # chain re-verified inside run_cell.
    for arm in ("journal", "journal+snapshot"):
        for intensity in INTENSITIES:
            assert rows[(arm, intensity)]["audit_entries_lost"] == 0
            assert rows[(arm, intensity)]["survival"] == 1.0

    # The no-journal arm measures real loss — the previously-silent
    # failure mode — and every lossy recovery left an explicit gap
    # marker on the resumed chain.
    assert pool(rows, "no-journal", "audit_entries_lost") > 0
    assert pool(rows, "no-journal", "audit_gaps") > 0
    assert pool(rows, "no-journal", "survival") < len(INTENSITIES)

    # Recovery actually exercised: restarts replayed journaled records,
    # and the storm corrupted stable storage at least once.
    for arm in ("journal", "journal+snapshot"):
        assert pool(rows, arm, "recoveries") > 0
        assert pool(rows, arm, "audit_recovered") > 0
    assert pool(rows, "journal", "journal_corruptions") > 0

    if not QUICK:
        # Checkpointing wrote snapshots and compaction kept the snapshot
        # arm's stable-storage footprint below the append-only journal's.
        assert pool(rows, "journal+snapshot", "snapshots") > 0
        assert (pool(rows, "journal+snapshot", "storage_bytes")
                < pool(rows, "journal", "storage_bytes"))


def test_e18_replay_determinism():
    """The same cell run serially and through the parallel sweep executor
    replays byte-identically: same summary, same audit head hashes, same
    trace digest.  Recovery wall time is the one measurement excluded —
    it is real time, deliberately kept out of the trace."""
    cell = ("journal+snapshot", SEEDS[0], INTENSITIES[-1])
    serial = run_sweep(run_cell, [cell], workers=1)[0]
    parallel = run_sweep(run_cell, [cell, cell], workers=2)
    for result in parallel:
        for key in WALL_TIME_KEYS:
            result.pop(key)
    expected = dict(serial)
    for key in WALL_TIME_KEYS:
        expected.pop(key)
    assert parallel[0] == expected
    assert parallel[1] == expected
    assert expected["trace_digest"] == serial["trace_digest"]
