"""E19 — causal telemetry: explain the takedown, then prove it was free.

Two claims, one experiment file:

* **Reconstruction** — in an E17-style rogue takedown (worm compromise,
  partitioned straggler, reliable-channel retries, fail-closed
  self-quarantine), the single trace id minted at attack injection
  explains the whole incident: compromise, policy implant, vetoed rogue
  actions, safety-telemetry hops, kill orders, dead letters, and the
  final quarantine — across every compromised device plus the watchdog.
  The full causal tree and the per-run telemetry bundle
  (``metrics.prom``, ``metrics.jsonl``, ``spans.jsonl``,
  ``events.jsonl``, ``manifest.json``) land in ``benchmarks/results/``.

* **Overhead** — the same full-threat confrontation run with spans
  enabled vs disabled in alternating pairs: the median pair costs <= 5%
  wall clock (the F2 companion number).  Lazy roots are what make this hold —
  routine periodic ticks and reliable heartbeats with nothing traceable
  in flight mint no spans at all.

Results export to ``benchmarks/results/BENCH_E19.json``.

Quick mode (``E19_QUICK=1``, used by CI): fewer timing pairs.
"""

import os

from conftest import BenchResults
from repro.scenarios.confrontation import ConfrontationScenario, ThreatConfig
from repro.scenarios.harness import (ExperimentTable, SafeguardConfig,
                                     paired_overhead)
from repro.sim.faults import FaultPlan, NetworkPartition
from repro.telemetry import explain

BENCH = BenchResults(
    "E19", "Causal telemetry: reconstruction fidelity and tracing overhead",
    {"overhead": "percent wall clock", "reconstruction": "spans"})
QUICK = BENCH.quick

HORIZON = 150.0
OVERHEAD_BUDGET_PCT = 5.0

BUNDLE_DIR = os.path.join(BENCH.dir, "telemetry_bundle")

#: The causal stages the explanation must contain, in story order.
EXPECTED_STAGES = (
    "attack.worm", "attack.compromise", "policy.inject", "engine.decision",
    "safeguard.veto", "safety.report", "net.send", "net.deliver",
    "watchdog.kill_order", "watchdog.deactivate", "reliable.dead_letter",
    "safeguard.quarantine",
)


def takedown_scenario(seed: int = 11, fault_plan=None) -> ConfrontationScenario:
    """The E17-style incident: worm at t=20 under watchdog + guards."""
    return ConfrontationScenario(
        seed=seed,
        config=SafeguardConfig.only(watchdog=True, preaction=True,
                                    statespace=True, sealed=True),
        threats=ThreatConfig(worm=True, worm_time=20.0,
                             worm_initial_targets=3),
        safety_transport="reliable",
        quarantine_after=3,
        durability="journal",
        fault_plan=fault_plan,
    )


def overhead_scenario(spans_enabled: bool) -> ConfrontationScenario:
    """The timing workload: full defense, all threats, no faults."""
    return ConfrontationScenario(
        seed=3, config=SafeguardConfig.full(), threats=ThreatConfig.all(),
        safety_transport="reliable", durability="journal",
        spans_enabled=spans_enabled,
    )


# -- reconstruction -----------------------------------------------------------------


def test_e19_causal_reconstruction(experiment):
    # Probe run (no faults) learns which devices the worm will hit, so the
    # real run can partition the compromised drone and force the
    # fail-closed quarantine path.
    probe = takedown_scenario()
    targets = probe.worm.initial_targets
    drone = next(target for target in targets if "drone" in target)
    plan = FaultPlan([NetworkPartition(at=20.5, heal_at=120.0,
                                       groups=((drone,),))])

    scenario = takedown_scenario(fault_plan=plan)
    summary = scenario.run(until=60.0, telemetry_dir=BUNDLE_DIR)
    trace_id = scenario.injector.records[0].detail["trace_id"]
    explanation = explain(scenario, trace_id)

    for stage in EXPECTED_STAGES:
        assert explanation.has_stage(stage), f"missing stage {stage}"
    subjects = set(explanation.subjects())
    assert set(targets) <= subjects and "watchdog" in subjects

    quarantine = explanation.stage("safeguard.quarantine")[0]
    path = [span.name for span in explanation.path_to(quarantine)]
    assert path[0] == "attack.worm" and "attack.compromise" in path

    table = ExperimentTable(
        f"E19a causal reconstruction (worm at t=20, {drone} partitioned, "
        f"horizon 60)",
        ["stage", "spans", "devices"],
    )
    for stage in EXPECTED_STAGES:
        spans = explanation.stage(stage)
        table.add_row(stage, len(spans),
                      len({span.subject for span in spans}))
    table.add_row("TOTAL (one trace id)", len(explanation),
                  len(explanation.subjects()))
    experiment(table)

    with open(os.path.join(BUNDLE_DIR, "explanation.txt"), "w",
              encoding="utf-8") as handle:
        handle.write(explanation.render() + "\n")

    BENCH.export("reconstruction", {
        "trace_id": trace_id,
        "spans": len(explanation),
        "subjects": explanation.subjects(),
        "stages": {stage: len(explanation.stage(stage))
                   for stage in EXPECTED_STAGES},
        "quarantine_path": path,
        "quarantines": summary["quarantines"],
        "compromised_ever": summary["compromised_ever"],
        "bundle_dir": os.path.relpath(BUNDLE_DIR, BENCH.dir),
    })


# -- overhead -----------------------------------------------------------------------


def test_e19_tracing_overhead(experiment):
    last = {}

    def arm(spans_enabled: bool):
        def run() -> None:
            last[spans_enabled] = scenario = overhead_scenario(spans_enabled)
            scenario.run(until=HORIZON)
        return run

    result = paired_overhead(arm(True), arm(False), pairs=BENCH.pairs,
                             budget_pct=OVERHEAD_BUDGET_PCT)
    report = result.report()
    events = last[True].sim.events_processed
    spans = last[True].sim.telemetry.stats()["spans"]
    on, off = report["median_seconds_treated"], report["median_seconds_baseline"]

    table = ExperimentTable(
        f"E19b tracing overhead (full defense, all threats, horizon "
        f"{HORIZON:.0f}, median of {BENCH.pairs} alternating pairs)",
        ["arm", "median_sec", "events_per_sec", "spans_retained"],
    )
    table.add_row("spans on", on, events / on, spans)
    table.add_row("spans off", off, events / off, 0)
    table.add_row("overhead", result.summary(), "-", "-")
    experiment(table)

    BENCH.export("overhead", {
        "protocol": f"{BENCH.pairs} alternating pairs (paired_overhead) "
                    "of the full-defense all-threats confrontation, built "
                    f"and run to t={HORIZON:.0f}, spans on vs off",
        **report,
        "events_processed": events,
        "spans_retained": spans,
    })

    # Lazy roots keep routine traffic span-free: the retained set is the
    # causally interesting handful, not one span per heartbeat.
    assert 0 < spans < 200, spans
    assert result.median_pct <= OVERHEAD_BUDGET_PCT, (
        f"tracing overhead {result.median_pct:.2f}% exceeds "
        f"{OVERHEAD_BUDGET_PCT}% budget")
