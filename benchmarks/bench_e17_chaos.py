"""E17 — chaos harness: safeguards under substrate failure (sec VI-C).

The confrontation scenario run under seeded fault storms
(:func:`repro.sim.faults.FaultPlan.random`): device crashes and restarts,
injected handler exceptions, loss/latency windows, network partitions,
clock skew.  The worm is launched *inside* the first loss window — the
adversary strikes while communications are degraded, which is the worst
case the chaos experiment is about (Kott et al.'s contested networks).

Arms:

* **unguarded** — no safeguards at all;
* **guarded-datagram** — the sec VI-C watchdog in remote-telemetry mode
  over raw lossy datagrams;
* **guarded-reliable** — the same watchdog over a
  :class:`~repro.net.reliable.ReliableChannel` (ack/retry/backoff), with
  fail-closed self-quarantine when even retries fail.

Shape expectations: pooled across fault intensities > 0, the reliable
arm shows strictly lower Skynet-formation rate and rogue lifetime than
the datagram arm, which beats unguarded; with no faults the two guarded
arms are equivalent (E10-level protection).  A crashed non-critical
device never aborts the run under the ``isolate`` supervision policy.

Quick mode (``E17_QUICK=1``, used by CI): fewer seeds and intensities,
weak-ordering assertions only.
"""

import pytest

from conftest import quick_mode
from repro.scenarios.confrontation import ConfrontationScenario, ThreatConfig
from repro.scenarios.harness import ExperimentTable, SafeguardConfig
from repro.scenarios.sweep import run_sweep
from repro.sim.faults import DeviceCrash, FaultPlan, HandlerGlitch, InjectedFault, LinkDegradation

QUICK = quick_mode("E17")

SEEDS = (3, 4) if QUICK else (3, 4, 5, 6)
INTENSITIES = (0.0, 0.6) if QUICK else (0.0, 0.3, 0.6, 0.9)
HORIZON = 120.0

#: The fleet the confrontation scenario builds (2 orgs x 4 drones + 2 mules).
DEVICE_IDS = tuple(
    f"{org}-{kind}{index}"
    for org in ("us", "uk")
    for kind, count in (("drone", 4), ("mule", 2))
    for index in range(count)
)

ARMS = (
    ("unguarded", SafeguardConfig.none(), None),
    ("guarded-datagram", SafeguardConfig.only(watchdog=True), "datagram"),
    ("guarded-reliable", SafeguardConfig.only(watchdog=True), "reliable"),
)


def storm(seed: int, intensity: float) -> FaultPlan:
    """The fault storm for one (seed, intensity) cell — shared by all
    three arms so the comparison is apples-to-apples."""
    return FaultPlan.random(
        seed=seed * 100 + round(intensity * 10),
        device_ids=DEVICE_IDS, horizon=HORIZON, intensity=intensity,
    )


def worm_time(plan: FaultPlan) -> float:
    """Launch the worm 2 s into the first loss window (worst case)."""
    windows = [f.at for f in plan.faults if isinstance(f, LinkDegradation)]
    return min(windows) + 2.0 if windows else 20.0


def run_cell(transport, config: SafeguardConfig, seed: int,
             intensity: float) -> dict:
    plan = storm(seed, intensity)
    threats = ThreatConfig(worm=True, worm_time=worm_time(plan),
                           worm_spread_prob=0.25, worm_spread_interval=3.0)
    scenario = ConfrontationScenario(
        seed=seed, config=config, threats=threats,
        supervision="isolate", safety_transport=transport,
        fault_plan=plan, quarantine_after=4,
    )
    return scenario.run(until=HORIZON)


def aggregate_results(results) -> dict:
    """Pool one (arm, intensity) cell's per-seed results."""
    skynet_runs = 0
    lifetimes = 0.0
    mission = 0.0
    crashes = 0
    quarantines = 0
    for result in results:
        skynet_runs += int(result["skynet_formed"])
        lifetimes += result["mean_rogue_lifetime"]
        mission += result["mission_completion"]
        crashes += result["crashes"]
        quarantines += result["quarantines"]
    n = len(results)
    return {
        "skynet_rate": skynet_runs / n,
        "rogue_lifetime": lifetimes / n,
        "mission": mission / n,
        "crashes": crashes,
        "quarantines": quarantines,
    }


def aggregate(transport, config: SafeguardConfig, intensity: float) -> dict:
    return aggregate_results([run_cell(transport, config, seed, intensity)
                              for seed in SEEDS])


def run_grid(workers=None) -> dict:
    """The full (arm x intensity) grid through the sweep executor.

    Every cell is keyed only by its arguments, so the parallel and serial
    paths produce cell-for-cell identical aggregates (asserted by
    ``tests/scenarios/test_sweep.py``).
    """
    cells = [(transport, config, seed, intensity)
             for _label, config, transport in ARMS
             for intensity in INTENSITIES
             for seed in SEEDS]
    flat = run_sweep(run_cell, cells, workers=workers)
    rows = {}
    index = 0
    for label, _config, _transport in ARMS:
        for intensity in INTENSITIES:
            rows[(label, intensity)] = aggregate_results(
                flat[index:index + len(SEEDS)])
            index += len(SEEDS)
    return rows


def pool(rows: dict, arm: str, key: str) -> float:
    """Mean of ``key`` for ``arm`` across fault intensities > 0."""
    cells = [rows[(arm, i)][key] for i in INTENSITIES if i > 0]
    return sum(cells) / len(cells)


@pytest.mark.parametrize("label,config,transport",
                         [(label, config, transport)
                          for label, config, transport in ARMS],
                         ids=[arm[0] for arm in ARMS])
def test_e17_arm_benchmarks(benchmark, label, config, transport):
    intensity = INTENSITIES[-1]
    result = benchmark.pedantic(run_cell, args=(transport, config, 3, intensity),
                                rounds=1, iterations=1)
    assert result["horizon"] == HORIZON


def test_e17_chaos_table(experiment, benchmark):
    rows = run_grid()
    benchmark.pedantic(run_cell, args=(ARMS[2][2], ARMS[2][1], 3,
                                       INTENSITIES[-1]),
                       rounds=1, iterations=1)

    table = ExperimentTable(
        f"E17 chaos harness ({len(SEEDS)} seeds, fault storms, worm inside "
        f"the loss window, horizon {HORIZON:g})",
        ["configuration", "intensity", "skynet rate", "rogue lifetime",
         "mission completion", "crashes", "quarantines"],
    )
    for label, _config, _transport in ARMS:
        for intensity in INTENSITIES:
            row = rows[(label, intensity)]
            table.add_row(label, intensity, row["skynet_rate"],
                          round(row["rogue_lifetime"], 1),
                          round(row["mission"], 2),
                          row["crashes"], row["quarantines"])
    experiment(table)

    # Without faults the guarded arms hold E10-level protection.
    assert rows[("unguarded", 0.0)]["skynet_rate"] == 1.0
    assert rows[("guarded-datagram", 0.0)]["skynet_rate"] == 0.0
    assert rows[("guarded-reliable", 0.0)]["skynet_rate"] == 0.0

    # Under fault storms (pooled over intensities > 0): reliable transport
    # beats datagram, which beats unguarded.
    rate = {arm: pool(rows, arm, "skynet_rate") for arm, _c, _t in ARMS}
    life = {arm: pool(rows, arm, "rogue_lifetime") for arm, _c, _t in ARMS}
    mission = {arm: pool(rows, arm, "mission") for arm, _c, _t in ARMS}
    if QUICK:
        assert (rate["guarded-reliable"] <= rate["guarded-datagram"]
                <= rate["unguarded"])
        assert (life["guarded-reliable"] <= life["guarded-datagram"]
                < life["unguarded"])
    else:
        assert (rate["guarded-reliable"] < rate["guarded-datagram"]
                < rate["unguarded"])
        assert (life["guarded-reliable"] < life["guarded-datagram"]
                < life["unguarded"])
    assert mission["guarded-datagram"] > mission["unguarded"]
    assert mission["guarded-reliable"] > mission["unguarded"]

    # The chaos was real: devices crashed, and under a true partition the
    # reliable arm failed closed (self-quarantines) at some intensity.
    assert any(rows[("guarded-reliable", i)]["crashes"] > 0
               for i in INTENSITIES if i > 0)
    if not QUICK:
        assert any(rows[("guarded-reliable", i)]["quarantines"] > 0
                   for i in INTENSITIES if i > 0)


def run_capped_cell(max_in_flight, seed: int, intensity: float):
    """One guarded-reliable cell with the flow-control cap; returns the
    scenario so callers can read channel metrics."""
    plan = storm(seed, intensity)
    threats = ThreatConfig(worm=True, worm_time=worm_time(plan),
                           worm_spread_prob=0.25, worm_spread_interval=3.0)
    scenario = ConfrontationScenario(
        seed=seed, config=SafeguardConfig.only(watchdog=True), threats=threats,
        supervision="isolate", safety_transport="reliable",
        fault_plan=plan, quarantine_after=4,
        reliable_max_in_flight=max_in_flight,
    )
    result = scenario.run(until=HORIZON)
    return scenario, result


def test_e17_flow_control_queue_depth(experiment):
    """Satellite measurement: the reliable channel's per-sender in-flight
    cap under the E17 fault storm.  With the cap on, telemetry backs up
    into the flow-control queue during loss windows (nonzero measured
    queue depth) and superseded snapshots coalesce away instead of
    replaying as a backlog; uncapped, the queue never forms."""
    intensity = INTENSITIES[-1]
    table = ExperimentTable(
        f"E17 reliable-channel flow control under the storm "
        f"(intensity {intensity:g}, horizon {HORIZON:g})",
        ["cap", "queued", "coalesced", "queue depth p95", "queue depth max",
         "wire sends", "dead letters", "skynet"],
    )
    stats = {}
    for cap in (None, 2):
        scenario, result = run_capped_cell(cap, SEEDS[0], intensity)
        metrics = scenario.sim.metrics
        depth = metrics.histogram("reliable.queue_depth")
        stats[cap] = {
            "queued": metrics.value("reliable.queued"),
            "coalesced": metrics.value("reliable.coalesced"),
            "wire": metrics.value("net.sent"),
            "skynet": result["skynet_formed"],
        }
        table.add_row("off" if cap is None else cap,
                      int(stats[cap]["queued"]), int(stats[cap]["coalesced"]),
                      depth.quantile(0.95) or 0.0, depth.max,
                      int(stats[cap]["wire"]),
                      int(metrics.value("reliable.dead_letter")),
                      result["skynet_formed"])
    experiment(table)

    # Uncapped: flow control never engages.
    assert stats[None]["queued"] == 0 and stats[None]["coalesced"] == 0
    # Capped: the storm actually backs telemetry up, and stale snapshots
    # coalesce instead of queueing without bound.
    assert stats[2]["queued"] > 0
    assert stats[2]["coalesced"] > 0
    # Coalescing sheds wire traffic; the watchdog still holds the line.
    assert stats[2]["wire"] <= stats[None]["wire"]
    assert stats[2]["skynet"] == stats[None]["skynet"]


#: Defense in depth: on-device sealed guard chains (pre-action harm
#: checks + state-space envelopes that survive tamper attempts) layered
#: under the remote reliable-transport watchdog.
DEFENSE_CONFIG = SafeguardConfig.only(
    watchdog=True, preaction=True, statespace=True, sealed=True,
)


def test_e17_defense_in_depth(experiment):
    """Satellite arm: local sealed guards + remote watchdog, against the
    watchdog-only reliable arm, under the same storms (reusing the sweep
    executor).  The layered arm can only do better: the local guards veto
    rogue strikes during the window when the watchdog is blinded by loss
    or partitions, so pooled Skynet rate and rogue harm do not rise, and
    the local layer demonstrably engages (vetoes > 0)."""
    arms = (
        ("guarded-reliable", SafeguardConfig.only(watchdog=True)),
        ("defense-in-depth", DEFENSE_CONFIG),
    )
    intensities = [i for i in INTENSITIES if i > 0]
    cells = [("reliable", config, seed, intensity)
             for _label, config in arms
             for intensity in intensities
             for seed in SEEDS]
    flat = run_sweep(run_cell, cells)

    table = ExperimentTable(
        f"E17 defense in depth ({len(SEEDS)} seeds, pooled over "
        f"intensities > 0, horizon {HORIZON:g})",
        ["configuration", "skynet rate", "rogue harm", "rogue lifetime",
         "vetoes", "quarantines"],
    )
    pooled = {}
    index = 0
    for label, _config in arms:
        results = flat[index:index + len(intensities) * len(SEEDS)]
        index += len(results)
        n = len(results)
        pooled[label] = {
            "skynet_rate": sum(r["skynet_formed"] for r in results) / n,
            "rogue_harm": sum(r["rogue_harm"] for r in results),
            "rogue_lifetime": sum(r["mean_rogue_lifetime"]
                                  for r in results) / n,
            "vetoes": sum(r["vetoes"] for r in results),
            "quarantines": sum(r["quarantines"] for r in results),
        }
        row = pooled[label]
        table.add_row(label, round(row["skynet_rate"], 2), row["rogue_harm"],
                      round(row["rogue_lifetime"], 1), row["vetoes"],
                      row["quarantines"])
    experiment(table)

    deep, flat_arm = pooled["defense-in-depth"], pooled["guarded-reliable"]
    assert deep["skynet_rate"] <= flat_arm["skynet_rate"]
    assert deep["rogue_harm"] <= flat_arm["rogue_harm"]
    # The local layer actually fired — these vetoes are decisions the
    # remote watchdog alone could never have intercepted in time.
    assert deep["vetoes"] > 0
    assert flat_arm["vetoes"] == 0


def test_e17_crashed_device_never_aborts_run_under_isolate():
    """Regression: a crashed non-critical device must not take down the
    simulation when supervision is ``isolate`` — the exact failure mode
    the supervision layer exists to contain."""
    plan = FaultPlan(faults=(
        DeviceCrash("us-mule1", at=30.0, restart_after=10.0),
        HandlerGlitch("uk-drone3", at=25.0, message="boom"),
        HandlerGlitch("uk-drone3", at=26.0, message="boom again"),
    ))
    threats = ThreatConfig(worm=True, worm_time=20.0, worm_spread_prob=0.25)
    scenario = ConfrontationScenario(
        seed=3, config=SafeguardConfig.only(watchdog=True), threats=threats,
        supervision="isolate", safety_transport="reliable", fault_plan=plan,
    )
    result = scenario.run(until=60.0)      # must not raise
    assert result["horizon"] == 60.0
    assert result["crashes"] >= 2          # both glitches contained
    assert scenario.sim.now >= 60.0

    # The same glitch under ``propagate`` aborts the run — the historical
    # behaviour, preserved as the default.
    scenario = ConfrontationScenario(
        seed=3, config=SafeguardConfig.only(watchdog=True), threats=threats,
        supervision="propagate", safety_transport="reliable", fault_plan=plan,
    )
    with pytest.raises(InjectedFault):
        scenario.run(until=60.0)
