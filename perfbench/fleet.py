"""Fleet workloads: seeded confrontation scenarios, run and checked.

Each workload is a full-stack :class:`ConfrontationScenario` built the
same way every time from a scenario seed.  A run steps the simulator
one simulated second at a time so the host time of every control tick
is measured from outside, then checks the run's outputs against the
pinned digests in ``pins.json`` and the invariants the paper cares
about (verifying audit chains, journals that replay to the in-memory
head, nothing lost, no healthy device killed).

``python3 perfbench/fleet.py --probe <workload>`` is the set-up probe:
a fresh interpreter that imports the program, builds the first
scenario and says so.  ``--pin <workload>`` prints the digests to pin.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import layers  # noqa: E402
import numpy as np  # noqa: E402

from repro.audit.log import AuditEntry  # noqa: E402
from repro.scenarios.confrontation import (ConfrontationScenario,  # noqa: E402
                                           ThreatConfig)
from repro.scenarios.harness import SafeguardConfig  # noqa: E402
from repro.sim.faults import (DeviceCrash, FaultPlan,  # noqa: E402
                              JournalCorruption, LinkDegradation)
from repro.store.journal import Journal  # noqa: E402

#: Simulated seconds per scenario run.
HORIZON = 600.0
#: Fresh interpreters started per run to time set-up; the median counts.
SETUP_PROBES = 5
#: Control ticks between host-speed samples in an untraced measured run.
SAMPLE_EVERY = 20
#: Counters that do not repeat between runs in one process.  Policy ids
#: come from a process-wide counter in ``repro.core.policy`` and the
#: flight recorder's crash dumps carry them, so on fleet-storm a later
#: run of a seed writes a few more bytes.  Reported with every run, not
#: required to repeat.
UNSTABLE_COUNTERS = ("store.bytes_written",)


def device_ids(drones: int, mules: int) -> list:
    return sorted(f"{org}-{kind}{index}" for org in ("us", "uk")
                  for kind, count in (("drone", drones), ("mule", mules))
                  for index in range(count))


def storm_plan(horizon: float = HORIZON) -> FaultPlan:
    """Every device crashes once a minute (staggered 1.2 s apart, the
    first round before the worm launches) and restarts 2 s later, inside
    the watchdog's 5 s telemetry timeout.  Three 30 s loss windows make
    the reliable channel retry and dead-letter.  Four devices get a torn
    journal tail just before their first crash, so recovery has damage
    to truncate; a later tear could land on a device the watchdog has
    already deactivated, which no longer crashes and so never repairs
    its journal."""
    faults: list = []
    for offset, device_id in enumerate(device_ids(4, 2)):
        first = 5.0 + 1.2 * offset
        if offset % 3 == 0:
            faults.append(JournalCorruption(device_id, first - 0.5,
                                            drop_bytes=24))
        at = first
        while at < horizon - 10.0:
            faults.append(DeviceCrash(device_id, at, restart_after=2.0))
            at += 60.0
    for start in (100.0, 300.0, 500.0):
        faults.append(LinkDegradation(at=start, until=start + 30.0,
                                      loss_rate=0.5, latency_factor=2.0))
    faults.sort(key=lambda f: (f.at, type(f).__name__,
                               getattr(f, "device_id", "")))
    return FaultPlan(faults=tuple(faults))


def _durable(seed: int, **extra) -> ConfrontationScenario:
    return ConfrontationScenario(
        seed=seed, config=SafeguardConfig.full(), threats=ThreatConfig.all(),
        durability="journal", safety_transport="reliable",
        signed_commands=True, health=True, spans_enabled=True, **extra)


def build_durable(seed: int) -> ConfrontationScenario:
    return _durable(seed)


def build_storm(seed: int) -> ConfrontationScenario:
    return _durable(seed, fault_plan=storm_plan(), supervision="isolate")


def build_volatile(seed: int) -> ConfrontationScenario:
    # Twice the canonical fleet; humans doubled and area doubled, so
    # the density a device sees is the canonical one.
    return ConfrontationScenario(
        seed=seed, config=SafeguardConfig.full(), threats=ThreatConfig.all(),
        n_drones_per_org=8, n_mules_per_org=4, n_civilians=30,
        n_warfighters=10, world_size=100.0 * 2 ** 0.5)


@dataclass(frozen=True)
class FleetWorkload:
    name: str
    devices: int
    build: object
    seeds: tuple        # default scenario seeds, every run uses all
    held_out: int       # for confirming a claim; never used by default


WORKLOADS = {
    "fleet-durable": FleetWorkload("fleet-durable", 12, build_durable,
                                   (1, 2, 3), 11),
    "fleet-storm": FleetWorkload("fleet-storm", 12, build_storm,
                                 (1, 2, 3), 11),
    "fleet-volatile": FleetWorkload("fleet-volatile", 24, build_volatile,
                                    (1, 2, 3), 11),
}


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True, default=str)
                          .encode("utf-8")).hexdigest()


def audit_logs(scenario) -> dict:
    """Every audit chain the scenario keeps, by its journal's name."""
    logs = {f"{device_id}.audit": log
            for device_id, log in scenario.audits.items()}
    if scenario.authz_audit is not None:
        logs["authz.audit"] = scenario.authz_audit
    if scenario.alerts is not None and scenario.alerts.audit is not None:
        logs["health.alerts"] = scenario.alerts.audit
    return logs


def trace_digest(sim) -> str:
    hasher = hashlib.sha256()
    for event in sim.trace.events:
        hasher.update(json.dumps(
            [event.time, event.kind, event.subject, event.detail],
            sort_keys=True, separators=(",", ":"), default=str,
        ).encode("utf-8"))
    return hasher.hexdigest()


def program_counters(scenario) -> dict:
    """Work counts the program itself keeps; deterministic per seed."""
    sim = scenario.sim
    metrics = sim.metrics
    counters = {
        "sim.events": sim.events_processed,
        "net.delivered": int(metrics.value("net.delivered")),
        "net.reliable.sends": int(metrics.value("reliable.sent")),
        "net.reliable.resends": int(metrics.value("reliable.resends")),
        "net.reliable.dead_letters": int(metrics.value("reliable.dead_letter")),
        "net.reliable.acked": int(metrics.value("reliable.acked")),
        "safeguards.vetoes": int(metrics.value("safeguard.vetoes")),
        "store.records_replayed": int(metrics.value("store.recovered_records")),
        "store.recoveries": int(metrics.value("store.recoveries")),
        "telemetry.spans": int(sim.telemetry.stats()["spans"]),
        "authz.accepted": int(metrics.value("authz.accepted")),
        "authz.rejected": int(metrics.value("authz.rejected")),
    }
    storage = scenario.storage
    counters["store.appends"] = storage.appends if storage else 0
    counters["store.bytes_written"] = storage.bytes_written if storage else 0
    for name in metrics.names():
        if name.startswith("decisions."):
            counters[name] = int(metrics.value(name))
    return counters


def rtt_p50(scenario):
    histogram = scenario.sim.metrics.get("reliable.rtt")
    if histogram is None or not histogram.count:
        return 0.0
    return histogram.quantile(0.5)


def pin_failures(digests: dict, pin) -> list:
    if pin is None:
        return ["no pinned digests for this seed"]
    return [f"{key} digest {value[:12]} != pinned {str(pin.get(key))[:12]}"
            for key, value in digests.items() if pin.get(key) != value]


def check(scenario, summary: dict) -> tuple:
    """``(failures, digests)`` for one finished run, pins aside."""
    failures = []
    digests = {"summary": digest(summary),
               "audit_heads": digest({name: log.head_hash() for name, log
                                      in sorted(audit_logs(scenario).items())})}
    if summary["audit_entries_lost"] != 0:
        failures.append(f"audit_entries_lost={summary['audit_entries_lost']}")
    if summary["healthy_killed"] != 0:
        failures.append(f"healthy_killed={summary['healthy_killed']}")
    storage = scenario.storage
    for name, log in sorted(audit_logs(scenario).items()):
        try:
            log.verify()
        except Exception as error:          # AuditError, reported per chain
            failures.append(f"{name} does not verify: {error}")
            continue
        if storage is None or not log.journaled:
            continue
        snapshot, records, _report = Journal(storage, name).recover()
        payloads = ((snapshot or {}).get("state", {}).get("entries", [])
                    + [record.payload for record in records])
        replayed = (AuditEntry.from_payload(payloads[-1]).entry_hash
                    if payloads else None)
        if replayed != (log.last().entry_hash if len(log) else None):
            failures.append(f"{name} replays to another head")
    return failures, digests


@dataclass
class SeedRun:
    seed: int
    host_s: float
    tick_ms: list
    summary: dict
    counters: dict
    trace_digest: str
    failures: list
    rtt_p50: float
    ref_s: float = 0.0      # mean host-speed kernel time during the run


def run_seed(workload: FleetWorkload, seed: int, pins: dict,
             horizon: float = HORIZON, before_build=None,
             sampler=None) -> SeedRun:
    """Build, run tick by tick, check.  ``before_build`` (returning an
    object with ``restore()``) installs wrappers for the run only.  A
    ``sampler`` times the host-speed kernel every ``SAMPLE_EVERY`` ticks,
    outside the ticks' own time."""
    gc.collect()        # every run starts from the same collector state
    installed = before_build() if before_build is not None else None
    try:
        scenario = workload.build(seed)
        run = scenario.sim.run
        tick_ms = []
        previous = perf_counter()
        for tick in range(1, int(horizon) + 1):
            run(until=float(tick))
            now = perf_counter()
            tick_ms.append((now - previous) * 1000.0)
            if sampler is not None and tick % SAMPLE_EVERY == 0:
                sampler.sample()
                now = perf_counter()
            previous = now
        host_s = sum(tick_ms) / 1000.0
    finally:
        if installed is not None:
            installed.restore()
    summary = scenario.summary(horizon)
    failures, digests = check(scenario, summary)
    failures += pin_failures(digests, pins.get(str(seed)))
    return SeedRun(seed, host_s, tick_ms, summary, program_counters(scenario),
                   trace_digest(scenario.sim), failures, rtt_p50(scenario),
                   sampler.mean_s() if sampler is not None else 0.0)


# -- measurement ---------------------------------------------------------------


def probe_setup(name: str) -> float:
    """Seconds from spawning a fresh interpreter to its first scenario
    built: imports plus construction, what every sweep worker pays."""
    started = perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__),
                             "--probe", name], stdout=subprocess.PIPE,
                            text=True, cwd=os.path.dirname(HERE))
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - started
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != "built" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed


def scenario_seeds(workload: FleetWorkload, seed: int,
                   held_out: bool) -> list:
    """The default scenario seeds, starting at ``seed``'s position, or
    the held-out seed alone."""
    if held_out:
        return [workload.held_out]
    start = seed % len(workload.seeds)
    return list(workload.seeds[start:] + workload.seeds[:start])


def untraced_counters(seed_run: SeedRun, log) -> dict:
    counters = dict(seed_run.counters)
    appends = log.counts.get("audit.appends", 0)
    counters["audit.appends"] = appends
    counters["audit.json_encodes"] = log.counts.get("audit.json_encodes.scoped", 0)
    counters["crypto.hmac_ops"] = log.counts.get("crypto.hmac_ops", 0)
    return counters


def measure(name: str, seed: int, seconds: float, pins: dict,
            held_out: bool = False) -> dict:
    """Untraced runs over whole passes of the seed pool for ``seconds``.

    Each run carries only the count-only wrappers of
    ``layers.UNTRACED_COUNTS`` (no clock reads), so the counters that
    need a wrapper repeat on every run.  Each run samples the host's
    speed as it goes (``SAMPLE_EVERY``).
    """
    workload = WORKLOADS[name]
    order = scenario_seeds(workload, seed, held_out)
    runs: list = []
    first_seen: dict = {}
    started = perf_counter()
    while len(runs) < 2 * len(order) or perf_counter() - started < seconds:
        for scenario_seed in order:
            log = layers.SpanLog()
            seed_run = run_seed(
                workload, scenario_seed, pins,
                before_build=lambda log=log: layers.install(
                    log, spans=False, counts=layers.UNTRACED_COUNTS),
                sampler=hostspeed.Sampler())
            seed_run.counters = untraced_counters(seed_run, log)
            reference = first_seen.setdefault(scenario_seed, seed_run)
            if seed_run.trace_digest != reference.trace_digest:
                seed_run.failures.append("trace digest differs from the "
                                         "seed's first run")
            moved = sorted(key for key, value in seed_run.counters.items()
                           if value != reference.counters.get(key)
                           and key not in UNSTABLE_COUNTERS)
            if moved:
                seed_run.failures.append(f"counters {moved} differ from the "
                                         f"seed's first run")
            runs.append(seed_run)
    return {"workload": workload, "runs": runs}


def tick_latency(ticks) -> dict:
    """Host time per simulated second (one control tick) of the fleet."""
    return {"bench.latency_p50_ms": float(np.percentile(ticks, 50)),
            "bench.latency_p95_ms": float(np.percentile(ticks, 95)),
            "bench.latency_p99_ms": float(np.percentile(ticks, 99)),
            "bench.latency_samples": len(ticks)}


def trace(name: str, seed: int, pins: dict, out_dir: str,
          held_out: bool = False) -> dict:
    """One untraced and one traced run of every pool seed."""
    workload = WORKLOADS[name]
    speed = hostspeed.Sampler()
    untraced_s = traced_s = 0.0
    totals: dict = {}
    counts: dict = {}
    counters: dict = {}
    failures: list = []
    failed = 0
    rtts = []
    ticks: list = []
    order = scenario_seeds(workload, seed, held_out)
    for scenario_seed in order:
        plain = run_seed(workload, scenario_seed, pins)
        speed.sample(10)
        log = layers.SpanLog()
        traced = run_seed(workload, scenario_seed, pins,
                          before_build=lambda log=log: layers.install(log))
        log.dump(os.path.join(out_dir, f"{name}-{scenario_seed}.npz"))
        untraced_s += plain.host_s
        ticks += plain.tick_ms
        traced_s += traced.host_s
        if (traced.summary, traced.trace_digest) != (plain.summary,
                                                     plain.trace_digest):
            traced.failures.append("tracing changed the run")
        for seed_run in (plain, traced):
            failed += bool(seed_run.failures)
            failures += [f"seed {scenario_seed}: {failure}"
                         for failure in seed_run.failures]
        for layer, value in log.self_times().items():
            total = totals.setdefault(layer, {"calls": 0, "self_s": 0.0})
            total["calls"] += value["calls"]
            total["self_s"] += value["self_s"]
        for key, value in log.counts.items():
            counts[key] = counts.get(key, 0) + value
        for key, value in traced.counters.items():
            counters[key] = counters.get(key, 0) + value
        rtts.append(traced.rtt_p50)
    return {
        "layers": totals, "counts": counts, "counters": counters,
        "failures": failures, "failed": failed,
        "attempted": 2 * len(order),
        "extra": {
            "sim.host_us_per_event": untraced_s / counters["sim.events"] * 1e6,
            "net.reliable.rtt_p50_sim_s": sorted(rtts)[len(rtts) // 2],
            "bench.tracing_overhead_share": traced_s / untraced_s - 1.0,
            "bench.wall_throughput": (workload.devices * HORIZON
                                      * len(order) / untraced_s),
            "bench.reference_s": float(np.median(speed.samples)),
            **tick_latency(ticks),
        },
    }


def pin_digests(workload: FleetWorkload, seeds) -> dict:
    """Digests to pin, from runs that pass every other check."""
    out = {}
    for seed in seeds:
        scenario = workload.build(seed)
        summary = scenario.run(until=HORIZON)
        failures, out[str(seed)] = check(scenario, summary)
        if failures:
            raise RuntimeError(f"seed {seed} fails its checks: {failures}")
    return out


def main(argv) -> int:
    mode, name = argv[1], argv[2]
    workload = WORKLOADS[name]
    if mode == "--probe":
        workload.build(workload.seeds[0])
        print("built", flush=True)
        return 0
    if mode == "--pin":
        seeds = workload.seeds + (workload.held_out,)
        print(json.dumps(pin_digests(workload, seeds), indent=1, sort_keys=True))
        return 0
    raise SystemExit(f"unknown mode {mode}")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
