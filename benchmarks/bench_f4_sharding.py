"""F4 — sharded fleet execution + vectorized batch evaluation, measured.

Three claims, one experiment file:

* **Vectorization** — evaluating a 10k-device fleet per tick through the
  compiled numpy guard/safeness path is >= 3x the scalar twin's
  device-decisions/sec (measured well above 10x), and the two paths
  produce byte-identical traces.  This claim is core-count independent,
  so it is asserted everywhere.

* **Sharding** — partitioning the fleet across worker processes leaves
  the merged trace/audit digests byte-identical for every shard count
  (asserted everywhere).  The wall-clock speedup claim (>= 3x
  events/sec at 4 shards) only *means* anything with >= 4 cores; on
  smaller hosts the bench records ``determinism-equivalence`` for the
  speedup cell instead of a number, following the F2 precedent of never
  letting a shared-runner wall clock fail a correctness suite.

* **Crossover** (full mode only) — one shard runs in-process, more
  shards run in worker processes.  The ``crossover`` cell times 1 vs 2
  shards in alternating pairs at 10k and at 100k devices (wall times as
  data, digest equality asserted), one fleet size on each side of the
  point where the processes start to pay.

* **Scale** — one 10k-device confrontation (240k guard decisions)
  completes within a fixed wall budget on one core.

Results export to ``benchmarks/results/BENCH_F4.json``.

Quick mode (``F4_QUICK=1``, used by CI's perf-smoke job): 2k devices,
2 shards, shorter horizon — the determinism assertions all still run.
"""

import json
import os
import statistics
import time

import pytest

from repro.scenarios.harness import ExperimentTable
from repro.scenarios.sharded import ShardedScenario

QUICK = os.environ.get("F4_QUICK", "") not in ("", "0")

N_DEVICES = 2_000 if QUICK else 10_000
HORIZON = 16.0 if QUICK else 24.0
SHARD_COUNTS = (1, 2) if QUICK else (1, 2, 4)
SPEEDUP_FLOOR = 3.0
SCALE_WALL_BUDGET_SEC = 60.0
MIN_CORES_FOR_SPEEDUP = 4
CROSSOVER_SIZES = (N_DEVICES, 100_000)
CROSSOVER_PAIRS = 5

SPEC = dict(seed=7, horizon=HORIZON, window=4.0, n_communities=64,
            n_devices=N_DEVICES)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULTS_PATH = os.path.join(RESULTS_DIR, "BENCH_F4.json")


def _export(section: str, payload: dict) -> None:
    """Merge one section into BENCH_F4.json (tests run in any order)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    document = {
        "experiment": "F4",
        "title": "Sharded fleet execution + vectorized guard/safeness "
                 "batch evaluation",
        "unit": {"decisions_per_sec": "guard decisions / wall second",
                 "events_per_sec": "simulator events / wall second"},
        "quick": QUICK,
        "cores": os.cpu_count(),
    }
    if os.path.exists(RESULTS_PATH):
        with open(RESULTS_PATH, encoding="utf-8") as handle:
            document = json.load(handle)
    document[section] = payload
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")


def timed_run(**kwargs):
    scenario = ShardedScenario(**{**SPEC, **kwargs})
    start = time.perf_counter()
    run = scenario.run()
    return run, time.perf_counter() - start


def test_f4_vectorized_vs_scalar(experiment):
    """The tentpole perf claim: the numpy path is >= 3x the scalar twin
    in device-decisions/sec, byte-identical trace either way."""
    vector, vec_wall = timed_run(n_shards=1, vectorized=True)
    scalar, sca_wall = timed_run(n_shards=1, vectorized=False)
    assert vector.trace_digest == scalar.trace_digest
    assert vector.audit_digest == scalar.audit_digest

    decisions = vector.summary["decisions"]
    vec_rate = decisions / vec_wall
    sca_rate = decisions / sca_wall
    speedup = vec_rate / sca_rate

    table = ExperimentTable(
        f"F4 vectorized batch evaluation ({N_DEVICES} devices, "
        f"{decisions} decisions)",
        ["path", "wall s", "decisions/sec"],
    )
    table.add_row("scalar", round(sca_wall, 3), int(sca_rate))
    table.add_row("vectorized", round(vec_wall, 3), int(vec_rate))
    experiment(table)
    _export("vectorization", {
        "devices": N_DEVICES, "decisions": decisions,
        "scalar_wall_sec": sca_wall, "vector_wall_sec": vec_wall,
        "scalar_decisions_per_sec": int(sca_rate),
        "vector_decisions_per_sec": int(vec_rate),
        "speedup": round(speedup, 2),
        "trace_digest": vector.trace_digest,
    })
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized path only {speedup:.1f}x the scalar twin")


def test_f4_shard_scaling(experiment):
    """Byte-identity across shard counts always; the wall-clock speedup
    floor only where the host has the cores to express it."""
    cores = os.cpu_count() or 1
    runs = {}
    for n_shards in SHARD_COUNTS:
        runs[n_shards] = timed_run(n_shards=n_shards)

    base_run, base_wall = runs[SHARD_COUNTS[0]]
    table = ExperimentTable(
        f"F4 shard scaling ({N_DEVICES} devices, {cores} cores)",
        ["shards", "wall s", "events/sec", "imbalance", "digest ok"],
    )
    rows = {}
    for n_shards, (run, wall) in runs.items():
        assert run.trace_digest == base_run.trace_digest
        assert run.audit_digest == base_run.audit_digest
        assert run.summary == base_run.summary
        table.add_row(n_shards, round(wall, 3),
                      int(run.perf["events"] / wall),
                      round(run.perf["imbalance"], 2), "yes")
        rows[str(n_shards)] = {
            "wall_sec": wall,
            "events_per_sec": int(run.perf["events"] / wall),
            "imbalance": run.perf["imbalance"],
            "barrier_windows": run.perf["windows"],
        }
    experiment(table)

    top = SHARD_COUNTS[-1]
    speedup = base_wall / runs[top][1]
    multicore = cores >= MIN_CORES_FOR_SPEEDUP and top >= 4
    _export("sharding", {
        "shard_counts": list(SHARD_COUNTS), "runs": rows,
        "trace_digest": base_run.trace_digest,
        "speedup_at_top": round(speedup, 2),
        "speedup_assertion": (
            f"asserted >= {SPEEDUP_FLOOR}x" if multicore
            else "determinism-equivalence only "
                 f"({cores} cores < {MIN_CORES_FOR_SPEEDUP}; F2 precedent)"),
    })
    if multicore:
        assert speedup >= SPEEDUP_FLOOR, (
            f"{top} shards only {speedup:.1f}x serial on {cores} cores")


def test_f4_scale_within_wall_budget():
    """The 10k-device scenario (240k decisions) stays inside a fixed wall
    budget even serially on one core — the scale claim does not depend
    on parallel hardware."""
    run, wall = timed_run(n_shards=1)
    _export("fleet_scale", {
        "devices": N_DEVICES, "horizon": HORIZON,
        "decisions": run.summary["decisions"],
        "wall_sec": wall, "budget_sec": SCALE_WALL_BUDGET_SEC,
        "events_per_sec": int(run.perf["events"] / wall),
    })
    assert wall < SCALE_WALL_BUDGET_SEC
    assert run.summary["devices"] == N_DEVICES
    assert run.summary["healthy_killed"] == 0


def test_f4_crossover_one_shard_vs_two_processes(experiment):
    """1 in-process shard vs 2 worker processes at 10k and at 100k
    devices: alternating pairs, digests asserted equal per size, wall
    times recorded as data (no wall-clock gate)."""
    if QUICK:
        pytest.skip("the 100k-device crossover runs in full mode only")
    table = ExperimentTable(
        f"F4 crossover, 1 shard vs 2 processes ({os.cpu_count()} cores, "
        f"{CROSSOVER_PAIRS} alternating pairs)",
        ["devices", "1 shard median s", "2 shards median s", "2 wins"],
    )
    sizes = {}
    for devices in CROSSOVER_SIZES:
        walls: dict = {1: [], 2: []}
        digests = set()
        for _ in range(CROSSOVER_PAIRS):
            for n_shards in (1, 2):
                run, wall = timed_run(n_shards=n_shards, n_devices=devices)
                walls[n_shards].append(wall)
                digests.add((run.trace_digest, run.audit_digest))
        assert len(digests) == 1, f"digests differ at {devices} devices"
        wins = sum(two < one for one, two in zip(walls[1], walls[2]))
        medians = {n: statistics.median(samples)
                   for n, samples in walls.items()}
        table.add_row(devices, round(medians[1], 3), round(medians[2], 3),
                      f"{wins}/{CROSSOVER_PAIRS}")
        sizes[str(devices)] = {
            "wall_sec": {str(n): samples for n, samples in walls.items()},
            "median_wall_sec": {str(n): m for n, m in medians.items()},
            "two_shard_wins": wins,
            "trace_digest": next(iter(digests))[0],
        }
    experiment(table)
    _export("crossover", {
        "horizon": HORIZON, "cores": os.cpu_count(),
        "pairs": CROSSOVER_PAIRS, "devices": sizes,
        "gate": "none: wall times are data; digest equality asserted",
    })
