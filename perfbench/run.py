"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` measures the end-to-end metrics with no timing wrappers
installed; ``--trace 1`` is the separate traced run that reports the
per-layer metrics.  Both check every output.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit, as listed in ``BENCHMARK.json``).
Earlier lines carry the detail: per-seed counters, per-rung tables and
any failure.  Span dumps and per-run details go to ``.perfbench/``.
``--held-out`` runs a fleet workload on its held-out scenario seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
FLEET = ("fleet-durable", "fleet-storm", "fleet-volatile")
WORKLOADS = FLEET + ("serve-mix",)
#: Per-layer metrics every traced run computes directly.
COMMON_EXTRA = ("bench.tracing_overhead_share", "bench.wall_throughput",
                "bench.reference_s", "bench.latency_p50_ms",
                "bench.latency_p95_ms", "bench.latency_p99_ms",
                "bench.latency_samples")
#: Per-layer metrics that only one kind of workload computes directly;
#: the other kind reads zero.
WORKLOAD_ONLY = (
    "sim.host_us_per_event", "net.reliable.rtt_p50_sim_s",
    "safeguards.batch.rows", "safeguards.batch.vector_share",
    "api.evaluate.server_ms_p50", "api.batch.server_ms_p50",
    "api.wait_ms_p50", "api.wait_ms_p99",
    "serve.evaluate_p50_ms", "serve.evaluate_p99_ms", "serve.evaluate_samples",
    "serve.batch_p50_ms", "serve.batch_p99_ms", "serve.batch_samples",
    "serve.max_rps", "bench.generator_late_ms_p99",
)


def layer_metrics(layers: dict, counts: dict, counters: dict,
                  extra: dict) -> dict:
    """Every per-layer metric from a traced run; a layer the workload
    does not reach reads zero."""

    def calls(*names):
        return sum(layers.get(name, {}).get("calls", 0) for name in names)

    def self_s(*names):
        return sum(layers.get(name, {}).get("self_s", 0.0) for name in names)

    def share(part, whole):
        return part / whole if whole else 0.0

    decisions = {key: value for key, value in counters.items()
                 if key.startswith("decisions.")}
    sends = counters.get("net.reliable.sends", 0)
    appends = calls("audit.append")
    values = {
        "sim.events": counters.get("sim.events", 0),
        "sim.self_s": self_s("sim"),
        "sim.metrics.observe.calls": calls("sim.metrics.observe"),
        "sim.metrics.observe.self_s": self_s("sim.metrics.observe"),
        "core.handle_event.calls": calls("core.handle_event"),
        "core.handle_event.self_s": self_s("core.handle_event"),
        "core.executed_share": share(decisions.get("decisions.executed", 0),
                                     sum(decisions.values())),
        "safeguards.guard.calls": calls("safeguards.guard"),
        "safeguards.guard.self_s": self_s("safeguards.guard"),
        "safeguards.vetoes": counters.get("safeguards.vetoes", 0),
        "safeguards.watchdog.calls": calls("safeguards.watchdog"),
        "safeguards.watchdog.self_s": self_s("safeguards.watchdog"),
        "safeguards.gateway.calls": calls("safeguards.gateway"),
        "safeguards.gateway.self_s": self_s("safeguards.gateway"),
        "safeguards.gateway.accept_share": share(
            counters.get("authz.accepted", 0),
            counters.get("authz.accepted", 0) + counters.get("authz.rejected", 0)),
        "safeguards.batch.self_s": self_s("safeguards.batch"),
        "statespace.from_rows.self_s": self_s("statespace.from_rows"),
        "devices.world.calls": calls("devices.world"),
        "devices.world.self_s": self_s("devices.world"),
        "net.send.calls": calls("net.send"),
        "net.send.self_s": self_s("net.send"),
        "net.delivered": counters.get("net.delivered", 0),
        "net.reliable.sends": sends,
        "net.reliable.self_s": self_s("net.reliable"),
        "net.reliable.resends": counters.get("net.reliable.resends", 0),
        "net.reliable.dead_letters": counters.get("net.reliable.dead_letters", 0),
        "net.reliable.ack_share": share(
            counters.get("net.reliable.acked", 0),
            sends + counters.get("net.reliable.resends", 0)),
        "audit.append.calls": appends,
        "audit.append.self_s": self_s("audit.append"),
        "audit.json_encodes_per_append": share(
            counts.get("audit.json_encodes.scoped", 0), appends),
        "audit.hashes": counts.get("audit.hashes", 0),
        "store.journal.appends": calls("store.journal"),
        "store.journal.self_s": self_s("store.journal"),
        "store.journal.flushes": counts.get("store.journal.flushes", 0),
        "store.appends": counters.get("store.appends", 0),
        "store.bytes_written": counters.get("store.bytes_written", 0),
        "store.recover.calls": calls("store.recover"),
        "store.recover.self_s": self_s("store.recover"),
        "store.records_replayed": counters.get("store.records_replayed", 0),
        "crypto.sign.calls": calls("crypto.sign"),
        "crypto.verify.calls": calls("crypto.verify"),
        "crypto.self_s": self_s("crypto.sign", "crypto.verify"),
        "crypto.hmac_ops": counts.get("crypto.hmac_ops", 0),
        "telemetry.spans": counters.get("telemetry.spans", 0),
        "telemetry.span.self_s": self_s("telemetry.span"),
        "telemetry.health.self_s": self_s("telemetry.health"),
        "api.admit.self_s": self_s("api.admit"),
        "api.accesslog.self_s": self_s("api.accesslog"),
        "api.encode.self_s": self_s("api.encode"),
        "api.json_decodes": counts.get("api.json_decodes.scoped", 0),
    }
    return {**values, **dict.fromkeys(WORKLOAD_ONLY, 0), **extra}


def load_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def result_line(correct: bool, attempted: int, failed: int, values: dict,
                declared: list) -> dict:
    """The final JSON object, with exactly the declared metrics."""
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in values:
            raise KeyError(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_fleet(args, spec: dict, emit) -> dict:
    import fleet
    import numpy as np

    pins = load_json(os.path.join(HERE, "pins.json"))[args.workload]
    if args.trace:
        traced = fleet.trace(args.workload, args.seed, pins, OUT_DIR,
                             args.held_out)
        values = layer_metrics(traced["layers"], traced["counts"],
                               traced["counters"], traced["extra"])
        emit({"counters": traced["counters"], "counts": traced["counts"]})
        if traced["failures"]:
            emit({"failures": traced["failures"]})
        return result_line(traced["failed"] == 0, traced["attempted"],
                           traced["failed"], values, spec["per_layer"])
    setup = [fleet.probe_setup(args.workload)
             for _ in range(fleet.SETUP_PROBES)]
    measured = fleet.measure(args.workload, args.seed, args.seconds, pins,
                             args.held_out)
    workload, runs = measured["workload"], measured["runs"]
    work = workload.devices * fleet.HORIZON
    by_seed: dict = {}
    for seed_run in runs:
        by_seed.setdefault(seed_run.seed, []).append(
            work * seed_run.ref_s / seed_run.host_s)
        emit({"seed": seed_run.seed, "host_s": seed_run.host_s,
              "reference_s": seed_run.ref_s,
              "wall_throughput": work / seed_run.host_s,
              "failures": seed_run.failures, "counters": seed_run.counters})
    values = {
        "setup_s": float(np.median(setup)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput": float(np.median([np.median(v) for v in by_seed.values()])),
    }
    emit({"setup_s": setup, "latency": fleet.tick_latency(
        [tick for r in runs for tick in r.tick_ms])})
    failed = sum(1 for r in runs if r.failures)
    return result_line(failed == 0, len(runs), failed, values,
                       spec["end_to_end"])


def run_serve(args, spec: dict, emit) -> dict:
    import serve

    if args.trace:
        traced = serve.trace(args.seed, args.seconds, OUT_DIR)
        values = layer_metrics(traced["layers"], traced["counts"],
                               traced["counters"], traced["extra"])
        emit({"counters": traced["counters"], "counts": traced["counts"],
              "errors": traced["failures"], "ladder": traced["ladder"]})
        return result_line(traced["failed"] == 0, traced["attempted"],
                           traced["failed"], values, spec["per_layer"])
    measured = serve.measure(args.seed, args.seconds, OUT_DIR)
    emit(measured["detail"])
    if measured["errors"]:
        emit({"errors": measured["errors"]})
    return result_line(measured["failed"] == 0, measured["attempted"],
                       measured["failed"], measured["metrics"],
                       spec["end_to_end"])




def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="fleet workloads: run the held-out scenario seed "
                             "instead of the default ones, to confirm a claim")
    args = parser.parse_args(argv)
    if args.held_out and args.workload not in FLEET:
        parser.error("--held-out applies to fleet workloads; for serve-mix "
                     "pass a --seed not used while the change was written")
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    os.makedirs(OUT_DIR, exist_ok=True)
    sys.path.insert(0, HERE)
    detail: list = []

    def emit(record: dict) -> None:
        """A detail line: printed, and kept for the run's detail file."""
        line = json.dumps(record, sort_keys=True, default=str)
        detail.append(line)
        print(line, flush=True)

    run_workload = run_fleet if args.workload in FLEET else run_serve
    emit(run_workload(args, spec, emit))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
    with open(os.path.join(OUT_DIR, name), "w") as handle:
        handle.write("\n".join(detail) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
