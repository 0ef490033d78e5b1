"""The ``serve-mix`` workload: an open-loop HTTP client for the control plane.

The server runs in its own process (``serve_server.py``).  One client
process drives it from one asyncio thread over ``CONNECTIONS``
keep-alive connections (never more than the host's cores), pipelining
each request onto its connection at the moment it is due, so a slow
server never slows the arrival schedule.  Latency is timed from each
request's due time, which charges a stall to every request queued
behind it; how late the generator itself sent is measured per rung, and
a rung whose generator lagged is marked invalid instead of scored.

Inputs come from the seed: 90% ``/evaluate`` with a fully pinned state,
so each outcome is known in advance, and 10% ``/batch`` with 2048 rows,
whose expected counts are computed at set-up by the evaluator's scalar
twin.  Every response is checked after its rung.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import os
import random
import subprocess
import sys
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter, sleep

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
from repro.api.profile import default_profile  # noqa: E402
from repro.statespace.batch import StateMatrix  # noqa: E402

#: Client connections: at most two, and never more than the cores.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
BATCH_ROWS = 2048
#: Every tenth request is a /batch: the mix has no seed-dependent bursts.
BATCH_EVERY = 10
EVALUATE_BODIES = 64
BATCH_BODIES = 8
#: The fixed reference rung.  At 400-500 req/s (half the plane's
#: throughput) the tail is set by a handful of garbage-collection pauses
#: whose length grows with the server's heap, and the median /evaluate
#: waits behind a /batch about 40% of the time; at 200 req/s both are
#: set mostly by service time.
REFERENCE_RPS = 200
#: The ladder, ascending; it stops at the first valid rung that fails.
LADDER_RPS = (500, 600, 700, 800, 900, 1000, 1200, 1400)
LATENCY_LIMIT_MS = 50.0
#: A rung is invalid when the generator's own p99 lateness exceeds this.
GENERATOR_LATE_LIMIT_MS = 10.0
#: Shares of ``--seconds``: the untraced run's reference rung, and per
#: ladder rung of the traced run (whose two reference rungs take three
#: such shares each).  Every measurement starts on a fresh server, so the
#: server's heap follows the same trajectory in every run.
REFERENCE_SHARE = 0.5
RUNG_SHARE = 0.1
WARMUP_S = 1.0
SETUP_PROBES = 5
#: Responses still outstanding this long after a rung's last send end
#: the run: a pipelined connection can no longer pair them with requests.
TIMEOUT_S = 10.0

# Every /evaluate body pins the whole state, battery included.  With the
# battery left to drain, as successive moves do, most requests would end
# as ``hold-when-drained`` and never reach the guard; pinned, each body
# has one known outcome: heat <= 80 executes ``advance`` and heat >= 110
# makes the state-space guard substitute ``vent_heat`` (the boundary
# lies near 95, well clear of both ranges).
EXECUTE_HEAT = (20.0, 80.0)
SUBSTITUTE_HEAT = (110.0, 140.0)


def _request(path: str, body: bytes) -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1") + body


def batch_reference(rows: list) -> dict:
    """Expected ``/batch`` counts from the scalar twin, not the
    vectorized path the server runs."""
    profile = default_profile()
    evaluator = profile.build_batch_evaluator()
    matrix = StateMatrix.from_rows(profile.space, rows)
    chosen = evaluator.select_scalar(matrix)
    vetoed, executed = evaluator.apply_scalar(matrix, chosen)
    names = [evaluator.programs[int(i)].name if i >= 0 else None
             for i in chosen]
    return {"chosen": names, "vetoed": int(vetoed.sum()),
            "executed": int(executed.sum())}


@dataclass
class Plan:
    """Pre-encoded requests and what each must answer."""

    requests: list = field(default_factory=list)     # bytes per body
    expected: list = field(default_factory=list)     # per body
    kinds: list = field(default_factory=list)        # per body
    order: list = field(default_factory=list)        # body index per request

    def body_for(self, i: int) -> int:
        return self.order[i % len(self.order)]


def make_plan(seed: int, length: int = 50_000) -> Plan:
    rng = random.Random(seed)
    plan = Plan()
    for index in range(EVALUATE_BODIES):
        substitute = index % 3 == 0
        heat = round(rng.uniform(*(SUBSTITUTE_HEAT if substitute
                                   else EXECUTE_HEAT)), 2)
        body = json.dumps({
            "event": {"kind": "mgmt.command.move"},
            "state": {"heat": heat, "battery": 100.0, "speed": 0.0,
                      "civilians_near": 0, "weapon_armed": False},
        }).encode("utf-8")
        plan.requests.append(_request("/evaluate", body))
        plan.kinds.append("evaluate")
        plan.expected.append(("substituted", "vent_heat") if substitute
                             else ("executed", "advance"))
    for _ in range(BATCH_BODIES):
        rows = [{"heat": round(rng.uniform(0.0, 160.0), 2),
                 "battery": round(rng.uniform(0.0, 100.0), 2),
                 "speed": round(rng.uniform(0.0, 100.0), 2),
                 "civilians_near": rng.randint(0, 3)}
                for _ in range(BATCH_ROWS)]
        plan.requests.append(_request(
            "/batch", json.dumps({"rows": rows}).encode("utf-8")))
        plan.kinds.append("batch")
        plan.expected.append(batch_reference(rows))
    for index in range(length):
        if index % BATCH_EVERY == BATCH_EVERY - 1:
            plan.order.append(EVALUATE_BODIES + rng.randrange(BATCH_BODIES))
        else:
            plan.order.append(rng.randrange(EVALUATE_BODIES))
    return plan


def check_response(plan: Plan, body_index: int, status: int,
                   payload: bytes):
    """``None`` when the response is right, else why not."""
    if status != 200:
        return f"status {status}"
    data = json.loads(payload)
    expected = plan.expected[body_index]
    if plan.kinds[body_index] == "evaluate":
        got = (data.get("outcome"), data.get("executed"))
        return None if got == expected else f"evaluate {got} != {expected}"
    for key in ("chosen", "vetoed", "executed"):
        if data.get(key) != expected[key]:
            return f"batch {key} differs from the scalar twin"
    return None


# -- the server process -------------------------------------------------------


class ServerProcess:
    """One ``serve_server.py`` child; always stopped and waited for."""

    def __init__(self, traced: bool, prefix: str, sample: bool = False):
        self.prefix = prefix
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_server.py"),
             "1" if traced else "0", prefix]
            + (["sample"] if sample else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT)
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])

    def stop(self) -> dict:
        proc = self.proc
        try:
            if proc.poll() is None:
                proc.stdin.write("STOP\n")
                proc.stdin.flush()
                proc.stdin.close()
            proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        finally:
            proc.stdout.close()
        if proc.returncode != 0:
            raise RuntimeError(f"server exited with {proc.returncode}")
        with open(self.prefix + ".json") as handle:
            return json.load(handle)


def probe_setup(prefix: str) -> float:
    """Seconds from spawning a server to its first 200 on ``/health``."""
    server = ServerProcess(False, prefix)
    try:
        while True:
            connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                    timeout=5)
            try:
                connection.request("GET", "/health")
                if connection.getresponse().status == 200:
                    return perf_counter() - server.started
            except OSError:
                pass
            finally:
                connection.close()
            sleep(0.002)
    finally:
        server.stop()


# -- the open-loop generator --------------------------------------------------


@dataclass
class Rung:
    rate: float
    first: int                 # first request index in the plan
    count: int
    latency_ms: list = field(default_factory=list)   # per request
    late_ms: list = field(default_factory=list)      # generator lateness
    kinds: list = field(default_factory=list)
    trace_ids: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    backlog: int = 0           # requests outstanding at the last due time

    @property
    def failed(self) -> int:
        return len(self.errors)


class Connection:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.pending: deque = deque()


async def _read_responses(connection: Connection, done: dict) -> None:
    reader = connection.reader
    while True:
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length, trace_id = 0, None
        for line in lines[1:]:
            name, _sep, value = line.partition(":")
            name = name.lower()
            if name == "content-length":
                length = int(value)
            elif name == "x-trace-id":
                trace_id = value.strip()
        payload = await reader.readexactly(length) if length else b""
        index = connection.pending.popleft()
        done[index] = (perf_counter(), status, trace_id, payload)


async def _run_rung(connections: list, plan: Plan, rung: Rung,
                    done: dict) -> list:
    """Send ``rung`` on schedule; returns each request's due time."""
    period = 1.0 / rung.rate
    start = perf_counter() + 0.01
    dues = []
    for offset in range(rung.count):
        index = rung.first + offset
        due = start + offset * period
        now = perf_counter()
        if due > now:
            await asyncio.sleep(due - now)
            now = perf_counter()
        connection = connections[offset % len(connections)]
        connection.pending.append(index)
        connection.writer.write(plan.requests[plan.body_for(index)])
        rung.late_ms.append(max(0.0, now - due) * 1000.0)
        dues.append(due)
    rung.backlog = sum(len(c.pending) for c in connections)
    deadline = perf_counter() + TIMEOUT_S
    while any(c.pending for c in connections) and perf_counter() < deadline:
        await asyncio.sleep(0.002)
    return dues


async def drive(port: int, plan: Plan, next_rung) -> list:
    """Run rungs in order; ``next_rung(done_rungs)`` returns the next
    ``(rate, seconds)`` or ``None`` to stop."""
    connections = []
    readers = []
    done: dict = {}
    finished: list = []
    first = 0
    try:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            connection = Connection(reader, writer)
            connections.append(connection)
            readers.append(asyncio.ensure_future(
                _read_responses(connection, done)))
        step = next_rung(finished)
        while step is not None:
            rate, seconds = step
            rung = Rung(rate, first, int(rate * seconds))
            first += rung.count
            dues = await _run_rung(connections, plan, rung, done)
            for offset, due in enumerate(dues):
                index = rung.first + offset
                body_index = plan.body_for(index)
                rung.kinds.append(plan.kinds[body_index])
                result = done.pop(index, None)
                if result is None:
                    rung.errors.append("timeout")
                    rung.latency_ms.append(float("inf"))
                    rung.trace_ids.append(None)
                    continue
                finished_at, status, trace_id, payload = result
                rung.latency_ms.append((finished_at - due) * 1000.0)
                rung.trace_ids.append(trace_id)
                error = check_response(plan, body_index, status, payload)
                if error is not None:
                    rung.errors.append(error)
                    rung.latency_ms[-1] = float("inf")
            finished.append(rung)
            for connection in connections:
                if connection.pending:
                    raise RuntimeError("responses outstanding past timeout")
            await asyncio.sleep(0.2)
            step = next_rung(finished)
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for connection in connections:
            connection.writer.close()
    return finished


def run_rungs(port: int, plan: Plan, next_rung) -> list:
    """Drive the rungs with the client's collector off, so no collection
    in the client lands inside a measured latency (the server, a
    separate process, collects as it always does)."""
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(drive(port, plan, next_rung))
    finally:
        gc.enable()


# -- scoring -------------------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def rung_summary(rung: Rung) -> dict:
    latency = np.asarray(rung.latency_ms)
    late_p99 = percentile(rung.late_ms, 99)
    p99 = percentile(latency, 99)
    growing = rung.backlog > rung.rate * LATENCY_LIMIT_MS / 1000.0
    return {"rate": rung.rate, "requests": rung.count,
            "p50_ms": percentile(latency, 50), "p99_ms": p99,
            "backlog": rung.backlog,
            "bench.generator_late_ms_p99": late_p99,
            "valid": late_p99 <= GENERATOR_LATE_LIMIT_MS,
            "passed": p99 <= LATENCY_LIMIT_MS and not growing,
            "failed": rung.failed}


def max_rps(table: list) -> float:
    """The highest rate meeting the limit, interpolated on p99 between
    the last valid passing rung and the first valid failing one, so the
    figure moves smoothly instead of by whole rungs."""
    low_rate, low_p99 = 0.0, 0.0
    for row in table:
        if not row["valid"]:
            continue
        if row["passed"]:
            low_rate, low_p99 = row["rate"], row["p99_ms"]
            continue
        if row["p99_ms"] <= LATENCY_LIMIT_MS:
            return low_rate            # failed on backlog alone
        share = (LATENCY_LIMIT_MS - low_p99) / (row["p99_ms"] - low_p99)
        return low_rate + share * (row["rate"] - low_rate)
    return low_rate


def class_latency(rung: Rung, kind: str) -> dict:
    latency = [value for value, k in zip(rung.latency_ms, rung.kinds)
               if k == kind]
    return {f"serve.{kind}_p50_ms": percentile(latency, 50),
            f"serve.{kind}_p99_ms": percentile(latency, 99),
            f"serve.{kind}_samples": len(latency)}


def fixed_rungs(*steps):
    return lambda finished: (steps[len(finished)]
                             if len(finished) < len(steps) else None)


def reference_run(plan: Plan, traced: bool, seconds: float,
                  prefix: str, sample: bool = False) -> tuple:
    """Warm-up plus the reference rung on a fresh server; with ``sample``
    the server samples the host's speed while it serves."""
    server = ServerProcess(traced, prefix, sample)
    try:
        rungs = run_rungs(server.port, plan, fixed_rungs(
            (REFERENCE_RPS, WARMUP_S), (REFERENCE_RPS, seconds)))
    finally:
        report = server.stop()
    return rungs, report


def ladder_run(plan: Plan, seconds: float, prefix: str) -> list:
    """The ladder on a fresh server; one summary row per rung."""

    def next_rung(finished):
        if finished:
            last = rung_summary(finished[-1])
            if last["valid"] and not last["passed"]:
                return None
        if len(finished) == len(LADDER_RPS):
            return None
        return (LADDER_RPS[len(finished)], seconds)

    server = ServerProcess(False, prefix)
    try:
        return run_rungs(server.port, plan, next_rung)
    finally:
        server.stop()


def latency_summary(rung: Rung) -> dict:
    """Client latency from due time over every request of a rung."""
    return {"bench.latency_p50_ms": percentile(rung.latency_ms, 50),
            "bench.latency_p95_ms": percentile(rung.latency_ms, 95),
            "bench.latency_p99_ms": percentile(rung.latency_ms, 99),
            "bench.latency_samples": rung.count,
            **class_latency(rung, "evaluate"), **class_latency(rung, "batch")}


def measure(seed: int, seconds: float, out_dir: str) -> dict:
    """Set-up probes and the reference rung, untraced.

    Throughput is requests served per CPU-second of the server process
    (the rate one server core sustains on this mix), expressed in the
    host's current speed: times the mean host-speed kernel time the
    server sampled while it served.  Latencies are printed with the
    run's detail (they include the samples' 4 ms stalls of the server's
    loop, four a second) and reported by the traced run, not gated: on
    a 2-vCPU VM shared with other tenants their run-to-run spread was
    0.2-0.9, and the ladder's latency-limited rate moved by 0.18.
    """
    plan = make_plan(seed)
    prefix = os.path.join(out_dir, "serve")
    setup = [probe_setup(prefix + "-probe") for _ in range(SETUP_PROBES)]
    rungs, report = reference_run(plan, False, REFERENCE_SHARE * seconds,
                                  prefix + "-reference", sample=True)
    return {
        "metrics": {
            "setup_s": float(np.median(setup)),
            "peak_rss_mb": report["peak_rss_mb"],
            "throughput": report["requests"] * report["ref_s"] / report["cpu_s"],
        },
        "attempted": sum(rung.count for rung in rungs),
        "failed": sum(rung.failed for rung in rungs),
        "errors": sorted({error for rung in rungs for error in rung.errors}),
        "detail": {"reference": rung_summary(rungs[1]),
                   "reference_s": report["ref_s"],
                   "wall_throughput": report["requests"] / report["cpu_s"],
                   "latency": latency_summary(rungs[1]), "setup_s": setup},
    }


def trace(seed: int, seconds: float, out_dir: str) -> dict:
    """The reference rung untraced and traced, then the ladder."""
    plan = make_plan(seed)
    prefix = os.path.join(out_dir, "serve")
    speed = hostspeed.Sampler()
    speed.sample(10)
    plain_rungs, plain = reference_run(plan, False, RUNG_SHARE * 3 * seconds,
                                       prefix + "-trace0")
    traced_rungs, report = reference_run(plan, True, RUNG_SHARE * 3 * seconds,
                                         prefix + "-trace1")
    ladder = ladder_run(plan, RUNG_SHARE * seconds, prefix + "-ladder")
    table = [rung_summary(rung) for rung in ladder]
    if not any(row["valid"] for row in table):
        raise RuntimeError("every ladder rung had a lagging generator")
    reference = traced_rungs[1]
    server_ms: dict = {}
    by_trace = {}
    for path, trace_id, seconds_spent in report["requests_traced"]:
        server_ms.setdefault(path, []).append(seconds_spent * 1000.0)
        by_trace[trace_id] = seconds_spent * 1000.0
    waits = [latency - by_trace[trace_id]
             for latency, trace_id in zip(reference.latency_ms,
                                          reference.trace_ids)
             if trace_id in by_trace]
    outcomes: dict = {}
    for rung in traced_rungs:
        for offset, kind in enumerate(rung.kinds):
            if kind == "evaluate":
                outcome = plan.expected[plan.body_for(rung.first + offset)][0]
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
    counters = {f"decisions.{k}": v for k, v in outcomes.items()}
    counters["safeguards.vetoes"] = outcomes.get("substituted", 0)
    counters["telemetry.spans"] = report["spans"]
    rungs = plain_rungs + traced_rungs + ladder
    vector, scalar = report["vector_evals"], report["scalar_evals"]
    return {
        "layers": report["layers"], "counts": report["counts"],
        "counters": counters, "ladder": table,
        "failures": sorted({e for rung in rungs for e in rung.errors}),
        "failed": sum(rung.failed for rung in rungs),
        "attempted": sum(rung.count for rung in rungs),
        "extra": {
            "safeguards.batch.rows": report["batch_rows"],
            "safeguards.batch.vector_share": (vector / (vector + scalar)
                                              if vector + scalar else 0.0),
            "api.evaluate.server_ms_p50": percentile(server_ms["/evaluate"], 50),
            "api.batch.server_ms_p50": percentile(server_ms["/batch"], 50),
            "api.wait_ms_p50": percentile(waits, 50),
            "api.wait_ms_p99": percentile(waits, 99),
            "bench.tracing_overhead_share": (
                report["cpu_s"] / report["requests"]
                / (plain["cpu_s"] / plain["requests"]) - 1.0),
            "bench.wall_throughput": plain["requests"] / plain["cpu_s"],
            "bench.reference_s": float(np.median(speed.samples)),
            "bench.generator_late_ms_p99": percentile(plain_rungs[1].late_ms, 99),
            "serve.max_rps": max_rps(table),
            **latency_summary(plain_rungs[1]),
        },
    }
