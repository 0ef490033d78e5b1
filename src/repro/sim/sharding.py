"""Sharded single-scenario execution with a byte-identical-trace guarantee (F4).

One large fleet is partitioned across shards along its interaction graph;
each shard runs its own :class:`~repro.sim.simulator.Simulator` between
tick barriers, exchanging only cross-shard messages at each barrier.
The contract — extending the serial==parallel guarantee the sweep
executor established for *cells* to the inside of one scenario — is:

    the merged trace, summary, and audit-chain digest of a run are
    **byte-identical for every shard count**, including ``n_shards=1``.

What makes that hold (each point is load-bearing):

* **Shard assignment is deterministic** — :func:`partition_graph` grows
  shards by breadth-first search from evenly spaced seeds over the
  sorted member list (communities stay together); it is a pure function
  of ``(members, edges, n_shards)``.
* **Per-device behaviour is assignment-invariant** — every shard
  simulator is built from the *same* master seed, and
  :class:`~repro.sim.rng.SeededRNG` derives substreams by hashing
  ``seed:name``, so ``rng.stream("device/<id>")`` yields the same
  sequence no matter which process hosts the device.  Message latency
  and loss are CRC-hashed per message
  (:mod:`repro.net.shardnet`), never drawn from a shared stream.
* **Message exchange is submission-order merged** — each barrier batch
  is sorted by ``(deliver_at, sender, per-sender seq)``, a pure function
  of the message set, and injected in that order at a dedicated event
  priority.
* **The merged trace is a stable sort** of per-shard trace records by
  ``(time, subject)``; each subject lives entirely in one shard, so the
  per-subject record order is the shard's own generation order.

A one-shard run steps its shard in this process; with more shards each
one lives in a forked worker (:func:`shard_worker`) and the windows
overlap.  Both speak one tiny protocol: ``run`` a window, return the
outbox; ``finalize``, return a :class:`ShardResult`.

The fleet scaffold at the bottom (:class:`FleetSpec`,
:class:`FleetShardBase`, :class:`FleetScenario`) is what every sharded
device-fleet model shares; a model supplies only its own state, tick,
message handling and summary.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.net.shardnet import ShardRouter, wire_sort_key
from repro.sim.simulator import Simulator

#: ``build_fn(shard_index, n_shards, members, build_args)`` returns a
#: runtime object exposing ``.sim``, ``.router`` and ``.finalize()``.
BuildFn = Callable[[int, int, list, dict], object]


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def partition_graph(members, edges, n_shards: int) -> dict:
    """Deterministic BFS-growth partition along the interaction graph.

    Seeds are evenly spaced over the sorted member list; shards claim one
    member per round from their BFS frontier (falling back to the next
    unassigned member in sorted order), capped at ``ceil(n / n_shards)``.
    Pure function of ``(members, edges, n_shards)`` — no RNG, no dict
    iteration order beyond sorted sequences — so every process computes
    the same assignment.
    """
    if n_shards < 1:
        raise ConfigurationError("n_shards must be >= 1")
    ordered = sorted(set(members))
    n = len(ordered)
    if n == 0:
        return {}
    adjacency: dict = {member: [] for member in ordered}
    for a, b in edges:
        if a in adjacency and b in adjacency:
            adjacency[a].append(b)
            adjacency[b].append(a)
    for member in ordered:
        adjacency[member] = sorted(set(adjacency[member]))
    quota = math.ceil(n / n_shards)
    seeds = [ordered[(index * n) // n_shards] for index in range(n_shards)]
    assignment: dict = {}
    frontiers = [deque([seed]) for seed in seeds]
    sizes = [0] * n_shards
    cursor = 0  # next sorted member to hand a starved shard
    while len(assignment) < n:
        progress = False
        for shard in range(n_shards):
            if sizes[shard] >= quota:
                continue
            member = None
            frontier = frontiers[shard]
            while frontier:
                candidate = frontier.popleft()
                if candidate not in assignment:
                    member = candidate
                    break
            if member is None:
                while cursor < n and ordered[cursor] in assignment:
                    cursor += 1
                if cursor >= n:
                    continue
                member = ordered[cursor]
            assignment[member] = shard
            sizes[shard] += 1
            progress = True
            frontier.extend(adjacency[member])
        if not progress:
            break
    # Safety net: anything left (cannot happen with ceil quotas) goes to
    # the emptiest shard, smallest index first.
    for member in ordered:
        if member not in assignment:
            shard = min(range(n_shards), key=lambda s: (sizes[s], s))
            assignment[member] = shard
            sizes[shard] += 1
    return assignment


def cut_edges(assignment: dict, edges) -> int:
    """How many interaction edges cross a shard boundary."""
    return sum(1 for a, b in edges
               if a in assignment and b in assignment
               and assignment[a] != assignment[b])


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic fleet partition: member -> shard, plus pins."""

    n_shards: int
    assignment: dict

    @staticmethod
    def build(members, n_shards: int, edges=(),
              pins: Optional[dict] = None) -> "ShardPlan":
        """Partition ``members`` along ``edges``, then apply pins.

        ``pins`` maps members (e.g. a fleet-global watchdog) to fixed
        shard indices — pinned members join the plan without affecting
        the balance of the partitioned fleet.
        """
        assignment = partition_graph(members, edges, n_shards)
        for member, shard in (pins or {}).items():
            if not 0 <= shard < n_shards:
                raise ConfigurationError(
                    f"pin for {member!r} outside [0, {n_shards})")
            assignment[member] = shard
        return ShardPlan(n_shards=n_shards, assignment=dict(assignment))

    def members_of(self, shard: int) -> list:
        return sorted(m for m, s in self.assignment.items() if s == shard)

    def shard_of(self, member) -> int:
        return self.assignment[member]

    def sizes(self) -> list:
        counts = [0] * self.n_shards
        for shard in self.assignment.values():
            counts[shard] += 1
        return counts


# ---------------------------------------------------------------------------
# Per-shard results and the deterministic merge
# ---------------------------------------------------------------------------


@dataclass
class ShardResult:
    """Everything one shard ships home at finalize (picklable).

    ``trace`` rows are ``(time, subject, rendered_line)`` so the merge
    can stable-sort without re-parsing; ``audit`` rows are canonical
    strings feeding the audit-chain digest; ``spans`` are deterministic
    scenario span dicts (explicit shard-invariant contexts — the
    tracer's counter-minted ids are per-process and stay out of the
    determinism surface).
    """

    shard_index: int
    trace: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    audit: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    events_processed: int = 0


def merge_trace(results: Sequence[ShardResult]) -> list:
    """Stable-sorted merged trace lines: the determinism surface.

    Every subject's records come from exactly one shard (devices never
    migrate), so a stable sort by ``(time, subject)`` preserves each
    subject's generation order while making cross-subject order a pure
    function of the record set.
    """
    rows = []
    for result in results:
        rows.extend(result.trace)
    rows.sort(key=lambda row: (row[0], row[1]))
    return [row[2] for row in rows]


def trace_digest(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def audit_chain_digest(results: Sequence[ShardResult]) -> str:
    """Hash-chain over the merged, deterministically sorted audit entries."""
    entries = []
    for result in results:
        entries.extend(result.audit)
    entries.sort()
    digest = "0" * 64
    for entry in entries:
        digest = hashlib.sha256((digest + entry).encode("utf-8")).hexdigest()
    return digest


def merge_summaries(summaries: Sequence[dict]) -> dict:
    """Merge per-shard summaries: numbers add, dicts merge-add, flags must
    agree.  The result is part of the determinism surface, so the merge
    is order-insensitive for everything it sums."""
    merged: dict = {}
    for summary in summaries:
        for key, value in summary.items():
            if key not in merged:
                merged[key] = value.copy() if isinstance(value, dict) else value
                continue
            current = merged[key]
            if isinstance(value, bool) or isinstance(current, bool):
                if current != value:
                    raise SimulationError(
                        f"shard summaries disagree on flag {key!r}")
            elif isinstance(value, (int, float)):
                merged[key] = current + value
            elif isinstance(value, dict):
                for inner_key, inner_value in value.items():
                    current[inner_key] = current.get(inner_key, 0) + inner_value
            elif current != value:
                raise SimulationError(
                    f"shard summaries disagree on value {key!r}")
    return merged


def merge_spans(results: Sequence[ShardResult]) -> list:
    """Merged deterministic scenario spans, sorted like the trace."""
    spans = []
    for result in results:
        spans.extend(result.spans)
    spans.sort(key=lambda s: (s.get("time", 0.0), s.get("subject", ""),
                              s.get("name", ""), s.get("span_id", "")))
    return spans


# ---------------------------------------------------------------------------
# Barrier schedule and routing
# ---------------------------------------------------------------------------


def barrier_schedule(horizon: float, window: float) -> list:
    """The barrier times: ``window, 2*window, ...`` capped at ``horizon``.

    Computed by multiplication (not accumulation) so the schedule is a
    pure function of ``(horizon, window)`` with no float drift.
    """
    if horizon <= 0 or window <= 0:
        raise ConfigurationError("horizon and window must be positive")
    count = max(1, math.ceil(horizon / window - 1e-9))
    barriers = [min(window * (index + 1), horizon) for index in range(count)]
    if barriers[-1] < horizon:
        barriers.append(horizon)
    return barriers


def route_batches(outboxes, assignment: dict, n_shards: int):
    """Group drained outboxes by destination shard, submission-order
    sorted (:func:`repro.net.shardnet.wire_sort_key`).  Returns
    ``(batches, unroutable_count)``."""
    batches: list = [[] for _ in range(n_shards)]
    unroutable = 0
    for outbox in outboxes:
        for message in outbox:
            shard = assignment.get(message.recipient)
            if shard is None:
                unroutable += 1
                continue
            batches[shard].append(message)
    for batch in batches:
        batch.sort(key=wire_sort_key)
    return batches, unroutable


# ---------------------------------------------------------------------------
# Shard hosts: in-process and worker-process
# ---------------------------------------------------------------------------

#: How long the coordinator waits for a finished worker to exit.
WORKER_JOIN_SEC = 30.0


class ShardHost:
    """One live shard: a built runtime plus the window-step protocol.

    A one-shard run talks to it directly (``send`` answers at once and
    ``recv`` hands the answer back); :func:`shard_worker` serves the same
    :meth:`handle` from a forked worker process.
    """

    def __init__(self, build_fn: BuildFn, build_args: dict, shard_index: int,
                 n_shards: int, members: list):
        self.runtime = build_fn(shard_index, n_shards, list(members),
                                build_args)
        self._reply = None

    def handle(self, command: str, payload):
        """``run``: inject the barrier batch, run to the barrier, return
        ``(outbox, busy_seconds)``; ``finalize``: return the
        :class:`ShardResult`."""
        if command == "run":
            barrier, inbound = payload
            router = self.runtime.router
            router.inject(inbound)
            started = perf_counter()
            self.runtime.sim.run(until=barrier)
            return router.drain_outbox(), perf_counter() - started
        if command == "finalize":
            return self.runtime.finalize()
        raise SimulationError(f"unknown shard command {command!r}")

    def send(self, command: str, payload=None) -> None:
        self._reply = self.handle(command, payload)

    def recv(self):
        return self._reply

    def close(self) -> None:
        pass


def shard_worker(conn, build_fn: BuildFn, build_args: dict, shard_index: int,
                 n_shards: int, members: list) -> None:
    """Worker-process loop: build once, step windows over the pipe."""
    try:
        host = ShardHost(build_fn, build_args, shard_index, n_shards, members)
        conn.send(("ok", None))
        while True:
            command, payload = conn.recv()
            conn.send(("ok", host.handle(command, payload)))
            if command == "finalize":
                return
    except Exception:
        import traceback

        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # coordinator already gone
            pass
    finally:
        conn.close()


class WorkerHost:
    """The coordinator's end of one shard hosted in a worker process."""

    def __init__(self, ctx, build_fn: BuildFn, build_args: dict,
                 shard_index: int, n_shards: int, members: list):
        self.shard_index = shard_index
        self.command = None
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=shard_worker,
            args=(child, build_fn, build_args, shard_index, n_shards,
                  members),
            daemon=True,
        )
        self.process.start()
        child.close()

    def send(self, command: str, payload=None) -> None:
        self.command = command
        try:
            self.conn.send((command, payload))
        except (BrokenPipeError, ConnectionResetError):
            self._died()

    def recv(self):
        try:
            tag, payload = self.conn.recv()
        except (EOFError, ConnectionResetError):
            self._died()
        if tag == "error":
            raise SimulationError(
                f"shard {self.shard_index} worker failed:\n{payload}")
        return payload

    def _died(self):
        self.process.join(timeout=WORKER_JOIN_SEC)
        raise SimulationError(
            f"shard {self.shard_index} worker exited without replying "
            f"(exit code {self.process.exitcode})")

    def close(self) -> None:
        """Reap the worker: after ``finalize`` it exits on its own; one
        cut off mid-run (a failed run) is terminated."""
        self.conn.close()
        if self.command == "finalize":
            self.process.join(timeout=WORKER_JOIN_SEC)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------


class BarrierTiming:
    """Per-shard time-in-shard vs time-in-barrier accounting (F4).

    A sharded run advances in barrier windows; inside each window every
    shard runs its simulator (*busy* time) and then waits for the slowest
    shard plus the message exchange (*barrier* time).  This accumulates
    both per shard, so imbalance — one shard carrying a hot community
    while the rest idle at the barrier — is a number, not a guess.
    :meth:`publish` pushes the totals into a
    :class:`~repro.sim.metrics.MetricsRegistry` as gauges, from where the
    E20 health stack and the Prometheus/JSONL exposition already pick
    gauges up.
    """

    __slots__ = ("n_shards", "busy_sec", "barrier_sec", "windows")

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.busy_sec = [0.0] * n_shards
        self.barrier_sec = [0.0] * n_shards
        self.windows = 0

    def add_window(self, busies, window_wall: float) -> None:
        """Account one barrier window: per-shard busy times + window wall.

        A shard's barrier share is the window wall clock minus its own
        busy time — the stretch it spent waiting on the slowest shard and
        the cross-shard message exchange.
        """
        if len(busies) != self.n_shards:
            raise ValueError(
                f"expected {self.n_shards} busy samples, got {len(busies)}")
        self.windows += 1
        for index, busy in enumerate(busies):
            self.busy_sec[index] += busy
            self.barrier_sec[index] += max(0.0, window_wall - busy)

    def barrier_frac(self, shard: int) -> float:
        """Fraction of shard time spent at the barrier (0 = never waits)."""
        total = self.busy_sec[shard] + self.barrier_sec[shard]
        if total <= 0.0:
            return 0.0
        return self.barrier_sec[shard] / total

    def imbalance(self) -> float:
        """Max busy over mean busy (1.0 = perfectly balanced shards)."""
        if not self.busy_sec:
            return 1.0
        mean = sum(self.busy_sec) / len(self.busy_sec)
        if mean <= 0.0:
            return 1.0
        return max(self.busy_sec) / mean

    def publish(self, registry, prefix: str = "shard") -> None:
        """Set ``<prefix>.<i>.busy_sec`` / ``.barrier_sec`` /
        ``.barrier_frac`` gauges plus ``<prefix>.imbalance``."""
        for index in range(self.n_shards):
            registry.gauge(f"{prefix}.{index}.busy_sec").set(
                self.busy_sec[index])
            registry.gauge(f"{prefix}.{index}.barrier_sec").set(
                self.barrier_sec[index])
            registry.gauge(f"{prefix}.{index}.barrier_frac").set(
                self.barrier_frac(index))
        registry.gauge(f"{prefix}.imbalance").set(self.imbalance())
        registry.gauge(f"{prefix}.windows").set(self.windows)

    def report(self) -> dict:
        """A plain-dict summary (what benchmarks export to JSON)."""
        return {
            "windows": self.windows,
            "imbalance": self.imbalance(),
            "shards": [
                {
                    "shard": index,
                    "busy_sec": self.busy_sec[index],
                    "barrier_sec": self.barrier_sec[index],
                    "barrier_frac": self.barrier_frac(index),
                }
                for index in range(self.n_shards)
            ],
        }


@dataclass
class ShardedRun:
    """A finished sharded run: the determinism surface plus perf data.

    ``summary`` / ``trace_lines`` / ``trace_digest`` / ``audit_digest`` /
    ``spans`` are byte-identical across shard counts; ``timing`` and
    ``perf`` are observational (wall clock) and excluded from that
    contract.
    """

    plan: ShardPlan
    results: list
    summary: dict
    trace_lines: list
    trace_digest: str
    audit_digest: str
    spans: list
    timing: BarrierTiming
    perf: dict

    def trace_bytes(self) -> bytes:
        return "\n".join(self.trace_lines).encode("utf-8")


def _mp_context():
    # fork keeps worker startup cheap and build_fn flexible; fall back to
    # the platform default (spawn) where fork is unavailable.
    fork = "fork" in multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if fork else None)


def run_sharded(build_fn: BuildFn, build_args: dict, plan: ShardPlan,
                horizon: float, window: float) -> ShardedRun:
    """Run one fleet partitioned per ``plan`` to ``horizon``.

    One shard runs in this process; more than one run in forked worker
    processes whose windows overlap.  Every shard count produces the
    same merged result, byte for byte.
    """
    n_shards = plan.n_shards
    barriers = barrier_schedule(horizon, window)
    timing = BarrierTiming(n_shards)
    inbound: list = [[] for _ in range(n_shards)]
    unroutable = 0
    wall_started = perf_counter()
    hosts: list = []
    try:
        if n_shards == 1:
            hosts.append(ShardHost(build_fn, build_args, 0, 1,
                                   plan.members_of(0)))
        else:
            ctx = _mp_context()
            for shard in range(n_shards):
                hosts.append(WorkerHost(ctx, build_fn, build_args, shard,
                                        n_shards, plan.members_of(shard)))
            for host in hosts:
                host.recv()  # built and ready
        for barrier in barriers:
            window_started = perf_counter()
            for shard, host in enumerate(hosts):
                host.send("run", (barrier, inbound[shard]))
            replies = [host.recv() for host in hosts]
            timing.add_window([busy for _, busy in replies],
                              perf_counter() - window_started)
            inbound, dropped = route_batches(
                [outbox for outbox, _ in replies], plan.assignment, n_shards)
            unroutable += dropped
        for host in hosts:
            host.send("finalize")
        results = [host.recv() for host in hosts]
    finally:
        for host in hosts:
            host.close()

    wall = perf_counter() - wall_started
    lines = merge_trace(results)
    events = sum(result.events_processed for result in results)
    perf = {
        "shards": n_shards,
        "windows": len(barriers),
        "events": events,
        "wall_sec": wall,
        "events_per_sec": (events / wall) if wall > 0 else 0.0,
        "unroutable": unroutable,
        "imbalance": timing.imbalance(),
    }
    return ShardedRun(
        plan=plan,
        results=results,
        summary=merge_summaries([result.summary for result in results]),
        trace_lines=lines,
        trace_digest=trace_digest(lines),
        audit_digest=audit_chain_digest(results),
        spans=merge_spans(results),
        timing=timing,
        perf=perf,
    )


# ---------------------------------------------------------------------------
# The fleet scaffold
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetSpec:
    """The fields and checks every sharded fleet spec shares.

    Models subclass it (frozen, picklable) and may restate a default.
    The coordinator ships one spec to every shard, and equal specs must
    produce byte-identical merged runs for every shard count.
    """

    seed: int = 0
    n_devices: int = 24
    horizon: float = 48.0
    window: float = 4.0
    tick_interval: float = 1.0

    def validate(self) -> None:
        if self.n_devices < 4:
            raise ConfigurationError("need at least 4 devices")
        if self.window <= 0 or self.horizon <= 0 or self.tick_interval <= 0:
            raise ConfigurationError("times must be positive")


class FleetShardBase:
    """One shard's slice of a ``dev-*`` fleet: the model-free half.

    Builds the shard's simulator and router from the master seed, hosts
    the ``dev-*`` members (``global_index`` is the fleet-wide index in
    each name), routes every device's messages to the model's
    ``on_device_message(name, message)`` and runs its ``tick()`` every
    ``tick_interval``.  A model subclass adds its state and pinned
    actors after ``super().__init__``, may fill ``audit`` and ``spans``,
    and reports through ``summary()`` and :meth:`extra_metrics`.
    """

    def __init__(self, shard_index: int, n_shards: int, members: list,
                 spec: FleetSpec):
        spec.validate()
        self.spec = spec
        self.shard_index = shard_index
        self.n_shards = n_shards
        self.sim = Simulator(seed=spec.seed)
        self.router = ShardRouter(self.sim, seed=spec.seed,
                                  window=spec.window)
        self.devices = sorted(m for m in members if m.startswith("dev-"))
        self.global_index = {name: int(name.split("-", 1)[1])
                             for name in self.devices}
        #: canonical audit rows and deterministic span dicts (ShardResult).
        self.audit: list = []
        self.spans: list = []
        for name in self.devices:
            self.router.register(name, self._device_handler(name))
        self.sim.every(spec.tick_interval, self.tick, label="fleet:tick")

    def _device_handler(self, name: str):
        return lambda message: self.on_device_message(name, message)

    def extra_metrics(self) -> dict:
        return {}

    def finalize(self) -> ShardResult:
        summary = self.summary()
        trace = [
            (event.time, event.subject,
             f"{event.time!r} {event.kind} {event.subject} "
             f"{json.dumps(event.detail, sort_keys=True)}")
            for event in self.sim.trace.events
        ]
        metrics = {
            "net.shard.sent": self.router._m_sent.value,
            "net.shard.delivered": self.router._m_delivered.value,
            **self.extra_metrics(),
        }
        return ShardResult(
            shard_index=self.shard_index, trace=trace, summary=summary,
            audit=list(self.audit), spans=list(self.spans), metrics=metrics,
            events_processed=self.sim.events_processed,
        )


def build_fleet_shard(shard_index: int, n_shards: int, members: list,
                      build_args: dict) -> FleetShardBase:
    """Module-level (picklable) build function for :func:`run_sharded`."""
    return build_args["shard_cls"](shard_index, n_shards, members,
                                   build_args["spec"])


class FleetScenario:
    """The user-facing wrapper: spec + shard count -> merged run.

    A model names its ``spec_cls`` and ``shard_cls``, its ``members``
    (and optional ``edges``) functions of the spec, and its two
    ``pinned`` actors: the first lives on shard 0, the second on the
    last shard.
    """

    spec_cls: type = FleetSpec
    shard_cls: type = FleetShardBase
    pinned: tuple = ()

    def __init__(self, n_shards: int = 1, **spec_kwargs):
        self.spec = self.spec_cls(**spec_kwargs)
        self.spec.validate()
        if n_shards < 1:
            raise ConfigurationError("n_shards must be >= 1")
        self.n_shards = n_shards

    @staticmethod
    def edges(spec) -> list:
        return []

    def plan(self) -> ShardPlan:
        pins = dict(zip(self.pinned, (0, self.n_shards - 1)))
        return ShardPlan.build(self.members(self.spec), self.n_shards,
                               edges=self.edges(self.spec), pins=pins)

    def run(self) -> ShardedRun:
        return run_sharded(build_fleet_shard,
                           {"shard_cls": self.shard_cls, "spec": self.spec},
                           self.plan(), horizon=self.spec.horizon,
                           window=self.spec.window)
