"""The sharded fleet confrontation: one large fleet, many shards (F4).

The scenario scales the paper's confrontation story — a worm compromises
devices, compromised devices strike (harm), a signed watchdog kills
rogues, a forger tries to kill healthy devices with bad-MAC orders — to
fleets of 10k–100k devices by combining the two F4 mechanisms:

* the fleet is partitioned across shards along its interaction topology
  (:mod:`repro.sim.sharding`) with cross-shard worm spread, reports and
  kill orders carried by the deterministic barrier transport
  (:mod:`repro.net.shardnet`);
* each shard evaluates its whole device block per tick through the
  vectorized guard/safeness engine (:mod:`repro.safeguards.batch`,
  :mod:`repro.statespace.batch`) — or the scalar twin when
  ``vectorized=False``, which must produce the identical trace.

Determinism contract (the F4 acceptance bar): for a fixed
:class:`ShardedFleetSpec`, the merged trace, summary, and audit-chain
digest are **byte-identical for every shard count** and for both
evaluator paths.  Everything a device does depends only on its own row,
CRC-derived constants, and the deterministic message order — never on
which shard hosts it.

Interop carried across shard boundaries:

* **E21** — with ``signed_commands=True`` kill orders are HMAC envelopes
  (:mod:`repro.crypto.envelope`); every device verifies-then-consumes,
  so the forger's bad-MAC orders land as ``authz.rejected.bad-mac`` and
  ``healthy_killed`` stays 0.  The unsigned arm shows the counterfactual.
* **E19** — worm infections and kill orders carry explicit
  shard-invariant :class:`~repro.telemetry.spans.SpanContext` values on
  the wire, so an infection chain's ``trace_id`` stitches across
  processes (the per-process tracer's counter-minted ids stay out of the
  determinism surface).
* **E20** — per-shard barrier timing gauges
  (:class:`~repro.sim.profiling.BarrierTiming`) publish through the
  existing metrics/exposition stack.

numpy is required here (the whole point is the vectorized block
evaluation; even the scalar twin stores fleet state in a
:class:`~repro.statespace.batch.StateMatrix`).  Library code outside
this scenario stays numpy-optional.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from repro.crypto.envelope import CommandSigner, EnvelopeVerifier, signed_body
from repro.crypto.keyring import Keyring
from repro.errors import ConfigurationError
from repro.net.shardnet import crc01
from repro.safeguards.batch import BatchPolicyEvaluator, BatchProgram
from repro.sim.sharding import FleetScenario, FleetShardBase, FleetSpec
from repro.statespace.batch import StateMatrix, numpy_available
from repro.statespace.classifier import ThresholdBand, ThresholdClassifier
from repro.core.actions import Effect
from repro.core.state import StateSpace, StateVariable
from repro.telemetry.spans import SpanContext

try:  # pragma: no cover
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Router addresses of the fleet-global actors (pinned, not partitioned).
WATCHDOG = "watchdog"
FORGER = "forger"


@dataclass(frozen=True)
class ShardedFleetSpec(FleetSpec):
    """Everything that determines a sharded confrontation run."""

    seed: int = 7
    n_devices: int = 200
    n_communities: int = 8
    #: temperature reporting: every device whose temp exceeds
    #: ``report_temp`` reports to the watchdog on its stagger slot.
    report_every: int = 4
    report_temp: float = 90.0
    #: worm: first infections at ``worm_time``, then stochastic spread
    #: along topology edges every ``spread_every`` ticks.
    worm_time: float = 10.0
    worm_targets: int = 2
    spread_every: int = 2
    spread_prob: float = 0.35
    #: compromised devices strike: +rogue_heat temp per tick, unguarded.
    rogue_heat: float = 9.0
    #: the watchdog issues a kill order at or above this reported temp.
    #: Kept above the hottest state a *guarded* device can reach (the
    #: boost program saturates at safeness == bad_below, i.e. temp
    #: 123.75 with the default classifier) so only rogues are killed.
    kill_temp: float = 125.0
    #: forged kill orders (bad MAC) against CRC-chosen targets.
    forge_time: float = 14.0
    forge_count: int = 5
    #: E21 arm: signed envelopes + verify-then-consume vs. bare bodies.
    signed_commands: bool = True
    #: vectorized batch evaluation vs. the scalar twin (same decisions).
    vectorized: bool = True

    def validate(self) -> None:
        super().validate()
        if self.n_communities < 1:
            raise ConfigurationError("n_communities must be >= 1")
        if self.report_every < 1 or self.spread_every < 1:
            raise ConfigurationError(
                "report_every and spread_every must be >= 1")
        if not 0.0 <= self.spread_prob <= 1.0:
            raise ConfigurationError("spread_prob must be in [0, 1]")


def device_name(index: int) -> str:
    return f"dev-{index:05d}"


def fleet_members(spec: ShardedFleetSpec) -> list:
    return [device_name(i) for i in range(spec.n_devices)]


def fleet_edges(spec: ShardedFleetSpec) -> list:
    """The interaction topology: a global ring plus intra-community
    chords.  Communities are contiguous index blocks, so the ring edges
    crossing block boundaries are the (few) inter-community bridges —
    the structure the graph partitioner exploits."""
    n = spec.n_devices
    block = max(2, math.ceil(n / spec.n_communities))
    edges = []
    for i in range(n):
        edges.append((device_name(i), device_name((i + 1) % n)))
        if (i + 2) % n // block == i // block:
            edges.append((device_name(i), device_name((i + 2) % n)))
    return edges


def fleet_space() -> StateSpace:
    return StateSpace([
        StateVariable("temp", "float", default=20.0, low=0.0, high=150.0),
        StateVariable("fuel", "float", default=50.0, low=0.0, high=100.0),
        StateVariable("load", "float", default=0.0, low=0.0, high=1.0),
        StateVariable("alive", "bool", default=True),
        StateVariable("compromised", "bool", default=False),
    ])


def fleet_classifier() -> ThresholdClassifier:
    return ThresholdClassifier([
        ThresholdBand("temp", safe_high=105.0, hard_high=130.0),
        ThresholdBand("fuel", safe_low=8.0, hard_low=0.0),
    ])


def fleet_programs(spec: ShardedFleetSpec) -> list:
    """The prioritized control programs every device runs per tick.

    ``strike`` never matches by condition (``false``); the worm installs
    it by overriding the selection for compromised rows — and those rows
    are guard-exempt (the compromise stripped the safeguard), which is
    exactly the harm the watchdog exists to stop."""
    return [
        BatchProgram("boost", "load > 0.9", [
            Effect("temp", "add", 60.0), Effect("load", "add", -0.5)]),
        BatchProgram("cool", "temp > 70", [Effect("temp", "add", -8.0)]),
        BatchProgram("refuel", "fuel < 25 and load < 0.8", [
            Effect("fuel", "add", 35.0)]),
        BatchProgram("work", "load > 0.45 and fuel > 12", [
            Effect("fuel", "add", -2.5), Effect("temp", "add", 3.5),
            Effect("load", "add", -0.12)]),
        BatchProgram("idle", "true", [
            Effect("load", "add", 0.07), Effect("temp", "add", -1.5)]),
        BatchProgram("strike", "false", [
            Effect("temp", "add", spec.rogue_heat),
            Effect("load", "add", 0.01)]),
    ]


STRIKE_INDEX = 5  # fleet_programs position of the worm's payload


def initial_vector(spec: ShardedFleetSpec, name: str) -> dict:
    """CRC-derived initial state — identical in every process."""
    return {
        "temp": 30.0 + crc01(spec.seed, "init", name, "temp") * 60.0,
        "fuel": 20.0 + crc01(spec.seed, "init", name, "fuel") * 80.0,
        "load": crc01(spec.seed, "init", name, "load"),
        "alive": True,
        "compromised": False,
    }


def worm_seed_indices(spec: ShardedFleetSpec) -> list:
    """The initially infected devices (distinct, CRC-chosen)."""
    chosen: list = []
    salt = 0
    while len(chosen) < min(spec.worm_targets, spec.n_devices):
        index = int(crc01(spec.seed, "worm", salt) * spec.n_devices)
        salt += 1
        if index not in chosen:
            chosen.append(index)
    return sorted(chosen)


def forge_target_index(spec: ShardedFleetSpec, k: int) -> int:
    return int(crc01(spec.seed, "forge", k) * spec.n_devices)


class FleetShard(FleetShardBase):
    """One shard's slice of the fleet plus its pinned global actors."""

    def __init__(self, shard_index: int, n_shards: int, members: list,
                 spec: ShardedFleetSpec):
        super().__init__(shard_index, n_shards, members, spec)
        self.index_of = {name: i for i, name in enumerate(self.devices)}
        self.space = fleet_space()
        self.classifier = fleet_classifier()
        self.programs = fleet_programs(spec)
        self.evaluator = BatchPolicyEvaluator(
            self.space, self.programs, classifier=self.classifier)
        self.matrix = StateMatrix.from_rows(
            self.space, [initial_vector(spec, name) for name in self.devices])
        self.ever_compromised = _np.zeros(len(self.devices), dtype=bool)

        # Neighbor lists from the (globally identical) topology.
        adjacency: dict = {name: [] for name in self.devices}
        for a, b in fleet_edges(spec):
            if a in adjacency:
                adjacency[a].append(b)
            if b in adjacency:
                adjacency[b].append(a)
        self.neighbors = {name: sorted(set(peers))
                          for name, peers in adjacency.items()}

        # E19: the causal context of each local device's infection, used
        # as the parent of its outgoing spread sends.  Shard-invariant by
        # construction (derived from device names, not tracer counters).
        self.infection_ctx: dict = {}

        # E21: the shared keyring is derived from the master seed, so
        # every process holds identical keys without any exchange.
        self.keyring = Keyring(seed=spec.seed)
        self.keyring.issue(WATCHDOG)
        self._verifiers: dict = {}

        self.counters = {
            "infected": 0, "killed": 0, "healthy_killed": 0,
            "harm_strikes": 0, "vetoes": 0, "reports": 0,
            "kill_orders": 0, "forged_orders": 0,
        }
        self.authz_rejected: dict = {}

        for index in worm_seed_indices(spec):
            name = device_name(index)
            if name in self.index_of:
                self.sim.schedule_at(spec.worm_time, self._seed_infection,
                                     name, label=f"{name}:worm-seed")

        self._watchdog_ordered: dict = {}
        self._signer: Optional[CommandSigner] = None
        if WATCHDOG in members:
            self._signer = CommandSigner(self.keyring, WATCHDOG)
            self.router.register(WATCHDOG, self._watchdog_handler)
        if FORGER in members:
            # The forger holds a key derived from the *wrong* master
            # seed: structurally valid envelopes, bad MACs (E21).
            self._forged_key = Keyring(seed=spec.seed + 1).issue(WATCHDOG)
            for k in range(spec.forge_count):
                self.sim.schedule_at(spec.forge_time + k * spec.tick_interval,
                                     self._forge, k, label="forger:forge")

    # -- the per-tick batch evaluation ---------------------------------------

    def tick(self) -> None:
        np = _np
        spec = self.spec
        n = self.matrix.n_rows
        if n:
            tick = int(round(self.sim.now / spec.tick_interval))
            alive = self.matrix.columns["alive"]
            compromised = self.matrix.columns["compromised"]
            rogue = alive & compromised
            if spec.vectorized:
                chosen = self.evaluator.select(self.matrix, active=alive)
            else:
                chosen = self.evaluator.select_scalar(self.matrix,
                                                      active=alive)
            # The worm's payload replaces the control program outright.
            chosen = np.where(rogue, STRIKE_INDEX, chosen)
            if spec.vectorized:
                vetoed, executed = self.evaluator.apply(
                    self.matrix, chosen, guard_exempt=rogue)
            else:
                vetoed, executed = self.evaluator.apply_scalar(
                    self.matrix, chosen, guard_exempt=rogue)
            self.counters["vetoes"] += int(vetoed.sum())
            self.counters["harm_strikes"] += int((executed & rogue).sum())
            self._report_and_spread(tick)

    def _report_and_spread(self, tick: int) -> None:
        spec = self.spec
        matrix = self.matrix
        alive = matrix.columns["alive"]
        compromised = matrix.columns["compromised"]
        temp = matrix.columns["temp"]
        hot = _np.nonzero(alive & (temp > spec.report_temp))[0]
        for i in hot:
            i = int(i)
            name = self.devices[i]
            if (self.global_index[name] + tick) % spec.report_every:
                continue
            self.counters["reports"] += 1
            self.router.send(name, WATCHDOG, "report",
                             {"device": name, "temp": float(temp[i])},
                             trace=None)
        if tick % spec.spread_every:
            return
        spreaders = _np.nonzero(alive & compromised)[0]
        for i in spreaders:
            name = self.devices[int(i)]
            ctx = self.infection_ctx.get(name)
            for neighbor in self.neighbors[name]:
                if crc01(spec.seed, "spread", name, neighbor,
                         tick) >= spec.spread_prob:
                    continue
                child = None
                if ctx is not None:
                    child = SpanContext(ctx.trace_id,
                                        f"{ctx.trace_id}:{name}>{neighbor}",
                                        ctx.span_id)
                self.router.send(name, neighbor, "worm.infect",
                                 {"from": name}, trace=child)

    # -- infection ------------------------------------------------------------

    def _seed_infection(self, name: str) -> None:
        root = SpanContext(f"worm:{name}", f"worm:{name}:0", None)
        self._infect(name, origin="seed", ctx=root)

    def _infect(self, name: str, origin: str, ctx) -> None:
        i = self.index_of[name]
        if not self.matrix.columns["alive"][i]:
            return
        if self.matrix.columns["compromised"][i]:
            return
        self.matrix.columns["compromised"][i] = True
        self.ever_compromised[i] = True
        self.counters["infected"] += 1
        self.infection_ctx[name] = SpanContext(
            ctx.trace_id, f"{ctx.trace_id}:{name}", ctx.span_id) \
            if ctx is not None else None
        self._trace("worm.infected", name, origin=origin)
        self._audit("worm.infected", name, {"origin": origin})
        if ctx is not None:
            self._span(name, "worm.infect", self.infection_ctx[name])

    # -- device message handling ----------------------------------------------

    def on_device_message(self, name: str, message) -> None:
        if message.topic == "worm.infect":
            self._infect(name, origin=message.sender, ctx=message.trace)
        elif message.topic == "cmd.kill":
            self._handle_kill(name, message)

    def _verifier_for(self, name: str) -> EnvelopeVerifier:
        verifier = self._verifiers.get(name)
        if verifier is None:
            verifier = EnvelopeVerifier(
                self.keyring, window=max(10.0, 3.0 * self.spec.window))
            self._verifiers[name] = verifier
        return verifier

    def _handle_kill(self, name: str, message) -> None:
        body = message.body
        if self.spec.signed_commands:
            ok, reason = self._verifier_for(name).consume(body, self.sim.now)
            if not ok:
                self.authz_rejected[reason] = (
                    self.authz_rejected.get(reason, 0) + 1)
                self._trace(f"authz.rejected.{reason}", name,
                            issuer=body.get("_issuer"), sender=message.sender)
                self._audit(f"authz.rejected.{reason}", name,
                            {"sender": message.sender})
                return
        i = self.index_of[name]
        if not self.matrix.columns["alive"][i]:
            return
        self.matrix.columns["alive"][i] = False
        self.counters["killed"] += 1
        healthy = not bool(self.ever_compromised[i])
        if healthy:
            self.counters["healthy_killed"] += 1
        self._trace("device.killed", name, by=message.sender, healthy=healthy)
        self._audit("device.killed", name,
                    {"by": message.sender, "healthy": healthy})
        if message.trace is not None:
            self._span(name, "device.kill", SpanContext(
                message.trace.trace_id, f"{message.trace.trace_id}:{name}",
                message.trace.span_id))

    # -- the pinned global actors ---------------------------------------------

    def _watchdog_handler(self, message) -> None:
        if message.topic != "report":
            return
        body = message.body
        target = body.get("device")
        if (body.get("temp", 0.0) < self.spec.kill_temp
                or target in self._watchdog_ordered):
            return
        self._watchdog_ordered[target] = True
        self.counters["kill_orders"] += 1
        payload = {"op": "kill", "target": target}
        if self.spec.signed_commands:
            order = self._signer.sign(payload, tick=self.sim.now)
        else:
            order = dict(payload)
        ctx = SpanContext(f"kill:{target}", f"kill:{target}:order", None)
        self._trace("watchdog.order", target, temp=body.get("temp"))
        self._audit("watchdog.order", target, {"temp": body.get("temp")})
        self.router.send(WATCHDOG, target, "cmd.kill", order, trace=ctx)

    def _forge(self, k: int) -> None:
        spec = self.spec
        target = device_name(forge_target_index(spec, k))
        payload = {"op": "kill", "target": target}
        if spec.signed_commands:
            body = signed_body(self._forged_key, WATCHDOG, payload,
                               nonce=f"forged:{k}", tick=self.sim.now)
        else:
            body = dict(payload)
        self.counters["forged_orders"] += 1
        self._trace("forgery.sent", target, k=k)
        ctx = SpanContext(f"forge:{k}", f"forge:{k}:send", None)
        self.router.send(FORGER, target, "cmd.kill", body, trace=ctx)

    # -- recording -------------------------------------------------------------

    def _trace(self, kind: str, subject: str, **detail) -> None:
        self.sim.record(kind, subject, **detail)

    def _audit(self, kind: str, subject: str, detail: dict) -> None:
        self.audit.append(
            f"{self.sim.now!r}|{kind}|{subject}|"
            f"{json.dumps(detail, sort_keys=True)}")

    def _span(self, subject: str, name: str, ctx: SpanContext) -> None:
        self.spans.append({
            "time": self.sim.now, "subject": subject, "name": name,
            "trace_id": ctx.trace_id, "span_id": ctx.span_id,
            "parent_id": ctx.parent_id,
        })

    # -- finalize ---------------------------------------------------------------

    def summary(self) -> dict:
        alive = self.matrix.columns["alive"]
        stats = self.evaluator.stats()
        return {
            "devices": len(self.devices),
            "alive": int(alive.sum()),
            **self.counters,
            "authz_rejected": dict(self.authz_rejected),
            "decisions": stats["decisions"],
            "fallback_reasons": dict(stats["fallback_reasons"]),
            "signed_commands": self.spec.signed_commands,
            "vectorized": self.spec.vectorized,
        }

    def extra_metrics(self) -> dict:
        stats = self.evaluator.stats()
        return {"vector_evals": stats["vector_evals"],
                "scalar_evals": stats["scalar_evals"]}


class ShardedScenario(FleetScenario):
    """The user-facing wrapper: spec + shard count -> merged run."""

    spec_cls = ShardedFleetSpec
    shard_cls = FleetShard
    pinned = (WATCHDOG, FORGER)
    members = staticmethod(fleet_members)
    edges = staticmethod(fleet_edges)

    def __init__(self, n_shards: int = 1, **spec_kwargs):
        if not numpy_available():
            raise ConfigurationError(
                "numpy is required for the sharded fleet scenario")
        super().__init__(n_shards, **spec_kwargs)
