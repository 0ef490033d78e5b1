"""Layer tracing from outside the program.

The traced run wraps public functions of each layer (the table
``SPAN_TARGETS``) with span recorders that live here, never in ``src/``.
Spans are kept in memory as flat arrays (layer id, parent span, start,
end) and written out when the run ends; a layer's self time is its spans'
durations minus the durations of their direct wrapped children.

``COUNT_TARGETS`` are cheaper wrappers that only count calls (no clock
reads); a count can also be scoped to calls made while a span layer is
open, which is how ``audit.json_encodes_per_append`` sees the
``json.dumps`` calls inside ``AuditLog.append``.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

#: (layer, module, attribute path) for every timed wrapper.
SPAN_TARGETS = (
    ("sim", "repro.sim.simulator", "Simulator.run"),
    ("sim.metrics.observe", "repro.sim.metrics", "Histogram.observe"),
    ("core.handle_event", "repro.core.engine", "PolicyEngine.handle_event"),
    ("safeguards.guard", "repro.safeguards.preaction",
     "PreActionCheck.check_action"),
    ("safeguards.guard", "repro.safeguards.statespace",
     "StateSpaceGuard.check_transition"),
    ("safeguards.guard", "repro.safeguards.statespace",
     "StateSpaceGuard.suggest_alternatives"),
    ("safeguards.watchdog", "repro.safeguards.deactivation",
     "Watchdog.check_all"),
    ("safeguards.gateway", "repro.safeguards.gateway", "ActuationGateway.admit"),
    ("safeguards.batch", "repro.safeguards.batch", "BatchPolicyEvaluator.select"),
    ("safeguards.batch", "repro.safeguards.batch", "BatchPolicyEvaluator.apply"),
    ("statespace.from_rows", "repro.statespace.batch", "StateMatrix.from_rows"),
    ("devices.world", "repro.devices.world", "World.humans_near"),
    ("devices.world", "repro.devices.world", "World.harm_humans_near"),
    ("devices.world", "repro.devices.world",
     "WorldHarmModel.predict_direct_harm"),
    ("devices.world", "repro.devices.world", "WorldHarmModel.predict_hazard"),
    ("net.send", "repro.net.network", "Network.send"),
    ("net.send", "repro.net.network", "Network.broadcast"),
    ("net.reliable", "repro.net.reliable", "ReliableChannel.send"),
    ("audit.append", "repro.audit.log", "AuditLog.append"),
    ("store.journal", "repro.store.journal", "Journal.append"),
    ("store.recover", "repro.store.journal", "Journal.recover"),
    ("store.recover", "repro.store.recovery", "DurabilityManager.restart"),
    ("crypto.sign", "repro.crypto.envelope", "CommandSigner.sign"),
    ("crypto.verify", "repro.crypto.envelope", "EnvelopeVerifier.verify"),
    ("crypto.verify", "repro.crypto.envelope", "EnvelopeVerifier.consume"),
    ("telemetry.span", "repro.telemetry.spans", "Tracer.start_trace"),
    ("telemetry.span", "repro.telemetry.spans", "Tracer.start_span"),
    ("telemetry.health", "repro.telemetry.health.rules", "AlertEngine.evaluate"),
    # The monitor's sampling tick has no public entry point; ``_tick`` is
    # the one callback the monitor schedules.
    ("telemetry.health", "repro.telemetry.health.monitor", "HealthMonitor._tick"),
    ("api.request", "repro.api.service", "ControlPlane.handle_request"),
    ("api.admit", "repro.api.auth", "AdmissionControl.admit"),
    ("api.accesslog", "repro.api.accesslog", "AccessLog.log"),
    ("api.encode", "repro.api.service", "ApiResponse.body_bytes"),
)

#: (counter, module, attribute path, span layer the count is scoped to).
COUNT_TARGETS = (
    ("audit.hashes", "repro.audit.log", "AuditEntry.compute_hash", None),
    ("store.journal.flushes", "repro.store.journal", "Journal.flush", None),
    ("crypto.hmac_ops", "repro.crypto.envelope", "compute_mac", None),
    ("audit.json_encodes", "json", "dumps", "audit.append"),
    ("api.json_decodes", "json", "loads", "api.request"),
)

#: The count-only wrappers every untraced fleet run carries, so the
#: deterministic counters that need a wrapper exist on every run.
UNTRACED_COUNTS = ("audit.appends", "audit.json_encodes", "crypto.hmac_ops")


def _tag_request(args, result):
    """``ControlPlane.handle_request(self, method, path, ...)``: the path
    and the trace id joins the server span to the client's latency."""
    return (args[2], result.trace_id)


class SpanLog:
    """In-memory spans: parallel arrays indexed by span number."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.open = [0] * 64          # open spans per layer id
        self.counts: dict[str, int] = {}
        self.tags: dict[str, list] = {}

    def layer_id(self, name: str) -> int:
        found = self._layer_ids.get(name)
        if found is None:
            found = self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
            if found >= len(self.open):
                self.open.extend([0] * len(self.open))
        return found

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> dict:
        """Per layer ``{"calls": n, "self_s": seconds}``."""
        return self_times(self.layers, np.frombuffer(self.layer, np.int32),
                          np.frombuffer(self.parent, np.int32),
                          np.frombuffer(self.start, np.float64),
                          np.frombuffer(self.end, np.float64))

    def dump(self, path: str) -> None:
        np.savez_compressed(
            path, layers=np.array(self.layers),
            layer=np.frombuffer(self.layer, np.int32),
            parent=np.frombuffer(self.parent, np.int32),
            start=np.frombuffer(self.start, np.float64),
            end=np.frombuffer(self.end, np.float64))


def self_times(layers, layer, parent, start, end) -> dict:
    """Self time per layer: each span's duration minus its direct
    children's durations.  Wrapped calls run on one thread, so children
    never overlap and the subtraction is exact."""
    duration = end - start
    children = np.zeros(len(duration))
    nested = parent >= 0
    np.add.at(children, parent[nested], duration[nested])
    own = duration - children
    calls = np.bincount(layer, minlength=len(layers))
    seconds = np.bincount(layer, weights=own, minlength=len(layers))
    return {name: {"calls": int(calls[i]), "self_s": float(seconds[i])}
            for i, name in enumerate(layers)}


def _span_wrapper(fn, log: SpanLog, layer_id: int, tagger):
    layer_ids, parents, starts, ends = log.layer, log.parent, log.start, log.end
    stack, opened = log.stack, log.open
    tags = log.tags.setdefault(log.layers[layer_id], []) if tagger else None

    def wrapper(*args, **kwargs):
        index = len(starts)
        layer_ids.append(layer_id)
        parents.append(stack[-1] if stack else -1)
        ends.append(0.0)
        stack.append(index)
        opened[layer_id] += 1
        starts.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[index] = perf_counter()
            opened[layer_id] -= 1
            stack.pop()
        if tags is not None:
            tags.append((index, tagger(args, result)))
        return result

    return wrapper


def _count_wrapper(fn, log: SpanLog, name: str, scope_id):
    counts = log.counts
    counts.setdefault(name, 0)
    if scope_id is None:
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
    else:
        opened = log.open
        scoped = name + ".scoped"
        counts.setdefault(scoped, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if opened[scope_id]:
                counts[scoped] += 1
            return fn(*args, **kwargs)
    return wrapper


class Installation:
    """Every attribute a trace replaced, with its original, for restore."""

    def __init__(self) -> None:
        self._saved: list[tuple] = []

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]
                            if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _resolve(module_name: str, path: str):
    """``(owner, attr, raw)``: ``raw`` as stored, descriptor included."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def _install_one(installation: Installation, owner, attr: str, raw, make) -> None:
    if isinstance(raw, (staticmethod, classmethod)):
        installation.replace(owner, attr, type(raw)(make(raw.__func__)))
        return
    wrapped = make(raw)
    installation.replace(owner, attr, wrapped)
    if not isinstance(owner, type):
        # Module-level function: rebind copies other modules imported
        # by name, so every call site reaches the wrapper.
        for name, module in list(sys.modules.items()):
            if module is owner or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    installation.replace(module, key, wrapped)


def targets() -> list:
    """Every ``(owner, attr, raw)`` a full trace replaces."""
    return [_resolve(module, path)
            for _layer, module, path in SPAN_TARGETS] + [
        _resolve(module, path) for _name, module, path, _scope in COUNT_TARGETS]


def install(log: SpanLog, spans: bool = True,
            counts=None) -> Installation:
    """Wrap the layer functions; ``spans=False`` installs counters only.

    ``counts`` limits the counters installed (names from
    ``COUNT_TARGETS`` plus ``audit.appends``); ``None`` installs all.
    """
    installation = Installation()
    try:
        if spans:
            for layer, module, path in SPAN_TARGETS:
                layer_id = log.layer_id(layer)
                tagger = _tag_request if layer == "api.request" else None
                owner, attr, raw = _resolve(module, path)
                _install_one(installation, owner, attr, raw,
                             lambda fn, i=layer_id, t=tagger:
                             _span_wrapper(fn, log, i, t))
        elif counts is not None and "audit.appends" in counts:
            owner, attr, raw = _resolve("repro.audit.log", "AuditLog.append")
            append_id = log.layer_id("audit.append")
            _install_one(installation, owner, attr, raw,
                         lambda fn: _scope_wrapper(fn, log, append_id,
                                                   "audit.appends"))
        for name, module, path, scope in COUNT_TARGETS:
            if counts is not None and name not in counts:
                continue
            scope_id = log.layer_id(scope) if scope else None
            owner, attr, raw = _resolve(module, path)
            _install_one(installation, owner, attr, raw,
                         lambda fn, n=name, s=scope_id:
                         _count_wrapper(fn, log, n, s))
    except BaseException:
        installation.restore()
        raise
    return installation


def _scope_wrapper(fn, log: SpanLog, layer_id: int, name: str):
    """Count calls and mark the layer open, without reading the clock."""
    counts, opened = log.counts, log.open
    counts.setdefault(name, 0)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        opened[layer_id] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            opened[layer_id] -= 1

    return wrapper
