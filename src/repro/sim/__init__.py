"""Deterministic discrete-event simulation substrate.

Every experiment in the paper's reproduction runs on this simulator: it
provides a virtual clock, an ordered event queue, seeded randomness with
named substreams (so adding a new random consumer does not perturb others),
metric collection, and structured tracing.
"""

from repro.sim.event_queue import EventQueue, ScheduledEvent
from repro.sim.faults import FaultInjector, FaultPlan, InjectedFault
from repro.sim.metrics import Counter, Gauge, Histogram, MetricsRegistry, TimeSeries
from repro.sim.profiling import BarrierTiming, Profiler, profile_run
from repro.sim.rng import SeededRNG
from repro.sim.sharding import (
    ShardPlan,
    ShardResult,
    ShardedRun,
    partition_graph,
    run_sharded,
)
from repro.sim.simulator import Simulator, Supervisor
from repro.sim.tracing import TraceEvent, TraceRecorder

__all__ = [
    "BarrierTiming",
    "Counter",
    "EventQueue",
    "FaultInjector",
    "FaultPlan",
    "Gauge",
    "Histogram",
    "InjectedFault",
    "MetricsRegistry",
    "ScheduledEvent",
    "Profiler",
    "SeededRNG",
    "ShardPlan",
    "ShardResult",
    "ShardedRun",
    "Simulator",
    "Supervisor",
    "TimeSeries",
    "TraceEvent",
    "TraceRecorder",
    "partition_graph",
    "profile_run",
    "run_sharded",
]
