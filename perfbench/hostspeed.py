"""The host-speed reference: a fixed pure-Python kernel timed beside the
program, so throughput can be expressed in the host's current speed.

On a shared host the same single-threaded interpreter work takes up to
1.6x longer in some minutes than in others: other tenants load the
physical cores behind the virtual ones, and no steal time shows in
``/proc/stat``.  The kernel below does the kind of work the program's
interpreter does (a heap of timed events, dict state, small records
encoded to JSON and hashed), imports nothing from the program, and is
timed again and again while the program runs (between control ticks of
a fleet run, on the server's event loop between requests), its own time
left out of the program's.  A program change does not move it; a slower
stretch of the host moves both.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
from time import perf_counter, process_time

#: Events one kernel call processes; about 4 ms on a 2.1 GHz Xeon vCPU.
EVENTS = 1000
#: What one kernel call returns: the same work every time.
CHECKSUM = "6f385e5c8104"


def kernel(events: int = EVENTS) -> str:
    """A small event loop; returns a digest of everything it produced."""
    heap = [(index * 0.5, index, "tick") for index in range(64)]
    heapq.heapify(heap)
    state: dict = {}
    digest = hashlib.sha256()
    sequence = 64
    for done in range(events):
        at, index, kind = heapq.heappop(heap)
        device = state.setdefault(index % 97,
                                  {"heat": 50.0, "battery": 100.0, "n": 0})
        device["heat"] = device["heat"] * 0.99 + index % 7
        device["battery"] -= 0.01
        device["n"] += 1
        if device["heat"] > 70.0 and device["battery"] > 20.0:
            kind = "vent"
        if done % 4 == 0:
            record = {"t": at, "id": index, "kind": kind,
                      "heat": round(device["heat"], 3)}
            digest.update(hashlib.sha256(json.dumps(
                record, sort_keys=True).encode("utf-8")).digest())
        sequence += 1
        heapq.heappush(heap, (at + 1.0 + index % 3 * 0.25, sequence, kind))
    return digest.hexdigest()[:12]


def kernel_s(clock=perf_counter) -> float:
    """Seconds of ``clock`` for one checked kernel call.  The collector is
    paused meanwhile, so the call neither runs nor shifts the program's
    collections (the kernel leaves no cycles behind)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = clock()
        result = kernel()
        elapsed = clock() - started
    finally:
        if enabled:
            gc.enable()
    if result != CHECKSUM:
        raise RuntimeError("the host-speed kernel did other work")
    return elapsed


class Sampler:
    """Kernel timings taken while a measurement runs, and the process
    time they cost, so the measurement can leave it out.  ``clock`` is
    the one the measurement reads: host time by default, process time
    for a measurement in CPU-seconds."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.samples: list = []
        self.cpu_s = 0.0

    def sample(self, times: int = 1) -> None:
        started = process_time()
        self.samples += [kernel_s(self.clock) for _ in range(times)]
        self.cpu_s += process_time() - started

    def mean_s(self) -> float:
        if not self.samples:
            raise RuntimeError("no host-speed samples were taken")
        return sum(self.samples) / len(self.samples)
