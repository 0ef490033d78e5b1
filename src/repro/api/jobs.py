"""Bounded job queue + scheduler for long-running scenario work (E23).

`/evaluate` answers in microseconds; a full confrontation scenario runs
for seconds.  The control plane therefore keeps a **bounded** queue of
background jobs drained by a small worker pool, and refuses loudly
(``queue-full``) instead of buffering without limit — an unbounded
accept queue is exactly the failure mode the paper's always-on guard
must not have.  Queue depth and worker business are published as gauges
(``jobs.queue_depth``, ``jobs.workers_busy``, ``jobs.queue_saturation``
as a 0..1 ratio) so the service's own :class:`~repro.telemetry.health.
AlertEngine` can watch for saturation with the same rule grammar the
fleet uses.

Job kinds are a registry of plain callables; the built-ins are
``confrontation`` (a short E13 scenario run returning its summary),
``sleep`` (the induced-overload arm of the E23 bench: occupies a worker
for N seconds), and ``noop``.
"""

from __future__ import annotations

import queue
import threading
import traceback
from typing import Callable, Optional

JOB_STATES = ("queued", "running", "done", "failed")


#: Upper bounds on job inputs.  A job holds one worker until it ends,
#: so request parameters must not be able to make that unbounded.
MAX_JOB_UNTIL = 600.0
MAX_JOB_DRONES = 16
MAX_JOB_HUMANS = 100
MAX_JOB_SLEEP = 10.0


def _count(params: dict, name: str, default: int, cap: int) -> int:
    value = int(params.get(name, default))
    if not 0 <= value <= cap:
        raise ValueError(f"{name} must be in [0, {cap}], got {value}")
    return value


def _run_confrontation(params: dict) -> dict:
    from repro.scenarios.confrontation import ConfrontationScenario
    from repro.scenarios.harness import SafeguardConfig

    until = float(params.get("until", 20.0))
    if not 0.0 < until <= MAX_JOB_UNTIL:          # also false for NaN
        raise ValueError(
            f"until must be in (0, {MAX_JOB_UNTIL}], got {until}")
    scenario = ConfrontationScenario(
        seed=int(params.get("seed", 0)),
        config=SafeguardConfig.full(),
        n_drones_per_org=_count(params, "drones", 2, MAX_JOB_DRONES),
        n_civilians=_count(params, "civilians", 6, MAX_JOB_HUMANS),
        n_warfighters=_count(params, "warfighters", 2, MAX_JOB_HUMANS),
    )
    return scenario.run(until=until)


def _run_sleep(params: dict) -> dict:
    import time

    seconds = float(params.get("seconds", 0.05))
    if not 0.0 <= seconds <= MAX_JOB_SLEEP:       # also false for NaN
        raise ValueError(
            f"seconds must be in [0, {MAX_JOB_SLEEP}], got {seconds}")
    time.sleep(seconds)
    return {"slept": seconds}


def _run_noop(params: dict) -> dict:
    return {"ok": True, "params": dict(params)}


#: Built-in job kinds.  Extend via ``JobQueue.register``.
DEFAULT_RUNNERS: dict = {
    "confrontation": _run_confrontation,
    "sleep": _run_sleep,
    "noop": _run_noop,
}


class Job:
    """One submitted background job and its lifecycle record."""

    __slots__ = ("job_id", "kind", "params", "status", "submitted_at",
                 "started_at", "finished_at", "result", "error", "trace_id",
                 "done_event")

    def __init__(self, job_id: str, kind: str, params: dict,
                 submitted_at: float, trace_id: Optional[str]):
        self.job_id = job_id
        self.kind = kind
        self.params = params
        self.status = "queued"
        self.submitted_at = submitted_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.result: Optional[dict] = None
        self.error: Optional[str] = None
        self.trace_id = trace_id
        self.done_event = threading.Event()

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id, "kind": self.kind, "status": self.status,
            "submitted_at": self.submitted_at, "started_at": self.started_at,
            "finished_at": self.finished_at, "result": self.result,
            "error": self.error, "trace_id": self.trace_id,
        }


class JobQueue:
    """Bounded FIFO of background jobs drained by daemon worker threads."""

    def __init__(self, runtime, capacity: int = 8, workers: int = 2,
                 runners: Optional[dict] = None):
        if capacity < 1:
            raise ValueError("job queue capacity must be >= 1")
        if workers < 0:
            raise ValueError("worker count must be >= 0")
        self.runtime = runtime
        self.capacity = capacity
        self.runners = dict(DEFAULT_RUNNERS if runners is None else runners)
        self._queue: queue.Queue = queue.Queue(maxsize=capacity)
        self._jobs: dict = {}
        self._lock = threading.Lock()
        self._next_id = 0
        self._stopping = False
        metrics = runtime.metrics
        self._submitted = metrics.counter("jobs.submitted")
        self._completed = metrics.counter("jobs.completed")
        self._failed = metrics.counter("jobs.failed")
        self._rejected = metrics.counter("jobs.rejected")
        self._depth = metrics.gauge("jobs.queue_depth")
        self._busy = metrics.gauge("jobs.workers_busy")
        self._saturation = metrics.gauge("jobs.queue_saturation")
        self._workers = [
            threading.Thread(target=self._worker, name=f"e23-job-worker-{i}",
                             daemon=True)
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- submission -------------------------------------------------------------

    def register(self, kind: str, runner: Callable[[dict], dict]) -> None:
        self.runners[kind] = runner

    def _update_depth(self) -> None:
        depth = self._queue.qsize()
        self._depth.set(depth)
        self._saturation.set(depth / self.capacity)

    def submit(self, kind: str, params: Optional[dict] = None,
               trace_id: Optional[str] = None) -> tuple:
        """``(job, None)`` on accept; ``(None, reason)`` on reject —
        reasons are ``unknown-kind`` and ``queue-full``."""
        if kind not in self.runners:
            self._rejected.inc()
            return (None, "unknown-kind")
        with self._lock:
            self._next_id += 1
            job_id = f"job-{self._next_id}"
        job = Job(job_id, kind, dict(params or {}),
                  submitted_at=self.runtime.now, trace_id=trace_id)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            self._rejected.inc()
            return (None, "queue-full")
        with self._lock:
            self._jobs[job_id] = job
        self._submitted.inc()
        self._update_depth()
        return (job, None)

    # -- queries ----------------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list:
        with self._lock:
            return list(self._jobs.values())

    @property
    def depth(self) -> int:
        return self._queue.qsize()

    # -- the worker loop --------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:                       # shutdown sentinel
                return
            self._update_depth()
            job.status = "running"
            job.started_at = self.runtime.now
            self._busy.set(self._busy.value + 1)
            try:
                job.result = self.runners[job.kind](job.params)
                job.status = "done"
                self._completed.inc()
            except Exception:
                job.status = "failed"
                job.error = traceback.format_exc(limit=4)
                self._failed.inc()
            finally:
                job.finished_at = self.runtime.now
                self._busy.set(max(0.0, self._busy.value - 1))
                job.done_event.set()
                self._queue.task_done()

    def run_pending(self) -> int:
        """Drain the queue synchronously on the calling thread.

        For deterministic tests (``workers=0``) and the direct-dispatch
        bench arms, where background threads would add scheduling noise.
        """
        ran = 0
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                return ran
            if job is None:
                continue
            self._update_depth()
            job.status = "running"
            job.started_at = self.runtime.now
            try:
                job.result = self.runners[job.kind](job.params)
                job.status = "done"
                self._completed.inc()
            except Exception:
                job.status = "failed"
                job.error = traceback.format_exc(limit=4)
                self._failed.inc()
            finally:
                job.finished_at = self.runtime.now
                job.done_event.set()
                self._queue.task_done()
            ran += 1

    def stop(self) -> None:
        """Unblock every worker thread (they exit on the sentinel)."""
        self._stopping = True
        for _ in self._workers:
            try:
                self._queue.put_nowait(None)
            except queue.Full:
                break
