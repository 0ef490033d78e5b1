"""Unit tests for the discrete-event simulator."""

import pytest

from repro.errors import SimulationError
from repro.sim.simulator import Simulator


def test_clock_advances_with_events(sim):
    times = []
    sim.schedule(5.0, lambda: times.append(sim.now))
    sim.schedule(2.0, lambda: times.append(sim.now))
    sim.run()
    assert times == [2.0, 5.0]
    assert sim.now == 5.0


def test_run_until_stops_before_future_events(sim):
    fired = []
    sim.schedule(10.0, lambda: fired.append(True))
    end = sim.run(until=5.0)
    assert end == 5.0
    assert fired == []
    # The event survives and fires on a later run.
    sim.run()
    assert fired == [True]


def test_run_until_advances_clock_even_when_queue_drains(sim):
    sim.schedule(1.0, lambda: None)
    end = sim.run(until=100.0)
    assert end == 100.0
    assert sim.now == 100.0


def test_schedule_in_past_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_periodic_task_fires_and_cancels(sim):
    ticks = []
    task = sim.every(1.0, lambda: ticks.append(sim.now))
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    task.cancel()
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0, 3.0]


def test_periodic_start_after_override(sim):
    ticks = []
    sim.every(2.0, lambda: ticks.append(sim.now), start_after=0.5)
    sim.run(until=5.0)
    assert ticks == [0.5, 2.5, 4.5]


def test_periodic_requires_positive_interval(sim):
    with pytest.raises(SimulationError):
        sim.every(0.0, lambda: None)


def test_stop_requested_mid_run(sim):
    fired = []

    def first():
        fired.append("first")
        sim.stop()

    sim.schedule(1.0, first)
    sim.schedule(2.0, lambda: fired.append("second"))
    sim.run()
    assert fired == ["first"]


def test_max_events_bound(sim):
    fired = []
    for index in range(10):
        sim.schedule(float(index + 1), lambda i=index: fired.append(i))
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_cancel_scheduled_event(sim):
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(True))
    sim.cancel(handle)
    sim.run()
    assert fired == []
    assert len(sim.queue) == 0


def test_record_stamps_current_time(sim):
    sim.schedule(3.0, lambda: sim.record("test.kind", "subject", value=1))
    sim.run()
    events = sim.trace.query("test.kind")
    assert len(events) == 1
    assert events[0].time == 3.0
    assert events[0].detail == {"value": 1}


def test_no_reentrant_run(sim):
    def recurse():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, recurse)
    sim.run()


# -- PeriodicTask edge cases --------------------------------------------------------


def test_periodic_cancel_during_fire_stops_rescheduling(sim):
    fired = []

    def tick():
        fired.append(sim.now)
        if len(fired) == 2:
            task.cancel()               # a callback cancelling its own task

    task = sim.every(1.0, tick)
    sim.run(until=10.0)
    assert fired == [1.0, 2.0]
    assert task.fired == 2
    assert len(sim.queue) == 0          # no dangling reschedule left behind


def test_periodic_start_after_zero_fires_immediately(sim):
    fired = []
    sim.schedule(3.0, lambda: None)     # move the clock off zero first
    sim.run(until=3.0)
    sim.every(2.0, lambda: fired.append(sim.now), start_after=0.0)
    sim.run(until=8.0)
    assert fired == [3.0, 5.0, 7.0]     # first fire at the current time


def test_periodic_start_after_cancel_is_inert(sim):
    fired = []
    task = sim.every(1.0, lambda: fired.append(sim.now))
    sim.run(until=2.5)
    task.cancel()
    task.start(1.0)                     # restart after cancel: documented no-op
    sim.run(until=10.0)
    assert fired == [1.0, 2.0]
    assert len(sim.queue) == 0


def test_periodic_double_cancel_is_idempotent(sim):
    task = sim.every(1.0, lambda: None)
    task.cancel()
    task.cancel()
    sim.run(until=5.0)
    assert task.fired == 0
    assert len(sim.queue) == 0


# -- Supervisor kill-hook ordering --------------------------------------------------


def test_kill_hook_fires_once_at_threshold_in_order():
    sim = Simulator(seed=0, supervision="kill-device", kill_threshold=2)
    log = []

    def boom(tag):
        log.append(("boom", sim.now, tag))
        raise RuntimeError(tag)

    sim.supervisor.register_kill_hook(
        "dev", lambda reason: log.append(("kill", sim.now, reason)))
    for at, tag in ((1.0, "first"), (2.0, "second"), (3.0, "third")):
        sim.schedule(at, boom, tag, label=f"dev:task-{tag}")
    sim.run(until=10.0)

    kills = [entry for entry in log if entry[0] == "kill"]
    assert len(kills) == 1                       # once, despite a third crash
    assert kills[0][1] == 2.0                    # exactly at the threshold crash
    assert "2 crash(es)" in kills[0][2]
    # The hook ran *after* the threshold crash was recorded, so its reason
    # reflects the full count, and later crashes still isolate cleanly.
    assert log.index(("boom", 2.0, "second")) < log.index(kills[0])
    assert sim.supervisor.crash_counts["dev"] == 3
    assert sim.metrics.value("sim.crashes") == 3
    assert sim.metrics.value("sim.crash_kills") == 1


def test_kill_hook_crash_recording_precedes_hook_side_effects():
    # The crash that trips the threshold must be visible in the trace
    # before the kill record: audits reconstruct "crash then kill".
    sim = Simulator(seed=0, supervision="kill-device", kill_threshold=1)
    sim.supervisor.register_kill_hook("dev", lambda reason: None)
    sim.schedule(1.0, lambda: (_ for _ in ()).throw(RuntimeError("x")),
                 label="dev:glitch")
    sim.run(until=5.0)
    kinds = [event.kind for event in sim.trace.query()]
    assert kinds.index("sim.crash") < kinds.index("sim.crash_kill")


def test_kill_hooks_are_per_owner():
    sim = Simulator(seed=0, supervision="kill-device", kill_threshold=1)
    killed = []
    for owner in ("a", "b"):
        sim.supervisor.register_kill_hook(
            owner, lambda reason, owner=owner: killed.append(owner))

    def boom():
        raise RuntimeError("x")

    sim.schedule(1.0, boom, label="a:task")
    sim.schedule(2.0, boom, label="b:task")
    sim.schedule(3.0, boom, label="a:task")      # a already killed: no re-fire
    sim.run(until=10.0)
    assert killed == ["a", "b"]


# -- profiling hook -----------------------------------------------------------------


def test_profiler_attributes_time_per_label(sim):
    from repro.sim.profiling import profile_run

    sim.schedule(1.0, lambda: sum(range(200)), label="dev:fast")
    sim.schedule(2.0, lambda: sum(range(5000)), label="dev:slow")
    sim.schedule(3.0, lambda: None, label="dev:fast")
    with profile_run(sim) as profiler:
        sim.run(until=10.0)
    assert sim.profiler is None                  # restored on exit
    assert profiler.events == 3
    assert profiler.per_label["dev:fast"][0] == 2
    assert profiler.per_label["dev:slow"][0] == 1
    assert profiler.busy_time > 0 and profiler.wall_time >= profiler.busy_time
    report = profiler.report()
    assert report["events"] == 3
    assert {row["label"] for row in report["top_labels"]} == {"dev:fast", "dev:slow"}
    assert profiler.events_per_sec() > 0
    assert "ev/s" in profiler.format_report()


def test_profiler_accounts_crashing_callbacks():
    from repro.sim.profiling import profile_run

    sim = Simulator(seed=0, supervision="isolate")

    def boom():
        raise RuntimeError("x")

    sim.schedule(1.0, boom, label="dev:boom")
    with profile_run(sim) as profiler:
        sim.run(until=5.0)
    assert profiler.per_label["dev:boom"][0] == 1   # timed despite the crash


def test_nan_horizon_is_rejected(sim):
    # No timestamp compares greater than NaN, so the run could never end.
    fired = []
    sim.every(1.0, lambda: fired.append(sim.now))
    with pytest.raises(SimulationError):
        sim.run(until=float("nan"), max_events=100)
    assert fired == [] and sim.now == 0.0
    sim.run(until=3.0)                      # not left marked as running
    assert fired == [1.0, 2.0, 3.0]
