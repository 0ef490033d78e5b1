"""F2 — Figure 2 operationalized: the event->logic->action loop, timed.

The abstract device model's cost centre is the logic box: match the event
against the policy set, run the guard chain, fire the actuator.  This
bench measures events/second through a device engine as the policy count
grows, with and without the guard chain.

Shape expectation: the policy set is indexed by event-pattern root, so
throughput stays within a small factor across a 500x growth in *irrelevant*
policies (the filler rules live under a different event root); the guard
chain adds a bounded constant factor, not an asymptotic penalty.

Quick mode (``F2_QUICK=1``, used by CI's perf-smoke job): count-based
checks only — the wall-clock rate floor is skipped, so shared runners
cannot flake it.
"""

import pytest

from conftest import quick_mode
from repro.core.events import Event
from repro.core.policy import Policy
from repro.safeguards.statespace import StateSpaceGuard
from repro.scenarios.harness import ExperimentTable
from repro.scenarios.sweep import run_sweep
from repro.statespace.classifier import ThresholdBand, ThresholdClassifier

from tests.conftest import make_test_device

QUICK = quick_mode("F2")


def build_device(n_policies: int, guarded: bool):
    device = make_test_device("bench")
    for index in range(n_policies):
        # Non-matching filler policies force a realistic scan.
        device.engine.policies.add(Policy.make(
            f"net.topic{index}", "temp > 1000",
            device.engine.actions.get("cool_down"),
            policy_id=f"filler{index}",
        ))
    device.engine.policies.add(Policy.make(
        "timer", "temp < 1000", device.engine.actions.get("burn_fuel"),
        policy_id="live", priority=1,
    ))
    if guarded:
        device.engine.add_safeguard(StateSpaceGuard(ThresholdClassifier([
            ThresholdBand("temp", safe_high=140.0, hard_high=149.0),
            ThresholdBand("fuel", safe_low=-1.0, hard_low=-2.0),
        ])))
    return device


def drive(device, n_events: int = 200) -> int:
    acted = 0
    for index in range(n_events):
        decision = device.deliver(Event(kind="timer.tick", time=float(index)))
        if decision.acted:
            acted += 1
        device.state.set("fuel", 100.0)   # refuel so the loop never stalls
    return acted


def f2_cell(n_policies: int, guarded: bool, n_events: int = 500) -> int:
    """One summary-table cell: events/sec through a fresh device.

    Module-level so the sweep executor can ship it to worker processes.
    """
    import time

    device = build_device(n_policies, guarded)
    start = time.perf_counter()
    drive(device, n_events=n_events)
    elapsed = time.perf_counter() - start
    return int(n_events / elapsed)


@pytest.mark.parametrize("n_policies", [1, 10, 100, 500])
@pytest.mark.parametrize("guarded", [False, True])
def test_f2_engine_throughput(benchmark, n_policies, guarded):
    device = build_device(n_policies, guarded)
    acted = benchmark(drive, device)
    assert acted > 0


def test_f2_summary_table(experiment, benchmark):
    table = ExperimentTable(
        "F2 device-model loop: events/sec vs policy count",
        ["policies", "guard chain", "events/sec"],
    )
    cells = [(n_policies, guarded)
             for n_policies in (1, 10, 100, 500)
             for guarded in (False, True)]
    rates = run_sweep(f2_cell, cells)
    for (n_policies, guarded), rate in zip(cells, rates):
        table.add_row(n_policies, "on" if guarded else "off", rate)
    experiment(table)
    benchmark.pedantic(drive, args=(build_device(10, True), 100),
                       rounds=1, iterations=1)
    rates = table.column("events/sec")
    assert all(rate > 0 for rate in rates)
    if not QUICK:
        # Wall-clock floor — skipped in quick mode (CI perf smoke on
        # shared runners), where only deterministic counts are checked.
        assert min(rates) > 100   # even worst case remains usable


def test_f2_deterministic_action_counts():
    """Count-based invariant for CI: the number of *acted* decisions is a
    pure function of the cell, independent of machine speed.  The live
    policy fires on every tick (fuel is refilled each iteration), guarded
    or not — so a perf regression can't hide behind a flaky rate floor
    and a behaviour regression can't hide behind timing noise."""
    for n_policies in (1, 100):
        for guarded in (False, True):
            device = build_device(n_policies, guarded)
            assert drive(device, n_events=300) == 300
