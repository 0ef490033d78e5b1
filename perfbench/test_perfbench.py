"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json
import os

import numpy as np
import pytest

import fleet
import hostspeed
import layers
import run
import serve

HERE = os.path.dirname(os.path.abspath(__file__))
SHORT = 60.0          # simulated seconds: enough for audit traffic


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]; e [10, 12]
    # is a second root.  Self: a = 10 - 3 - 4, c = 4 - 2.
    names = ["a", "b", "c", "d"]
    layer = np.array([0, 1, 2, 3, 0], np.int32)
    parent = np.array([-1, 0, 0, 2, -1], np.int32)
    start = np.array([0.0, 1.0, 5.0, 6.0, 10.0])
    end = np.array([10.0, 4.0, 9.0, 8.0, 12.0])
    times = layers.self_times(names, layer, parent, start, end)
    assert times == {"a": {"calls": 2, "self_s": 3.0 + 2.0},
                     "b": {"calls": 1, "self_s": 3.0},
                     "c": {"calls": 1, "self_s": 2.0},
                     "d": {"calls": 1, "self_s": 2.0}}


def test_recorded_spans_nest_through_wrappers():
    log = layers.SpanLog()
    outer_id, inner_id = log.layer_id("outer"), log.layer_id("inner")

    def inner():
        return 1

    wrapped_inner = layers._span_wrapper(inner, log, inner_id, None)

    def outer():
        return wrapped_inner() + wrapped_inner()

    assert layers._span_wrapper(outer, log, outer_id, None)() == 2
    assert list(log.parent) == [-1, 0, 0]
    times = log.self_times()
    assert times["outer"]["calls"] == 1 and times["inner"]["calls"] == 2
    assert times["outer"]["self_s"] >= 0.0


def test_scoped_counts_see_only_calls_inside_the_scope():
    log = layers.SpanLog()
    scope = log.layer_id("scope")
    encode = layers._count_wrapper(json.dumps, log, "encodes", scope)
    inside = layers._span_wrapper(lambda: encode(1), log, scope, None)
    encode(0)
    inside()
    assert log.counts == {"encodes": 2, "encodes.scoped": 1}


def _traced_encodes_per_append() -> float:
    log = layers.SpanLog()
    fleet.run_seed(fleet.WORKLOADS["fleet-durable"], 1, {}, horizon=SHORT,
                   before_build=lambda: layers.install(log))
    appends = log.self_times()["audit.append"]["calls"]
    assert appends > 0
    return log.counts["audit.json_encodes.scoped"] / appends


def test_an_extra_encode_per_append_raises_the_ratio_by_one(monkeypatch):
    from repro.audit.log import AuditLog

    baseline = _traced_encodes_per_append()
    original = AuditLog.append

    def append_with_extra_encode(self, *args, **kwargs):
        json.dumps({"extra": True})
        return original(self, *args, **kwargs)

    monkeypatch.setattr(AuditLog, "append", append_with_extra_encode)
    assert _traced_encodes_per_append() == pytest.approx(baseline + 1.0,
                                                         abs=1e-12)


def _snapshot() -> list:
    return [(owner, attr, raw) for owner, attr, raw in layers.targets()]


def test_a_traced_run_puts_every_wrapped_attribute_back():
    before = _snapshot()
    log = layers.SpanLog()
    fleet.run_seed(fleet.WORKLOADS["fleet-durable"], 1, {}, horizon=SHORT,
                   before_build=lambda: layers.install(log))
    assert len(log) > 0
    for owner, attr, raw in before:
        current = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        assert current is raw, f"{owner.__name__}.{attr} left wrapped"
    import repro.crypto

    from repro.crypto import envelope
    assert repro.crypto.compute_mac is envelope.compute_mac


def test_counting_wrappers_do_not_change_the_run():
    workload = fleet.WORKLOADS["fleet-durable"]
    plain = fleet.run_seed(workload, 2, {}, horizon=SHORT)
    log = layers.SpanLog()
    counted = fleet.run_seed(
        workload, 2, {}, horizon=SHORT,
        before_build=lambda: layers.install(
            log, spans=False, counts=layers.UNTRACED_COUNTS))
    assert counted.trace_digest == plain.trace_digest
    assert counted.summary == plain.summary
    assert log.counts["audit.appends"] > 0


def test_max_rps_interpolates_between_passing_and_failing_rungs():
    def row(rate, p99, valid=True):
        return {"rate": rate, "p99_ms": p99, "valid": valid,
                "passed": p99 <= serve.LATENCY_LIMIT_MS}

    table = [row(500, 10.0), row(600, 30.0), row(700, 90.0, valid=False),
             row(800, 70.0)]
    # 600 passes at 30 ms; the next valid rung, 800, fails at 70 ms.
    assert serve.max_rps(table) == pytest.approx(700.0)


def test_batch_reference_matches_the_vectorized_path():
    from repro.api.profile import default_profile
    from repro.statespace.batch import StateMatrix

    plan = serve.make_plan(5, length=10)
    body = plan.requests[serve.EVALUATE_BODIES]
    rows = json.loads(body.split(b"\r\n\r\n", 1)[1])["rows"]
    profile = default_profile()
    evaluator = profile.build_batch_evaluator()
    matrix = StateMatrix.from_rows(profile.space, rows)
    chosen = evaluator.select(matrix)
    vetoed, executed = evaluator.apply(matrix, chosen)
    expected = plan.expected[serve.EVALUATE_BODIES]
    assert expected["vetoed"] == int(vetoed.sum())
    assert expected["executed"] == int(executed.sum())


def test_the_host_speed_kernel_does_the_same_work_every_call():
    assert hostspeed.kernel() == hostspeed.kernel() == hostspeed.CHECKSUM
    assert hostspeed.kernel(hostspeed.EVENTS // 2) != hostspeed.CHECKSUM
    sampler = hostspeed.Sampler()
    sampler.sample(2)
    assert len(sampler.samples) == 2 and sampler.mean_s() > 0.0
    assert sampler.cpu_s > 0.0


def test_declared_metrics_and_records_agree():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    per_layer = {m["name"] for m in bench["per_layer"]}
    values = run.layer_metrics({}, {}, {}, dict.fromkeys(run.COMMON_EXTRA, 0))
    assert set(values) == per_layer
    for row in spec["predictions"]:
        assert row["layer_metric"] in per_layer, row
    for name, workload in fleet.WORKLOADS.items():
        record = spec["workloads"][name]
        assert tuple(record["seeds"]) == workload.seeds
        assert record["held_out"] == workload.held_out
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    for name, workload in fleet.WORKLOADS.items():
        assert set(pins[name]) == {str(s) for s in
                                   workload.seeds + (workload.held_out,)}
