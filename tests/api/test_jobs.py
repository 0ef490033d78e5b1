"""The bounded background job queue and its saturation gauges."""

from __future__ import annotations

import pytest

from repro.api.jobs import (MAX_JOB_DRONES, MAX_JOB_HUMANS, MAX_JOB_SLEEP,
                            JobQueue)
from repro.api.runtime import ManualClock, ServiceRuntime
from repro.scenarios.confrontation import ConfrontationScenario


def _queue(capacity: int = 2, **kwargs) -> JobQueue:
    runtime = ServiceRuntime(clock=ManualClock())
    return JobQueue(runtime, capacity=capacity, workers=0, **kwargs)


class TestSubmission:
    def test_submit_and_drain_synchronously(self):
        jobs = _queue()
        job, reject = jobs.submit("noop", {"x": 1})
        assert reject is None
        assert job.status == "queued"
        assert jobs.run_pending() == 1
        assert job.status == "done"
        assert job.result == {"ok": True, "params": {"x": 1}}
        assert job.done_event.is_set()
        assert jobs.get(job.job_id) is job

    def test_unknown_kind_is_rejected_without_queueing(self):
        jobs = _queue()
        job, reject = jobs.submit("frobnicate")
        assert (job, reject) == (None, "unknown-kind")
        assert jobs.depth == 0
        assert jobs.runtime.metrics.value("jobs.rejected") == 1.0

    def test_full_queue_refuses_loudly(self):
        jobs = _queue(capacity=2)
        assert jobs.submit("noop")[1] is None
        assert jobs.submit("noop")[1] is None
        job, reject = jobs.submit("noop")
        assert (job, reject) == (None, "queue-full")
        assert jobs.runtime.metrics.value("jobs.rejected") == 1.0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            _queue(capacity=0)


class TestLifecycle:
    def test_failed_job_records_traceback_and_counter(self):
        jobs = _queue()

        def explode(_params):
            raise RuntimeError("scenario fell over")

        jobs.register("explode", explode)
        job, _ = jobs.submit("explode")
        jobs.run_pending()
        assert job.status == "failed"
        assert "scenario fell over" in job.error
        assert jobs.runtime.metrics.value("jobs.failed") == 1.0
        assert jobs.runtime.metrics.value("jobs.completed") == 0.0

    def test_timestamps_come_from_the_runtime_clock(self):
        jobs = _queue()
        clock = jobs.runtime.clock
        clock.advance(10.0)
        job, _ = jobs.submit("noop")
        clock.advance(5.0)
        jobs.run_pending()
        assert job.submitted_at == 10.0
        assert job.started_at == 15.0
        assert job.finished_at == 15.0

    def test_to_dict_carries_the_request_trace_id(self):
        jobs = _queue()
        job, _ = jobs.submit("noop", trace_id="t42")
        record = job.to_dict()
        assert record["trace_id"] == "t42"
        assert record["status"] == "queued"
        assert record["job_id"] == job.job_id


class TestConfrontationJob:
    def test_small_run_completes_with_its_summary(self):
        jobs = _queue()
        job, _ = jobs.submit("confrontation", {"until": 5.0, "drones": 1})
        jobs.run_pending()
        assert job.status == "done"
        assert job.result["horizon"] == 5.0

    @pytest.mark.parametrize("params", [
        {"until": "nan"}, {"until": "inf"}, {"until": 1e12},
        {"until": 0}, {"until": -5.0},
        {"drones": -1}, {"drones": MAX_JOB_DRONES + 1},
        {"civilians": -1}, {"warfighters": MAX_JOB_HUMANS + 1},
    ])
    def test_unbounded_params_fail_before_any_scenario_runs(
            self, params, monkeypatch):
        ran = []
        monkeypatch.setattr(ConfrontationScenario, "run",
                            lambda self, until=150.0: ran.append(until))
        jobs = _queue()
        job, _ = jobs.submit("confrontation", params)
        jobs.run_pending()
        assert ran == []
        assert job.status == "failed"
        assert "ValueError: " in job.error
        assert jobs.runtime.metrics.value("jobs.failed") == 1.0

    @pytest.mark.parametrize("seconds", ["nan", "inf", MAX_JOB_SLEEP + 1, -1])
    def test_sleep_job_refuses_unbounded_seconds(self, seconds):
        jobs = _queue()
        job, _ = jobs.submit("sleep", {"seconds": seconds})
        jobs.run_pending()
        assert job.status == "failed"
        assert "seconds must be in" in job.error


class TestGauges:
    def test_depth_and_saturation_track_the_queue(self):
        jobs = _queue(capacity=2)
        metrics = jobs.runtime.metrics
        jobs.submit("noop")
        assert metrics.value("jobs.queue_depth") == 1.0
        assert metrics.value("jobs.queue_saturation") == 0.5
        jobs.submit("noop")
        assert metrics.value("jobs.queue_saturation") == 1.0
        jobs.run_pending()
        assert jobs.depth == 0

    def test_threaded_workers_drain_and_stop(self):
        runtime = ServiceRuntime(clock=ManualClock())
        jobs = JobQueue(runtime, capacity=4, workers=2)
        submitted = [jobs.submit("noop")[0] for _ in range(4)]
        for job in submitted:
            assert job.done_event.wait(5.0), job.job_id
            assert job.status == "done"
        assert runtime.metrics.value("jobs.completed") == 4.0
        jobs.stop()
