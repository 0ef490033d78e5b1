"""Unit tests for the experiment harness."""

import dataclasses

import pytest

from repro.scenarios.harness import (
    ExperimentTable,
    SafeguardConfig,
    mean_and_std,
    paired_overhead,
    run_replications,
)


class TestSafeguardConfig:
    def test_presets(self):
        baseline = SafeguardConfig.none()
        assert not baseline.preaction and not baseline.sealed
        full = SafeguardConfig.full()
        assert full.preaction and full.statespace and full.watchdog
        assert full.sealed

    def test_only_and_without(self):
        single = SafeguardConfig.only(preaction=True)
        assert single.preaction and not single.statespace
        ablated = SafeguardConfig.full().without(watchdog=True)
        assert not ablated.watchdog and ablated.preaction

    def test_labels(self):
        assert SafeguardConfig.none().label() == "baseline"
        assert SafeguardConfig.only(preaction=True).label() == "preaction"
        assert "+" in SafeguardConfig.full().label()

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SafeguardConfig.none().preaction = True


class TestExperimentTable:
    def test_render_aligns_columns(self):
        table = ExperimentTable("demo", ["name", "value"])
        table.add_row("baseline", 12.5)
        table.add_row("full", 0.001)
        rendered = table.render()
        lines = rendered.splitlines()
        assert lines[0] == "== demo =="
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_row_length_validated(self):
        table = ExperimentTable("demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column_extraction(self):
        table = ExperimentTable("demo", ["name", "value"])
        table.add_row("a", 1)
        table.add_row("b", 2)
        assert table.column("value") == [1, 2]
        assert table.to_dict()["rows"] == [["a", 1], ["b", 2]]

    def test_float_formatting(self):
        table = ExperimentTable("demo", ["v"])
        table.add_row(0.5)
        table.add_row(123456.0)
        table.add_row(float("nan"))
        rendered = table.render()
        assert "0.5" in rendered
        assert "nan" in rendered


def test_mean_and_std():
    mean, std = mean_and_std([1.0, 2.0, 3.0])
    assert mean == 2.0
    assert std == 1.0
    assert mean_and_std([5.0]) == (5.0, 0.0)
    assert mean_and_std([]) == (0.0, 0.0)


def test_run_replications_aggregates_numeric_keys():
    def run(seed):
        return {"harm": float(seed), "label": "text", "count": seed * 2}

    result = run_replications(run, seeds=[1, 2, 3])
    assert result["_n"] == 3
    assert result["harm"][0] == 2.0
    assert result["count"][0] == 4.0
    assert "label" not in result


@pytest.mark.parametrize("budget_pct, verdict", [
    (6.0, "within budget"), (3.0, "inconclusive"), (0.5, "over")],
    ids=["within", "inconclusive", "over"])
def test_paired_overhead_alternates_and_judges_the_ci(budget_pct, verdict):
    """Fixed durations on a fake clock: one warm-up call per arm, then
    pairs whose order flips every pair; per-pair ratios 1.01..1.05 give
    a 3% median whose bootstrap CI spans the extreme pairs."""
    now = [0.0]
    calls = []

    def arm(name, durations):
        remaining = iter(durations)

        def run():
            calls.append(name)
            now[0] += next(remaining)
        return run

    result = paired_overhead(
        arm("T", [9.0, 1.01, 1.02, 1.03, 1.04, 1.05]),
        arm("B", [9.0] + [1.0] * 5),
        pairs=5, budget_pct=budget_pct, clock=lambda: now[0])

    assert "".join(calls) == "TB" + "TB" "BT" "TB" "BT" "TB"
    assert result.ratios == pytest.approx((1.01, 1.02, 1.03, 1.04, 1.05))
    assert result.median_pct == pytest.approx(3.0)
    assert result.ci_pct == pytest.approx((1.0, 5.0))
    assert result.verdict == verdict
    report = result.report()
    assert report["pairs"] == 5 and report["overhead_pct"] == result.median_pct
    assert result.summary() == "3.00% (95% CI 1.00% to 5.00%)"
    with pytest.raises(ValueError):
        paired_overhead(lambda: None, lambda: None, pairs=0, budget_pct=5.0)
