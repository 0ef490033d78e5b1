"""README and EXPERIMENTS quote headline numbers from the committed
benchmark artifacts; these tests fail when the prose and the artifact
disagree.

The artifacts are the full-protocol ``benchmarks/results/BENCH_*.json``
files; quick-mode bench runs write to ``benchmarks/results/quick/`` and
never touch them.
"""

import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
RESULTS = os.path.join(ROOT, "benchmarks", "results")
DOCS = ("README.md", "EXPERIMENTS.md")


def artifact(name: str) -> dict:
    with open(os.path.join(RESULTS, name)) as handle:
        return json.load(handle)


def doc_text(name: str) -> str:
    """The document with whitespace collapsed, so rewrapping a paragraph
    never reads as drift."""
    with open(os.path.join(ROOT, name)) as handle:
        return " ".join(handle.read().split())


def assert_quoted(quote: str, source: str) -> None:
    for name in DOCS:
        assert quote in doc_text(name), (
            f"{name} does not quote {quote!r} from {source}")


@pytest.mark.parametrize("experiment", ["E19", "E20", "E21", "E23", "E24"])
def test_overhead_median_and_ci_are_quoted_from_their_artifact(experiment):
    """Each safeguard overhead is quoted as its paired median with the
    bootstrap 95% CI, in the form ``PairedOverhead.summary()`` renders."""
    bench = artifact(f"BENCH_{experiment}.json")
    assert bench["quick"] is False, f"BENCH_{experiment}.json is quick-mode"
    overhead = bench["overhead"]
    low, high = overhead["ci95_pct"]
    assert_quoted(
        f"{overhead['overhead_pct']:.2f}% (95% CI {low:.2f}% to {high:.2f}%)",
        f"BENCH_{experiment}.json overhead")


@pytest.mark.parametrize("devices", ["10000", "100000"])
def test_f4_crossover_medians_are_quoted_from_their_artifact(devices):
    bench = artifact("BENCH_F4.json")
    assert bench["quick"] is False, "BENCH_F4.json is a quick-mode rewrite"
    medians = bench["crossover"]["devices"][devices]["median_wall_sec"]
    assert_quoted(f"{medians['1']:.2f} s vs {medians['2']:.2f} s",
                  f"BENCH_F4.json crossover at {devices} devices")
