"""Shared benchmark plumbing: quick mode, results, and experiment tables.

Benchmarks both *time* a representative unit of work (pytest-benchmark)
and *reproduce an experiment table* (the rows DESIGN.md's experiment index
promises).  Tables are registered through the ``experiment`` fixture and
printed in the terminal summary (which pytest does not capture), and also
written next to the bench's other results for the record.

A full-protocol run writes to ``benchmarks/results/`` — the committed
artifacts the docs quote.  ``<EXPERIMENT>_QUICK=1`` (what CI runs) picks
the reduced protocol and writes everything to the gitignored
``benchmarks/results/quick/`` instead, so a smoke run never rewrites a
committed artifact.  Bench modules import the helpers below with
``from conftest import ...``.
"""

from __future__ import annotations

import json
import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
QUICK_DIR = os.path.join(RESULTS_DIR, "quick")

#: Alternating pairs per paired-overhead measurement, quick and full.
OVERHEAD_PAIRS = {True: 21, False: 61}

_TABLES: list = []


def quick_mode(experiment: str) -> bool:
    """Whether ``<experiment>_QUICK`` asks for the reduced CI protocol."""
    return os.environ.get(f"{experiment}_QUICK", "") not in ("", "0")


def results_dir(quick: bool) -> str:
    """Where a run of this protocol writes (created on demand)."""
    path = QUICK_DIR if quick else RESULTS_DIR
    os.makedirs(path, exist_ok=True)
    return path


class BenchResults:
    """One experiment's ``BENCH_<experiment>.json`` document.

    Each test merges its own section in, so tests run in any order; the
    top-level ``quick`` flag is what the warehouse reads to tell the two
    protocols apart.
    """

    def __init__(self, experiment: str, title: str, unit: dict, **header):
        self.quick = quick_mode(experiment)
        self.dir = results_dir(self.quick)
        self.path = os.path.join(self.dir, f"BENCH_{experiment}.json")
        self.pairs = OVERHEAD_PAIRS[self.quick]
        self._header = {"experiment": experiment, "title": title,
                        "unit": unit, **header}

    def export(self, section: str, payload: dict) -> None:
        document = dict(self._header)
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as handle:
                document = json.load(handle)
        document["quick"] = self.quick
        document[section] = payload
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")


@pytest.fixture
def experiment(request):
    """Returns a callable that registers an ExperimentTable for reporting."""
    directory = results_dir(getattr(request.module, "QUICK", False))

    def register(table) -> None:
        _TABLES.append(table)
        safe_name = "".join(
            ch if ch.isalnum() or ch in "-_" else "_" for ch in table.title
        )[:80]
        path = os.path.join(directory, f"{safe_name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(table.render() + "\n")

    return register


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 74)
    terminalreporter.write_line("EXPERIMENT TABLES (paper reproduction output)")
    terminalreporter.write_line("=" * 74)
    for table in _TABLES:
        terminalreporter.write_line("")
        for line in table.render().splitlines():
            terminalreporter.write_line(line)
