"""Artifact ingestion: bundles, bench documents, and matrix cells become rows.

Three artifact shapes, one normalized record each:

* a **telemetry bundle** directory (``manifest.json`` + ``metrics.prom``
  + the JSONL streams) — identity comes from the self-describing
  manifest (E24 satellite) unless the caller overrides it; the
  Prometheus snapshot is parsed back into typed families and flattened;
  alert/lease/access stream lengths and flight-recorder dumps become
  counts; a stored ``explanation.json`` (an E19 incident tree) rides
  along whole so incidents diff across runs;
* a **``BENCH_*.json``** document — every numeric leaf flattens into a
  metric (``concurrency.throughput_rps``), every ``quick`` flag folds
  into the protocol context the sentinel's comparability check reads;
* a **``run_matrix`` cell** — the flat summary dict a scenario returned
  for one ``(arm, seed)``, ingested live as the sweep runs.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.telemetry.exposition import (BUNDLE_SCHEMA, flatten_families,
                                        parse_prometheus_text)
from repro.telemetry.warehouse.records import (RunKey, RunRecord,
                                               flatten_numeric)

#: Manifest schemas this ingester understands (0 = pre-E24 manifests
#: with no identity block; still ingestable, identity must come from
#: the caller).
KNOWN_BUNDLE_SCHEMAS = (0, BUNDLE_SCHEMA)

#: JSONL streams counted (not parsed wholesale) at bundle ingest.
_STREAM_FILES = ("alerts.jsonl", "leases.jsonl", "api_access.jsonl",
                 "access.jsonl", "spans.jsonl", "events.jsonl")

#: Manifest keys copied into record context when scalar.
_CONTEXT_KEYS = ("scenario", "service", "durability", "safety_transport",
                 "flight_dumps", "health", "quick",
                 "events_processed", "sim_time", "profile")


def _count_lines(path: str) -> int:
    count = 0
    with open(path, "rb") as handle:
        for line in handle:
            if line.strip():
                count += 1
    return count


def ingest_bundle(warehouse, dirpath: str,
                  experiment: Optional[str] = None,
                  arm: Optional[str] = None,
                  seed: Optional[int] = None,
                  git_rev: str = "unknown",
                  tag: str = "") -> Optional[RunRecord]:
    """Ingest one telemetry-bundle directory; returns the record (the
    already-stored one is re-built and returned with ``ingest`` a no-op
    when the content is known).  Raises on a manifest schema newer than
    this code understands — silently misreading forward-versioned rows
    is how warehouses rot."""
    manifest_path = os.path.join(dirpath, "manifest.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    schema = int(manifest.get("bundle_schema", 0))
    if schema not in KNOWN_BUNDLE_SCHEMAS:
        raise ValueError(
            f"bundle {dirpath!r} has manifest schema {schema}; this "
            f"ingester knows {KNOWN_BUNDLE_SCHEMAS}")

    key = RunKey(
        experiment=str(experiment or manifest.get("experiment")
                       or manifest.get("scenario") or
                       os.path.basename(os.path.normpath(dirpath))),
        arm=str(arm if arm is not None else (manifest.get("arm") or "")),
        seed=seed if seed is not None else manifest.get("seed"),
        git_rev=git_rev,
    )

    metrics: dict = {}
    prom_path = os.path.join(dirpath, "metrics.prom")
    if os.path.exists(prom_path):
        with open(prom_path, encoding="utf-8") as handle:
            metrics.update(flatten_families(
                parse_prometheus_text(handle.read())))
    for stream in _STREAM_FILES:
        stream_path = os.path.join(dirpath, stream)
        if os.path.exists(stream_path):
            metrics[f"streams.{stream.rsplit('.', 1)[0]}"] = float(
                _count_lines(stream_path))
    horizon = manifest.get("horizon", manifest.get("sim_time"))
    if isinstance(horizon, (int, float)):
        metrics["run.horizon"] = float(horizon)
    spans = manifest.get("spans")
    if isinstance(spans, dict) and isinstance(
            spans.get("spans"), (int, float)):
        metrics["run.spans_retained"] = float(spans["spans"])

    context = {"bundle_schema": schema}
    for name in _CONTEXT_KEYS:
        value = manifest.get(name)
        if isinstance(value, (str, bool, int, float)) or value is None:
            if name in manifest:
                context[name] = value

    explanation = None
    explanation_path = os.path.join(dirpath, "explanation.json")
    if os.path.exists(explanation_path):
        with open(explanation_path, encoding="utf-8") as handle:
            explanation = json.load(handle)

    record = RunRecord(key=key, kind="bundle", metrics=metrics,
                       context=context, source=os.path.normpath(dirpath),
                       tag=tag, explanation=explanation)
    warehouse.ingest(record)
    return record


def ingest_bench(warehouse, path: str, git_rev: str = "unknown",
                 tag: str = "") -> RunRecord:
    """Ingest one ``BENCH_*.json`` perf document as a single record."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError(f"{path!r} is not a JSON object")
    name = os.path.basename(path)
    experiment = str(document.get("experiment")
                     or name.replace("BENCH_", "").replace(".json", ""))
    metrics = flatten_numeric(document)
    quick_flags = [value for key, value in flatten_bools(document).items()
                   if key == "quick" or key.endswith(".quick")]
    context = {
        "title": document.get("title"),
        "quick": any(quick_flags),
        "sections": sorted(key for key, value in document.items()
                           if isinstance(value, dict)),
    }
    record = RunRecord(
        key=RunKey(experiment=experiment, arm="bench", git_rev=git_rev),
        kind="bench", metrics=metrics, context=context,
        source=os.path.normpath(path), tag=tag)
    warehouse.ingest(record)
    return record


def flatten_bools(obj, prefix: str = "", out: Optional[dict] = None) -> dict:
    """Boolean leaves by dotted path (the facts ``flatten_numeric``
    deliberately excludes from metrics)."""
    flat = out if out is not None else {}
    if isinstance(obj, dict):
        for key in sorted(obj):
            name = f"{prefix}.{key}" if prefix else str(key)
            flatten_bools(obj[key], name, flat)
    elif isinstance(obj, (list, tuple)):
        for index, item in enumerate(obj):
            name = f"{prefix}.{index}" if prefix else str(index)
            flatten_bools(item, name, flat)
    elif isinstance(obj, bool):
        flat[prefix] = obj
    return flat


def ingest_run_dict(warehouse, result: dict, experiment: str, arm: str,
                    seed: Optional[int], git_rev: str = "unknown",
                    tag: str = "", kind: str = "matrix") -> RunRecord:
    """Ingest one scenario summary dict (a ``run_matrix`` cell)."""
    record = RunRecord(
        key=RunKey(experiment=experiment, arm=arm, seed=seed,
                   git_rev=git_rev),
        kind=kind, metrics=flatten_numeric(result),
        context={"quick": bool(result.get("quick", False))},
        source=f"{experiment}:{arm}:{seed}", tag=tag)
    warehouse.ingest(record)
    return record


def ingest_results_dir(warehouse, dirpath: str, git_rev: str = "unknown",
                       tag: str = "") -> dict:
    """Sweep a ``benchmarks/results``-shaped directory: every
    ``BENCH_*.json`` plus every subdirectory holding a ``manifest.json``.
    Returns ``{"bench": n, "bundles": n, "skipped": [...]}``."""
    counts = {"bench": 0, "bundles": 0, "skipped": []}
    for entry in sorted(os.listdir(dirpath)):
        full = os.path.join(dirpath, entry)
        if entry.startswith("BENCH_") and entry.endswith(".json"):
            try:
                ingest_bench(warehouse, full, git_rev=git_rev, tag=tag)
                counts["bench"] += 1
            except (ValueError, OSError) as exc:
                counts["skipped"].append(f"{entry}: {exc}")
        elif (os.path.isdir(full)
              and os.path.exists(os.path.join(full, "manifest.json"))):
            try:
                ingest_bundle(warehouse, full, git_rev=git_rev, tag=tag)
                counts["bundles"] += 1
            except (ValueError, OSError) as exc:
                counts["skipped"].append(f"{entry}: {exc}")
    return counts
