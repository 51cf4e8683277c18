"""The ``repro bench`` harness: grids in, ``BENCH_*.json`` out.

One bench run executes a curated grid through the parallel engine,
reports wall-clock time, total simulated time and cache hit/miss
counters, and writes a machine-readable ``BENCH_<timestamp>.json`` that
seeds the repo's perf trajectory.  ``--baseline`` compares a fresh
report against an older one and exits nonzero when any cell's
simulated time (or any summary speedup) regressed beyond the tolerance
— the deterministic counterpart of a wall-clock perf gate, immune to
machine noise.

Everything outside the ``run`` section of a report is deterministic:
two warm-cache runs of the same grid produce byte-identical payloads
modulo that one section (pinned by the determinism tests).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Callable, Dict, List, Optional

from repro._version import __version__
from repro.core.schemes import Scheme
from repro.packs.store import PackTransferCounters
from repro.runner.cache import ResultCache
from repro.runner.engine import RunStats, TaskOutcome, run_tasks
from repro.runner.grid import bench_grid
from repro.runner.schema import SCHEMA_VERSION, validate_report
from repro.runner.tasks import (ExperimentTask, cluster_stats_from_payload,
                                fleet_stats_from_payload,
                                result_from_payload)

__all__ = ["BenchReport", "build_report", "write_report", "report_json",
           "compare_reports", "run_bench"]

_BASELINE_LABEL = Scheme.BASELINE.value


@dataclass
class BenchReport:
    """A built report plus where it landed and how the gate went."""

    payload: Dict[str, Any]
    path: Optional[str] = None
    regressions: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the run passed the (optional) baseline gate."""
        return not self.regressions


def _serve_cell(task: ExperimentTask, outcome: TaskOutcome) -> Dict[str, Any]:
    result = result_from_payload(outcome.payload)
    return {
        "id": task.cell_id, "kind": task.kind, "device": task.device,
        "model": task.model, "scheme": result.scheme, "batch": task.batch,
        "cache_hit": outcome.cached, "total_time_s": result.total_time,
        "loads": result.loads, "loaded_bytes": result.loaded_bytes,
        "gpu_utilization": result.gpu_utilization, "failed": result.failed,
    }


def _cluster_cell(task: ExperimentTask, outcome: TaskOutcome
                  ) -> Dict[str, Any]:
    stats = cluster_stats_from_payload(outcome.payload)
    trace = stats.trace
    cell = {
        "id": task.cell_id, "kind": "cluster", "device": task.device,
        "model": task.model, "scheme": task.scheme, "batch": task.batch,
        "cache_hit": outcome.cached, "requests": stats.requests,
        "completed": stats.completed, "failed": stats.failed,
        "cold_starts": stats.cold_starts,
        "mean_latency_s": stats.mean_latency,
        "p50_s": stats.percentile(0.50), "p99_s": stats.percentile(0.99),
        "fast_forwarded": stats.fast_forwarded,
        "trace_records": trace.record_count if trace is not None else 0,
        "trace_retained": trace.retained_records if trace is not None else 0,
    }
    if task.faults is not None or task.resilience is not None:
        # Robustness columns, only for cells that can exercise them --
        # policy-free, fault-free grids keep their exact report shape
        # (and therefore byte-identical BENCH outputs).
        cell["shed"] = stats.shed
        cell["availability"] = stats.availability
        cell["faults"] = stats.faults.as_dict()
        cell["resilience"] = task.resilience is not None
    if task.resilience is not None:
        # Serves of checkpoint-restored instances: only a resilience
        # policy restores, so other cells keep their exact shape.
        cell["restores"] = stats.restores
    if task.packs is not None:
        # Pack-hierarchy columns, same gating rule: pack-free grids
        # keep their exact report shape.
        cell["pack_restores"] = stats.pack_restores
        cell["packs"] = (stats.packs.as_dict()
                         if stats.packs is not None else None)
    return cell


def _fleet_cell(task: ExperimentTask, outcome: TaskOutcome
                ) -> Dict[str, Any]:
    stats = fleet_stats_from_payload(outcome.payload)
    cell = {
        "id": task.cell_id, "kind": "fleet",
        "device": ",".join(task.region_devices),
        "model": task.model, "scheme": task.scheme, "batch": task.batch,
        "cache_hit": outcome.cached,
        "regions": len(stats.regions),
        "routing": task.routing,
        "autoscale": (task.autoscale.kind if task.autoscale is not None
                      else "fixed"),
        "arrival": task.arrival,
        "offered": stats.offered, "completed": stats.completed,
        "failed": stats.failed, "shed": stats.shed,
        "cold_starts": stats.cold_starts, "warm_hits": stats.warm_hits,
        "restores": stats.restores,
        "prewarm_spawns": stats.prewarm_spawns,
        "availability": stats.availability,
        "mean_latency_s": stats.mean_latency,
        "p50_s": stats.percentile(0.50), "p99_s": stats.percentile(0.99),
        "fast_forwarded": stats.fast_forwarded,
        "delegated": stats.delegated,
    }
    if task.packs is not None:
        merged = PackTransferCounters()
        for region in stats.regions.values():
            if region.packs is not None:
                merged.merge(region.packs)
        cell["pack_restores"] = stats.pack_restores
        cell["packs"] = merged.as_dict()
    return cell


_CELL_BUILDERS = {"cold": _serve_cell, "hot": _serve_cell,
                  "cluster": _cluster_cell, "fleet": _fleet_cell}


def _summary_speedups(cells: List[Dict[str, Any]]) -> Dict[str, float]:
    """Average cold-start speedup over Baseline per scheme, across every
    (device, model, batch) group that has a Baseline cell."""
    groups: Dict[tuple, Dict[str, float]] = {}
    for cell in cells:
        if cell["kind"] != "cold":
            continue
        key = (cell["device"], cell["model"], cell["batch"])
        groups.setdefault(key, {})[cell["scheme"]] = cell["total_time_s"]
    ratios: Dict[str, List[float]] = {}
    for times in groups.values():
        base = times.get(_BASELINE_LABEL)
        if not base:
            continue
        for scheme, total in times.items():
            if scheme == _BASELINE_LABEL or total <= 0:
                continue
            ratios.setdefault(scheme, []).append(base / total)
    return {scheme: sum(values) / len(values)
            for scheme, values in sorted(ratios.items())}


def build_report(grid: str, outcomes: Dict[ExperimentTask, TaskOutcome],
                 stats: RunStats, cache: Optional[ResultCache],
                 created_unix: Optional[float] = None) -> Dict[str, Any]:
    """Assemble the ``BENCH_*.json`` payload for one engine run."""
    if created_unix is None:
        created_unix = time.time()
    cells: List[Dict[str, Any]] = []
    metric_dumps: List[Dict[str, Any]] = []
    monitors_by_cell: Dict[str, Any] = {}
    for task, outcome in outcomes.items():
        cells.append(_CELL_BUILDERS[task.kind](task, outcome))
        dump = outcome.payload.get("metrics")
        if dump:
            metric_dumps.append(dump)
        if task.kind == "fleet":
            summary = outcome.payload.get("monitors")
            if summary:
                monitors_by_cell[task.cell_id] = summary
    simulated = sum(cell["total_time_s"] for cell in cells
                    if cell["kind"] in ("cold", "hot"))
    report: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "meta": {"code_version": __version__, "grid": grid,
                 "jobs": stats.jobs},
        "run": {"created_unix": created_unix,
                "created_iso": datetime.fromtimestamp(
                    created_unix, timezone.utc).isoformat(),
                "wall_clock_s": stats.wall_s},
        "cache": {"enabled": cache is not None and cache.read,
                  **(cache.counters.as_dict() if cache is not None
                     else {"hits": 0, "misses": 0, "writes": 0})},
        "totals": {"cells": len(cells), "executed": stats.executed,
                   "simulated_time_s": simulated},
        "cells": cells,
        "summary": {"speedups": _summary_speedups(cells)},
    }
    if metric_dumps:
        # Per-cell registry dumps fold into one report-level view
        # (counters/histograms add, gauges last-write-wins); omitted
        # entirely when no cell collected metrics, so existing reports
        # keep their exact shape.
        from repro.obs.metrics import merge_dumps
        report["metrics"] = merge_dumps(metric_dumps)
    if monitors_by_cell:
        # SLO monitor summaries keyed by fleet cell id; same
        # omit-when-empty rule keeps monitor-free reports byte-stable.
        report["monitors"] = monitors_by_cell
    return report


def write_report(report: Dict[str, Any], out_dir: str = ".") -> str:
    """Write ``report`` as ``BENCH_<timestamp>.json`` under ``out_dir``."""
    stamp = datetime.fromtimestamp(
        report["run"]["created_unix"],
        timezone.utc).strftime("%Y%m%d-%H%M%S")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{stamp}.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report_json(report))
    return path


def report_json(report: Dict[str, Any]) -> str:
    """A report as written to disk: indented, sorted keys, trailing
    newline."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def compare_reports(current: Dict[str, Any], baseline: Dict[str, Any],
                    tolerance: float = 0.05) -> List[str]:
    """Regressions of ``current`` against ``baseline``.

    A cold/hot cell regresses when its simulated time grew by more than
    ``tolerance`` (relative); a cluster cell when its mean or p99
    latency did, or when its availability *shrank* by more than
    ``tolerance`` (chaos cells report it); a summary speedup when it
    shrank by more than ``tolerance``.  Cells present in only one
    report are ignored — a grid change is not a regression.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    regressions: List[str] = []
    base_cells = {cell["id"]: cell for cell in baseline.get("cells", [])}
    metrics_by_kind = {"cold": ("total_time_s",), "hot": ("total_time_s",),
                       "cluster": ("mean_latency_s", "p99_s"),
                       "fleet": ("mean_latency_s", "p99_s")}
    for cell in current.get("cells", []):
        base = base_cells.get(cell["id"])
        if base is None or base.get("kind") != cell["kind"]:
            continue
        for metric in metrics_by_kind[cell["kind"]]:
            old = base.get(metric)
            new = cell.get(metric)
            if old is None or new is None or old <= 0:
                continue
            if new > old * (1.0 + tolerance):
                regressions.append(
                    f"{cell['id']}: {metric} {old:.6g} -> {new:.6g} "
                    f"(+{(new / old - 1.0):.1%}, tolerance "
                    f"{tolerance:.1%})")
        if cell["kind"] in ("cluster", "fleet"):
            old = base.get("availability")
            new = cell.get("availability")
            if (old is not None and new is not None and old > 0
                    and new < old * (1.0 - tolerance)):
                regressions.append(
                    f"{cell['id']}: availability {old:.6g} -> {new:.6g} "
                    f"(-{(1.0 - new / old):.1%}, tolerance "
                    f"{tolerance:.1%})")
    base_speedups = baseline.get("summary", {}).get("speedups", {})
    for scheme, new in current.get("summary", {}).get("speedups",
                                                      {}).items():
        old = base_speedups.get(scheme)
        if old is None or old <= 0:
            continue
        if new < old * (1.0 - tolerance):
            regressions.append(
                f"summary speedup {scheme}: {old:.3f}x -> {new:.3f}x "
                f"(-{(1.0 - new / old):.1%}, tolerance {tolerance:.1%})")
    return regressions


def run_bench(grid: str = "quick", jobs: int = 1,
              cache_dir: str = ".repro-cache", use_cache: bool = True,
              out_dir: str = ".", baseline_path: Optional[str] = None,
              tolerance: float = 0.05, write: bool = True,
              trace_retention: Optional[str] = None,
              cluster_scale: float = 1.0,
              collect_metrics: bool = False,
              resilience=None,
              fleet: bool = False,
              slo=None,
              echo: Optional[Callable[[str], None]] = None) -> BenchReport:
    """Run one full bench cycle: grid → engine → report (→ gate).

    ``use_cache=False`` (the ``--no-cache`` path) skips cache reads but
    still writes fresh results back, so the store ends the run warm.
    ``trace_retention``/``cluster_scale`` parameterize the cluster cells
    (request-level tracing and simulated request count; see
    :func:`~repro.runner.grid.bench_grid`); ``collect_metrics`` attaches
    telemetry registries and adds a merged ``metrics`` section to the
    report.  ``resilience`` (a
    :class:`~repro.serving.resilience.ResiliencePolicy`) adds the
    resilience dimension to the cluster cells.  ``fleet`` adds the
    fleet dimension (``fleet/...`` cells): multi-region replays with
    warm-first routing and scale-to-zero autoscaling per headline
    scheme.  ``slo`` (a :class:`~repro.obs.monitors.SLOPolicy`) attaches
    burn-rate monitors to the fleet cells and adds a ``monitors``
    section to the report.
    """
    def say(text: str = "") -> None:
        if echo is not None:
            echo(text)

    tasks = bench_grid(grid, trace_retention=trace_retention,
                       cluster_scale=cluster_scale,
                       collect_metrics=collect_metrics,
                       resilience=resilience, fleet=fleet, slo=slo)
    cache = ResultCache(cache_dir, read=use_cache, write=True)
    say(f"repro bench: grid {grid!r}, {len(tasks)} cells, jobs={jobs}, "
        f"cache {'on' if use_cache else 'bypassed (writes only)'} "
        f"at {cache_dir}")
    outcomes, stats = run_tasks(tasks, jobs=jobs, cache=cache)
    report_payload = build_report(grid, outcomes, stats, cache)
    problems = validate_report(report_payload)
    if problems:  # defensive: the builder always emits schema-valid JSON
        raise RuntimeError(f"bench emitted schema-invalid report: {problems}")
    totals = report_payload["totals"]
    say(f"  wall-clock {stats.wall_s:.2f}s, simulated "
        f"{totals['simulated_time_s']:.3f}s across {totals['cells']} cells")
    say(f"  cache: {stats.cache.hits} hits, {stats.cache.misses} misses, "
        f"{stats.cache.writes} writes ({stats.executed} cold executions)")
    for scheme, speedup in report_payload["summary"]["speedups"].items():
        say(f"  avg cold-start speedup {scheme}: {speedup:.2f}x")
    monitors = report_payload.get("monitors")
    if monitors:
        fired = sum(1 for summary in monitors.values()
                    for state in summary["monitors"].values()
                    if state["fired"])
        say(f"  slo monitors: {len(monitors)} fleet cells watched, "
            f"{fired} monitor(s) fired")
    report = BenchReport(report_payload)
    if write:
        report.path = write_report(report_payload, out_dir)
        say(f"  wrote {report.path}")
    if baseline_path is not None:
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        report.regressions = compare_reports(report_payload, baseline,
                                             tolerance)
        if report.regressions:
            say(f"  REGRESSIONS vs {baseline_path}:")
            for line in report.regressions:
                say(f"    {line}")
        else:
            say(f"  no regressions vs {baseline_path} "
                f"(tolerance {tolerance:.1%})")
    return report
