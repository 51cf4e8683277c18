"""The gated comparison reports: one list, one builder.

Each entry of :data:`REPORTS` is one checked-in ``benchmarks/*.json``
report that tests a PASK claim by replaying a few curated legs through
the same engine/report machinery as ``repro bench``:

- **chaos** (``repro chaos --resilience``) — two scenarios, each run
  without and with a :class:`~repro.serving.resilience.ResiliencePolicy`.
  *crash-heavy* replays a Poisson trace under instance crash/restart
  churn; the resilient leg restores warm-state checkpoints instead of
  paying a full cold start.  *overload* offers ~2x the pool's warm
  capacity with no faults; the resilient leg adds admission control
  (bounded queue, deadline shedding, degraded mode), which bounds p99
  at the cost of explicitly shed requests.
- **packs** (``repro chaos --packs``) — four legs of one short-keep-
  alive replay: no packs (every expiry pays a full cold start), a
  healthy kernel-pack fetch hierarchy, an origin-registry outage, and
  every tier down.  The gates check that healthy packs strictly reduce
  cold serves, that a full outage degrades to cold load with zero lost
  requests, and that every fetched byte is accounted for.
- **fleet-frontier** (``repro fleet --frontier``) — the scale-to-zero
  frontier: sweep the idle timeout ``T`` of a scale-to-zero region for
  Baseline, PaSK and PaSK+restore over one sparse Poisson workload.  A
  leg's frontier is the smallest ``T`` whose replay meets the p99 SLO
  (12x the warm service time, which sits between the PaSK and the
  Baseline cold start on every modeled device) at the availability
  gate.  The verdict passes when PaSK's frontier is strictly more
  aggressive than Baseline's.

An entry is data plus the code only that report needs: the section key
it adds to the ``BENCH_*.json``-shaped payload, its checked-in file,
its legs as ordered :class:`~repro.runner.tasks.ExperimentTask` s, and a
summarizer that turns the legs' cells (in task order) into the section
and its pass verdict.  :func:`comparison_report` does everything else.
With ``created_unix`` pinned the payload is byte-stable — the form of
the checked-in files, which ``scripts/make_reports.py`` regenerates.
Adding a report is one more entry plus its checked-in file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.schemes import Scheme
from repro.fleet.autoscale import AutoscalePolicy
from repro.packs import PackPolicy
from repro.runner.bench import build_report
from repro.runner.engine import run_tasks
from repro.runner.schema import validate_report
from repro.runner.tasks import ExperimentTask
from repro.serving.resilience import ResiliencePolicy
from repro.serving.server import InferenceServer
from repro.sim.faults import FaultPlan

__all__ = ["ReportEntry", "REPORTS", "comparison_report",
           "CHAOS_SCENARIOS", "PACK_LEGS", "IDLE_TIMEOUT_SWEEP"]

Cell = Dict[str, Any]


@dataclass(frozen=True)
class ReportEntry:
    """One gated comparison report."""

    name: str  # the payload's ``meta.grid``
    section: str
    filename: str  # under ``benchmarks/``
    tasks: Callable[[str, str], List[ExperimentTask]]
    summarize: Callable[[List[Cell], str, str, float],
                        Tuple[Dict[str, Any], bool]]


def _warm_s(device: str, model: str) -> float:
    return InferenceServer(device).serve_hot(model).total_time


# -- chaos: resilience policy on/off ---------------------------------

# The resilient leg of the crash-heavy scenario: frequent checkpoints
# (the trace is seconds long) with the breaker off — crashes in this
# scenario strike uniformly at random, so excluding a crashed instance
# only concentrates load on the survivors; the breaker pays off against
# *crash-looping* instances (see the unit tests), not uniform churn.
CRASH_POLICY = ResiliencePolicy(checkpoint_interval_s=0.25,
                                breaker_threshold=None)

# The resilient leg of the overload scenario: admission control only —
# checkpoints and the breaker stay off so the comparison isolates the
# shedding/degradation mechanisms.
OVERLOAD_POLICY = ResiliencePolicy(
    checkpoint_interval_s=None, breaker_threshold=None,
    max_queue_depth=64, shed_wait_s=0.02, degrade_wait_s=0.01)

# (name, description); each scenario is a baseline and a resilient leg.
CHAOS_SCENARIOS: Tuple[Tuple[str, str], ...] = (
    ("crash-heavy",
     "Poisson 40 Hz x 30 s on 4 PASK instances with crash rate 0.08; "
     "resilient leg adds warm-state checkpoint/restore."),
    ("overload",
     "2x warm capacity offered to 2 PASK instances for 1 s; resilient "
     "leg adds admission control (bounded queue, deadline shedding, "
     "degraded mode)."),
)


def _chaos_tasks(device: str, model: str) -> List[ExperimentTask]:
    """Baseline and resilient leg of each of :data:`CHAOS_SCENARIOS`.

    The overload arrival rate is derived from the model's warm service
    time (2x the two-instance warm capacity), so the scenario stays a
    genuine overload on every device — and stays deterministic, since
    the warm time is itself a pure simulation output.
    """
    crash = dict(kind="cluster", device=device, model=model,
                 scheme=Scheme.PASK.value, rate_hz=40.0, duration_s=30.0,
                 seed=0, instances=4, keep_alive_s=0.5,
                 faults=FaultPlan(seed=3, crash_rate=0.08),
                 collect_metrics=True)
    # 2x overload: two instances can drain 2/warm requests per second.
    overload = dict(kind="cluster", device=device, model=model,
                    scheme=Scheme.PASK.value,
                    rate_hz=2.0 * (2.0 / _warm_s(device, model)),
                    duration_s=1.0, seed=1, instances=2, keep_alive_s=0.5,
                    # An all-zero plan: no faults fire, but the report
                    # cell gains the robustness columns
                    # (shed/availability) the gate reads.
                    faults=FaultPlan(seed=1), collect_metrics=True)
    return [ExperimentTask(**crash),
            ExperimentTask(resilience=CRASH_POLICY, **crash),
            ExperimentTask(**overload),
            ExperimentTask(resilience=OVERLOAD_POLICY, **overload)]


def _chaos_section(cells: List[Cell], device: str, model: str,
                   min_availability: float
                   ) -> Tuple[Dict[str, Any], bool]:
    scenarios = []
    for (name, description), base, res in zip(CHAOS_SCENARIOS, cells[0::2],
                                              cells[1::2]):
        availability = res.get("availability", 1.0)
        scenarios.append({
            "name": name,
            "description": description,
            "baseline_cell": base["id"],
            "resilient_cell": res["id"],
            "min_availability": min_availability,
            "availability": availability,
            "baseline_p99_s": base["p99_s"],
            "resilient_p99_s": res["p99_s"],
            "p99_speedup": (base["p99_s"] / res["p99_s"]
                            if res["p99_s"] > 0 else 1.0),
            "baseline_cold_starts": base["cold_starts"],
            "resilient_cold_starts": res["cold_starts"],
            "resilient_restores": res["restores"],
            "shed": res.get("shed", 0),
            "resilient_faults": res.get("faults", {}),
            "pass": (availability >= min_availability
                     and res["p99_s"] <= base["p99_s"]
                     and res["cold_starts"] <= base["cold_starts"]),
        })
    section = {"device": device, "model": model, "scenarios": scenarios}
    return section, all(s["pass"] for s in scenarios)


# -- packs: the kernel-pack degradation ladder -----------------------

PACK_LEGS: Tuple[Tuple[str, str], ...] = (
    ("no-packs",
     "Baseline: keep-alive 0.05 s pool with no pack hierarchy; every "
     "expiry pays a full cold start."),
    ("healthy",
     "Pack hierarchy enabled, every tier up: expiries restore packs "
     "instead of cold-loading."),
    ("registry-outage",
     "Origin registry dark for the whole replay; the ladder degrades to "
     "local/peer fetches with cold load as the final rung."),
    ("fully-degraded",
     "Registry outage + peer churn + local cache always faulting: every "
     "tier down, every miss walks the ladder to cold load."),
)


def _packs_tasks(device: str, model: str) -> List[ExperimentTask]:
    """One task per :data:`PACK_LEGS` entry.

    Every leg replays the same seeded Poisson trace against the same
    short-keep-alive pool, so cold churn recurs and the legs differ
    only in pack availability.  Each fault plan shares one seed so the
    stochastic draws that *are* taken stay comparable across legs; the
    no-packs leg's all-zero plan fires nothing but gives its report
    cell the robustness columns (availability) the gates read.
    """
    duration = 8.0
    common = dict(kind="cluster", device=device, model=model,
                  scheme=Scheme.PASK.value, rate_hz=25.0,
                  duration_s=duration, seed=3, instances=2,
                  keep_alive_s=0.05, collect_metrics=True)
    policy = PackPolicy()
    outage = ((0.0, duration),)
    return [
        ExperimentTask(faults=FaultPlan(seed=5), **common),
        ExperimentTask(faults=FaultPlan(seed=5), packs=policy, **common),
        ExperimentTask(
            faults=FaultPlan(seed=5, registry_outage_windows=outage),
            packs=policy, **common),
        ExperimentTask(
            faults=FaultPlan(seed=5, registry_outage_windows=outage,
                             peer_churn_windows=outage,
                             pack_local_failure_rate=1.0),
            packs=policy, **common),
    ]


def _pack_leg(name: str, description: str, cell: Cell) -> Dict[str, Any]:
    packs = cell.get("packs") or {}
    fetched = sum(packs.get(key, 0) for key in
                  ("local_bytes", "peer_bytes", "origin_bytes"))
    accounted = sum(packs.get(key, 0) for key in
                    ("bytes_verified", "bytes_discarded", "bytes_abandoned"))
    return {
        "name": name,
        "description": description,
        "cell": cell["id"],
        "availability": cell.get("availability", 1.0),
        "p99_s": cell["p99_s"],
        "cold_starts": cell["cold_starts"],
        "pack_restores": cell.get("pack_restores", 0),
        "degraded_cold": packs.get("degraded_cold", 0),
        "failover_hits": packs.get("failover_hits", 0),
        "lost_requests": cell.get("failed", 0) + cell.get("shed", 0),
        "bytes_fetched": fetched,
        "bytes_conserved": fetched == accounted,
    }


def _packs_section(cells: List[Cell], device: str, model: str,
                   min_availability: float
                   ) -> Tuple[Dict[str, Any], bool]:
    legs = [_pack_leg(name, description, cell)
            for (name, description), cell in zip(PACK_LEGS, cells)]
    base, healthy, outage, degraded = legs
    pack_legs = (healthy, outage, degraded)
    # Healthy hierarchy must strictly reduce cold serves at equal (or
    # better) availability than the no-packs baseline.
    healthy_pass = (healthy["cold_starts"] < base["cold_starts"]
                    and healthy["availability"] >= base["availability"]
                    and healthy["availability"] >= min_availability)
    # Under a full outage the ladder must degrade to cold load — zero
    # pack restores — while losing zero requests and conserving every
    # fetched byte.  Cold-start counts are NOT compared against the
    # baseline: the ladder walk's latency legitimately shifts pool
    # keep-alive timing.
    degraded_pass = (degraded["pack_restores"] == 0
                     and degraded["lost_requests"] == 0
                     and degraded["availability"] >= min_availability)
    conservation_pass = all(leg["bytes_conserved"] for leg in pack_legs)
    lossless_pass = all(leg["lost_requests"] == 0 for leg in pack_legs)
    verdict = (healthy_pass and degraded_pass and conservation_pass
               and lossless_pass)
    gates = {
        "min_availability": min_availability,
        "healthy_reduces_cold_starts": healthy_pass,
        "degraded_falls_back_to_cold": degraded_pass,
        "bytes_conserved": conservation_pass,
        "no_lost_requests": lossless_pass,
        "pass": verdict,
    }
    section = {"device": device, "model": model, "legs": legs,
               "gates": gates}
    return section, verdict


# -- fleet-frontier: the scale-to-zero frontier ----------------------

# Idle timeouts swept, most aggressive first.  At the 2 Hz workload the
# cold-start exposure e^(-2T) spans ~90% down to ~0.005% across the
# sweep, so every scheme's frontier lands strictly inside it.
IDLE_TIMEOUT_SWEEP: Tuple[float, ...] = (0.05, 0.1, 0.25, 0.5, 1.0,
                                         2.0, 5.0)
_FRONTIER_RATE_HZ = 2.0
_FRONTIER_DURATION_S = 240.0
_SLO_MULTIPLIER = 12.0

# (leg, scheme, restore): PaSK+restore scale-up spawns restore a
# warm-state checkpoint instead of cold-starting.
_FRONTIER_LEGS: Tuple[Tuple[str, Scheme, bool], ...] = (
    ("baseline", Scheme.BASELINE, False),
    ("pask", Scheme.PASK, False),
    ("pask+restore", Scheme.PASK, True),
)


def _frontier_tasks(device: str, model: str) -> List[ExperimentTask]:
    """One fleet task per (leg, idle timeout), leg-major."""
    return [
        ExperimentTask(
            kind="fleet", device=device, model=model, scheme=scheme.value,
            arrival="poisson", rate_hz=_FRONTIER_RATE_HZ,
            duration_s=_FRONTIER_DURATION_S, seed=0, instances=2,
            keep_alive_s=_FRONTIER_DURATION_S,
            autoscale=AutoscalePolicy(kind="scale-to-zero",
                                      idle_timeout_s=idle,
                                      checkpoint_restore=restore))
        for _, scheme, restore in _FRONTIER_LEGS
        for idle in IDLE_TIMEOUT_SWEEP]


def _frontier_section(cells: List[Cell], device: str, model: str,
                      min_availability: float
                      ) -> Tuple[Dict[str, Any], bool]:
    warm_s = _warm_s(device, model)
    slo_p99_s = _SLO_MULTIPLIER * warm_s
    rows: List[Dict[str, Any]] = []
    frontiers: Dict[str, Optional[float]] = {}
    points = len(IDLE_TIMEOUT_SWEEP)
    for k, (leg, _, _) in enumerate(_FRONTIER_LEGS):
        frontiers[leg] = None
        for idle, cell in zip(IDLE_TIMEOUT_SWEEP,
                              cells[k * points:(k + 1) * points]):
            meets = (cell["p99_s"] <= slo_p99_s
                     and cell["availability"] >= min_availability)
            rows.append({
                "leg": leg, "idle_timeout_s": idle, "cell": cell["id"],
                "p99_s": cell["p99_s"],
                "mean_latency_s": cell["mean_latency_s"],
                "cold_starts": cell["cold_starts"],
                "restores": cell["restores"],
                "availability": cell["availability"],
                "meets_slo": meets,
            })
            if meets and frontiers[leg] is None:
                frontiers[leg] = idle
    baseline, pask = frontiers["baseline"], frontiers["pask"]
    verdict = pask is not None and (baseline is None or pask < baseline)
    section = {
        "device": device, "model": model,
        "rate_hz": _FRONTIER_RATE_HZ, "duration_s": _FRONTIER_DURATION_S,
        "warm_s": warm_s, "slo_multiplier": _SLO_MULTIPLIER,
        "slo_p99_s": slo_p99_s, "min_availability": min_availability,
        "sweep": rows,
        "frontiers": frontiers,
        "pass": verdict,
    }
    return section, verdict


REPORTS: Tuple[ReportEntry, ...] = (
    ReportEntry("chaos", "chaos", "chaos_resilience_report.json",
                _chaos_tasks, _chaos_section),
    ReportEntry("packs", "packs", "pack_degradation_report.json",
                _packs_tasks, _packs_section),
    ReportEntry("fleet-frontier", "fleet_frontier",
                "fleet_frontier_report.json",
                _frontier_tasks, _frontier_section),
)
_BY_NAME = {entry.name: entry for entry in REPORTS}


def comparison_report(name: str, device: str = "MI100", model: str = "res",
                      jobs: int = 1, min_availability: float = 0.999,
                      created_unix: Optional[float] = None
                      ) -> Tuple[Dict[str, Any], bool]:
    """Run report ``name``'s legs; return the payload and its verdict.

    The payload is BENCH-shaped and schema-valid, with the entry's
    section added.  ``min_availability`` is the availability gate of
    every leg.  When ``created_unix`` is given, the volatile ``run``
    section is pinned (``wall_clock_s`` zeroed) so the payload is
    byte-stable across runs.
    """
    if name not in _BY_NAME:
        raise ValueError(f"unknown report {name!r}; expected one of "
                         f"{sorted(_BY_NAME)}")
    if not 0.0 <= min_availability <= 1.0:
        raise ValueError(f"min_availability must lie in [0, 1], got "
                         f"{min_availability!r}")
    entry = _BY_NAME[name]
    tasks = entry.tasks(device, model)
    outcomes, stats = run_tasks(tasks, jobs=jobs, cache=None)
    report = build_report(entry.name, outcomes, stats, cache=None,
                          created_unix=created_unix)
    if created_unix is not None:
        report["run"]["wall_clock_s"] = 0.0
    by_id = {cell["id"]: cell for cell in report["cells"]}
    section, passed = entry.summarize([by_id[t.cell_id] for t in tasks],
                                      device, model, min_availability)
    report[entry.section] = section
    problems = validate_report(report)
    if problems:  # defensive: the builder always emits schema-valid JSON
        raise RuntimeError(f"{name} emitted schema-invalid report: "
                           f"{problems}")
    return report, passed
