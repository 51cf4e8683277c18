"""Sharded fleet replay: one region per shard, byte-identical to serial.

:func:`run_fleet_sharded` partitions a :class:`FleetSimulator` replay
by region across the runner's process pool and merges the shard
outputs so the result is **byte-identical** to the serial
``FleetSimulator.run`` — same latencies, counters, fault dictionaries,
trace records and tenant accounting (equivalence-pinned by
``tests/test_fleet_parallel.py`` and the ``repro fleet
--verify-serial`` CI gate).

The only cross-region coupling in a fleet replay is the *routing
decision*: ``idle_tick`` / ``observe_arrival`` / shedding / serving all
mutate the routed region alone.  When routing never reads region state
the whole assignment is known up front, and every region can replay its
own sub-stream independently.  That yields three execution modes,
picked automatically:

- **delegated** — a single-cluster fleet takes the existing delegation
  path untouched (cluster fast-forward included).
- **static** — routing that never reads region state (``single``,
  ``round-robin``, or a lone routable region) is precomputed exactly
  from the drain windows.  Every region then replays its own
  sub-stream in one shot; regions under ``fixed`` / ``scale-to-zero``
  autoscaling with no fault plan replay through the instance pool's
  analytic window (:meth:`~repro.serving.pool.InstancePool.fast_forward`,
  the one the cluster uses, warm floor / restore billing / shedding
  included), the others through the region step the per-arrival loop
  runs (``_RegionState.tick`` / ``step``).  The serial
  ``FleetSimulator`` runs this same per-region replay and merge
  in-process (:func:`_replay_assigned`), so at ``jobs=1`` the two take
  the same time; only ``jobs > 1`` adds parallelism.
- **serial** — everything else: state-coupled routing (``least-queue``
  / ``warm-first`` across >= 2 routable regions), kernel packs (the
  registry fabric couples regions), and span capture combined with
  trace retention.  ``run_fleet_sharded`` hands the trace to
  ``FleetSimulator.run`` and reports ``shards=0``.

Workers regenerate the arrival stream from a :class:`TraceSpec` when
one is supplied, so scaling to 1e8 requests never ships hundreds of
megabytes of arrivals through pickles.
"""

from __future__ import annotations

from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import chain
from time import perf_counter
from typing import Dict, List, Optional, Tuple, Union

from repro.fleet.autoscale import AutoscalePolicy
from repro.fleet.fleet import (FleetConfig, FleetEvent, FleetSimulator,
                               FleetStats, FleetTrace, RegionConfig,
                               RegionStats, TenantStats, _QueueDepthTracker,
                               _RegionState, _SpanLog, _feed_region_metrics,
                               _feed_tenant_metrics, _serial_order,
                               _server_for, _settle)
from repro.fleet.routing import RouterState
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitors import SLOMonitorSet
from repro.serving.pool import SHED
from repro.serving.requests import RequestTrace, poisson_trace
from repro.sim.trace import TraceRecorder

__all__ = ["TraceSpec", "ShardReport", "run_fleet_sharded",
           "equivalence_problems"]


@dataclass(frozen=True)
class TraceSpec:
    """Seeded recipe for a single-tenant Poisson :class:`FleetTrace`.

    Shipping a spec instead of the materialized arrivals keeps worker
    payloads O(1) in the request count — each shard regenerates the
    identical trace locally (Poisson generation is seeded).
    """

    model: str = "res"
    rate_hz: float = 200.0
    duration_s: float = 60.0
    seed: int = 0
    tenant: str = "default"

    def __post_init__(self) -> None:
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")

    def materialize(self) -> FleetTrace:
        return FleetTrace.from_request_trace(
            poisson_trace(self.model, self.rate_hz, self.duration_s,
                          seed=self.seed),
            tenant=self.tenant)


@dataclass
class ShardReport:
    """How a sharded replay executed (the results are in the stats)."""

    mode: str    # "delegated" | "static" | "serial"
    jobs: int
    shards: int                # regions replayed as parallel shards
    analytic_served: Dict[str, int] = field(default_factory=dict)
    region_wall_s: Dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    # Always 0: no mode rolls back any more; kept only because
    # perfbench/timewarp.py still prints them.
    rounds: int = 0
    rollbacks: int = 0
    resimulated: int = 0
    max_rollback_depth: int = 0

    @property
    def analytic_total(self) -> int:
        """Requests served by the analytic heap fast path, fleet-wide."""
        return sum(self.analytic_served.values())


# ----------------------------------------------------------------------
# Assignment encodings
# ----------------------------------------------------------------------
# An assignment maps every global arrival index to the region that
# serves it (-1: unroutable, shed by the coordinator).  Encodings keep
# the common cases O(1): ("constant", i), ("modulo", n_regions), or
# ("explicit", signed-byte array).

def _membership(assignment):
    """``k -> region code`` accessor for an assignment encoding."""
    kind, value = assignment
    if kind == "constant":
        return lambda k: value
    if kind == "modulo":
        return lambda k: k % value
    codes = array("b")
    codes.frombytes(value)
    return codes.__getitem__

def _assigned(assignment, region_index: int, n: int):
    """The global arrival indices owned by ``region_index``, in order."""
    kind, value = assignment
    if kind == "constant":
        return range(n) if value == region_index else range(0)
    if kind == "modulo":
        return range(region_index, n, value)
    codes = array("b")
    codes.frombytes(value)
    return [k for k in range(n) if codes[k] == region_index]


class _DrainProxy:
    """Region stand-in exposing only the drain-window query — the part
    of the routing surface that is a pure function of the config."""

    __slots__ = ("windows",)

    def __init__(self, windows) -> None:
        self.windows = windows

    def routable(self, now: float) -> bool:
        return not any(start <= now < end for start, end in self.windows)


def _static_assignment(config: FleetConfig, trace: FleetTrace):
    """The exact assignment when routing never reads region state.

    Returns an encoding, or ``None`` when the policy is state-coupled
    (``least-queue`` / ``warm-first`` with >= 2 routable regions at
    some arrival) and only the serial loop can resolve it.
    """
    kind = config.routing.kind
    n_regions = len(config.regions)
    windows = [region.drain_windows for region in config.regions]
    state_free = kind in ("single", "round-robin") or n_regions == 1
    if not any(windows):
        if kind == "single" or n_regions == 1:
            return ("constant", 0)
        if kind == "round-robin":
            return ("modulo", n_regions)
        return None
    proxies = [_DrainProxy(w) for w in windows]
    router = RouterState(config.routing)
    codes = array("b")
    for t in trace.arrivals:
        if not state_free:
            # least-queue / warm-first stay static only through the
            # router's lone-candidate shortcut.
            if sum(p.routable(t) for p in proxies) > 1:
                return None
        choice = router.choose(proxies, t)
        codes.append(-1 if choice is None else choice)
    return ("explicit", codes.tobytes())


# ----------------------------------------------------------------------
# Shard workers (module-level: they cross the process boundary)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _RegionJob:
    """One shard's worth of work: a region plus its assigned arrivals."""

    region_index: int
    config: RegionConfig
    policy: AutoscalePolicy
    shed_wait_s: Optional[float]
    retention: Optional[str]
    ring: int
    trace: Optional[FleetTrace]      # explicit arrivals, or ...
    spec: Optional[TraceSpec]        # ... regenerated in-worker
    assignment: tuple
    # --- telemetry knobs ----------------------------------------------
    collect_metrics: bool = False    # feed a fresh registry, ship a dump
    want_events: bool = False        # log the region's FleetEvents
    routing_kind: str = "single"     # the fleet_routed_total policy label
    analytic: bool = False           # eligible regions: the pool window


@dataclass
class _RegionResult:
    """A shard's output, ready for the deterministic merge."""

    stats: RegionStats
    trace_state: Optional[dict]
    outcomes: bytes
    wall_s: float
    metrics: Optional[dict] = None   # per-shard MetricsRegistry dump
    events: Optional[List[FleetEvent]] = None


def _job_trace(job: _RegionJob) -> FleetTrace:
    return job.trace if job.trace is not None else job.spec.materialize()


def _serve_stepping(state: _RegionState, arrivals, job: _RegionJob,
                    outcomes, events: Optional[list] = None) -> None:
    """Drive the region sequence over the shard's assigned arrivals,
    appending one outcome code per routed arrival."""
    mine = job.region_index
    shed_wait = job.shed_wait_s
    append = outcomes.append
    step = state.step
    if state.policy.kind == "reactive":
        # Reactive capacity breathes on *global* quiet time: the scaler
        # ticks at every fleet arrival, routed here or not.
        member = _membership(job.assignment)
        for k, t in enumerate(arrivals):
            state.tick(k, t, events)
            if member(k) == mine:
                append(step(k, t, shed_wait, events))
    else:
        for k in _assigned(job.assignment, mine, len(arrivals)):
            append(step(k, arrivals[k], shed_wait, events))


def _finalize_region(job: _RegionJob, servers=None) -> _RegionResult:
    """Replay the shard's sub-stream under its assignment, producing
    the exact serial RegionStats (``fast_forwarded`` counts the
    requests served analytically)."""
    trace = _job_trace(job)
    region = job.config
    state = _RegionState(region, _server_for(region.device, servers),
                         job.policy, trace.model, trace.batch,
                         job.retention, job.ring,
                         region_index=job.region_index)
    pool = state.pool
    if job.collect_metrics:
        pool.queue_depth = _QueueDepthTracker()
    arrivals = trace.arrivals
    outcomes = array("b")
    events: Optional[list] = [] if job.want_events else None
    began = perf_counter()
    # The analytic window applies when the region's evolution is
    # closed-form: no fault plan (every serve succeeds), no recorder,
    # and a ``fixed`` / ``scale-to-zero`` autoscaler (constant cap,
    # inert ticks; the keep-alive override is already the pool's).
    if (job.analytic and job.retention is None and pool.injector is None
            and state.policy.kind in ("fixed", "scale-to-zero")):
        indices = _assigned(job.assignment, job.region_index, len(arrivals))
        if isinstance(indices, range):
            mine = arrivals[indices.start:indices.stop:indices.step]
        else:
            mine = [arrivals[k] for k in indices]
        sheds: Optional[list] = [] if events is not None else None
        pool.fast_forward(mine, job.shed_wait_s, outcomes, sheds)
        if events is not None:
            # The window decides only shed or route per arrival.
            waits = (wait for _, wait in sheds)
            i = job.region_index
            events.extend(
                FleetEvent(k, "shed", i, next(waits)) if code == SHED
                else FleetEvent(k, "route", i)
                for k, code in zip(indices, outcomes))
    else:
        _serve_stepping(state, arrivals, job, outcomes, events)
    wall = perf_counter() - began
    stats = state.stats
    trace_state = (stats.trace.state_dict()
                   if stats.trace is not None else None)
    stats.trace = None  # recorders travel as state dicts
    metrics_dump = None
    if job.collect_metrics:
        registry = MetricsRegistry()
        _feed_region_metrics(registry, stats, job.routing_kind,
                             pool.queue_depth.peak)
        metrics_dump = registry.to_json()
    return _RegionResult(stats=stats, trace_state=trace_state,
                         outcomes=outcomes.tobytes(), wall_s=wall,
                         metrics=metrics_dump, events=events)


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------

def _merge(config: FleetConfig, trace: FleetTrace, assignment,
           results: List[_RegionResult], spans=None,
           monitors: Optional[SLOMonitorSet] = None) -> FleetStats:
    """Deterministic merge: rebuild the serial FleetStats from shard
    outputs, walking tenants in global arrival order.

    The walk settles each arrival exactly as the per-arrival loop does
    (:func:`~repro.fleet.fleet._settle`), feeding ``monitors`` in serial
    observation order.  With ``spans`` it logs the unroutable and alert
    events only the coordinator sees, then renders them together with
    the shards' event logs in the per-arrival loop's order, so the span
    list is byte-identical to the per-arrival one."""
    stats = FleetStats(offered=len(trace))
    for region, result in zip(config.regions, results):
        region_stats = result.stats
        if result.trace_state is not None:
            region_stats.trace = TraceRecorder.from_state(result.trace_state)
        stats.regions[region.name] = region_stats
    tenants = [TenantStats(name=name) for name in trace.tenant_names]
    kind, value = assignment
    n = len(trace)
    if (spans is None and monitors is None
            and len(tenants) == 1 and kind in ("constant", "modulo")
            and all(r.stats.failed == 0 and r.stats.shed == 0
                    for r in results)):
        # Fast merge: one tenant, nothing shed or failed, no unroutable
        # arrivals — per-region latency lists interleave by slice.
        tenant = tenants[0]
        tenant.offered = n
        if kind == "constant":
            tenant.latencies = list(results[value].stats.latencies)
        else:
            merged = [0.0] * n
            for i, result in enumerate(results):
                merged[i::value] = result.stats.latencies
            tenant.latencies = merged
    else:
        member = _membership(assignment)
        outcome_iters = [iter(r.outcomes) for r in results]
        latency_getters = [iter(r.stats.latencies).__next__
                           for r in results]
        arrivals = trace.arrivals
        log: Optional[List[FleetEvent]] = [] if spans is not None else None
        for k, tenant_index in enumerate(trace.tenants):
            r = member(k)
            if r < 0:
                code = next_latency = None
            else:
                code = next(outcome_iters[r])
                next_latency = latency_getters[r]
            _settle(stats, tenants[tenant_index], k, arrivals[k], code,
                    next_latency, monitors, log)
        if spans is not None:
            render = _SpanLog(spans, config, trace).append
            for event in sorted(chain(log, *(r.events for r in results)),
                                key=_serial_order):
                render(event)
    for tenant in tenants:
        stats.tenants[tenant.name] = tenant
    return stats


def _replay_assigned(config: FleetConfig, trace: FleetTrace, assignment,
                     shard_map, *, spec: Optional[TraceSpec] = None,
                     metrics=None, spans=None, slo=None
                     ) -> Tuple[FleetStats, List[_RegionResult]]:
    """Replay every region's sub-stream under a fixed ``assignment``
    and merge: the sharded static mode (``shard_map`` fans the jobs
    over the pool) and the serial static path (``shard_map`` runs them
    in-process) share this one implementation."""
    policy = (config.autoscale if config.autoscale is not None
              else AutoscalePolicy())
    monitors = SLOMonitorSet(slo) if slo is not None else None
    jobs = [_RegionJob(region_index=i, config=region, policy=policy,
                       shed_wait_s=config.shed_wait_s,
                       retention=config.trace_retention,
                       ring=config.trace_ring,
                       trace=None if spec is not None else trace,
                       spec=spec, assignment=assignment,
                       collect_metrics=metrics is not None,
                       want_events=spans is not None,
                       routing_kind=config.routing.kind,
                       analytic=config.fast_forward)
            for i, region in enumerate(config.regions)]
    results = shard_map(jobs)
    stats = _merge(config, trace, assignment, results, spans=spans,
                   monitors=monitors)
    if monitors is not None:
        stats.monitors = monitors.summary()
    if metrics is not None:
        for result in results:
            if result.metrics:
                metrics.merge(result.metrics)
        _feed_tenant_metrics(metrics, stats)
    return stats, results


def run_fleet_sharded(config: FleetConfig,
                      trace: Union[RequestTrace, FleetTrace, None] = None,
                      jobs: int = 1, *,
                      trace_spec: Optional[TraceSpec] = None,
                      metrics: Optional[MetricsRegistry] = None,
                      spans=None, slo=None
                      ) -> Tuple[FleetStats, ShardReport]:
    """Replay ``trace`` sharded by region; byte-identical to serial.

    ``jobs <= 1`` runs every shard in-process through the identical
    code path (no pool), which is how the equivalence tests stay fast.
    ``trace_spec`` — when the trace is a seeded Poisson stream — lets
    workers regenerate arrivals locally instead of unpickling them; if
    both ``trace`` and ``trace_spec`` are given they must describe the
    same stream (the spec is purely a shipping optimization).

    Regions shard only when the static per-region replay applies: no
    packs, routing that :func:`_static_assignment` can precompute, and
    no span capture combined with trace retention.  Every other fleet
    runs ``FleetSimulator.run`` and reports ``mode="serial"``,
    ``shards=0``.

    Telemetry mirrors :class:`FleetSimulator`: ``metrics`` /
    ``spans`` / ``slo`` produce dumps, span lists and monitor
    summaries byte-identical to a serial run with the same sinks
    (workers feed fresh per-shard registries whose dumps merge
    associatively; the coordinator renders the shards' event logs).
    """
    began = perf_counter()
    # Validates config combinations; also the delegated/serial runner.
    simulator = FleetSimulator(config, metrics=metrics, spans=spans,
                               slo=slo)
    if trace is None:
        if trace_spec is None:
            raise ValueError("need a trace or a trace_spec")
        trace = trace_spec.materialize()
    if isinstance(trace, RequestTrace):
        trace = FleetTrace.from_request_trace(trace)
    jobs = max(1, jobs)
    if config.is_single_cluster and len(trace.tenant_names) == 1:
        stats = simulator.run(trace)
        return stats, ShardReport(mode="delegated", jobs=jobs, shards=0,
                                  wall_s=perf_counter() - began)
    # Packs couple regions through the registry fabric, and span
    # capture binds retained traces in-region: both stay serial, as
    # does routing that reads region state.
    assignment = None
    if config.packs is None and (spans is None
                                 or config.trace_retention is None):
        assignment = _static_assignment(config, trace)
    if assignment is None:
        stats = simulator.run(trace)
        return stats, ShardReport(mode="serial", jobs=jobs, shards=0,
                                  wall_s=perf_counter() - began)
    n_regions = len(config.regions)
    report = ShardReport(mode="static", jobs=jobs, shards=n_regions)
    from repro.runner.engine import run_shards  # local: avoids a cycle
    pool = None
    try:
        if jobs > 1 and n_regions > 1:
            pool = ProcessPoolExecutor(
                max_workers=min(jobs, n_regions))
        # Regenerating from the spec only pays off across a process
        # boundary; in-process shards share the materialized arrivals.
        stats, results = _replay_assigned(
            config, trace, assignment,
            lambda shards: run_shards(_finalize_region, shards, pool=pool),
            spec=trace_spec if pool is not None else None,
            metrics=metrics, spans=spans, slo=slo)
    finally:
        if pool is not None:
            pool.shutdown()
    for region, result in zip(config.regions, results):
        report.analytic_served[region.name] = result.stats.fast_forwarded
        report.region_wall_s[region.name] = result.wall_s
    report.wall_s = perf_counter() - began
    return stats, report


# ----------------------------------------------------------------------
# Equivalence audit (tests + the `repro fleet --verify-serial` CI gate)
# ----------------------------------------------------------------------

_REGION_FIELDS = ("cold_starts", "warm_hits", "restores", "restore_s",
                  "failed", "shed", "prewarm_spawns", "prewarm_restores",
                  "prewarm_s", "scale_ups", "scale_downs",
                  "fast_forwarded", "pack_restores")
_TENANT_FIELDS = ("offered", "failed", "shed", "latencies")


def equivalence_problems(serial: FleetStats,
                         sharded: FleetStats) -> List[str]:
    """Field-by-field audit of sharded vs serial replay; empty when the
    two are byte-equal (latencies, counters, faults, traces, tenants)."""
    problems: List[str] = []

    def check(label, expected, got):
        if expected != got:
            problems.append(f"{label}: serial {expected!r} "
                            f"!= sharded {got!r}")

    check("offered", serial.offered, sharded.offered)
    check("shed_unroutable", serial.shed_unroutable,
          sharded.shed_unroutable)
    check("delegated", serial.delegated, sharded.delegated)
    check("regions", list(serial.regions), list(sharded.regions))
    for name, region in serial.regions.items():
        other = sharded.regions.get(name)
        if other is None:
            continue
        for field_name in _REGION_FIELDS:
            check(f"{name}.{field_name}", getattr(region, field_name),
                  getattr(other, field_name))
        check(f"{name}.latencies", region.latencies, other.latencies)
        check(f"{name}.queue_waits", region.queue_waits,
              other.queue_waits)
        check(f"{name}.faults", region.faults.as_dict(),
              other.faults.as_dict())
        check(f"{name}.packs",
              None if region.packs is None else region.packs.as_dict(),
              None if other.packs is None else other.packs.as_dict())
        mine = None if region.trace is None else list(region.trace.records)
        theirs = None if other.trace is None else list(other.trace.records)
        check(f"{name}.trace", mine, theirs)
        if region.trace is not None and other.trace is not None:
            check(f"{name}.trace.record_count",
                  region.trace.record_count, other.trace.record_count)
    check("monitors", serial.monitors, sharded.monitors)
    check("tenants", list(serial.tenants), list(sharded.tenants))
    for name, tenant in serial.tenants.items():
        other = sharded.tenants.get(name)
        if other is None:
            continue
        for field_name in _TENANT_FIELDS:
            check(f"tenant {name}.{field_name}",
                  getattr(tenant, field_name),
                  getattr(other, field_name))
    return problems
