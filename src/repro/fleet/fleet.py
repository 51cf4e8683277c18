"""Multi-region fleet simulator: routing + autoscaling above clusters.

The paper's economic claim — PASK-style proactive kernel loading makes
cold starts cheap enough to change how aggressively capacity can be
scaled down — is only measurable *above* the single-cluster level.
:class:`FleetSimulator` composes several regions (each the moral
equivalent of one :class:`~repro.serving.cluster.ClusterSimulator`
pool, possibly on a different device), routes a merged multi-tenant
arrival stream across them (:mod:`repro.fleet.routing`), and lets an
autoscaling policy (:mod:`repro.fleet.autoscale`) manage per-region
capacity — with every scale-up billed through the existing cold-start /
checkpoint-restore accounting.

Three execution paths, one contract
-----------------------------------
The paths match the three modes of
:func:`~repro.fleet.parallel.run_fleet_sharded` (delegated / static /
serial), which shards only the static one across processes.  Every
region wraps one :class:`~repro.serving.pool.InstancePool`, the same
pool the cluster wraps, so the serving dynamics exist once.

- **Delegated**: a single-region fleet under inert routing/autoscaling
  (:attr:`FleetConfig.is_single_cluster`) with a single tenant is run by
  handing the trace straight to ``ClusterSimulator`` — byte-identical to
  the bare cluster by construction, fast-forward and resilience
  included (golden-pinned).
- **Per-region static**: routing that never reads region state
  (``single``, ``round-robin``, a lone routable region) lets each
  region replay its own sub-stream in one shot, through the pool's
  analytic window where eligible (counted in
  ``RegionStats.fast_forwarded``) — the per-region replay
  ``run_fleet_sharded`` runs in static mode, here in-process.
- **Per-arrival**: anything else (state-coupled routing, packs, spans
  with trace retention, or ``fast_forward=False``) replays
  arrival-by-arrival through the pool's stepping ``serve``;
  ``run_fleet_sharded`` reports it as ``mode="serial"``.  A
  single-region fleet on either non-delegated path equals
  ``ClusterSimulator(fast_forward=False)`` (equivalence-pinned).

Accounting invariant (property-pinned): every offered request is
exactly one of completed, failed, or shed —
``stats.offered == stats.completed + stats.failed + stats.shed``.

Scope notes: non-inert :class:`ResiliencePolicy` is a cluster-level
feature and is honoured on the delegation path only (the other paths
reject it rather than silently dropping guarantees); crashed instances
always restart *cold* — checkpoint restore applies to autoscaler
spawns, restore-on-crash belongs to the resilience layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.schemes import Scheme
from repro.fleet.autoscale import AutoscalePolicy, AutoscalerState
from repro.fleet.routing import RouterState, RoutingPolicy
from repro.obs.monitors import SLOMonitorSet, SLOPolicy, emit_alert_spans
from repro.packs.artifact import KernelPack, pack_for
from repro.packs.store import (PackPolicy, PackStoreState,
                               PackTransferCounters, RegistryFabric,
                               feed_pack_metrics)
from repro.serving.cluster import ClusterConfig, ClusterSimulator, \
    ClusterStats
from repro.serving.metrics import percentile as nearest_rank_percentile
from repro.serving.pool import (FAILED, SHED, InstancePool, observe_outcome,
                                service_times)
from repro.serving.requests import RequestTrace
from repro.serving.resilience import ResiliencePolicy
from repro.serving.server import InferenceServer
from repro.sim.faults import FaultCounters, FaultInjector, FaultPlan
from repro.sim.trace import RETENTION_POLICIES, TraceRecorder

__all__ = ["RegionConfig", "FleetConfig", "FleetTrace", "merge_traces",
           "RegionStats", "TenantStats", "FleetStats", "FleetSimulator"]


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RegionConfig:
    """One region: an autoscaled instance pool on one device."""

    name: str
    device: str = "MI100"
    scheme: Scheme = Scheme.BASELINE
    max_instances: int = 8
    keep_alive_s: float = 10.0
    faults: Optional[FaultPlan] = None
    # Maintenance drains: half-open [start, end) windows during which
    # the region accepts no new requests (the router must send traffic
    # elsewhere — the no-starvation property).
    drain_windows: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("region needs a name")
        if not isinstance(self.max_instances, int):
            raise ValueError("max_instances must be an integer")
        if self.max_instances <= 0:
            raise ValueError("need at least one instance")
        if not self.keep_alive_s >= 0:
            raise ValueError("keep-alive must be non-negative")
        for window in self.drain_windows:
            if len(window) != 2 or not 0 <= window[0] < window[1]:
                raise ValueError(f"bad drain window {window!r}; "
                                 "need 0 <= start < end")


@dataclass(frozen=True)
class FleetConfig:
    """Fleet policy knobs."""

    regions: Tuple[RegionConfig, ...]
    routing: RoutingPolicy = RoutingPolicy()
    autoscale: Optional[AutoscalePolicy] = None
    # Load shedding: reject an arrival whose routed region predicts a
    # queueing delay above this bound (well-defined error, counted as
    # shed — same contract as admission control in the resilience
    # layer).  ``None`` disables shedding.
    shed_wait_s: Optional[float] = None
    trace_retention: Optional[str] = None
    trace_ring: int = 1024
    # Off the delegated path, False forces the per-arrival loop.
    fast_forward: bool = True
    # Honoured on the delegation path only (see module docstring).
    resilience: Optional[ResiliencePolicy] = None
    # Kernel-pack fetch hierarchy (repro.packs), fleet-wide: each region
    # runs its own ladder against its *own* registry (dark during that
    # region's ``registry_outage_windows``) and fails over to the first
    # lit remote registry at a cross-region penalty before degrading to
    # cold load.  ``None`` (default) is byte-inert.
    packs: Optional[PackPolicy] = None

    def __post_init__(self) -> None:
        if not self.regions:
            raise ValueError("fleet needs at least one region")
        names = [r.name for r in self.regions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate region names: {names}")
        if self.shed_wait_s is not None and not self.shed_wait_s >= 0:
            raise ValueError("shed_wait_s must be non-negative")
        if (self.trace_retention is not None
                and self.trace_retention not in RETENTION_POLICIES):
            raise ValueError(
                f"unknown trace retention {self.trace_retention!r}; "
                f"expected None or one of {RETENTION_POLICIES}")
        if not isinstance(self.trace_ring, int):
            raise ValueError("trace_ring must be an integer")
        if self.trace_ring <= 0:
            raise ValueError("trace_ring must be positive")

    @property
    def is_single_cluster(self) -> bool:
        """Whether this fleet is observationally a bare cluster: one
        region, no drains, inert routing and autoscaling, no shedding —
        the delegation-path precondition."""
        return (len(self.regions) == 1
                and not self.regions[0].drain_windows
                and self.routing.is_inert
                and (self.autoscale is None or self.autoscale.is_inert)
                and self.shed_wait_s is None)


# ----------------------------------------------------------------------
# Multi-tenant traces
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FleetTrace:
    """A merged arrival stream tagged with per-request tenant indices."""

    model: str
    arrivals: Tuple[float, ...]
    tenants: Tuple[int, ...]
    tenant_names: Tuple[str, ...] = ("default",)
    batch: int = 1

    def __post_init__(self) -> None:
        if not self.arrivals:
            raise ValueError("a trace needs at least one request")
        if len(self.tenants) != len(self.arrivals):
            raise ValueError("tenants must tag every arrival")
        if any(t < 0 for t in self.arrivals):
            raise ValueError("negative arrival time")
        if list(self.arrivals) != sorted(self.arrivals):
            raise ValueError("arrivals must be sorted")
        if not self.tenant_names:
            raise ValueError("need at least one tenant name")
        if len(set(self.tenant_names)) != len(self.tenant_names):
            raise ValueError(f"duplicate tenant names: {self.tenant_names}")
        n = len(self.tenant_names)
        if any(not 0 <= t < n for t in self.tenants):
            raise ValueError("tenant index out of range")
        if self.batch <= 0:
            raise ValueError("batch must be positive")

    def __len__(self) -> int:
        return len(self.arrivals)

    @classmethod
    def from_request_trace(cls, trace: RequestTrace,
                           tenant: str = "default") -> "FleetTrace":
        return cls(trace.model, trace.arrivals,
                   (0,) * len(trace.arrivals), (tenant,), trace.batch)

    def to_request_trace(self) -> RequestTrace:
        return RequestTrace(self.model, self.arrivals, self.batch)


def merge_traces(named: Sequence[Tuple[str, RequestTrace]]) -> FleetTrace:
    """Merge per-tenant traces into one :class:`FleetTrace`.

    Ordering is total and deterministic: by arrival time, then by the
    tenant's position in ``named``, then by sequence within the tenant's
    own trace — so replays are stable even when tenants collide on the
    same timestamp (every seeded trace starts at t=0).
    """
    if not named:
        raise ValueError("need at least one (tenant, trace) pair")
    model = named[0][1].model
    batch = named[0][1].batch
    for name, trace in named:
        if trace.model != model or trace.batch != batch:
            raise ValueError("all tenant traces must share model and batch")
    merged = sorted(
        ((t, tenant_index, seq)
         for tenant_index, (_, trace) in enumerate(named)
         for seq, t in enumerate(trace.arrivals)),
        key=lambda item: item)
    return FleetTrace(model,
                      tuple(item[0] for item in merged),
                      tuple(item[1] for item in merged),
                      tuple(name for name, _ in named),
                      batch)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

class _OutcomeViews:
    """Views over ``latencies`` and ``failed`` shared by the region,
    tenant and fleet statistics."""

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def availability(self) -> float:
        """Shed-adjusted availability (same contract as
        :attr:`~repro.serving.cluster.ClusterStats.availability`)."""
        finished = self.completed + self.failed
        if not finished:
            return 1.0
        return self.completed / finished

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def percentile(self, q: float) -> float:
        if not 0 <= q <= 1:
            raise ValueError(f"quantile out of range: {q}")
        latencies = self.latencies
        if not latencies:
            return 0.0
        return nearest_rank_percentile(latencies, q)


@dataclass
class RegionStats(_OutcomeViews):
    """Outcome of one replay as seen by a single region."""

    name: str
    device: str
    latencies: List[float] = field(default_factory=list)
    cold_starts: int = 0
    warm_hits: int = 0
    restores: int = 0          # scale-up spawns served from a checkpoint
    restore_s: float = 0.0     # total restore spin-up paid on-path
    queue_waits: List[float] = field(default_factory=list)
    failed: int = 0
    shed: int = 0              # load-shed at this region (fleet policy)
    prewarm_spawns: int = 0    # predictive spawns off the request path
    prewarm_restores: int = 0  # ... of which came from a checkpoint
    prewarm_s: float = 0.0     # off-path spin-up time the fleet paid
    scale_ups: int = 0
    scale_downs: int = 0
    faults: FaultCounters = field(default_factory=FaultCounters)
    trace: Optional[TraceRecorder] = None
    fast_forwarded: int = 0
    # Cold spawns restored from a kernel pack (request path), and the
    # fetch-hierarchy ledger (None unless FleetConfig.packs is set).
    pack_restores: int = 0
    packs: Optional[PackTransferCounters] = None

    @classmethod
    def from_cluster(cls, name: str, device: str,
                     stats: ClusterStats) -> "RegionStats":
        return cls(name=name, device=device, latencies=stats.latencies,
                   cold_starts=stats.cold_starts,
                   warm_hits=stats.warm_hits,
                   queue_waits=stats.queue_waits, failed=stats.failed,
                   shed=stats.shed, faults=stats.faults,
                   trace=stats.trace,
                   fast_forwarded=stats.fast_forwarded,
                   restores=stats.restores,
                   pack_restores=stats.pack_restores,
                   packs=stats.packs)

    @property
    def requests(self) -> int:
        return len(self.latencies) + self.failed + self.shed


@dataclass
class TenantStats(_OutcomeViews):
    """Per-traffic-class outcome accounting."""

    name: str
    offered: int = 0
    failed: int = 0
    shed: int = 0
    latencies: List[float] = field(default_factory=list)


@dataclass
class FleetStats(_OutcomeViews):
    """Outcome of one fleet replay: per-region, per-tenant, aggregate."""

    offered: int = 0
    regions: Dict[str, RegionStats] = field(default_factory=dict)
    tenants: Dict[str, TenantStats] = field(default_factory=dict)
    # Arrivals dropped because *no* region was routable (all drained);
    # distinct from per-region load shedding.
    shed_unroutable: int = 0
    # Whether the replay took the single-cluster delegation path.
    delegated: bool = False
    # SLO monitor digest (SLOMonitorSet.summary()) when a policy was
    # attached; None otherwise.  Sharded replays reproduce this
    # byte-identically (equivalence-pinned).
    monitors: Optional[Dict[str, Any]] = None

    @property
    def completed(self) -> int:
        return sum(r.completed for r in self.regions.values())

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.regions.values())

    @property
    def shed(self) -> int:
        return (sum(r.shed for r in self.regions.values())
                + self.shed_unroutable)

    @property
    def cold_starts(self) -> int:
        return sum(r.cold_starts for r in self.regions.values())

    @property
    def warm_hits(self) -> int:
        return sum(r.warm_hits for r in self.regions.values())

    @property
    def restores(self) -> int:
        return sum(r.restores for r in self.regions.values())

    @property
    def pack_restores(self) -> int:
        return sum(r.pack_restores for r in self.regions.values())

    @property
    def prewarm_spawns(self) -> int:
        return sum(r.prewarm_spawns for r in self.regions.values())

    @property
    def prewarm_s(self) -> float:
        return sum(r.prewarm_s for r in self.regions.values())

    @property
    def fast_forwarded(self) -> int:
        return sum(r.fast_forwarded for r in self.regions.values())

    @property
    def latencies(self) -> List[float]:
        out: List[float] = []
        for region in self.regions.values():
            out.extend(region.latencies)
        return out

    @property
    def conserved(self) -> bool:
        """The fleet accounting invariant: every offered request is
        exactly one of completed, failed, or shed."""
        return self.offered == self.completed + self.failed + self.shed

    @property
    def mean_latency(self) -> float:
        n = 0
        acc = 0.0
        for region in self.regions.values():
            acc += sum(region.latencies)
            n += len(region.latencies)
        return acc / n if n else 0.0


# ----------------------------------------------------------------------
# Control-plane telemetry
# ----------------------------------------------------------------------
#
# Every control-plane decision is one FleetEvent, appended to a log by
# the region step (scale-down, shed, route, scale-up, prewarm), by the
# analytic window's wrapper (shed, route) and by the coordinator
# (unroutable, alert).  One renderer, _SpanLog, turns an event into its
# decision span.  The per-arrival loop hands the renderer itself to the
# step as the log, so each span lands the moment its decision is made;
# the static path keeps plain lists and renders them once, in the order
# the per-arrival loop would have (_SERIAL_STAGE).  The same events and
# the same renderer are what make both span lists byte-identical.

class FleetEvent(NamedTuple):
    """One control-plane decision at global arrival index ``k``.

    ``region`` is the region's index (-1 for fleet-wide events).  The
    payload ``a``/``b`` depends on ``kind``: ``scale-down`` and
    ``scale-up`` carry (count, cap), ``prewarm`` (spawned, restores),
    ``shed`` (predicted wait, 0) and ``alert`` (the
    :class:`~repro.obs.monitors.Alert`, 0); ``route`` and ``unroutable``
    carry nothing (the renderer reads the tenant from the trace)."""

    k: int
    kind: str
    region: int
    a: Any = 0
    b: Any = 0


# Where each kind falls within one arrival of the per-arrival loop:
# every region's idle tick, then the routing outcome, the routed
# region's scale-up and prewarm, and last the SLO alerts of its serve.
_SERIAL_STAGE = {"scale-down": 0, "unroutable": 1, "shed": 1, "route": 1,
                 "scale-up": 2, "prewarm": 3, "alert": 4}


def _serial_order(event: FleetEvent) -> Tuple[int, int, int]:
    return event.k, _SERIAL_STAGE[event.kind], event.region


class _SpanLog:
    """Renders :class:`FleetEvent` s as decision spans, one at a time.

    ``append`` renders at once, so the per-arrival loop passes this
    object wherever a region step expects an event list."""

    __slots__ = ("spans", "arrivals", "tenants", "tenant_names", "actors",
                 "policy")

    def __init__(self, spans, config: "FleetConfig",
                 trace: "FleetTrace") -> None:
        self.spans = spans
        self.arrivals = trace.arrivals
        self.tenants = trace.tenants
        self.tenant_names = trace.tenant_names
        self.actors = [f"region:{region.name}" for region in config.regions]
        self.policy = config.routing.kind

    def append(self, event: FleetEvent) -> None:
        k, kind, region, a, b = event
        if kind == "alert":
            emit_alert_spans(self.spans, (a,))
            return
        t = self.arrivals[k]
        event_span = self.spans.event
        if kind == "unroutable":
            event_span("fleet:shed", t, actor="fleet", reason="unroutable",
                       tenant=self.tenant_names[self.tenants[k]])
        elif kind == "route":
            event_span("fleet:route", t, actor=self.actors[region],
                       policy=self.policy,
                       tenant=self.tenant_names[self.tenants[k]])
        elif kind == "shed":
            event_span("fleet:shed", t, actor=self.actors[region], wait=a)
        elif kind == "prewarm":
            event_span("fleet:prewarm", t, actor=self.actors[region],
                       spawned=a, restores=b)
        else:
            event_span(f"fleet:{kind}", t, actor=self.actors[region],
                       count=a, cap=b)


def _settle(stats: "FleetStats", tenant: "TenantStats", k: int, t: float,
            code: Optional[int], next_latency, monitors, log) -> None:
    """Account the outcome ``code`` of arrival ``k`` to its tenant and
    the SLO monitors; ``code`` is None when no region was routable.
    ``next_latency()`` yields the latency of a completed serve.  Shared
    by the per-arrival loop and the static path's merge."""
    tenant.offered += 1
    if code is None:
        stats.shed_unroutable += 1
        tenant.shed += 1
        if log is not None:
            log.append(FleetEvent(k, "unroutable", -1))
        return
    if code == SHED:
        tenant.shed += 1
        return
    if code == FAILED:
        tenant.failed += 1
    else:
        tenant.latencies.append(next_latency())
    if monitors is not None:
        for alert in observe_outcome(monitors, t, code, tenant.latencies):
            if log is not None:
                log.append(FleetEvent(k, "alert", -1, alert))


class _QueueDepthTracker:
    """Peak number of concurrently queued requests in one region.

    Fed the ``(arrival, start)`` pair of every first scheduling attempt
    (the same stream that produces ``queue_waits``, which the sharded
    equivalence audit pins — so stepping and analytic replays agree).
    Only allocated when metrics are on.
    """

    __slots__ = ("_starts", "peak")

    def __init__(self) -> None:
        self._starts: List[float] = []   # min-heap of pending start times
        self.peak = 0

    def observe(self, arrival: float, start: float) -> None:
        starts = self._starts
        while starts and starts[0] <= arrival:
            heappop(starts)
        if start > arrival:
            heappush(starts, start)
            if len(starts) > self.peak:
                self.peak = len(starts)


_REQUESTS_HELP = "Fleet requests by outcome and region"
_SCALE_HELP = "Autoscaler actions by kind and region"
_LATENCY_HELP = "Fleet end-to-end request latency"
_ROUTED_HELP = "Requests routed to a region, labelled by routing policy"
_AUTOSCALE_HELP = "Autoscale transitions by action and region"
_QUEUE_DEPTH_HELP = "Peak concurrently queued requests per region"
_TENANT_HELP = "Per-tenant fleet requests by outcome"


def _feed_region_metrics(registry, region: "RegionStats",
                         routing_kind: str,
                         queue_peak: Optional[int]) -> None:
    """Feed one region's slice of the fleet metrics into ``registry``.

    Shared by the serial fed-at-the-end path and the sharded workers
    (each worker feeds a fresh registry for its own region; the
    coordinator merges the dumps).  Per-region label sets are disjoint
    and ``to_json`` sorts, so merged output is byte-identical to
    serial.
    """
    name = region.name
    requests = registry.counter("fleet_requests_total", _REQUESTS_HELP)
    scale = registry.counter("fleet_scale_events_total", _SCALE_HELP)
    latency = registry.histogram("fleet_latency_seconds", _LATENCY_HELP)
    routed = registry.counter("fleet_routed_total", _ROUTED_HELP)
    autoscale = registry.counter("fleet_autoscale_total", _AUTOSCALE_HELP)
    depth = registry.gauge("fleet_queue_depth", _QUEUE_DEPTH_HELP)
    for outcome, value in (("warm", region.warm_hits),
                           ("cold", region.cold_starts),
                           ("restore", region.restores),
                           ("pack", region.pack_restores),
                           ("failed", region.failed),
                           ("shed", region.shed)):
        if value:
            requests.inc(value, outcome=outcome, region=name)
    for kind, value in (("up", region.scale_ups),
                        ("down", region.scale_downs),
                        ("prewarm", region.prewarm_spawns)):
        if value:
            scale.inc(value, kind=kind, region=name)
    series = latency.labels(region=name)
    for value in region.latencies:
        series.observe(value)
    if region.requests:
        routed.inc(region.requests, policy=routing_kind, region=name)
    # Restore-vs-cold billing of capacity transitions.  Live keep-alive
    # reclaims are intentionally absent: stepping and analytic replays
    # may coalesce them differently, and only *billed* transitions are
    # equivalence-pinned.
    for action, value in (("scale-up", region.scale_ups),
                          ("scale-down", region.scale_downs),
                          ("prewarm", region.prewarm_spawns),
                          ("prewarm-restore", region.prewarm_restores),
                          ("restore", region.restores),
                          ("pack-restore", region.pack_restores),
                          ("cold-spawn", region.cold_starts)):
        if value:
            autoscale.inc(value, action=action, region=name)
    if queue_peak is not None:
        depth.set(queue_peak, region=name)
    if region.packs is not None:
        feed_pack_metrics(registry, region.packs, region=name)


def _feed_tenant_metrics(registry, stats: "FleetStats") -> None:
    """Feed the fleet-level (non-region) metrics: per-tenant outcomes
    plus the unroutable-shed counter.  The sharded coordinator calls
    this after merging the per-region worker dumps."""
    tenant_counter = registry.counter("fleet_tenant_requests_total",
                                      _TENANT_HELP)
    for name, tenant in stats.tenants.items():
        for outcome, value in (("completed", tenant.completed),
                               ("failed", tenant.failed),
                               ("shed", tenant.shed)):
            if value:
                tenant_counter.inc(value, outcome=outcome, tenant=name)
    if stats.shed_unroutable:
        registry.counter("fleet_requests_total", _REQUESTS_HELP).inc(
            stats.shed_unroutable, outcome="unroutable", region="-")


# ----------------------------------------------------------------------
# Region runtime state
# ----------------------------------------------------------------------

class _RegionState:
    """Mutable per-replay state of one region: an :class:`InstancePool`
    plus what the fleet layer wires around it — drain windows, the
    autoscaling policy (keep-alive override, warm floor, restore
    billing, and the scaler that updates the pool's spawn cap) and,
    when metrics are on, the queue-depth tracker.

    Routing reads ``routable`` / ``predicted_wait`` / ``has_warm_idle``;
    the last two are the pool's own queries.  :meth:`tick` and
    :meth:`step` are the region sequence, written once: the per-arrival
    loop and the static path's stepping replay both drive them.
    """

    def __init__(self, config: RegionConfig, server: InferenceServer,
                 policy: AutoscalePolicy, model: str, batch: int,
                 retention: Optional[str], ring: int,
                 pack_policy: Optional[PackPolicy] = None,
                 pack: Optional[KernelPack] = None,
                 region_index: int = 0,
                 fabric: Optional[RegistryFabric] = None) -> None:
        self.config = config
        self.policy = policy
        self.index = region_index
        actor = f"region:{config.name}"
        cold, warm = service_times(server, config.scheme, model, batch)
        injector: Optional[FaultInjector] = (
            config.faults.injector() if config.faults is not None else None)
        self.stats = RegionStats(name=config.name, device=config.device)
        if injector is not None:
            self.stats.faults = injector.counters
        recorder: Optional[TraceRecorder] = None
        if retention is not None:
            recorder = TraceRecorder(retention=retention, ring_size=ring)
            self.stats.trace = recorder
        # Kernel-pack fetch ladder: this region's store, running against
        # its own registry (dark during its outage windows) with
        # cross-region failover through ``fabric``.
        pack_state: Optional[PackStoreState] = None
        if pack_policy is not None:
            pack_state = PackStoreState(
                pack_policy, pack, injector, recorder, actor=actor,
                region_index=region_index, fabric=fabric)
            self.stats.packs = pack_state.counters
        keep_alive = (policy.idle_timeout_s
                      if policy.idle_timeout_s is not None
                      else config.keep_alive_s)
        self.pool = InstancePool(
            self.stats, cold=cold, warm=warm, keep_alive=keep_alive,
            cap=config.max_instances, floor=policy.min_instances,
            actor=actor, pack_state=pack_state, faults=config.faults,
            injector=injector, recorder=recorder)
        if policy.checkpoint_restore:
            # Scale-up spawns restore a warm-state checkpoint once the
            # region has ever run (billed as a restore, not a cold start).
            self.pool.restore_cost = (policy.restore_overhead_s
                                      + self.pool.cold_extra
                                      / policy.restore_speedup)
        self.scaler = AutoscalerState(policy, self.pool)
        self.predicted_wait = self.pool.predicted_wait
        self.has_warm_idle = self.pool.has_warm_idle

    def routable(self, now: float) -> bool:
        """A region is routable unless drained: capacity can always be
        spawned (the arrival pays the cold start), so only an explicit
        drain takes a region out of rotation."""
        return not any(start <= now < end
                       for start, end in self.config.drain_windows)

    def tick(self, k: int, t: float, log) -> None:
        """The idle tick fleet arrival ``k`` drives in every region,
        routed here or not (reactive scale-down)."""
        downs = self.scaler.idle_tick(t)
        if downs and log is not None:
            log.append(FleetEvent(k, "scale-down", self.index, downs,
                                  self.pool.cap))

    def step(self, k: int, t: float, shed_wait: Optional[float],
             log) -> int:
        """Arrival ``k`` was routed here: shed check, autoscaler
        observation, prewarm and serve, in that order.  Returns the
        outcome code; with a ``log`` it appends each decision."""
        if shed_wait is not None:
            wait = self.pool.predicted_wait(t)
            if wait > shed_wait:
                self.stats.shed += 1
                if log is not None:
                    log.append(FleetEvent(k, "shed", self.index, wait))
                return SHED
        if log is not None:
            log.append(FleetEvent(k, "route", self.index))
        grew, extra = self.scaler.observe_arrival(t)
        if grew and log is not None:
            log.append(FleetEvent(k, "scale-up", self.index, grew,
                                  self.pool.cap))
        if extra:
            spawned, restored = self.pool.prewarm(extra, t)
            if spawned and log is not None:
                log.append(FleetEvent(k, "prewarm", self.index, spawned,
                                      restored))
        return self.pool.serve(t)

    def last_latency(self) -> float:
        return self.stats.latencies[-1]


# ----------------------------------------------------------------------
# The simulator
# ----------------------------------------------------------------------

# Per-device server cache: fleets instantiate regions by device name;
# building one InferenceServer per device per process keeps replays fast
# and lets the cluster-level service-time memo (_SERVICE_TIMES) be
# shared across every fleet and cluster in the process.
_FLEET_SERVERS: Dict[str, InferenceServer] = {}


def _server_for(device: str,
                override: Optional[Dict[str, InferenceServer]]) -> \
        InferenceServer:
    if override is not None and device in override:
        return override[device]
    if device not in _FLEET_SERVERS:
        _FLEET_SERVERS[device] = InferenceServer(device)
    return _FLEET_SERVERS[device]


class FleetSimulator:
    """Replays a (multi-tenant) trace against a multi-region fleet."""

    def __init__(self, config: FleetConfig, metrics=None, spans=None,
                 slo: Optional[SLOPolicy] = None,
                 servers: Optional[Dict[str, InferenceServer]] = None
                 ) -> None:
        self.config = config
        self.metrics = metrics
        self.spans = spans
        self.slo = slo
        self._servers = servers
        if (config.resilience is not None
                and not config.resilience.is_inert
                and not config.is_single_cluster):
            raise ValueError(
                "a non-inert resilience policy is honoured on the "
                "single-cluster delegation path only; attach it to the "
                "regions' ClusterSimulator runs or use one region with "
                "inert routing/autoscaling")

    def run(self, trace) -> FleetStats:
        """Replay ``trace`` (a :class:`RequestTrace` or
        :class:`FleetTrace`) and collect fleet statistics."""
        if isinstance(trace, RequestTrace):
            trace = FleetTrace.from_request_trace(trace)
        config = self.config
        if config.is_single_cluster and len(trace.tenant_names) == 1:
            return self._run_delegated(trace)
        # Packs couple regions through the registry fabric, and span
        # capture binds retained traces in-region: both stay per-arrival.
        if (config.fast_forward and config.packs is None
                and (self.spans is None or config.trace_retention is None)):
            stats = self._run_static(trace)
            if stats is not None:
                return stats
        return self._run_per_arrival(trace)

    # -- delegation path ----------------------------------------------

    def _run_delegated(self, trace: FleetTrace) -> FleetStats:
        region = self.config.regions[0]
        # SLO monitors need the per-request stepping stream; disabling
        # fast-forward changes only ``stats.fast_forwarded`` — the
        # ff==stepping byte-identity contract guarantees every other
        # stat is unchanged (golden-pinned).
        monitors = SLOMonitorSet(self.slo) if self.slo is not None \
            else None
        cluster_config = ClusterConfig(
            scheme=region.scheme,
            max_instances=region.max_instances,
            keep_alive_s=region.keep_alive_s,
            faults=region.faults,
            trace_retention=self.config.trace_retention,
            trace_ring=self.config.trace_ring,
            fast_forward=(self.config.fast_forward
                          and monitors is None),
            resilience=self.config.resilience,
            packs=self.config.packs)
        sim = ClusterSimulator(_server_for(region.device, self._servers),
                               cluster_config, metrics=None,
                               spans=self.spans, monitors=monitors)
        cluster_stats = sim.run(trace.to_request_trace())
        stats = FleetStats(offered=len(trace), delegated=True)
        stats.regions[region.name] = RegionStats.from_cluster(
            region.name, region.device, cluster_stats)
        tenant = TenantStats(name=trace.tenant_names[0],
                             offered=len(trace),
                             failed=cluster_stats.failed,
                             shed=cluster_stats.shed,
                             latencies=cluster_stats.latencies)
        stats.tenants[tenant.name] = tenant
        if monitors is not None:
            stats.monitors = monitors.summary()
        self._feed_metrics(stats, queue_peaks=None)
        return stats

    # -- per-region static path ---------------------------------------

    def _run_static(self, trace: FleetTrace) -> Optional[FleetStats]:
        """Replay each region's sub-stream in one shot when routing never
        reads region state; ``None`` when it does.  The same per-region
        replay and merge as ``run_fleet_sharded``'s static mode, run
        in-process: heap-analytic where a region is eligible, stepping
        otherwise."""
        # Local import: repro.fleet.parallel builds on this module.
        from repro.fleet.parallel import (_finalize_region,
                                          _replay_assigned,
                                          _static_assignment)
        assignment = _static_assignment(self.config, trace)
        if assignment is None:
            return None
        servers = self._servers
        stats, _ = _replay_assigned(
            self.config, trace, assignment,
            lambda jobs: [_finalize_region(job, servers) for job in jobs],
            metrics=self.metrics, spans=self.spans, slo=self.slo)
        return stats

    # -- per-arrival path ----------------------------------------------

    def _run_per_arrival(self, trace: FleetTrace) -> FleetStats:
        config = self.config
        spans = self.spans
        monitors = SLOMonitorSet(self.slo) if self.slo is not None \
            else None
        policy = config.autoscale if config.autoscale is not None \
            else AutoscalePolicy()
        # Region registries for the pack hierarchy: each region's own
        # outage windows, shared so every store can find the first lit
        # remote registry for cross-region failover.
        fabric: Optional[RegistryFabric] = None
        if config.packs is not None:
            fabric = RegistryFabric([
                rc.faults.registry_outage_windows
                if rc.faults is not None else ()
                for rc in config.regions])
        regions: List[_RegionState] = []
        for region_index, region_config in enumerate(config.regions):
            server = _server_for(region_config.device, self._servers)
            pack: Optional[KernelPack] = None
            if config.packs is not None:
                pack = pack_for(server, trace.model, region_config.scheme,
                                trace.batch)
            state = _RegionState(region_config, server, policy,
                                 trace.model, trace.batch,
                                 config.trace_retention, config.trace_ring,
                                 pack_policy=config.packs, pack=pack,
                                 region_index=region_index, fabric=fabric)
            if spans is not None and state.stats.trace is not None:
                spans.bind(state.stats.trace)
            if self.metrics is not None:
                state.pool.queue_depth = _QueueDepthTracker()
            regions.append(state)
        stats = FleetStats(offered=len(trace))
        tenants = [TenantStats(name=name) for name in trace.tenant_names]
        router = RouterState(config.routing)
        shed_wait = config.shed_wait_s
        # Only reactive scalers act on the idle tick.
        ticking = regions if policy.kind == "reactive" else ()
        # Decisions render as they are made, so they keep their place
        # among the spans the bound trace recorders mirror.
        log = _SpanLog(spans, config, trace) if spans is not None else None
        for k, (t, tenant_index) in enumerate(zip(trace.arrivals,
                                                  trace.tenants)):
            for region in ticking:
                region.tick(k, t, log)
            choice = router.choose(regions, t)
            code = next_latency = None
            if choice is not None:
                region = regions[choice]
                code = region.step(k, t, shed_wait, log)
                next_latency = region.last_latency
            _settle(stats, tenants[tenant_index], k, t, code, next_latency,
                    monitors, log)
        for region in regions:
            stats.regions[region.config.name] = region.stats
        for tenant in tenants:
            stats.tenants[tenant.name] = tenant
        if monitors is not None:
            stats.monitors = monitors.summary()
        queue_peaks = None
        if self.metrics is not None:
            queue_peaks = {region.config.name: region.pool.queue_depth.peak
                           for region in regions}
        self._feed_metrics(stats, queue_peaks)
        return stats

    # -- telemetry -----------------------------------------------------

    def _feed_metrics(self, stats: FleetStats,
                      queue_peaks: Optional[Dict[str, int]]) -> None:
        """Feed the metrics registry once from the collected stats (the
        same fed-at-the-end pattern the cluster uses, so the scheduling
        loops stay untouched)."""
        if self.metrics is None:
            return
        for name, region in stats.regions.items():
            peak = queue_peaks.get(name) if queue_peaks is not None else None
            _feed_region_metrics(self.metrics, region,
                                 self.config.routing.kind, peak)
        _feed_tenant_metrics(self.metrics, stats)
