"""Simulator throughput profiling behind ``repro profile``.

Reports the three numbers the perf work optimizes for:

- **wall-clock per simulated request** on a cluster trace replay (and
  the fraction of requests served by the steady-state fast path),
- **peak retained trace records** (bounded by the ring under
  ``retention="aggregate"``, unbounded under ``"full"``),
- **event-kernel throughput** — raw scheduled events per second through
  :class:`~repro.sim.core.Environment`.

All simulated results stay deterministic; only the wall-clock readings
vary between machines, which is why they live here and not in the
deterministic ``BENCH_*.json`` cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from repro.core.schemes import Scheme
from repro.serving.cluster import ClusterConfig, ClusterSimulator
from repro.serving.requests import poisson_trace
from repro.serving.server import InferenceServer
from repro.sim.core import Environment

__all__ = ["ClusterProfile", "EventKernelProfile", "FleetProfile",
           "FleetTelemetryProfile", "PackProfile", "TelemetryProfile",
           "profile_cluster", "profile_event_kernel", "profile_fleet",
           "profile_fleet_telemetry", "profile_packs",
           "profile_telemetry"]


@dataclass(frozen=True)
class ClusterProfile:
    """Wall-clock and memory profile of one cluster trace replay."""

    requests: int
    wall_s: float
    fast_forwarded: int
    trace_records: int
    peak_retained_records: int
    cold_starts: int
    mean_latency_s: float

    @property
    def wall_per_request_s(self) -> float:
        """Wall-clock seconds spent per simulated request."""
        return self.wall_s / self.requests if self.requests else 0.0

    @property
    def requests_per_s(self) -> float:
        """Simulated requests replayed per wall-clock second."""
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def fast_forward_fraction(self) -> float:
        """Share of requests served by the analytic fast path."""
        return (self.fast_forwarded / self.requests
                if self.requests else 0.0)


@dataclass(frozen=True)
class EventKernelProfile:
    """Raw throughput of the discrete-event kernel."""

    events: int
    wall_s: float

    @property
    def events_per_s(self) -> float:
        """Scheduled events processed per wall-clock second."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


def profile_cluster(device: str = "MI100", model: str = "res",
                    scheme: Scheme = Scheme.PASK,
                    requests: int = 100_000, rate_hz: float = 20.0,
                    instances: int = 4, keep_alive_s: float = 0.5,
                    seed: int = 0,
                    trace_retention: Optional[str] = "aggregate",
                    trace_ring: int = 1024,
                    fast_forward: bool = True) -> ClusterProfile:
    """Replay a ~``requests``-arrival Poisson trace and time it.

    ``requests`` sets the trace duration (``requests / rate_hz``), so
    the actual arrival count is Poisson-distributed around it; the
    returned profile reports the exact count.  Trace generation and
    server construction are excluded from the timed section — the
    profile isolates the simulator's replay loop.
    """
    if requests <= 0:
        raise ValueError("requests must be positive")
    if rate_hz <= 0:
        raise ValueError("rate_hz must be positive")
    server = InferenceServer(device)
    trace = poisson_trace(model, rate_hz, requests / rate_hz, seed=seed)
    config = ClusterConfig(scheme=scheme, max_instances=instances,
                           keep_alive_s=keep_alive_s,
                           trace_retention=trace_retention,
                           trace_ring=trace_ring,
                           fast_forward=fast_forward)
    simulator = ClusterSimulator(server, config)
    began = perf_counter()
    stats = simulator.run(trace)
    wall = perf_counter() - began
    recorder = stats.trace
    return ClusterProfile(
        requests=stats.requests,
        wall_s=wall,
        fast_forwarded=stats.fast_forwarded,
        trace_records=recorder.record_count if recorder is not None else 0,
        peak_retained_records=(recorder.retained_records
                               if recorder is not None else 0),
        cold_starts=stats.cold_starts,
        mean_latency_s=stats.mean_latency,
    )


@dataclass(frozen=True)
class FleetProfile:
    """Wall-clock profile of one sharded fleet trace replay."""

    requests: int
    regions: int
    jobs: int
    mode: str                      # "delegated" | "static" | "serial"
    wall_s: float
    serial_wall_s: float           # 0.0 unless compare_serial was set
    fast_forwarded: int            # requests served by the analytic path
    region_wall_s: dict
    mean_latency_s: float

    @property
    def wall_per_request_s(self) -> float:
        """Wall-clock seconds spent per simulated request."""
        return self.wall_s / self.requests if self.requests else 0.0

    @property
    def requests_per_s(self) -> float:
        """Simulated requests replayed per wall-clock second."""
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def fast_forward_fraction(self) -> float:
        """Share of requests served by the analytic shard fast path."""
        return (self.fast_forwarded / self.requests
                if self.requests else 0.0)

    @property
    def speedup(self) -> float:
        """Serial wall over sharded wall (0.0 without a serial run)."""
        if self.serial_wall_s <= 0 or self.wall_s <= 0:
            return 0.0
        return self.serial_wall_s / self.wall_s


def profile_fleet(device: str = "MI100", model: str = "res",
                  scheme: Scheme = Scheme.PASK,
                  requests: int = 1_000_000, rate_hz: float = 200.0,
                  regions: int = 4, instances: int = 4,
                  keep_alive_s: float = 0.5,
                  routing: str = "round-robin", seed: int = 0,
                  jobs: int = 1,
                  compare_serial: bool = False) -> FleetProfile:
    """Replay a ~``requests``-arrival fleet trace, sharded, and time it.

    The fleet is ``regions`` identical clusters of ``instances``
    instances on ``device``.  The trace ships to workers as a seeded
    :class:`~repro.fleet.parallel.TraceSpec` — workers regenerate the
    arrivals locally, which is what keeps 1e7–1e8-request profiles from
    pickling the stream.  With ``compare_serial`` the identical trace is
    also replayed through the serial ``FleetSimulator`` and the
    profile's ``speedup`` reports serial/sharded wall.  One untimed
    replay runs before both timed legs, so both find the service-time
    memos filled and equal code reports 1.0x.
    """
    if requests <= 0:
        raise ValueError("requests must be positive")
    if rate_hz <= 0:
        raise ValueError("rate_hz must be positive")
    if regions <= 0:
        raise ValueError("regions must be positive")
    # Local imports: repro.fleet pulls in this module's package sibling
    # reports via repro.runner, so a top-level import would cycle.
    from repro.fleet.fleet import FleetConfig, FleetSimulator, RegionConfig
    from repro.fleet.parallel import TraceSpec, run_fleet_sharded
    from repro.fleet.routing import RoutingPolicy
    config = FleetConfig(
        regions=tuple(
            RegionConfig(name=f"r{i}", device=device, scheme=scheme,
                         max_instances=instances,
                         keep_alive_s=keep_alive_s)
            for i in range(regions)),
        routing=RoutingPolicy(routing))
    spec = TraceSpec(model=model, rate_hz=rate_hz,
                     duration_s=requests / rate_hz, seed=seed)
    trace = spec.materialize()
    serial_wall = 0.0
    if compare_serial:
        FleetSimulator(config).run(trace)   # untimed warm-up
        began = perf_counter()
        FleetSimulator(config).run(trace)
        serial_wall = perf_counter() - began
    began = perf_counter()
    stats, report = run_fleet_sharded(config, trace, jobs=jobs,
                                      trace_spec=spec)
    wall = perf_counter() - began
    latencies = [lat for region in stats.regions.values()
                 for lat in region.latencies]
    mean_latency = sum(latencies) / len(latencies) if latencies else 0.0
    return FleetProfile(
        requests=stats.offered,
        regions=regions,
        jobs=max(1, jobs),
        mode=report.mode,
        wall_s=wall,
        serial_wall_s=serial_wall,
        fast_forwarded=report.analytic_total,
        region_wall_s=dict(report.region_wall_s),
        mean_latency_s=mean_latency,
    )


@dataclass(frozen=True)
class FleetTelemetryProfile:
    """Wall-clock cost of fleet telemetry on a sharded replay.

    Two measured replays of the identical fleet trace: telemetry off
    (no sinks passed — the zero-allocation path) and telemetry on
    (metrics + decision spans + SLO monitors all enabled).  The
    simulated stats are byte-identical either way; only wall-clock
    differs.
    """

    requests: int
    mode: str
    wall_off_s: float
    wall_on_s: float
    spans: int                     # decision spans the on-run captured
    alerts: int                    # SLO alerts the monitors emitted

    @property
    def per_request_off_s(self) -> float:
        """Wall-clock per request with telemetry disabled."""
        return self.wall_off_s / self.requests if self.requests else 0.0

    @property
    def per_request_on_s(self) -> float:
        """Wall-clock per request with telemetry enabled."""
        return self.wall_on_s / self.requests if self.requests else 0.0

    @property
    def overhead_fraction(self) -> float:
        """Relative slowdown of the telemetry-on path (0.1 = +10%)."""
        if self.wall_off_s <= 0:
            return 0.0
        return self.wall_on_s / self.wall_off_s - 1.0


def profile_fleet_telemetry(device: str = "MI100", model: str = "res",
                            scheme: Scheme = Scheme.PASK,
                            requests: int = 10_000,
                            rate_hz: float = 200.0,
                            regions: int = 2, instances: int = 4,
                            keep_alive_s: float = 0.5,
                            routing: str = "warm-first", seed: int = 0,
                            jobs: int = 1) -> FleetTelemetryProfile:
    """Time the identical sharded fleet replay with telemetry off vs on.

    The on-run enables every sink at once — a
    :class:`~repro.obs.metrics.MetricsRegistry`, a
    :class:`~repro.obs.spans.SpanRecorder` for the control-plane
    decision spans, and :class:`~repro.obs.monitors.SLOMonitorSet`
    burn-rate monitors under a default
    :class:`~repro.obs.monitors.SLOPolicy` — so the overhead reading is
    the worst case a ``repro fleet --telemetry`` run pays.
    """
    if requests <= 0:
        raise ValueError("requests must be positive")
    if rate_hz <= 0:
        raise ValueError("rate_hz must be positive")
    if regions <= 0:
        raise ValueError("regions must be positive")
    from repro.fleet.fleet import FleetConfig, RegionConfig
    from repro.fleet.parallel import TraceSpec, run_fleet_sharded
    from repro.fleet.routing import RoutingPolicy
    from repro.obs import MetricsRegistry, SLOPolicy, SpanRecorder
    config = FleetConfig(
        regions=tuple(
            RegionConfig(name=f"r{i}", device=device, scheme=scheme,
                         max_instances=instances,
                         keep_alive_s=keep_alive_s)
            for i in range(regions)),
        routing=RoutingPolicy(routing))
    spec = TraceSpec(model=model, rate_hz=rate_hz,
                     duration_s=requests / rate_hz, seed=seed)
    trace = spec.materialize()
    began = perf_counter()
    stats_off, report = run_fleet_sharded(config, trace, jobs=jobs,
                                          trace_spec=spec)
    wall_off = perf_counter() - began
    spans = SpanRecorder()
    began = perf_counter()
    stats_on, _ = run_fleet_sharded(config, trace, jobs=jobs,
                                    trace_spec=spec,
                                    metrics=MetricsRegistry(),
                                    spans=spans,
                                    slo=SLOPolicy(p99_target_s=1.0,
                                                  cold_rate_target=0.5))
    wall_on = perf_counter() - began
    monitors = stats_on.monitors or {}
    return FleetTelemetryProfile(
        requests=stats_off.offered,
        mode=report.mode,
        wall_off_s=wall_off,
        wall_on_s=wall_on,
        spans=len(spans),
        alerts=len(monitors.get("alerts", ())),
    )


@dataclass(frozen=True)
class TelemetryProfile:
    """Wall-clock cost of causal-span telemetry on a cold serve.

    Two measured configurations of the identical simulation: spans off
    (the :data:`~repro.obs.spans.NULL_RECORDER` path, which allocates no
    span objects — pinned by a unit test) and spans + metrics on.
    """

    requests: int
    wall_off_s: float
    wall_on_s: float
    spans_per_request: int

    @property
    def per_request_off_s(self) -> float:
        """Wall-clock per request with telemetry disabled."""
        return self.wall_off_s / self.requests if self.requests else 0.0

    @property
    def per_request_on_s(self) -> float:
        """Wall-clock per request with spans + metrics enabled."""
        return self.wall_on_s / self.requests if self.requests else 0.0

    @property
    def overhead_fraction(self) -> float:
        """Relative slowdown of the telemetry-on path (0.1 = +10%)."""
        if self.wall_off_s <= 0:
            return 0.0
        return self.wall_on_s / self.wall_off_s - 1.0


def profile_telemetry(device: str = "MI100", model: str = "res",
                      scheme: Scheme = Scheme.PASK,
                      requests: int = 3) -> TelemetryProfile:
    """Time identical cold serves with telemetry off versus on.

    Program compilation is excluded (one untimed warm-up serve), so the
    comparison isolates the simulation loop — which is where the span
    observer and metric increments live.
    """
    if requests <= 0:
        raise ValueError("requests must be positive")
    from repro.obs import MetricsRegistry, SpanRecorder
    server = InferenceServer(device)
    server.serve_cold(model, scheme)  # warm-up: compile + find-db
    began = perf_counter()
    for _ in range(requests):
        server.serve_cold(model, scheme)
    wall_off = perf_counter() - began
    span_count = 0
    began = perf_counter()
    for _ in range(requests):
        spans = SpanRecorder()
        server.serve_cold(model, scheme, spans=spans,
                          metrics=MetricsRegistry())
        span_count = len(spans)
    wall_on = perf_counter() - began
    return TelemetryProfile(requests=requests, wall_off_s=wall_off,
                            wall_on_s=wall_on,
                            spans_per_request=span_count)


@dataclass(frozen=True)
class PackProfile:
    """Wall-clock and modeled cost of the three spin-up strategies.

    Three measured replays of the identical scale-to-zero fleet trace,
    differing only in how a reclaimed instance comes back: full cold
    load, checkpoint restore (the autoscaler's ``checkpoint_restore``
    billing), or a kernel-pack fetch through the
    :class:`~repro.packs.PackStoreState` hierarchy.  The modeled
    latencies are deterministic simulation outputs; only the wall-clock
    readings vary between machines.
    """

    requests: int
    wall_cold_s: float
    wall_checkpoint_s: float
    wall_pack_s: float
    cold_starts: int               # cold leg: spin-ups billed cold
    checkpoint_restores: int       # checkpoint leg: restored spin-ups
    pack_restores: int             # pack leg: pack-restored serves
    pack_bytes: int                # pack leg: verified bytes fetched
    mean_latency_cold_s: float
    mean_latency_checkpoint_s: float
    mean_latency_pack_s: float

    @property
    def wall_per_request_pack_s(self) -> float:
        """Wall-clock seconds per simulated request on the pack leg."""
        return self.wall_pack_s / self.requests if self.requests else 0.0

    @property
    def modeled_speedup_vs_cold(self) -> float:
        """Modeled mean-latency speedup of pack restore over cold load."""
        if self.mean_latency_pack_s <= 0:
            return 0.0
        return self.mean_latency_cold_s / self.mean_latency_pack_s

    @property
    def modeled_speedup_vs_checkpoint(self) -> float:
        """Modeled mean-latency speedup over checkpoint restore."""
        if self.mean_latency_pack_s <= 0:
            return 0.0
        return self.mean_latency_checkpoint_s / self.mean_latency_pack_s


def profile_packs(device: str = "MI100", model: str = "res",
                  scheme: Scheme = Scheme.PASK,
                  requests: int = 5_000, rate_hz: float = 50.0,
                  instances: int = 2, idle_timeout_s: float = 0.05,
                  seed: int = 0) -> PackProfile:
    """Time pack restore against checkpoint restore and cold load.

    One single-region scale-to-zero fleet replays the identical Poisson
    trace three times; the aggressive ``idle_timeout_s`` keeps the pool
    collapsing between bursts so spin-ups recur throughout the trace.
    The serial :class:`~repro.fleet.fleet.FleetSimulator` runs all
    three legs, so the wall-clock comparison isolates the spin-up
    accounting paths rather than sharding differences.
    """
    if requests <= 0:
        raise ValueError("requests must be positive")
    if rate_hz <= 0:
        raise ValueError("rate_hz must be positive")
    from repro.fleet.autoscale import AutoscalePolicy
    from repro.fleet.fleet import FleetConfig, FleetSimulator, RegionConfig
    from repro.packs import PackPolicy
    from repro.serving.requests import poisson_trace

    def leg(checkpoint_restore: bool, packs):
        config = FleetConfig(
            regions=(RegionConfig(name="r0", device=device, scheme=scheme,
                                  max_instances=instances,
                                  keep_alive_s=idle_timeout_s),),
            autoscale=AutoscalePolicy(kind="scale-to-zero",
                                      idle_timeout_s=idle_timeout_s,
                                      checkpoint_restore=checkpoint_restore),
            packs=packs)
        trace = poisson_trace(model, rate_hz, requests / rate_hz,
                              seed=seed)
        simulator = FleetSimulator(config)
        began = perf_counter()
        stats = simulator.run(trace)
        wall = perf_counter() - began
        region = stats.regions["r0"]
        latencies = region.latencies
        mean = sum(latencies) / len(latencies) if latencies else 0.0
        return stats, region, wall, mean

    cold_stats, cold_region, wall_cold, mean_cold = leg(False, None)
    _, ckpt_region, wall_ckpt, mean_ckpt = leg(True, None)
    _, pack_region, wall_pack, mean_pack = leg(False, PackPolicy())
    pack_counters = pack_region.packs
    return PackProfile(
        requests=cold_stats.offered,
        wall_cold_s=wall_cold,
        wall_checkpoint_s=wall_ckpt,
        wall_pack_s=wall_pack,
        cold_starts=cold_region.cold_starts,
        checkpoint_restores=ckpt_region.restores,
        pack_restores=pack_region.pack_restores,
        pack_bytes=(pack_counters.bytes_verified
                    if pack_counters is not None else 0),
        mean_latency_cold_s=mean_cold,
        mean_latency_checkpoint_s=mean_ckpt,
        mean_latency_pack_s=mean_pack,
    )


def profile_event_kernel(events: int = 100_000) -> EventKernelProfile:
    """Drain a timeout-chain process and measure raw kernel throughput.

    One loop iteration schedules a delayed timeout and resumes the
    process — the dominant pattern on the simulator's hot path.  The
    profile counts every scheduled event (``Environment.events_scheduled``),
    not just the explicit timeouts.
    """
    if events <= 0:
        raise ValueError("events must be positive")
    env = Environment()

    def churn():
        for _ in range(events):
            yield env.timeout(1e-6)

    env.process(churn())
    began = perf_counter()
    env.run()
    wall = perf_counter() - began
    return EventKernelProfile(events=env.events_scheduled, wall_s=wall)
