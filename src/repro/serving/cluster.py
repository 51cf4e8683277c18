"""Autoscaling cluster simulator: cold starts under real request traffic.

Models the serverless/spot serving loop of the paper's introduction: a
pool of instances serves a request trace; a request landing on a warm,
idle instance runs at hot latency, while one that must spawn a fresh
instance pays the full cold start of the configured scheme.  Instances
are reclaimed after a keep-alive timeout, so sparse traffic keeps
re-triggering cold starts.

The per-request service times come from the deterministic simulation
(:class:`~repro.serving.server.InferenceServer`); the cluster layer adds
queueing, autoscaling and keep-alive on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.schemes import Scheme
from repro.obs.monitors import emit_alert_spans
from repro.packs.artifact import pack_for
from repro.packs.store import (PackPolicy, PackStoreState,
                               PackTransferCounters, feed_pack_metrics)
from repro.serving.metrics import percentile as nearest_rank_percentile
from repro.serving.pool import InstancePool, observe_outcome, service_times
from repro.serving.requests import RequestTrace
from repro.serving.resilience import ResiliencePolicy, ResilienceState
from repro.serving.server import InferenceServer
from repro.sim.faults import FaultCounters, FaultInjector, FaultPlan
from repro.sim.trace import RETENTION_POLICIES, TraceRecorder

__all__ = ["ClusterConfig", "ClusterStats", "ClusterSimulator"]


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster policy knobs."""

    scheme: Scheme = Scheme.BASELINE
    max_instances: int = 8
    keep_alive_s: float = 10.0     # idle instances reclaimed after this
    # Optional fault plan: instance crash/restart churn during the
    # replay (``cluster.request`` injection point).
    faults: Optional[FaultPlan] = None
    # Request-level tracing: ``None`` (default) records nothing, keeping
    # the replay byte-identical to the pre-tracing simulator; ``"full"``
    # retains every per-request interval; ``"aggregate"`` retains only
    # streaming aggregates plus a ``trace_ring``-bounded ring of recent
    # records (see repro.sim.trace).
    trace_retention: Optional[str] = None
    trace_ring: int = 1024
    # Analytic fast-forward: requests are replayed through an O(log n)
    # heap recurrence instead of the full scheduling scan — including
    # partial-warm pools (cold spawns become a warm-up frontier in the
    # heap), keep-alive reclaims, and fault plans (the replay
    # fast-forwards *between* pre-sampled fault sites).  Results are
    # byte-identical either way (pinned by tests); the knob exists so
    # benchmarks can measure the win.  A non-inert resilience policy
    # still forces event stepping.
    fast_forward: bool = True
    # Resilience layer (repro.serving.resilience): warm-state
    # checkpoint/restore, crash-loop supervision, admission control and
    # graceful drain.  ``None`` (default) -- and any *inert* policy --
    # leaves the replay byte-identical to the pre-resilience simulator.
    resilience: Optional[ResiliencePolicy] = None
    # Kernel-pack fetch hierarchy (repro.packs): cold spawns try to
    # restore warm state from a content-addressed pack — local disk,
    # then a warm peer, then the origin registry — before degrading to
    # the full cold load.  ``None`` (default) is byte-inert; the pack
    # fault sites are never consulted even if the fault plan carries
    # pack rates or outage windows.
    packs: Optional[PackPolicy] = None

    def __post_init__(self) -> None:
        if not isinstance(self.max_instances, int):
            raise ValueError("max_instances must be an integer")
        if self.max_instances <= 0:
            raise ValueError("need at least one instance")
        if (self.packs is not None and self.resilience is not None
                and not self.resilience.is_inert):
            raise ValueError(
                "kernel packs and a non-inert resilience policy both "
                "redefine the cold-spawn path; configure one of them "
                "(checkpoint/restore already ships warm state per "
                "instance — packs generalize it across instances)")
        if not self.keep_alive_s >= 0:
            raise ValueError("keep-alive must be non-negative")
        if (self.trace_retention is not None
                and self.trace_retention not in RETENTION_POLICIES):
            raise ValueError(
                f"unknown trace retention {self.trace_retention!r}; "
                f"expected None or one of {RETENTION_POLICIES}")
        if not isinstance(self.trace_ring, int):
            raise ValueError("trace_ring must be an integer")
        if self.trace_ring <= 0:
            raise ValueError("trace_ring must be positive")


@dataclass
class ClusterStats:
    """Outcome of one trace replay."""

    latencies: List[float] = field(default_factory=list)
    cold_starts: int = 0
    warm_hits: int = 0
    queue_waits: List[float] = field(default_factory=list)
    failed: int = 0   # requests explicitly failed (reroute budget spent)
    shed: int = 0     # requests rejected up front by admission control
    faults: FaultCounters = field(default_factory=FaultCounters)
    # Request-level trace (None unless ClusterConfig.trace_retention set).
    trace: Optional[TraceRecorder] = None
    # Requests replayed through the steady-state fast path.
    fast_forwarded: int = 0
    # Cold spawns restored from a kernel pack instead of a full cold
    # load (counted separately from cold_starts so the hierarchy's
    # savings are directly measurable).
    pack_restores: int = 0
    # Serves by instances the resilience supervisor restarted from a
    # warm-state checkpoint (outcome ``RESTORE``, not a cold start).
    restores: int = 0
    # Pack fetch-hierarchy accounting (None unless ClusterConfig.packs
    # is set), including the byte-conservation ledger.
    packs: Optional[PackTransferCounters] = None

    @property
    def completed(self) -> int:
        """Requests that finished successfully."""
        return len(self.latencies)

    @property
    def requests(self) -> int:
        """Total requests accounted for: every offered request is
        exactly one of completed, explicitly failed, or shed."""
        return len(self.latencies) + self.failed + self.shed

    @property
    def availability(self) -> float:
        """Fraction of *served* requests that completed successfully.

        Shed requests are excluded from the denominator: admission
        control rejects them immediately with a well-defined error
        (the shed-adjusted availability the SLO is stated against),
        which is not the same failure as a request that was accepted
        and then lost.  With nothing shed this is exactly the historic
        completed/requests ratio.
        """
        finished = self.completed + self.failed
        if not finished:
            return 1.0
        return self.completed / finished

    @property
    def mean_latency(self) -> float:
        """Arithmetic mean of per-request latency.

        ``0.0`` when nothing completed (e.g. every request was
        explicitly failed by a fault plan) — a replay must always be
        reportable, crash-free, whatever the fault plan did.
        """
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def percentile(self, q: float) -> float:
        """The q-quantile (0..1) of request latency, by nearest rank.

        Delegates to :func:`repro.serving.metrics.percentile` (the same
        definition the metrics registry summaries use), except that an
        empty sample returns ``0.0`` instead of raising, for the same
        reason as :attr:`mean_latency`.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile out of range: {q}")
        if not self.latencies:
            return 0.0
        return nearest_rank_percentile(self.latencies, q)

    @property
    def cold_start_fraction(self) -> float:
        """Share of requests that paid a cold start."""
        return self.cold_starts / self.requests if self.requests else 0.0


class ClusterSimulator:
    """Replays a request trace against an autoscaled instance pool."""

    def __init__(self, server: InferenceServer, config: ClusterConfig,
                 metrics=None, spans=None, monitors=None) -> None:
        self.server = server
        self.config = config
        # Telemetry (repro.obs), all optional.  ``spans`` requires a
        # trace retention policy — spans mirror the cluster's trace
        # records, including the ones the fast-forward path synthesizes.
        # ``monitors`` (an SLOMonitorSet) observes every completed /
        # failed request from the stepping loop; it needs the
        # per-request stream, so fast-forward must be off.
        self.metrics = metrics
        self.spans = spans
        self.monitors = monitors
        if monitors is not None and config.fast_forward:
            raise ValueError(
                "SLO monitors evaluate the per-request stepping stream; "
                "build the ClusterConfig with fast_forward=False")
        if metrics is not None:
            self._m_requests = metrics.counter(
                "cluster_requests_total", "Requests served by outcome")
            self._m_queue_wait = metrics.histogram(
                "cluster_queue_wait_seconds", "Request queueing delay")
            self._m_latency = metrics.histogram(
                "cluster_latency_seconds", "End-to-end request latency")

    def _warm_time(self, model: str, batch: int) -> float:
        """Hot serve time of ``model`` at ``batch`` on this server."""
        return service_times(self.server, self.config.scheme, model,
                             batch)[1]

    def run(self, trace: RequestTrace) -> ClusterStats:
        """Replay ``trace`` and collect per-request statistics.

        With a fault plan configured, instances may crash mid-request
        (``cluster.request`` injection point): the request is rerouted
        to another instance (up to ``max_reroutes`` times before it is
        *explicitly failed*), and the crashed instance restarts cold --
        its PASK cache is gone, so the next request it serves pays the
        full cold start again.  Every request is therefore accounted
        for: ``stats.completed + stats.failed == len(trace)``.

        Whenever every pooled instance is warm (vacuously from the very
        first arrival), requests are fast-forwarded through
        :meth:`InstancePool.fast_forward` — cold spawns, reclaims and
        queueing included.  With a fault plan, the injector pre-samples
        the next ``cluster.request`` failure and the window up to it
        replays analytically; the crash itself (and the pool until it
        is all-warm again) steps through :meth:`InstancePool.serve`, so
        crash/reroute accounting is identical draw-for-draw.
        """
        config = self.config
        stats = ClusterStats()
        if config.trace_retention is not None:
            stats.trace = TraceRecorder(retention=config.trace_retention,
                                        ring_size=config.trace_ring)
        recorder = stats.trace
        if self.spans is not None and recorder is not None:
            self.spans.bind(recorder)
        injector: Optional[FaultInjector] = (
            config.faults.injector() if config.faults is not None else None)
        if injector is not None:
            stats.faults = injector.counters
        counters = stats.faults
        cold, warm = service_times(self.server, config.scheme, trace.model,
                                   trace.batch)
        pool = InstancePool(stats, cold=cold, warm=warm,
                            keep_alive=config.keep_alive_s,
                            cap=config.max_instances, faults=config.faults,
                            injector=injector, recorder=recorder)
        # Resilience layer: an inert policy is equivalent to none at
        # all, so the replay below stays byte-identical (golden tests).
        policy = config.resilience
        if policy is not None and not policy.is_inert:
            degraded_cold = (
                service_times(self.server, Scheme.BASELINE, trace.model,
                              trace.batch)[0]
                if policy.degrade_wait_s is not None else cold)
            restart_delay = (config.faults.restart_delay_s
                             if config.faults is not None
                             else FaultPlan().restart_delay_s)
            pool.resilience = ResilienceState(
                policy, counters, recorder, warm, pool.cold_extra,
                degraded_cold, restart_delay)
        # Kernel-pack hierarchy: derive the content-addressed pack for
        # this (scheme, model, batch) and stand up the per-replay fetch
        # ladder.  ``packs=None`` builds nothing — the replay below is
        # byte-identical to the pre-packs simulator.
        if config.packs is not None:
            pack = pack_for(self.server, trace.model, config.scheme,
                            trace.batch)
            pool.pack_state = PackStoreState(config.packs, pack, injector,
                                             recorder)
            stats.packs = pool.pack_state.counters
        arrivals = trace.arrivals
        # Fast-forward covers the fault-free dynamics in full.  With a
        # fault plan attached it runs *between* pre-sampled fault
        # sites: the injector previews how many ``cluster.request``
        # draws survive, that window replays analytically, and the
        # surviving draws are consumed in bulk so the downstream fault
        # sequence is byte-identical to stepping.  A non-inert
        # resilience policy or a pack hierarchy (stateful per-spawn
        # machinery) forces full stepping.
        can_fast_forward = (config.fast_forward and pool.resilience is None
                            and pool.pack_state is None)
        crash_rate = (config.faults.crash_rate
                      if config.faults is not None else 0.0)
        monitors = self.monitors
        instances = pool.instances
        index, n = 0, len(arrivals)
        while index < n:
            if can_fast_forward and all(inst.warm for inst in instances):
                if injector is None:
                    limit = n
                else:
                    limit = index + injector.preview_failures(
                        "cluster.request", crash_rate, n - index)
                if limit > index:
                    pool.fast_forward(arrivals[index:limit])
                    if injector is not None:
                        if crash_rate > 0.0:
                            injector.advance("cluster.request",
                                             limit - index)
                        counters.completed_requests += limit - index
                    index = limit
                if index >= n:
                    break
            arrival = arrivals[index]
            index += 1
            code = pool.serve(arrival)
            if monitors is not None:
                fresh = observe_outcome(monitors, arrival, code,
                                        stats.latencies)
                if fresh and self.spans is not None:
                    emit_alert_spans(self.spans, fresh)
        if self.metrics is not None:
            # Fed once from the collected stats (covers both the
            # stepping and fast-forward paths) so the hot scheduling
            # loop stays untouched.
            label = self.config.scheme.label
            if stats.warm_hits:
                self._m_requests.inc(stats.warm_hits,
                                     outcome="warm", scheme=label)
            if stats.cold_starts:
                self._m_requests.inc(stats.cold_starts,
                                     outcome="cold", scheme=label)
            if stats.failed:
                self._m_requests.inc(stats.failed,
                                     outcome="failed", scheme=label)
            if stats.shed:
                self._m_requests.inc(stats.shed,
                                     outcome="shed", scheme=label)
            if stats.pack_restores:
                self._m_requests.inc(stats.pack_restores,
                                     outcome="pack", scheme=label)
            if stats.restores:
                self._m_requests.inc(stats.restores,
                                     outcome="restore", scheme=label)
            if stats.packs is not None:
                feed_pack_metrics(self.metrics, stats.packs,
                                  scheme=label)
            if pool.resilience is not None:
                actions = self.metrics.counter(
                    "cluster_resilience_total",
                    "Resilience-layer actions by kind")
                for kind, value in (
                        ("shed", counters.shed_requests),
                        ("breaker_open", counters.breaker_opens),
                        ("breaker_probe", counters.breaker_probes),
                        ("warm_restore", counters.warm_restores),
                        ("restore_failure", counters.restore_failures),
                        ("checkpoint_corruption",
                         counters.checkpoint_corruptions),
                        ("drain", counters.drains),
                        ("degraded", counters.degraded_requests)):
                    if value:
                        actions.inc(value, kind=kind, scheme=label)
            wait_series = self._m_queue_wait.labels(scheme=label)
            for wait in stats.queue_waits:
                wait_series.observe(wait)
            latency_series = self._m_latency.labels(scheme=label)
            for latency in stats.latencies:
                latency_series.observe(latency)
        return stats
