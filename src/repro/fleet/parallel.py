"""Sharded optimistic-parallel fleet replay (time-warp semantics).

:func:`run_fleet_sharded` partitions a :class:`FleetSimulator` replay
by region across the runner's process pool and merges the shard
outputs so the result is **byte-identical** to the serial
``FleetSimulator.run`` — same latencies, counters, fault dictionaries,
trace records and tenant accounting (equivalence-pinned by
``tests/test_fleet_parallel.py`` and the ``repro fleet
--verify-serial`` CI gate).

The only cross-region coupling in a fleet replay is the *routing
decision*: ``idle_tick`` / ``observe_arrival`` / shedding / serving all
mutate the routed region alone.  That observation yields three
execution modes, picked automatically:

- **delegated** — a single-cluster fleet takes the existing delegation
  path untouched (cluster fast-forward included).
- **static** — routing that never reads region state (``single``,
  ``round-robin``, or a lone routable region) is precomputed exactly
  from the drain windows.  Every region then replays its own
  sub-stream in one shot; regions under ``fixed`` / ``scale-to-zero``
  autoscaling with no fault plan ride an analytic min-heap fast path
  (the fleet twin of the cluster fast-forward, warm floor / restore
  billing / shedding included).  Zero rollbacks by construction.  The
  serial ``FleetSimulator`` runs this same per-region replay and merge
  in-process (:func:`_replay_assigned`), so at ``jobs=1`` the two take
  the same time; only ``jobs > 1`` adds parallelism.
- **time-warp** — state-coupled routing (``least-queue`` /
  ``warm-first`` across >= 2 routable regions).  Shards simulate
  optimistically under a guessed assignment while recording the
  observation vector the router would have queried (predicted wait +
  warm-idle flag per arrival); the coordinator replays the router over
  those observations, verifies the longest correct prefix, rolls every
  shard back to its newest checkpoint at or before the first
  divergence (straggler message), and re-runs the tail under the
  corrected guess.  The verified prefix grows strictly every round, so
  the loop terminates; in a warm steady state one round usually
  suffices.  The final pass steps every region, as the serial
  per-arrival loop does (``fast_forwarded`` stays 0 on both).

Workers regenerate the arrival stream from a :class:`TraceSpec` when
one is supplied, so scaling to 1e8 requests never ships hundreds of
megabytes of arrivals through pickles.
"""

from __future__ import annotations

from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace
from time import perf_counter
from typing import Dict, List, Optional, Tuple, Union

from repro.fleet.autoscale import AutoscalePolicy
from repro.fleet.fleet import (FleetConfig, FleetSimulator, FleetStats,
                               FleetTrace, RegionConfig, RegionStats,
                               TenantStats, _QueueDepthTracker,
                               _RegionState, _emit_prewarm, _emit_route,
                               _emit_scale_down, _emit_scale_up,
                               _emit_shed, _emit_unroutable,
                               _feed_region_metrics, _feed_tenant_metrics,
                               _server_for)
from repro.fleet.routing import RouterState, RoutingPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitors import SLOMonitorSet, emit_alert_spans
from repro.serving.cluster import ClusterConfig, ClusterSimulator, _Instance
from repro.serving.requests import RequestTrace, poisson_trace
from repro.sim.trace import TraceRecorder

__all__ = ["TraceSpec", "ShardReport", "run_fleet_sharded",
           "equivalence_problems"]

DEFAULT_CHECKPOINT_EVERY = 2048

# Per-arrival outcome codes a shard reports back for tenant accounting.
# The detailed completed codes (cold / restore) let the coordinator
# replay SLO monitor observations without re-deriving billing; plain
# _COMPLETED remains what the undetailed stepping path emits.
_COMPLETED, _FAILED, _SHED = 0, 1, 2
_COMPLETED_COLD, _COMPLETED_RESTORE = 3, 4

# Control-plane event codes a shard logs (as ``(k, code, a, b)`` tuples)
# when the coordinator needs to replay decision spans.  Only logged when
# spans are on — the off path appends nothing.
_EV_SCALE_DOWN, _EV_SCALE_UP, _EV_PREWARM, _EV_SHED = 0, 1, 2, 3


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

    mode: str    # "delegated" | "static" | "time-warp" | "serial" (packs)
    jobs: int
    shards: int                # regions replayed as parallel shards
    rounds: int = 0            # optimistic rounds (time-warp only)
    rollbacks: int = 0         # shard re-simulations after a divergence
    analytic_served: Dict[str, int] = field(default_factory=dict)
    region_wall_s: Dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    # --- flight telemetry (zeroed outside time-warp mode, so profile
    # output stays stable to parse) --------------------------------
    max_rollback_depth: int = 0   # deepest per-shard re-simulation
    resimulated: int = 0          # arrivals re-simulated across rollbacks
    round_wall_s: List[float] = field(default_factory=list)

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


class _ObsProxy(_DrainProxy):
    """Region stand-in answering router queries from a shard's recorded
    observation vector (indexed by the coordinator via ``k``)."""

    __slots__ = ("waits", "warms", "k")

    def __init__(self, windows, waits, warms) -> None:
        super().__init__(windows)
        self.waits = waits
        self.warms = warms
        self.k = 0

    def predicted_wait(self, now: float) -> float:
        return self.waits[self.k]

    def has_warm_idle(self, now: float) -> bool:
        return bool(self.warms[self.k])


def _static_assignment(config: FleetConfig, trace: FleetTrace):
    """The exact assignment when routing never reads region state.

    Returns an encoding, or ``None`` when the policy is state-coupled
    (``least-queue`` / ``warm-first`` with >= 2 routable regions at
    some arrival) and the time-warp rounds must resolve it.
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
class _Checkpoint:
    """Rollback point: everything a region's evolution depends on."""

    index: int                 # state after arrivals [0, index)
    instances: Tuple[Tuple[float, float, bool], ...]
    cap: int
    rate: float
    last_arrival: Optional[float]
    last_prewarm: Optional[float]
    ever_warm: bool
    draws: Optional[Dict[str, int]]


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
    checkpoint_every: int = 0        # 0: no checkpoints (final pass)
    restart: Optional[_Checkpoint] = None
    # --- telemetry knobs (final pass only) ----------------------------
    collect_metrics: bool = False    # feed a fresh registry, ship a dump
    want_events: bool = False        # log control-plane event tuples
    detail: bool = False             # detailed completed codes (SLO)
    routing_kind: str = "single"     # the fleet_routed_total policy label
    analytic: bool = False           # eligible regions: _serve_analytic


@dataclass
class _RegionResult:
    """A shard's final-pass output, ready for the deterministic merge."""

    stats: RegionStats
    trace_state: Optional[dict]
    outcomes: bytes
    wall_s: float
    metrics: Optional[dict] = None   # per-shard MetricsRegistry dump
    events: Optional[list] = None    # (k, code, a, b) control-plane log


def _job_trace(job: _RegionJob) -> FleetTrace:
    return job.trace if job.trace is not None else job.spec.materialize()


def _build_state(job: _RegionJob, trace: FleetTrace,
                 servers=None) -> _RegionState:
    region = job.config
    sim = ClusterSimulator(
        _server_for(region.device, servers),
        ClusterConfig(scheme=region.scheme,
                      max_instances=region.max_instances,
                      keep_alive_s=region.keep_alive_s))
    return _RegionState(region, sim, job.policy, trace.model, trace.batch,
                        job.retention, job.ring)


def _snapshot(state: _RegionState, index: int) -> _Checkpoint:
    scaler = state.scaler
    return _Checkpoint(
        index=index,
        instances=tuple((i.busy_until, i.last_used, i.warm)
                        for i in state.instances),
        cap=scaler.cap,
        rate=scaler._rate,
        last_arrival=scaler._last_arrival,
        last_prewarm=scaler._last_prewarm,
        ever_warm=state.ever_warm,
        draws=(dict(state.injector._draws)
               if state.injector is not None else None))


def _restore(state: _RegionState, checkpoint: _Checkpoint) -> None:
    state.instances[:] = [
        _Instance(busy_until=busy, last_used=last, warm=warm)
        for busy, last, warm in checkpoint.instances]
    scaler = state.scaler
    scaler.cap = checkpoint.cap
    scaler._rate = checkpoint.rate
    scaler._last_arrival = checkpoint.last_arrival
    scaler._last_prewarm = checkpoint.last_prewarm
    state.ever_warm = checkpoint.ever_warm
    if state.injector is not None:
        state.injector._draws.clear()
        state.injector._draws.update(checkpoint.draws)


def _observe_region(job: _RegionJob):
    """Optimistic round: simulate under the guessed assignment and
    record the observation vector the router would have queried.

    Stats collected here are scratch — only the observations, the
    checkpoints and the (rolled-back) state evolution matter.  The
    queries are evaluated exactly where the serial loop evaluates them:
    after the region's own idle tick, before any serve at that arrival.
    """
    trace = _job_trace(job)
    state = _build_state(job, trace)
    start = 0
    if job.restart is not None:
        _restore(state, job.restart)
        start = job.restart.index
    arrivals = trace.arrivals
    mine = job.region_index
    member = _membership(job.assignment)
    shed_wait = job.shed_wait_s
    scaler = state.scaler
    every = job.checkpoint_every
    waits = array("d")
    warms = bytearray()
    checkpoints: List[_Checkpoint] = []
    for k in range(start, len(arrivals)):
        if every and k > start and k % every == 0:
            checkpoints.append(_snapshot(state, k))
        t = arrivals[k]
        scaler.idle_tick(state, t)
        waits.append(state.predicted_wait(t))
        warms.append(1 if state.has_warm_idle(t) else 0)
        if member(k) != mine:
            continue
        if shed_wait is not None and state.predicted_wait(t) > shed_wait:
            continue  # shed: no state change
        extra = scaler.observe_arrival(state, t)
        if extra:
            state.prewarm(extra, t)
        state.serve(t)
    return start, waits.tobytes(), bytes(warms), checkpoints


def _serve_one(state: _RegionState, t: float, shed_wait: Optional[float],
               append) -> None:
    """Serial per-arrival sequence for the routed region: shed check,
    autoscaler observation, pre-warm, serve — in that order."""
    if shed_wait is not None and state.predicted_wait(t) > shed_wait:
        state.stats.shed += 1
        append(_SHED)
        return
    extra = state.scaler.observe_arrival(state, t)
    if extra:
        state.prewarm(extra, t)
    append(_COMPLETED if state.serve(t) else _FAILED)


def _serve_one_obs(state: _RegionState, t: float,
                   shed_wait: Optional[float], append, k: int,
                   events: Optional[list]) -> None:
    """:func:`_serve_one` with telemetry: detailed completed codes and
    (when ``events`` is a list) the control-plane deltas the
    coordinator replays into decision spans.  Deltas are detected
    exactly the way the serial loop detects them, and the values keep
    their Python types so replayed span attrs compare byte-equal."""
    stats = state.stats
    if shed_wait is not None:
        wait = state.predicted_wait(t)
        if wait > shed_wait:
            stats.shed += 1
            append(_SHED)
            if events is not None:
                events.append((k, _EV_SHED, wait, 0))
            return
    if events is None:
        extra = state.scaler.observe_arrival(state, t)
        if extra:
            state.prewarm(extra, t)
    else:
        ups = stats.scale_ups
        extra = state.scaler.observe_arrival(state, t)
        if stats.scale_ups > ups:
            events.append((k, _EV_SCALE_UP, stats.scale_ups - ups,
                           state.scaler.cap))
        if extra:
            spawned = stats.prewarm_spawns
            restored = stats.prewarm_restores
            state.prewarm(extra, t)
            spawned = stats.prewarm_spawns - spawned
            if spawned:
                events.append((k, _EV_PREWARM, spawned,
                               stats.prewarm_restores - restored))
    colds = stats.cold_starts
    restores = stats.restores
    if state.serve(t):
        if stats.cold_starts > colds:
            append(_COMPLETED_COLD)
        elif stats.restores > restores:
            append(_COMPLETED_RESTORE)
        else:
            append(_COMPLETED)
    else:
        append(_FAILED)


def _serve_stepping(state: _RegionState, arrivals, job: _RegionJob,
                    outcomes, events: Optional[list] = None) -> None:
    mine = job.region_index
    shed_wait = job.shed_wait_s
    append = outcomes.append
    obs = events is not None or job.detail
    if state.policy.kind == "reactive":
        # Reactive capacity breathes on *global* quiet time: the scaler
        # ticks at every fleet arrival, routed here or not.
        member = _membership(job.assignment)
        scaler = state.scaler
        stats = state.stats
        for k, t in enumerate(arrivals):
            if events is None:
                scaler.idle_tick(state, t)
            else:
                downs = stats.scale_downs
                scaler.idle_tick(state, t)
                if stats.scale_downs > downs:
                    events.append((k, _EV_SCALE_DOWN,
                                   stats.scale_downs - downs, scaler.cap))
            if member(k) == mine:
                if obs:
                    _serve_one_obs(state, t, shed_wait, append, k, events)
                else:
                    _serve_one(state, t, shed_wait, append)
    elif obs:
        for k in _assigned(job.assignment, mine, len(arrivals)):
            _serve_one_obs(state, arrivals[k], shed_wait, append, k,
                           events)
    else:
        for k in _assigned(job.assignment, mine, len(arrivals)):
            _serve_one(state, arrivals[k], shed_wait, append)


def _serve_analytic(state: _RegionState, arrivals, indices,
                    shed_wait: Optional[float], outcomes,
                    events: Optional[list] = None) -> int:
    """Heap-analytic sub-stream replay: the fleet twin of the cluster
    fast-forward.

    Eligible when the region's evolution is closed-form: no fault plan
    (every serve succeeds), no recorder, and a ``fixed`` /
    ``scale-to-zero`` autoscaler (constant cap, inert ticks, the only
    observable scaler effect is the keep-alive override already folded
    into ``state.keep_alive``).  Instances live in a min-heap of finish
    times — for all-warm pools ``busy_until == last_used``, so heap
    order is both the reclaim order and the pick order.  Reclaims stop
    at the warm floor (keeping the newest-expired instances, exactly
    the ``_live`` backfill), spawns bill a cold start or — under
    ``checkpoint_restore`` once anything ran — a restore, and the shed
    predicate mirrors ``predicted_wait`` bit for bit.
    """
    pool: List[float] = []
    size = 0
    cap = state.scaler.cap
    floor = min(state.policy.min_instances, cap)
    keep_alive = state.keep_alive
    warm_time = state.warm
    cold_time = state.cold
    restore_cost = state.restore_cost
    restore_service = restore_cost + warm_time
    use_restore = state.policy.checkpoint_restore
    ever_warm = state.ever_warm
    stats = state.stats
    latencies = stats.latencies
    queue_waits = stats.queue_waits
    tracker = state.queue_depth
    append = outcomes.append
    served = 0
    for k in indices:
        t = arrivals[k]
        while size > floor and t - pool[0] > keep_alive:
            heappop(pool)
            size -= 1
        if shed_wait is not None:
            if (size and pool[0] <= t) or size < cap:
                wait = 0.0
            else:
                front = pool[0]
                wait = front - t if front > t else 0.0
            if wait > shed_wait:
                stats.shed += 1
                append(_SHED)
                if events is not None:
                    events.append((k, _EV_SHED, wait, 0))
                continue
        if size and pool[0] <= t:
            # Warm hit on the longest-idle free instance (the root).
            start = t
            finish = t + warm_time
            heapreplace(pool, finish)
            stats.warm_hits += 1
            code = _COMPLETED
        elif size < cap:
            # Spawn: a fresh instance (busy since 0.0) serves cold, or
            # from a checkpoint once the region has ever been warm.
            start = t if t > 0.0 else 0.0
            if use_restore and ever_warm:
                finish = start + restore_service
                stats.restores += 1
                stats.restore_s += restore_cost
                code = _COMPLETED_RESTORE
            else:
                finish = start + cold_time
                stats.cold_starts += 1
                code = _COMPLETED_COLD
            heappush(pool, finish)
            size += 1
        else:
            # Queue on the earliest-free (warm) instance.
            busy = pool[0]
            start = busy if busy > t else t
            finish = start + warm_time
            heapreplace(pool, finish)
            stats.warm_hits += 1
            code = _COMPLETED
        ever_warm = True
        queue_waits.append(start - t)
        if tracker is not None:
            tracker.observe(t, start)
        latencies.append(finish - t)
        append(code)
        served += 1
    state.ever_warm = ever_warm
    return served


def _finalize_region(job: _RegionJob, servers=None) -> _RegionResult:
    """Full-stats pass: replay the shard's sub-stream under the
    verified assignment, producing the exact serial RegionStats
    (``fast_forwarded`` counts the requests served analytically)."""
    trace = _job_trace(job)
    state = _build_state(job, trace, servers)
    if job.collect_metrics:
        state.queue_depth = _QueueDepthTracker()
    arrivals = trace.arrivals
    outcomes = array("b")
    events: Optional[list] = [] if job.want_events else None
    began = perf_counter()
    if (job.analytic and job.retention is None and state.injector is None
            and state.policy.kind in ("fixed", "scale-to-zero")):
        state.stats.fast_forwarded = _serve_analytic(
            state, arrivals,
            _assigned(job.assignment, job.region_index, len(arrivals)),
            job.shed_wait_s, outcomes, events)
    else:
        _serve_stepping(state, arrivals, job, outcomes, events)
    wall = perf_counter() - began
    trace_state = (state.recorder.state_dict()
                   if state.recorder is not None else None)
    stats = state.stats
    stats.trace = None  # recorders travel as state dicts
    metrics_dump = None
    if job.collect_metrics:
        registry = MetricsRegistry()
        _feed_region_metrics(registry, stats, job.routing_kind,
                             state.queue_depth.peak)
        metrics_dump = registry.to_json()
    return _RegionResult(stats=stats, trace_state=trace_state,
                         outcomes=outcomes.tobytes(), wall_s=wall,
                         metrics=metrics_dump, events=events)


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------

def _converge_assignment(config: FleetConfig, trace: FleetTrace,
                         spec: Optional[TraceSpec],
                         policy: AutoscalePolicy, checkpoint_every: int,
                         pool, report: ShardReport, run_shards,
                         flight=None):
    """Time-warp rounds: iterate optimistic simulation + router replay
    until the guessed assignment is verified end to end."""
    n = len(trace)
    n_regions = len(config.regions)
    arrivals = trace.arrivals
    drains = [_DrainProxy(r.drain_windows) for r in config.regions]
    # Initial guess: spread routable arrivals round-robin — cheap, and
    # close to what both balanced policies converge to.
    seeder = RouterState(RoutingPolicy("round-robin"))
    guess = array("b")
    for t in arrivals:
        choice = seeder.choose(drains, t)
        guess.append(-1 if choice is None else choice)
    waits = [array("d", bytes(8 * n)) for _ in range(n_regions)]
    warms = [bytearray(n) for _ in range(n_regions)]
    proxies = [_ObsProxy(drains[i].windows, waits[i], warms[i])
               for i in range(n_regions)]
    checkpoints: List[List[_Checkpoint]] = [[] for _ in range(n_regions)]
    restarts: List[Optional[_Checkpoint]] = [None] * n_regions
    router = RouterState(config.routing)
    verified = 0
    while True:
        round_index = report.rounds
        report.rounds += 1
        round_began = perf_counter()
        starts = [restarts[i].index if restarts[i] is not None else 0
                  for i in range(n_regions)]
        verified_before = verified
        jobs = [_RegionJob(region_index=i, config=region, policy=policy,
                           shed_wait_s=config.shed_wait_s, retention=None,
                           ring=config.trace_ring,
                           trace=None if spec is not None else trace,
                           spec=spec,
                           assignment=("explicit", guess.tobytes()),
                           checkpoint_every=checkpoint_every,
                           restart=restarts[i])
                for i, region in enumerate(config.regions)]
        for i, (start, wait_bytes, warm_bytes, fresh) in enumerate(
                run_shards(_observe_region, jobs, pool=pool)):
            chunk = array("d")
            chunk.frombytes(wait_bytes)
            waits[i][start:] = chunk
            warms[i][start:] = warm_bytes
            checkpoints[i].extend(fresh)
        # Replay the router over the recorded observations.  Up to the
        # first divergence every shard processed exactly the serial
        # arrival set, so those observations — and the decisions they
        # imply — are the serial ones (induction on the prefix).
        mismatch = None
        for k in range(verified, n):
            for proxy in proxies:
                proxy.k = k
            choice = router.choose(proxies, arrivals[k])
            code = -1 if choice is None else choice
            if code != guess[k]:
                mismatch = k
                guess[k] = code
                break
        if mismatch is None:
            report.round_wall_s.append(perf_counter() - round_began)
            if flight is not None:
                flight.record_round(round_index, starts, n, None,
                                    verified_before)
            return ("explicit", guess.tobytes())
        verified = mismatch + 1
        # Re-guess the tail from the (stale but informed) observations.
        for k in range(verified, n):
            for proxy in proxies:
                proxy.k = k
            choice = router.choose(proxies, arrivals[k])
            guess[k] = -1 if choice is None else choice
        # Straggler message: roll every shard back to its newest
        # checkpoint at or before the divergence; later checkpoints
        # were built on a wrong assignment and are dropped.
        for i in range(n_regions):
            keep = [cp for cp in checkpoints[i] if cp.index <= mismatch]
            checkpoints[i] = keep
            restarts[i] = keep[-1] if keep else None
        report.rollbacks += n_regions
        restart_indices = [restarts[i].index if restarts[i] is not None
                           else 0 for i in range(n_regions)]
        for restart in restart_indices:
            depth = n - restart
            if depth > report.max_rollback_depth:
                report.max_rollback_depth = depth
            report.resimulated += depth
        report.round_wall_s.append(perf_counter() - round_began)
        if flight is not None:
            flight.record_round(round_index, starts, n, mismatch,
                                verified_before,
                                restarts=restart_indices)


def _merge(config: FleetConfig, trace: FleetTrace, assignment,
           results: List[_RegionResult], spans=None,
           monitors: Optional[SLOMonitorSet] = None) -> FleetStats:
    """Deterministic merge: rebuild the serial FleetStats from shard
    outputs, walking tenants in global arrival order.

    With ``spans`` the walk also replays the shards' recorded
    control-plane event tuples — interleaved with the route /
    unroutable decisions only the coordinator sees — in the exact
    order the serial loop emits them, so the sharded span list is
    byte-identical to the serial one.  With ``monitors`` it feeds the
    SLO monitor set from the detailed outcome codes and the merged
    latency stream (again the serial observation order)."""
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
        latency_iters = [iter(r.stats.latencies) for r in results]
        arrivals = trace.arrivals
        names = [region.name for region in config.regions]
        routing_kind = config.routing.kind
        events = [r.events if r.events is not None else []
                  for r in results]
        positions = [0] * len(results)
        for k, tenant_index in enumerate(trace.tenants):
            tenant = tenants[tenant_index]
            tenant.offered += 1
            t = arrivals[k]
            if spans is not None:
                # Serial order: every region's idle tick fires before
                # the routing decision, in region order.
                for i, name in enumerate(names):
                    log, p = events[i], positions[i]
                    if (p < len(log) and log[p][0] == k
                            and log[p][1] == _EV_SCALE_DOWN):
                        _emit_scale_down(spans, name, t, log[p][2],
                                         log[p][3])
                        positions[i] = p + 1
            code = member(k)
            if code < 0:
                stats.shed_unroutable += 1
                tenant.shed += 1
                if spans is not None:
                    _emit_unroutable(spans, t, tenant.name)
                continue
            outcome = next(outcome_iters[code])
            if outcome == _SHED:
                tenant.shed += 1
                if spans is not None:
                    log, p = events[code], positions[code]
                    _emit_shed(spans, names[code], t, log[p][2])
                    positions[code] = p + 1
                continue
            if spans is not None:
                _emit_route(spans, names[code], t, routing_kind,
                            tenant.name)
                log, p = events[code], positions[code]
                if (p < len(log) and log[p][0] == k
                        and log[p][1] == _EV_SCALE_UP):
                    _emit_scale_up(spans, names[code], t, log[p][2],
                                   log[p][3])
                    p += 1
                if (p < len(log) and log[p][0] == k
                        and log[p][1] == _EV_PREWARM):
                    _emit_prewarm(spans, names[code], t, log[p][2],
                                  log[p][3])
                    p += 1
                positions[code] = p
            if outcome == _FAILED:
                tenant.failed += 1
                fresh = (monitors.observe_failed(t)
                         if monitors is not None else None)
            else:
                latency = next(latency_iters[code])
                tenant.latencies.append(latency)
                fresh = (monitors.observe_completed(
                    t, latency, outcome == _COMPLETED_COLD)
                    if monitors is not None else None)
            if spans is not None and fresh:
                emit_alert_spans(spans, fresh)
    for tenant in tenants:
        stats.tenants[tenant.name] = tenant
    return stats


def _replay_assigned(config: FleetConfig, trace: FleetTrace, assignment,
                     shard_map, *, analytic: bool,
                     spec: Optional[TraceSpec] = None, metrics=None,
                     spans=None, slo=None
                     ) -> Tuple[FleetStats, List[_RegionResult]]:
    """Replay every region's sub-stream under a fixed ``assignment``
    and merge: the sharded final pass (``shard_map`` fans the jobs over
    the pool) and the serial static path (``shard_map`` runs them
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
                       detail=monitors is not None,
                       routing_kind=config.routing.kind,
                       analytic=analytic)
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
                      checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
                      metrics: Optional[MetricsRegistry] = None,
                      spans=None, slo=None, flight=None
                      ) -> Tuple[FleetStats, ShardReport]:
    """Replay ``trace`` sharded by region; byte-identical to serial.

    ``jobs <= 1`` runs every shard in-process through the identical
    code path (no pool), which is how the equivalence tests stay fast.
    ``trace_spec`` — when the trace is a seeded Poisson stream — lets
    workers regenerate arrivals locally instead of unpickling them; if
    both ``trace`` and ``trace_spec`` are given they must describe the
    same stream (the spec is purely a shipping optimization).
    ``checkpoint_every`` bounds time-warp rollback cost: shards
    snapshot their full evolution (instances, autoscaler cursors, fault
    draws) every that-many arrivals.

    Telemetry mirrors :class:`FleetSimulator`: ``metrics`` /
    ``spans`` / ``slo`` produce dumps, span lists and monitor
    summaries byte-identical to a serial run with the same sinks
    (workers feed fresh per-shard registries whose dumps merge
    associatively; control-plane spans replay on the coordinator).
    ``flight`` — a :class:`~repro.obs.flight.FlightRecorder` — captures
    the optimistic rounds / rollbacks for the Perfetto flight view.
    """
    if checkpoint_every < 0:
        raise ValueError("checkpoint_every must be non-negative")
    began = perf_counter()
    # Validates config combinations; also the delegated-path runner.
    simulator = FleetSimulator(config, metrics=metrics, spans=spans,
                               slo=slo)
    if trace is None:
        if trace_spec is None:
            raise ValueError("need a trace or a trace_spec")
        trace = trace_spec.materialize()
    if isinstance(trace, RequestTrace):
        trace = FleetTrace.from_request_trace(trace)
    jobs = max(1, jobs)
    region_names = [region.name for region in config.regions]
    if config.is_single_cluster and len(trace.tenant_names) == 1:
        if flight is not None:
            flight.begin("delegated", region_names, trace.arrivals)
            flight.record_final(len(trace))
        stats = simulator.run(trace)
        return stats, ShardReport(mode="delegated", jobs=jobs, shards=0,
                                  wall_s=perf_counter() - began)
    if config.packs is not None:
        # The pack hierarchy couples regions through the registry
        # fabric (cross-region failover reads every region's outage
        # windows), so the serial simulator's per-arrival loop runs.
        # ``packs=None`` fleets shard exactly as before.
        stats = simulator.run(trace)
        return stats, ShardReport(mode="serial", jobs=jobs, shards=0,
                                  wall_s=perf_counter() - began)
    if spans is not None and config.trace_retention is not None:
        raise ValueError(
            "sharded span capture does not compose with trace retention "
            "(request-level recorders bind to the span recorder "
            "in-region); run the serial FleetSimulator for that combo")
    n_regions = len(config.regions)
    policy = (config.autoscale if config.autoscale is not None
              else AutoscalePolicy())
    report = ShardReport(mode="static", jobs=jobs, shards=n_regions)
    assignment = _static_assignment(config, trace)
    from repro.runner.engine import run_shards  # local: avoids a cycle
    pool = None
    try:
        if jobs > 1 and n_regions > 1:
            pool = ProcessPoolExecutor(
                max_workers=min(jobs, n_regions))
        # Regenerating from the spec only pays off across a process
        # boundary; in-process shards share the materialized arrivals.
        ship_spec = trace_spec if pool is not None else None
        if assignment is None:
            report.mode = "time-warp"
            if flight is not None:
                flight.begin("time-warp", region_names, trace.arrivals)
            assignment = _converge_assignment(
                config, trace, ship_spec, policy, checkpoint_every,
                pool, report, run_shards, flight)
        elif flight is not None:
            flight.begin("static", region_names, trace.arrivals)
        stats, results = _replay_assigned(
            config, trace, assignment,
            lambda final: run_shards(_finalize_region, final, pool=pool),
            analytic=report.mode == "static" and config.fast_forward,
            spec=ship_spec, metrics=metrics, spans=spans, slo=slo)
        if flight is not None:
            flight.record_final(len(trace))
    finally:
        if pool is not None:
            pool.shutdown()
    for name, result in zip(region_names, results):
        report.analytic_served[name] = result.stats.fast_forwarded
        report.region_wall_s[name] = result.wall_s
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
