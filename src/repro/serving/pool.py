"""The instance pool: the serving dynamics every replay path shares.

A pool of model instances serves a stream of arrivals.  A request that
lands on a warm, idle instance runs at hot latency; one that must spawn
a fresh instance pays a cold start, or a checkpoint restore or a
kernel-pack fetch when a warm-state source exists.  Idle instances are
reclaimed after a keep-alive timeout, down to a warm floor, and an
instance that crashes mid-request restarts cold while the request is
rerouted.  :class:`~repro.serving.cluster.ClusterSimulator` and every
fleet region (:class:`repro.fleet.fleet._RegionState`) wrap one
:class:`InstancePool`.

The dynamics are written exactly twice:

- :meth:`InstancePool.serve` steps one arrival through reclaim, pick,
  spawn, billing, crash and reroute, with every feature the pool has.
- :meth:`InstancePool.fast_forward` replays a contiguous run of
  arrivals through a min-heap recurrence.  It covers pools whose
  evolution is closed-form: every instance warm, no crash inside the
  window, no resilience policy and no pack hierarchy.

``serve`` is the independent oracle of ``fast_forward``: a replay with
``fast_forward=False`` steps every arrival, and the equivalence tests
pin the two byte-identical.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.serving.resilience import ResilienceState
from repro.sim.trace import Phase

__all__ = ["InstancePool", "service_times", "observe_outcome", "WARM",
           "FAILED", "SHED", "COLD", "RESTORE", "PACK"]

# Outcome of one arrival.  A fleet shard reports an array of them back
# for tenant accounting and SLO replay; WARM must stay 0 (the analytic
# window appends runs of warm hits as zero bytes).
WARM, FAILED, SHED, COLD, RESTORE, PACK = 0, 1, 2, 3, 4, 5


def observe_outcome(monitors, t: float, code: int, latencies) -> list:
    """Feed the outcome ``code`` of the arrival at ``t`` to ``monitors``
    (an :class:`~repro.obs.monitors.SLOMonitorSet`) and return the alerts
    it raised.  A shed is not observed and a failure counts against
    availability.  A completed serve, whose latency is the last entry of
    ``latencies``, counts as cold only when it paid a full cold start:
    checkpoint and pack restores are the mitigation, not a cold start.
    """
    if code == SHED:
        return []
    if code == FAILED:
        return monitors.observe_failed(t)
    return monitors.observe_completed(t, latencies[-1], code == COLD)


@dataclass
class _Instance:
    busy_until: float = 0.0
    last_used: float = 0.0
    warm: bool = False
    # --- resilience bookkeeping (inert unless a policy is attached) ---
    frac_base: float = 0.0        # warm fraction at start of this life
    life_start: float = 0.0       # checkpoint-timeline origin
    ramp_start: float = 0.0       # loading ramp of the first cold serve
    ramp_end: float = 0.0
    served: int = 0               # requests completed this life
    consecutive_crashes: int = 0  # crash-loop backoff exponent
    crash_times: List[float] = field(default_factory=list)
    breaker_open: bool = False
    breaker_until: float = 0.0    # cooldown end; half-open afterwards
    open_streak: int = 0          # consecutive opens (cooldown escalation)


# Per-server service-time memo shared by every cluster and region built
# on that server: replaying many traces (or many fault plans) against
# the same (scheme, model, batch) re-simulates the cold/hot serve
# exactly once per process.  Keyed weakly so a discarded server releases
# its entries.  Service times are always simulated fault-free (crashes
# are injected at the pool), so sharing across fault plans is sound.
_SERVICE_TIMES: "WeakKeyDictionary[object, Dict[Tuple, float]]" = \
    WeakKeyDictionary()


def service_times(server, scheme, model: str,
                  batch: int) -> Tuple[float, float]:
    """``(cold, warm)`` serve time of ``model`` at ``batch`` on
    ``server``; the cold serve runs under ``scheme``."""
    try:
        memo = _SERVICE_TIMES.setdefault(server, {})
    except TypeError:  # non-weakref-able server stand-in (tests)
        memo = {}
    cold_key = ("cold", scheme, model, batch)
    if cold_key not in memo:
        memo[cold_key] = server.serve_cold(model, scheme, batch).total_time
    hot_key = ("hot", model, batch)
    if hot_key not in memo:
        memo[hot_key] = server.serve_hot(model, batch).total_time
    return memo[cold_key], memo[hot_key]


_LAST_USED = operator.attrgetter("last_used")
_ready_at = ResilienceState.ready_at


class InstancePool:
    """An autoscaled pool of model instances and its serving dynamics.

    ``stats`` receives every outcome (a ``ClusterStats`` or a
    ``RegionStats``).  The spawn cost is plain data: ``cold`` and
    ``warm`` serve times, ``restore_cost`` (a spawn after the pool has
    ever been warm restores a checkpoint instead of loading cold;
    ``None`` disables it), ``pack_state`` (cold spawns walk the kernel
    pack ladder) and ``resilience`` (cluster-level supervision).  The
    spawn ``cap`` is a value an autoscaler may update between arrivals;
    the keep-alive reclaim never drops the pool below ``min(floor,
    cap)`` instances.  ``faults``/``injector`` inject crashes;
    ``recorder`` traces every serve under ``actor``.
    """

    def __init__(self, stats, *, cold: float, warm: float,
                 keep_alive: float, cap: int, floor: int = 0,
                 actor: str = "cluster",
                 restore_cost: Optional[float] = None,
                 pack_state=None,
                 resilience: Optional[ResilienceState] = None,
                 faults=None, injector=None, recorder=None) -> None:
        self.stats = stats
        self.cold = cold
        self.warm = warm
        # Cold starts split into the extra spin-up cost (LOAD) and the
        # steady service tail (EXEC) for trace accounting.
        self.cold_extra = cold - warm if cold > warm else 0.0
        self.keep_alive = keep_alive
        self.cap = cap
        self.floor = floor
        self.actor = actor
        self.restore_cost = restore_cost
        self.pack_state = pack_state
        self.resilience = resilience
        self.faults = faults
        self.injector = injector
        self.recorder = recorder
        self.instances: List[_Instance] = []
        self.ever_warm = False   # a checkpoint exists once anything ran
        # A queue-depth tracker (``observe(arrival, start)``), attached
        # when metrics are on; None keeps the serve path allocation-free.
        self.queue_depth = None

    # -- query surface (routing and autoscaling) -----------------------

    def live(self, now: float) -> List[_Instance]:
        """The instances that survive a reclaim at ``now``: busy, idle
        within the keep-alive, held by an open circuit breaker through
        its cooldown, or kept by the warm floor (newest-expired
        first)."""
        keep_alive = self.keep_alive
        instances = self.instances
        keep = [i for i in instances
                if i.busy_until > now
                or now - i.last_used <= keep_alive
                or (i.breaker_open and i.breaker_until > now)]
        floor = min(self.floor, self.cap)
        if len(keep) < floor and len(instances) > len(keep):
            kept = set(map(id, keep))
            expired = [i for i in instances if id(i) not in kept]
            expired.sort(key=_LAST_USED, reverse=True)
            kept.update(map(id, expired[:floor - len(keep)]))
            keep = [i for i in instances if id(i) in kept]
        return keep

    def has_warm_idle(self, now: float) -> bool:
        return any(i.busy_until <= now and i.warm for i in self.live(now))

    def predicted_wait(self, now: float) -> float:
        """Queueing delay the next arrival would see: zero when an idle
        warm instance or a spawn slot exists, else the wait for the
        earliest instance to free up."""
        live = self.live(now)
        if any(i.busy_until <= now and i.warm for i in live):
            return 0.0
        if len(live) < self.cap:
            return 0.0
        earliest = min(i.busy_until for i in live)
        return earliest - now if earliest > now else 0.0

    # -- off-path spawns -----------------------------------------------

    def prewarm(self, count: int, now: float) -> Tuple[int, int]:
        """Spawn ``count`` instances off the request path.  The owner
        (not any request) pays the spin-up — the full cold-start extra,
        the checkpoint restore cost when one exists, or the pack ladder
        — and the instance joins the pool warm, busy until the spin-up
        ends.  Returns ``(spawned, restored)``: the instances the cap
        let through, and how many of them came from a checkpoint."""
        stats = self.stats
        pack_state = self.pack_state
        spawned = restored = 0
        for _ in range(count):
            if len(self.instances) >= self.cap:
                break
            from_checkpoint = (self.restore_cost is not None
                               and self.ever_warm)
            if from_checkpoint:
                cost = self.restore_cost
            elif pack_state is not None:
                # Off-path spawns walk the same pack ladder; the owner
                # pays the fetch (or the bounded ladder walk plus the
                # cold spin-up when the hierarchy is dark).
                peer = any(i.warm for i in self.instances)
                fetch = pack_state.fetch(now, peer)
                if fetch.hit:
                    cost = fetch.elapsed_s + pack_state.apply_s
                else:
                    cost = fetch.elapsed_s + self.cold_extra
            else:
                cost = self.cold_extra
            self.instances.append(_Instance(busy_until=now + cost,
                                            last_used=now + cost,
                                            warm=True))
            self.ever_warm = True
            spawned += 1
            stats.prewarm_spawns += 1
            stats.prewarm_s += cost
            if from_checkpoint:
                restored += 1
                stats.prewarm_restores += 1
            if self.recorder is not None:
                self.recorder.record(now, now + cost, self.actor,
                                     Phase.LOAD, "prewarm")
        return spawned, restored

    # -- the stepping dynamics -----------------------------------------

    def serve(self, arrival: float) -> int:
        """Schedule one request; returns its outcome code.

        Reclaim, then pick the warm instance free at ``now`` that has
        idled longest.  Without one, spawn while under the cap, else
        queue on the instance that becomes routable first.  A crash
        restarts the instance (cold, or through the resilience
        supervisor) and reroutes the request from the crash time, up to
        ``max_reroutes`` times before it is explicitly failed.  Under a
        resilience policy, admission control may shed the first
        attempt.
        """
        stats = self.stats
        instances = self.instances
        injector = self.injector
        resilience = self.resilience
        recorder = self.recorder
        warm = self.warm
        now = arrival
        attempts = 0
        while True:
            instances[:] = self.live(now)
            # Breaker-open instances are excluded until their half-open
            # probe time; without a policy the flag is never set.
            free = [i for i in instances
                    if i.busy_until <= now and i.warm
                    and (not i.breaker_open or i.breaker_until <= now)]
            restored = False
            start = now
            if free:
                instance = min(free, key=_LAST_USED)
            elif len(instances) < self.cap:
                instance = _Instance(life_start=now)
                instances.append(instance)
                restored = (self.restore_cost is not None
                            and self.ever_warm)
            else:
                # At capacity: queue on the earliest routable instant.
                instance = min(instances, key=_ready_at)
                start = max(now, _ready_at(instance))
            if attempts == 0:
                if resilience is not None and not resilience.admit(now,
                                                                   start):
                    stats.shed += 1
                    return SHED
                stats.queue_waits.append(start - arrival)
                if self.queue_depth is not None:
                    self.queue_depth.observe(arrival, start)
            warm_attempt = instance.warm
            pack_tier: Optional[str] = None
            # The resilience supervisor restarted this instance from a
            # warm-state checkpoint (its restore was billed as downtime).
            resumed = False
            if warm_attempt:
                service = warm
            elif restored:
                # A checkpoint restore already ships this instance's
                # warm state; it takes precedence over the pack ladder.
                service = self.restore_cost + warm
            elif resilience is not None:
                resumed = instance.frac_base > 0.0
                service = resilience.cold_service(instance.frac_base,
                                                  self.cold)
            elif self.pack_state is not None:
                # Cold spawn with a pack hierarchy: a hit bills the
                # fetch, the apply and the warm serve; degradation bills
                # the (bounded) ladder walk plus the full cold load — no
                # request is ever lost to a dark hierarchy.
                peer = any(other.warm for other in instances
                           if other is not instance)
                fetch = self.pack_state.fetch(start, peer)
                if fetch.hit:
                    pack_tier = fetch.tier
                    service = (fetch.elapsed_s + self.pack_state.apply_s
                               + warm)
                else:
                    service = fetch.elapsed_s + self.cold
            else:
                service = self.cold
            if resilience is not None:
                resilience.on_scheduled(instance, start, service,
                                        warm_attempt)
            crash_at = (injector.crash_point(service)
                        if injector is not None else None)
            if crash_at is None:
                if warm_attempt:
                    stats.warm_hits += 1
                    code = WARM
                elif restored:
                    stats.restores += 1
                    stats.restore_s += self.restore_cost
                    code = RESTORE
                elif resumed:
                    stats.restores += 1
                    code = RESTORE
                elif pack_tier is not None:
                    stats.pack_restores += 1
                    code = PACK
                else:
                    stats.cold_starts += 1
                    code = COLD
                finish = start + service
                instance.busy_until = finish
                instance.last_used = finish
                instance.warm = True
                self.ever_warm = True
                stats.latencies.append(finish - arrival)
                if recorder is not None:
                    if warm_attempt:
                        recorder.record(start, finish, self.actor,
                                        Phase.EXEC, "serve")
                    else:
                        boundary = start + (service - warm
                                            if service > warm else 0.0)
                        if restored or resumed:
                            load_name = "restore"
                        elif pack_tier is not None:
                            load_name = f"pack-restore/{pack_tier}"
                        else:
                            load_name = "cold-start"
                        recorder.record(start, boundary, self.actor,
                                        Phase.LOAD, load_name)
                        recorder.record(boundary, finish, self.actor,
                                        Phase.EXEC, "serve")
                if injector is not None or resilience is not None:
                    stats.faults.completed_requests += 1
                if resilience is not None:
                    resilience.on_complete(instance, finish)
                return code
            # The instance dies crash_at seconds into the request; it
            # restarts (cold, or from the freshest clean checkpoint
            # under a resilience policy) and re-enters the pool once
            # the restart completes.
            stats.faults.crashes += 1
            crash_time = start + crash_at
            if resilience is None:
                instance.busy_until = crash_time + self.faults.restart_delay_s
                instance.last_used = instance.busy_until
                instance.warm = False
            else:
                resilience.on_crash(instance, crash_time, injector)
            if recorder is not None:
                recorder.record(start, crash_time, self.actor,
                                Phase.FAULT, "crash")
            attempts += 1
            if attempts > self.faults.max_reroutes:
                stats.failed += 1
                stats.faults.failed_requests += 1
                return FAILED
            # Reroute: the request re-enters scheduling at the time the
            # crash was detected.
            stats.faults.reroutes += 1
            now = crash_time

    # -- the analytic dynamics -----------------------------------------

    def fast_forward(self, arrivals, shed_wait: Optional[float] = None,
                     outcomes=None, shed_log: Optional[list] = None) -> None:
        """Replay the contiguous ``arrivals`` analytically.

        Preconditions (checked by the caller): every instance warm, no
        resilience or pack state, and no crash inside the window.  A
        warm instance's ``busy_until`` equals its ``last_used`` and warm
        instances are exchangeable, so scheduling reduces to the
        multi-server recurrence ``finish_k = max(a_k, oldest) + warm``
        over a min-heap of finish times: O(log n) per request.  Heap
        order is both the reclaim order and the pick order, so:

        - **reclaim** pops heap-front entries with ``arrival - finish >
          keep_alive`` while the pool is above its warm floor (which
          keeps the newest-expired instances, as :meth:`live` does);
        - **spawn** pushes the new instance's cold (or restore) finish,
          a warm-up frontier that is an ordinary warm instance after;
        - **queueing at capacity** waits on the heap root.

        The float arithmetic per request is :meth:`serve`'s, so
        latencies, queue waits and trace records are byte-identical.
        ``shed_wait`` sheds an arrival whose :meth:`predicted_wait`
        exceeds it; each shed appends ``(position, wait)`` to
        ``shed_log``.  ``outcomes`` (an ``array("b")``) receives one
        outcome code per arrival.

        Steady-state arrivals run through a tight inner loop whose
        guards are loop-invariant; pool transitions (reclaim, spawn,
        shed) break out and are served one arrival at a time, then the
        tight loop resumes on the same iterator.  Each run of the tight
        loop is flushed in one batch (queue waits, latencies, the
        tracker, outcomes and one ``ingest_stream`` trace batch) before
        the transition, which keeps every stream in arrival order.
        """
        stats = self.stats
        recorder = self.recorder
        actor = self.actor
        keep_alive = self.keep_alive
        cap = self.cap
        floor = min(self.floor, cap)
        warm = self.warm
        cold = self.cold
        restore_cost = self.restore_cost
        ever_warm = self.ever_warm
        tracker = self.queue_depth
        shedding = shed_wait is not None
        instances = self.instances
        # A min-heap of finish times: the root is always the pool's
        # earliest-free (and longest-idle) instance.  A plain FIFO would
        # not do — cold-start finishes can exceed later warm finishes.
        pool = [inst.busy_until for inst in instances]
        heapq.heapify(pool)
        size = len(pool)
        # Locals bound out of the loop: at a million iterations every
        # global or attribute lookup is measurable.
        heapreplace = heapq.heapreplace
        heappop = heapq.heappop
        heappush = heapq.heappush
        sub = operator.sub
        queue_waits = stats.queue_waits
        latencies = stats.latencies
        arrival_iter = iter(arrivals)
        pos = shed = 0
        while True:
            span_starts: List[float] = []
            span_ends: List[float] = []
            event = None
            if size:
                start_append = span_starts.append
                end_append = span_ends.append
                # Loop-invariant guards: the pool size only changes in
                # transitions.  A root below the floor is never
                # reclaimed; with shedding on, every queueing arrival
                # goes through the transition's shed predicate.
                reclaim = size > floor
                divert = size < cap or shedding
                for arrival in arrival_iter:
                    oldest = pool[0]
                    if arrival - oldest > keep_alive and reclaim:
                        event = arrival
                        break  # an idle instance is reclaimed here
                    if divert and oldest > arrival:
                        event = arrival
                        break  # the request spawns (or may be shed)
                    start = oldest if oldest > arrival else arrival
                    finish = start + warm
                    heapreplace(pool, finish)
                    start_append(start)
                    end_append(finish)
            served = len(span_starts)
            if served:
                window = arrivals[pos:pos + served]
                # map(sub, ...) performs serve()'s subtractions inside
                # the interpreter's C loop.
                queue_waits.extend(map(sub, span_starts, window))
                latencies.extend(map(sub, span_ends, window))
                if tracker is not None:
                    for arrival, start in zip(window, span_starts):
                        tracker.observe(arrival, start)
                if outcomes is not None:
                    outcomes.frombytes(bytes(served))  # WARM == 0
                if recorder is not None:
                    # One homogeneous batch: the recorder resolves its
                    # accumulator buckets once and, under aggregate
                    # retention, only builds the records that survive
                    # the ring.
                    recorder.ingest_stream(zip(span_starts, span_ends),
                                           actor, Phase.EXEC, "serve")
                stats.warm_hits += served
                pos += served
                ever_warm = True
            if event is None:
                if size:
                    break  # window exhausted
                event = next(arrival_iter, None)
                if event is None:
                    break
            # One pool transition: reclaim whatever expired, then serve
            # this arrival exactly the way serve() would.
            arrival = event
            while size > floor and arrival - pool[0] > keep_alive:
                heappop(pool)
                size -= 1
            if shedding:
                if (size and pool[0] <= arrival) or size < cap:
                    wait = 0.0
                else:
                    front = pool[0]
                    wait = front - arrival if front > arrival else 0.0
                if wait > shed_wait:
                    stats.shed += 1
                    shed += 1
                    if outcomes is not None:
                        outcomes.append(SHED)
                    if shed_log is not None:
                        shed_log.append((pos, wait))
                    pos += 1
                    continue
            if size < cap and not (size and pool[0] <= arrival):
                # Spawn: a fresh instance (busy since 0.0) serves cold,
                # or from a checkpoint once the pool has ever been warm.
                start = max(arrival, 0.0)
                if restore_cost is None or not ever_warm:
                    service = cold
                    stats.cold_starts += 1
                    code = COLD
                else:
                    service = restore_cost + warm
                    stats.restores += 1
                    stats.restore_s += restore_cost
                    code = RESTORE
                finish = start + service
                heappush(pool, finish)
                size += 1
                if recorder is not None:
                    boundary = start + (service - warm
                                        if service > warm else 0.0)
                    recorder.record(start, boundary, actor, Phase.LOAD,
                                    "cold-start" if code == COLD
                                    else "restore")
                    recorder.record(boundary, finish, actor, Phase.EXEC,
                                    "serve")
            else:
                # A free warm instance (the break was a reclaim of an
                # even older one, or a spawn slot this arrival does not
                # need), or, at capacity, a queue on the earliest.
                front = pool[0]
                start = front if front > arrival else arrival
                finish = start + warm
                heapreplace(pool, finish)
                stats.warm_hits += 1
                code = WARM
                if recorder is not None:
                    recorder.record(start, finish, actor, Phase.EXEC,
                                    "serve")
            ever_warm = True
            queue_waits.append(start - arrival)
            latencies.append(finish - arrival)
            if tracker is not None:
                tracker.observe(arrival, start)
            if outcomes is not None:
                outcomes.append(code)
            pos += 1
        # Materialize the heap back onto the instances.  Warm instances
        # are exchangeable (scheduling and reclaim depend only on their
        # time values), so the assignment order is irrelevant.
        if size != len(instances):
            instances[:] = [_Instance() for _ in range(size)]
        for inst, finish in zip(instances, pool):
            inst.busy_until = finish
            inst.last_used = finish
            inst.warm = True
        self.ever_warm = ever_warm
        stats.fast_forwarded += pos - shed
