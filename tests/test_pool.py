"""The instance pool's two implementations of the serving dynamics agree.

``InstancePool.fast_forward`` (the heap-analytic window) must equal
``InstancePool.serve`` (one arrival at a time, with the fleet's shed
check in front of it) on the same pool: latencies, queue waits, every
counter, outcome codes, trace records, the queue-depth peak and the
final instance state.  Pools are seeded with warm instances and drawn
across cap, warm floor, keep-alive, checkpoint-restore billing,
shedding and the queue-depth tracker.
"""

from array import array

from hypothesis import given, settings, strategies as st

from repro.fleet.fleet import RegionStats, _QueueDepthTracker
from repro.serving.pool import SHED, InstancePool, _Instance
from repro.sim.trace import TraceRecorder

_COUNTERS = ("cold_starts", "warm_hits", "restores", "restore_s", "shed",
             "failed", "pack_restores")


def _pool(seed_finishes, ever_warm, cap, floor, keep_alive, warm, cold,
          restore_cost, tracker, traced) -> InstancePool:
    stats = RegionStats(name="r0", device="MI100")
    recorder = TraceRecorder(retention="full") if traced else None
    stats.trace = recorder
    pool = InstancePool(stats, cold=cold, warm=warm, keep_alive=keep_alive,
                        cap=cap, floor=floor, actor="region:r0",
                        restore_cost=restore_cost, recorder=recorder)
    pool.instances = [_Instance(busy_until=t, last_used=t, warm=True)
                      for t in seed_finishes]
    pool.ever_warm = ever_warm
    if tracker:
        pool.queue_depth = _QueueDepthTracker()
    return pool


def _state(pool: InstancePool, now: float):
    return sorted((i.busy_until, i.last_used, i.warm)
                  for i in pool.live(now))


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       arrivals=st.lists(st.floats(0.0, 10.0, allow_nan=False),
                         min_size=1, max_size=60).map(sorted),
       cap=st.integers(1, 5),
       floor=st.integers(0, 6),
       keep_alive=st.one_of(st.floats(0.0, 2.0), st.just(float("inf"))),
       warm=st.floats(0.001, 0.5),
       cold_factor=st.floats(1.0, 20.0),
       restore=st.one_of(st.none(), st.floats(0.0, 0.5)),
       shed_wait=st.one_of(st.none(), st.floats(0.0, 1.0)),
       tracker=st.booleans(),
       traced=st.booleans())
def test_analytic_window_equals_stepping_serve(data, arrivals, cap, floor,
                                               keep_alive, warm, cold_factor,
                                               restore, shed_wait, tracker,
                                               traced):
    seeds = data.draw(st.lists(st.floats(0.0, 3.0), max_size=cap))
    ever_warm = bool(seeds) or data.draw(st.booleans())
    args = (seeds, ever_warm, cap, floor, keep_alive, warm,
            warm * cold_factor, restore, tracker, traced)

    fast = _pool(*args)
    fast_codes = array("b")
    shed_log = []
    fast.fast_forward(tuple(arrivals), shed_wait, fast_codes, shed_log)

    slow = _pool(*args)
    slow_codes = array("b")
    for t in arrivals:
        if shed_wait is not None and slow.predicted_wait(t) > shed_wait:
            slow.stats.shed += 1
            slow_codes.append(SHED)
        else:
            slow_codes.append(slow.serve(t))

    assert fast.stats.latencies == slow.stats.latencies
    assert fast.stats.queue_waits == slow.stats.queue_waits
    for name in _COUNTERS:
        assert getattr(fast.stats, name) == getattr(slow.stats, name), name
    assert fast_codes == slow_codes
    assert [pos for pos, _ in shed_log] == [
        k for k, code in enumerate(slow_codes) if code == SHED]
    assert fast.stats.fast_forwarded == len(arrivals) - slow.stats.shed
    assert slow.stats.fast_forwarded == 0
    if tracker:
        assert fast.queue_depth.peak == slow.queue_depth.peak
    if traced:
        assert list(fast.recorder.records) == list(slow.recorder.records)
    assert fast.ever_warm == slow.ever_warm
    assert _state(fast, arrivals[-1]) == _state(slow, arrivals[-1])
