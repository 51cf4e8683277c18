"""Property tests (hypothesis) for the trace interval algebra.

The paper's breakdowns (Fig. 1b, Fig. 7) and the timeline renderer all
rest on ``merge_intervals`` / ``subtract_intervals`` /
``exclusive_fractions`` being exact: no negative-length intervals, no
double counting, and attribution independent of bookkeeping order.  The
fault layer added two phases (FAULT, RETRY) that flow through the same
algebra, so the strategies here draw from every phase.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.sim.trace import (
    RETENTION_POLICIES,
    Phase,
    TraceRecord,
    TraceRecorder,
    merge_intervals,
    subtract_intervals,
)

intervals = st.lists(
    st.tuples(st.floats(0, 100, allow_nan=False),
              st.floats(0, 100, allow_nan=False)).map(
        lambda p: (min(p), max(p))),
    max_size=25)


def _measure(items):
    return sum(e - s for s, e in items)


# ----------------------------------------------------------------------
# merge_intervals
# ----------------------------------------------------------------------

@given(intervals)
def test_merge_is_idempotent(items):
    merged = merge_intervals(items)
    assert merge_intervals(merged) == merged


@given(intervals)
def test_merge_never_produces_negative_lengths(items):
    assert all(e >= s for s, e in merge_intervals(items))


@given(intervals, intervals)
def test_merge_is_order_insensitive(a, b):
    assert merge_intervals(a + b) == merge_intervals(b + a)


@given(intervals)
def test_merge_covers_every_input_point(items):
    merged = merge_intervals(items)
    for s, e in items:
        if e <= s:
            continue
        midpoint = (s + e) / 2
        assert any(ms <= midpoint <= me for ms, me in merged)


# ----------------------------------------------------------------------
# subtract_intervals
# ----------------------------------------------------------------------

@given(intervals, intervals)
def test_subtract_never_produces_negative_lengths(base, remove):
    difference = subtract_intervals(merge_intervals(base),
                                    merge_intervals(remove))
    assert all(e >= s for s, e in difference)


@given(intervals, intervals)
def test_subtract_is_idempotent(base, remove):
    merged_remove = merge_intervals(remove)
    difference = subtract_intervals(merge_intervals(base), merged_remove)
    assert subtract_intervals(difference, merged_remove) == difference


@given(intervals, intervals)
def test_subtract_conserves_coverage(base, remove):
    # Inclusion-exclusion: m(base \ remove) = m(base) - m(base ∩ remove)
    # with m(base ∩ remove) = m(base) + m(remove) - m(base ∪ remove).
    merged_base = merge_intervals(base)
    merged_remove = merge_intervals(remove)
    difference = subtract_intervals(merged_base, merged_remove)
    union = merge_intervals(merged_base + merged_remove)
    intersection = (_measure(merged_base) + _measure(merged_remove)
                    - _measure(union))
    assert abs(_measure(difference)
               - (_measure(merged_base) - intersection)) < 1e-6


@given(intervals)
def test_subtract_self_is_empty(items):
    merged = merge_intervals(items)
    assert _measure(subtract_intervals(merged, merged)) < 1e-9


# ----------------------------------------------------------------------
# exclusive_fractions (including the fault/retry phases)
# ----------------------------------------------------------------------

_ALL_PHASES = list(Phase)

trace_records = st.lists(
    st.tuples(st.floats(0, 1, allow_nan=False),
              st.floats(0, 1, allow_nan=False),
              st.sampled_from(_ALL_PHASES)).map(
        lambda t: (min(t[0], t[1]), max(t[0], t[1]), t[2])),
    min_size=1, max_size=30)


def _recorder(records):
    trace = TraceRecorder()
    for start, end, phase in records:
        trace.record(start, end, "actor", phase, "x")
    return trace


@settings(max_examples=50)
@given(trace_records)
def test_exclusive_fractions_are_a_partition(records):
    trace = _recorder(records)
    fractions = trace.exclusive_fractions(_ALL_PHASES, total_time=1.0)
    assert set(fractions) == set(_ALL_PHASES)
    assert all(v >= 0.0 for v in fractions.values())
    # Exclusive attribution can never exceed the wall clock.
    assert sum(fractions.values()) <= 1.0 + 1e-9
    # The union of all phases is what gets attributed, no matter which
    # phase wins each overlap -- so the total is priority-order invariant.
    reversed_total = sum(trace.exclusive_fractions(
        _ALL_PHASES[::-1], total_time=1.0).values())
    assert abs(sum(fractions.values()) - reversed_total) < 1e-9


@settings(max_examples=50)
@given(trace_records)
def test_exclusive_fractions_match_union_measure(records):
    trace = _recorder(records)
    fractions = trace.exclusive_fractions(_ALL_PHASES, total_time=1.0)
    union = merge_intervals((start, end) for start, end, _ in records)
    assert abs(sum(fractions.values()) - _measure(union)) < 1e-9


# ----------------------------------------------------------------------
# Retention equivalence: aggregate mode must be metric-invisible
# ----------------------------------------------------------------------

_ACTORS = ("gpu", "loader", "host")

streamed_records = st.lists(
    st.tuples(st.floats(0, 10, allow_nan=False),
              st.floats(0, 10, allow_nan=False),
              st.sampled_from(_ALL_PHASES),
              st.sampled_from(_ACTORS)).map(
        lambda t: (min(t[0], t[1]), max(t[0], t[1]), t[2], t[3])),
    max_size=40)


@settings(max_examples=80)
@given(streamed_records, st.integers(1, 8))
def test_aggregate_retention_metrics_equal_full(records, ring_size):
    full = TraceRecorder(retention="full")
    aggregate = TraceRecorder(retention="aggregate", ring_size=ring_size)
    for start, end, phase, actor in records:
        full.record(start, end, actor, phase, "x")
        aggregate.record(start, end, actor, phase, "x")
    for phase in _ALL_PHASES + [None]:
        assert aggregate.total(phase) == full.total(phase)
        assert aggregate.busy_time(phase) == full.busy_time(phase)
        for actor in _ACTORS:
            assert (aggregate.total(phase, actor)
                    == full.total(phase, actor))
            assert (aggregate.busy_time(phase, actor)
                    == full.busy_time(phase, actor))
    assert aggregate.span() == full.span()
    assert (aggregate.breakdown(_ALL_PHASES)
            == full.breakdown(_ALL_PHASES))
    assert (aggregate.exclusive_fractions(_ALL_PHASES)
            == full.exclusive_fractions(_ALL_PHASES))
    for actor in _ACTORS:
        assert aggregate.utilization(actor) == full.utilization(actor)
    assert aggregate.record_count == full.record_count
    assert aggregate.retained_records <= ring_size


@settings(max_examples=60)
@given(streamed_records)
def test_streaming_busy_time_matches_full_rescan(records):
    recorder = TraceRecorder(retention="aggregate", ring_size=1)
    for start, end, phase, actor in records:
        recorder.record(start, end, actor, phase)
    for phase in _ALL_PHASES + [None]:
        expected = merge_intervals(
            (s, e) for s, e, p, _ in records if phase is None or p is phase)
        assert recorder.busy_time(phase) == _measure(expected)


@given(trace_records)
def test_fault_phase_competes_like_any_other(records):
    # FAULT/RETRY records must not leak into other phases' exclusive
    # time: dropping them from the priority list can only shift their
    # share to lower-priority phases or to the unattributed remainder.
    trace = _recorder(records)
    with_faults = trace.exclusive_fractions(
        [Phase.FAULT, Phase.RETRY, Phase.EXEC, Phase.LOAD], total_time=1.0)
    without = trace.exclusive_fractions(
        [Phase.EXEC, Phase.LOAD], total_time=1.0)
    assert with_faults[Phase.EXEC] <= without[Phase.EXEC] + 1e-9
    assert with_faults[Phase.LOAD] <= without[Phase.LOAD] + 1e-9


# ----------------------------------------------------------------------
# Lazy batched fold: any interleaving of ingestion, legacy list edits,
# queries, clear and state round-trips equals a brute-force rescan
# ----------------------------------------------------------------------

_span = st.tuples(st.floats(0, 10, allow_nan=False),
                  st.floats(0, 10, allow_nan=False)).map(
    lambda p: (min(p), max(p)))
_who = st.tuples(st.sampled_from(_ALL_PHASES), st.sampled_from(_ACTORS))

_ops = st.lists(st.one_of(
    st.tuples(st.just("record"), _span, _who, st.booleans()),
    st.tuples(st.just("ingest"), _span, _who),
    st.tuples(st.just("stream"), st.lists(_span, max_size=6), _who),
    st.tuples(st.just("append"), _span, _who),
    st.tuples(st.just("truncate"), st.integers(0, 40)),
    st.tuples(st.just("query")),
    st.tuples(st.just("clear")),
    st.tuples(st.just("state")),
), max_size=40)


def _keys(phase, actor):
    return ((phase, actor), (phase, None), (None, actor), (None, None))


def _check_against_history(recorder, history):
    """Every aggregate equals a brute-force merge plus a left-to-right
    sum over ``history``; buckets appear in first-appearance order."""
    order = list(dict.fromkeys(
        key for rec in history for key in _keys(rec.phase, rec.actor)))
    state = recorder.state_dict()
    assert [(None if p is None else Phase(p), a)
            for p, a, *_ in state["acc"]] == order
    for phase, actor, total, count, segs in state["acc"]:
        phase = None if phase is None else Phase(phase)
        matching = [r for r in history
                    if phase in (None, r.phase) and actor in (None, r.actor)]
        expected_total = 0.0
        for rec in matching:
            expected_total += rec.end - rec.start
        merged = merge_intervals((r.start, r.end) for r in matching)
        assert total == expected_total
        assert count == len(matching)
        assert [tuple(seg) for seg in segs] == merged
        assert recorder.total(phase, actor) == expected_total
        assert recorder.busy_time(phase, actor) == _measure(merged)
    assert recorder.record_count == len(history)
    if history:
        span = (min(r.start for r in history), max(r.end for r in history))
    else:
        span = (0.0, 0.0)
    assert recorder.span() == span
    wall = span[1] - span[0]
    claimed, exclusive = [], {}
    for phase in _ALL_PHASES:
        mine = merge_intervals(
            (r.start, r.end) for r in history if r.phase is phase)
        exclusive[phase] = (_measure(subtract_intervals(mine, claimed)) / wall
                            if wall > 0 else 0.0)
        claimed = merge_intervals(claimed + mine)
    assert recorder.exclusive_fractions(_ALL_PHASES) == exclusive
    assert recorder.breakdown(_ALL_PHASES) == {
        p: (recorder.busy_time(p) / wall if wall > 0 else 0.0)
        for p in _ALL_PHASES}


@settings(max_examples=150, deadline=None)
@given(_ops, st.sampled_from(RETENTION_POLICIES), st.integers(1, 6))
def test_lazy_fold_matches_rescan_under_any_interleaving(ops, retention,
                                                         ring_size):
    recorder = TraceRecorder(retention=retention, ring_size=ring_size)
    full = retention == "full"
    history = []          # every record the aggregates must cover
    truncated = False     # a legacy truncation the recorder has not seen
    unfolded = 0          # records counted but never folded (clear/state)
    for op in ops:
        kind = op[0]
        if kind in ("append", "truncate") and not full:
            continue      # legacy list edits exist under full retention
        if kind == "append" and truncated:
            kind = "ingest"   # the next recorder call sees a truncation
        if kind == "record":
            (start, end), (phase, actor), with_meta = op[1:]
            meta = {"layer": 1} if with_meta else {}
            history.append(recorder.record(start, end, actor, phase, "x",
                                           **meta))
        elif kind in ("ingest", "append"):
            (start, end), (phase, actor) = op[1:]
            rec = TraceRecord(start, end, actor, phase, "x")
            if kind == "ingest":
                recorder.ingest(rec)
            else:
                recorder.records.append(rec)
            history.append(rec)
        elif kind == "stream":
            spans, (phase, actor) = op[1:]
            recorder.ingest_stream(spans, actor, phase, "x")
            history.extend(TraceRecord(s, e, actor, phase, "x")
                           for s, e in spans)
        elif kind == "truncate":
            keep = op[1] % (len(history) + 1)
            del recorder.records[keep:]
            del history[keep:]
            truncated = True
            continue
        elif kind == "clear":
            recorder.clear()
            history = []
        elif kind == "state":
            state = json.loads(json.dumps(recorder.state_dict()))
            recorder = TraceRecorder.from_state(state)
        else:
            _check_against_history(recorder, history)
        truncated = False
        if kind in ("clear", "state"):
            unfolded = recorder.records_folded - recorder.record_count
        if not full:
            assert recorder.retained_records <= ring_size
            # The pending list never reaches the ring size.
            pending = (recorder.record_count - recorder.records_folded
                       + unfolded)
            assert 0 <= pending < ring_size
    _check_against_history(recorder, history)
