"""Execution tracing for breakdown and utilization metrics.

Every timed activity in the simulation (parsing a layer, loading a code
object, checking a solution's applicability, a kernel running on the GPU)
records a :class:`TraceRecord`.  The figures of the paper are aggregations
over such traces:

- Fig. 1(b) / Fig. 7: per-phase time breakdowns,
- Fig. 6(b): GPU utilization = merged EXEC interval length / total time.

Aggregation is *lazy and batched*: ``record``/``ingest`` only retain a
record; the next metric query folds every pending record at once,
through one kernel (:func:`_fold_spans`), into per-(phase, actor)
accumulators — a left-to-right duration sum plus the canonical interval
union.  A run that never asks for a breakdown never pays for one, and a
repeat query costs O(merged segments) (see docs/PERFORMANCE.md).

Two retention policies control what else is kept:

- ``"full"`` (default) — every record is retained; the records not yet
  folded are the tail of ``records``, and all metrics are
  byte-identical to a full scan (pinned by the property tests).
- ``"aggregate"`` — only the accumulators plus a bounded ring of the
  most recent records are retained, and the pending list folds when it
  reaches ``ring_size``, so a long-horizon run holds O(1) memory in the
  number of records while reporting the exact same aggregate metrics.
"""

from __future__ import annotations

import enum
import operator
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, compress, islice
from typing import (Any, Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

__all__ = ["Phase", "TraceRecord", "TraceRecorder", "merge_intervals",
           "subtract_intervals", "RETENTION_POLICIES"]

RETENTION_POLICIES = ("full", "aggregate")


class Phase(enum.Enum):
    """Execution-ordering phases an activity can belong to.

    The first four mirror the cold-start breakdown of Fig. 1(b); CHECK and
    OVERHEAD separate the costs PASK itself introduces (Fig. 7).
    """

    PARSE = "parse"          # model de-serialization / layer parsing
    LOAD = "load"            # kernel code-object loading
    ISSUE = "issue"          # host-side kernel launch / runtime dispatch
    EXEC = "exec"            # GPU computation
    CHECK = "check"          # solution applicability checking (PASK lookup)
    OVERHEAD = "overhead"    # other PASK bookkeeping (cache maintenance)
    OTHER = "other"          # host-device sync, allocation, misc
    FAULT = "fault"          # injected failure / stall (repro.sim.faults)
    RETRY = "retry"          # backoff and re-attempt after a fault
    CHECKPOINT = "checkpoint"  # warm-state snapshot write (resilience)
    RESTORE = "restore"      # warm-state restore after crash/drain
    DRAIN = "drain"          # graceful supervised drain/restart

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class TraceRecord:
    """One timed activity."""

    start: float
    end: float
    actor: str
    phase: Phase
    label: str = ""
    meta: Tuple[Tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        """Interval length in seconds."""
        return self.end - self.start


def merge_intervals(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge overlapping or touching ``(start, end)`` intervals.

    Returns the canonical sorted, disjoint form.  Zero-length intervals
    (``start == end``) are *kept* as points unless another interval
    touches them — instantaneous activities (e.g. a CHECK answered from
    cache in zero simulated time) still count in record-based
    accounting.  Reversed intervals (``end < start``) are invalid input
    and are dropped.
    """
    ordered = sorted((s, e) for s, e in intervals if e >= s)
    merged: List[Tuple[float, float]] = []
    for start, end in ordered:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def subtract_intervals(base: List[Tuple[float, float]],
                       remove: List[Tuple[float, float]]
                       ) -> List[Tuple[float, float]]:
    """Portions of merged ``base`` intervals not covered by merged
    ``remove`` intervals (both inputs must be sorted and disjoint).

    Zero-length *remove* intervals carry no measure and are ignored, so
    subtracting a point never splits a base interval in two.  A
    zero-length *base* interval survives unless a positive-length remove
    interval covers it.
    """
    out: List[Tuple[float, float]] = []
    for start, end in base:
        cursor = start
        for r_start, r_end in remove:
            if r_end <= r_start or r_end <= cursor or r_start >= end:
                continue
            if r_start > cursor:
                out.append((cursor, min(r_start, end)))
            cursor = max(cursor, r_end)
            if cursor >= end:
                break
        if cursor < end or (cursor == start == end):
            out.append((cursor, end))
    return out


def _insert_interval(segs: List[Tuple[float, float]],
                     start: float, end: float) -> None:
    """Insert ``(start, end)`` into the sorted disjoint union ``segs``.

    Out-of-order spans land here (the appending fast path lives in
    :func:`_fold_spans`); the result is the same canonical form
    :func:`merge_intervals` produces over the whole history.
    """
    i = bisect_left(segs, (start, end))
    if i > 0 and segs[i - 1][1] >= start:
        i -= 1
        start = segs[i][0]
        if segs[i][1] > end:
            end = segs[i][1]
    j = i
    while j < len(segs) and segs[j][0] <= end:
        if segs[j][1] > end:
            end = segs[j][1]
        j += 1
    segs[i:j] = [(start, end)]


class _Accumulator:
    """Aggregate for one (phase, actor) filter key.

    ``total`` is the left-to-right sum of durations in record-arrival
    order — the exact float sequence a full scan would add — and
    ``segs`` is the canonical merged interval union.  Both are updated
    only by :func:`_fold_spans`.
    """

    __slots__ = ("total", "count", "segs", "_busy", "_dirty")

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0
        self.segs: List[Tuple[float, float]] = []
        self._busy = 0.0
        self._dirty = False

    def busy(self) -> float:
        """Union length — identical to summing the merged full scan.

        Cached between mutations: the recompute is always the canonical
        left-to-right sum over the sorted segments, so the cache never
        changes the float result, it only skips redundant O(segments)
        scans on repeated metric queries.
        """
        if self._dirty:
            self._busy = sum(e - s for s, e in self.segs)
            self._dirty = False
        return self._busy


def _fold_spans(buckets: Iterable[_Accumulator], starts: List[float],
                ends: List[float]) -> None:
    """The one fold kernel: fold the arrival-ordered spans
    ``zip(starts, ends)`` into every bucket.

    Totals add durations left to right with ``accumulate`` (``sum()``
    compensates on Python 3.12+), the float sequence per-record folding
    adds.  The spans' canonical union is a function of the point set
    alone and only selects input endpoints, so merging it into each
    bucket yields the segments per-record insertion would.
    """
    durations = list(map(operator.sub, ends, starts))
    if any(map(operator.gt, starts, islice(starts, 1, None))):
        order = sorted(range(len(starts)), key=starts.__getitem__)
        starts = list(map(starts.__getitem__, order))
        ends = list(map(ends.__getitem__, order))
    # With starts sorted, a new canonical segment opens exactly where a
    # start clears the running maximum of all earlier ends, and that
    # running maximum at the segment's last index is the segment's end.
    # Everything runs inside itertools/operator.
    if any(map(operator.gt, ends, islice(ends, 1, None))):
        run_max = list(accumulate(ends, max))
    else:
        run_max = ends
    opens = list(map(operator.gt, islice(starts, 1, None), run_max))
    union = list(zip(compress(starts, chain((True,), opens)),
                     compress(run_max, chain(opens, (True,)))))
    batch = len(durations)
    for bucket in buckets:
        bucket.total = deque(
            accumulate(durations, initial=bucket.total), maxlen=1)[0]
        bucket.count += batch
        bucket._dirty = True
        segs = bucket.segs
        # Merge only the union prefix that interacts with existing
        # history; the remainder — all of it, in the common case of
        # spans that start after everything folded so far — appends in
        # one C-level extend.
        overlap = 0
        if segs:
            last_start, last_end = segs[-1]
            for start, end in union:
                if start > last_end:
                    break
                if start >= last_start:
                    if end > last_end:
                        segs[-1] = (last_start, end)
                        last_end = end
                else:
                    _insert_interval(segs, start, end)
                    last_start, last_end = segs[-1]
                overlap += 1
        segs.extend(islice(union, overlap, None))


_Key = Tuple[Optional[Phase], Optional[str]]
_START = operator.attrgetter("start")
_END = operator.attrgetter("end")
_PAIR = operator.attrgetter("phase._value_", "actor")


def _bucket_keys(phase: Phase, actor: str) -> Tuple[_Key, ...]:
    """The four filter keys one record counts toward, in the order
    their buckets are created."""
    return ((phase, actor), (phase, None), (None, actor), (None, None))


class TraceRecorder:
    """Collects trace records and computes the paper's aggregate metrics.

    ``retention="full"`` (default) keeps the entire record history in
    ``records`` — a plain list, safe to read (and, for legacy callers,
    append to or truncate: the next recorder call picks the change up).
    ``retention="aggregate"`` keeps only the aggregates plus a bounded
    ring (``ring_size``) of the most recent records; aggregate metrics
    are byte-identical between the two policies, but ``filtered()``
    then only sees the ring.  ``records_folded`` counts the records the
    fold kernel has processed since construction.
    """

    def __init__(self, records: Optional[Iterable[TraceRecord]] = None,
                 retention: str = "full", ring_size: int = 1024) -> None:
        if retention not in RETENTION_POLICIES:
            raise ValueError(f"unknown retention policy {retention!r}; "
                             f"expected one of {RETENTION_POLICIES}")
        if ring_size <= 0:
            raise ValueError("ring_size must be positive")
        self.retention = retention
        self.ring_size = ring_size
        self.records: Union[List[TraceRecord], "deque[TraceRecord]"]
        if retention == "full":
            self.records = []
        else:
            self.records = deque(maxlen=ring_size)
        self._acc: Dict[_Key, _Accumulator] = {}
        # Records folded into ``_acc``; the pending ones are
        # ``records[_count:]`` (full) or ``_pending`` (aggregate).
        self._count = 0
        self._pending: List[TraceRecord] = []
        self.records_folded = 0
        # Optional telemetry hook (repro.obs): called with every record
        # that flows through ingest()/ingest_stream().  None (default)
        # keeps the hot path to a single falsy check; records appended
        # directly to ``records`` by legacy callers bypass it.
        self.observer: Optional[Any] = None
        if records is not None:
            for record in records:
                self.ingest(record)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def record(self, start: float, end: float, actor: str, phase: Phase,
               label: str = "", **meta: Any) -> TraceRecord:
        """Append a record; ``end`` must not precede ``start``."""
        if end < start:
            raise ValueError(f"record ends before it starts: {start} > {end}")
        rec = TraceRecord(start, end, actor, phase, label,
                          tuple(sorted(meta.items())) if meta else ())
        self.ingest(rec)
        return rec

    def ingest(self, rec: TraceRecord) -> None:
        """Retain an already-built record (fully, or in the ring under
        ``retention="aggregate"``); it is folded at the next query."""
        if self.retention == "full":
            if len(self.records) < self._count:
                self._reset_aggregates()   # truncated by a legacy caller
            self.records.append(rec)
        else:
            self.records.append(rec)
            pending = self._pending
            pending.append(rec)
            if len(pending) >= self.ring_size:
                self._flush()
        if self.observer is not None:
            self.observer(rec)

    def ingest_stream(self, spans: Iterable[Tuple[float, float]],
                      actor: str, phase: Phase, label: str = "") -> None:
        """Fold a homogeneous stream of ``(start, end)`` intervals.

        Byte-identical to calling :meth:`record` once per pair with the
        same actor/phase/label (and no meta), but the stream folds
        eagerly as one batch into its four buckets and, under aggregate
        retention, only intervals that can survive the ring are
        materialized as :class:`TraceRecord` objects — which is what
        makes million-record steady-state batches cheap.
        """
        self._flush()
        span_list = list(spans)
        if not span_list:
            return
        starts = [start for start, _ in span_list]
        ends = [end for _, end in span_list]
        if any(map(operator.gt, starts, ends)):
            for start, end in span_list:
                if end < start:
                    raise ValueError(
                        f"record ends before it starts: {start} > {end}")
        _fold_spans([self._acc.setdefault(key, _Accumulator())
                     for key in _bucket_keys(phase, actor)], starts, ends)
        self._count += len(span_list)
        self.records_folded += len(span_list)
        records = self.records
        tail = (span_list if self.retention == "full"
                else span_list[-self.ring_size:])
        for start, end in tail:
            records.append(TraceRecord(start, end, actor, phase, label))
        if self.observer is not None:
            # Fast-forwarded / batched segments still surface as
            # individual spans downstream: synthesize the records a
            # per-record ingest would have produced.
            observer = self.observer
            for start, end in span_list:
                observer(TraceRecord(start, end, actor, phase, label))

    def _fold_records(self, batch: Sequence[TraceRecord]) -> None:
        """Fold arrival-ordered records through :func:`_fold_spans`.

        Each new (phase, actor) pair, in first-appearance order, adds
        its missing buckets in :func:`_bucket_keys` order — the order
        per-record folding creates them, so ``state_dict()`` does not
        depend on when queries run.
        """
        starts = list(map(_START, batch))
        ends = list(map(_END, batch))
        # Group record indices by (phase, actor) in C: the keys carry
        # the phase's value because hashing an Enum member runs Python.
        pairs = list(map(_PAIR, batch))
        groups: Dict[Tuple[str, str], List[int]] = {
            pair: [] for pair in dict.fromkeys(pairs)}
        deque(map(list.append, map(groups.__getitem__, pairs),
                  range(len(pairs))), maxlen=0)
        acc = self._acc
        parts: Dict[_Key, List[List[int]]] = {}
        for indices in groups.values():
            first = batch[indices[0]]
            for key in _bucket_keys(first.phase, first.actor):
                acc.setdefault(key, _Accumulator())
                parts.setdefault(key, []).append(indices)
        for key, lists in parts.items():
            if key == (None, None):
                _fold_spans((acc[key],), starts, ends)
                continue
            indices = (lists[0] if len(lists) == 1
                       else sorted(chain.from_iterable(lists)))
            _fold_spans((acc[key],), list(map(starts.__getitem__, indices)),
                        list(map(ends.__getitem__, indices)))
        self._count += len(batch)
        self.records_folded += len(batch)

    def _flush(self) -> None:
        """Fold every pending record into the aggregates."""
        if self.retention == "full":
            records = self.records
            if len(records) < self._count:
                self._reset_aggregates()   # truncated by a legacy caller
            if len(records) > self._count:
                self._fold_records(records[self._count:])
        elif self._pending:
            pending = self._pending
            self._pending = []
            self._fold_records(pending)

    def _reset_aggregates(self) -> None:
        self._acc.clear()
        self._count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def record_count(self) -> int:
        """Total records ever ingested (survives ring eviction); O(1),
        never folds."""
        if self.retention == "full":
            return len(self.records)
        return self._count + len(self._pending)

    @property
    def retained_records(self) -> int:
        """Records currently held in memory (== ``record_count`` under
        full retention; bounded by ``ring_size`` under aggregate)."""
        return len(self.records)

    def filtered(self, phase: Optional[Phase] = None,
                 actor: Optional[str] = None) -> List[TraceRecord]:
        """Retained records matching the given phase and/or actor.

        Under full retention this is the whole history; under aggregate
        retention only the ring of recent records is visible.  With no
        filter and full retention the live list is returned without
        copying — treat it as read-only.
        """
        if phase is None and actor is None:
            if self.retention == "full":
                return self.records  # type: ignore[return-value]
            return list(self.records)
        return [r for r in self.records
                if (phase is None or r.phase is phase)
                and (actor is None or r.actor == actor)]

    def _segments(self, phase: Optional[Phase],
                  actor: Optional[str]) -> List[Tuple[float, float]]:
        """The canonical merged interval union for a filter key.

        The returned list is live accumulator state — callers must not
        mutate it.
        """
        self._flush()
        acc = self._acc.get((phase, actor))
        return acc.segs if acc is not None else []

    # ------------------------------------------------------------------
    # Aggregate metrics (O(merged segments) once pending records fold)
    # ------------------------------------------------------------------
    def total(self, phase: Optional[Phase] = None,
              actor: Optional[str] = None) -> float:
        """Summed durations of matching records (may double-count overlap)."""
        self._flush()
        acc = self._acc.get((phase, actor))
        return acc.total if acc is not None else 0.0

    def busy_time(self, phase: Optional[Phase] = None,
                  actor: Optional[str] = None) -> float:
        """Length of the merged union of matching intervals (no overlap)."""
        self._flush()
        acc = self._acc.get((phase, actor))
        return acc.busy() if acc is not None else 0.0

    def span(self) -> Tuple[float, float]:
        """``(earliest start, latest end)`` over all records: the ends of
        the whole trace's canonical interval union."""
        self._flush()
        acc = self._acc.get((None, None))
        if acc is None:
            return (0.0, 0.0)
        return (acc.segs[0][0], acc.segs[-1][1])

    def breakdown(self, phases: Sequence[Phase],
                  total_time: Optional[float] = None) -> Dict[Phase, float]:
        """Fractions of ``total_time`` spent per phase (busy-time based).

        Without an explicit ``total_time`` the full trace span is used.
        Fractions need not sum to 1: phases may overlap each other and idle
        gaps are not attributed.
        """
        if total_time is None:
            start, end = self.span()
            total_time = end - start
        if total_time <= 0:
            return {phase: 0.0 for phase in phases}
        return {phase: self.busy_time(phase=phase) / total_time
                for phase in phases}

    def exclusive_fractions(self, priorities: Sequence[Phase],
                            total_time: Optional[float] = None
                            ) -> Dict[Phase, float]:
        """Wall-clock fractions with each instant attributed to exactly
        one phase, earlier entries of ``priorities`` winning overlaps.

        This is how the paper's breakdowns count time: phases overlap
        under interleaved execution, but a wall-clock second belongs to
        whichever activity dominates it (GPU compute first, then loading,
        then bookkeeping).  Unattributed time is simply absent from the
        result; the caller usually assigns the remainder to "others".
        """
        if total_time is None:
            start, end = self.span()
            total_time = end - start
        if total_time <= 0:
            return {phase: 0.0 for phase in priorities}
        claimed: List[Tuple[float, float]] = []
        out: Dict[Phase, float] = {}
        for phase in priorities:
            mine = self._segments(phase, None)
            exclusive = subtract_intervals(mine, claimed)
            out[phase] = sum(e - s for s, e in exclusive) / total_time
            claimed = merge_intervals(claimed + mine)
        return out

    def utilization(self, actor: str = "gpu",
                    total_time: Optional[float] = None) -> float:
        """Fraction of time ``actor`` spent in EXEC (GPU utilization)."""
        if total_time is None:
            start, end = self.span()
            total_time = end - start
        if total_time <= 0:
            return 0.0
        return self.busy_time(phase=Phase.EXEC, actor=actor) / total_time

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the recorder: retained records plus the
        folded aggregates, so :meth:`from_state` reconstructs an
        aggregate-mode recorder exactly even though most of its record
        history is gone.  Floats survive a JSON round-trip bit-for-bit.
        """
        self._flush()
        return {
            "retention": self.retention,
            "ring_size": self.ring_size,
            "count": self._count,
            "span": list(self.span()),
            "records": [[r.start, r.end, r.actor, r.phase.value, r.label,
                         [[k, v] for k, v in r.meta]] for r in self.records],
            "acc": [[phase.value if phase is not None else None, actor,
                     a.total, a.count, [[s, e] for s, e in a.segs]]
                    for (phase, actor), a in self._acc.items()],
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "TraceRecorder":
        """Inverse of :meth:`state_dict`."""
        recorder = cls(retention=state["retention"],
                       ring_size=state["ring_size"])
        for start, end, actor, phase, label, meta in state["records"]:
            recorder.records.append(TraceRecord(
                start, end, actor, Phase(phase), label,
                tuple((k, v) for k, v in meta)))
        for phase, actor, total, count, segs in state["acc"]:
            acc = _Accumulator()
            acc.total = total
            acc.count = count
            acc.segs = [(s, e) for s, e in segs]
            acc._dirty = True
            key = (Phase(phase) if phase is not None else None, actor)
            recorder._acc[key] = acc
        recorder._count = state["count"]
        return recorder

    def clear(self) -> None:
        """Drop all records and aggregates."""
        self.records.clear()
        self._pending = []
        self._reset_aggregates()

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecorder):
            return NotImplemented
        return (self.retention == other.retention
                and list(self.records) == list(other.records))

    def __repr__(self) -> str:
        return (f"TraceRecorder(retention={self.retention!r}, "
                f"records={self.record_count}, "
                f"retained={self.retained_records})")
