"""The query kernel: may/must refinement, and batched query processing.

This module holds the only code that classifies mobile candidates
against a query region and the only code that derives their
uncertainty intervals for a query.  Every query route refines through
it: the one-at-a-time :class:`~repro.dbms.database.MovingObjectDatabase`
methods, :class:`BatchQueryEngine`, and the sharded facade and engine
of :mod:`repro.shard` (which only route queries and merge answers).

* :func:`derive_entries` — each candidate's uncertainty interval, its
  materialised geometry, and the geometry bbox; through the NumPy
  kernels of :mod:`repro.vec.bounds` when at least
  :data:`_MIN_VEC_CANDIDATES` records are derived at once, through
  :func:`~repro.core.uncertainty.uncertainty_interval` otherwise,
* :func:`refine_range` (Theorems 5-6), :func:`refine_within` (disc)
  and :func:`refine_proximity` (interval pairs) — may/must answers,
  with sound bbox pre-tests (batched through :mod:`repro.vec.geom`
  for :data:`_MIN_VEC_CANDIDATES` or more candidates) that decide an
  outcome only when the exact predicate is guaranteed to agree,
* :func:`nearest_entries` — min/max distance bounds for k-nearest,
  ranked by :func:`repro.dbms.query.rank_nearest`.

One-at-a-time queries derive their entries afresh on every call.
:class:`BatchQueryEngine` answers a workload of position / range /
within-distance queries with amortised work on top of the same
refiners:

* **R-tree multi-search** — all query windows are answered by a single
  shared tree traversal (:meth:`repro.index.rtree.RTree.search_many`
  via :meth:`repro.index.timespace.TimeSpaceIndex.candidates_at_many`),
* **generation-keyed uncertainty cache** — each candidate's entry is
  derived once per ``(object, t)`` and reused until that object's
  record changes (the record's update ``generation`` tags every cache
  entry, so a position update invalidates exactly one object, never
  the whole cache),
* **hoisted filter sets** — the stationary-object id set and each
  distinct ``(where, class_name)`` eligibility set are computed once
  per batch instead of once per query.

Answers are therefore **byte-identical** across routes;
``tests/dbms/test_batch.py``, ``tests/dbms/test_route_agreement.py``
and ``benchmarks/bench_query_batch.py`` assert this equivalence.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Union

import numpy as np

from repro.core.adaptive import AdaptivePolicy
from repro.core.baselines import (
    FixedThresholdPolicy,
    PeriodicPolicy,
    TraditionalPointPolicy,
)
from repro.core.bounds import bounds_for_policy
from repro.core.policies import (
    AverageImmediateLinearPolicy,
    CurrentImmediateLinearPolicy,
    DelayedLinearPolicy,
)
from repro.core.uncertainty import UncertaintyInterval, uncertainty_interval
from repro.dbms.moving_object import MovingObjectRecord
from repro.dbms.query import (
    Containment,
    NearestAnswer,
    PositionAnswer,
    RangeAnswer,
    check_radius,
    classify_distance_range,
    classify_polyline_against_polygon,
    classify_polyline_within_distance,
    disc_window,
    distance_range_between_polylines,
    distance_range_to_polyline,
)
from repro.errors import QueryError
from repro.geometry.bbox import Rect2D
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.index.rtree import SearchStats
from repro.obs.instrument import time_section
from repro.obs.live.windows import get_live
from repro.obs.registry import get_registry
from repro.trace.events import CACHE, answer_digest
from repro.trace.recorder import get_recorder
from repro.vec import bounds as vec_bounds
from repro.vec import geom as vec_geom

if TYPE_CHECKING:
    from repro.dbms.database import MovingObjectDatabase

#: Below this many candidates (or records to derive) the per-call NumPy
#: overhead outweighs the loop it replaces; the scalar path runs.
_MIN_VEC_CANDIDATES = 8

#: ``(generation, interval, geometry, bbox)`` of one candidate at one time.
Entry = tuple


@dataclass(frozen=True, slots=True)
class PositionQuery:
    """"What is the current position of ``object_id``?" at ``time``."""

    object_id: str
    time: float


@dataclass(frozen=True, slots=True)
class RangeQuery:
    """"Retrieve the objects currently in ``polygon``" at ``time``."""

    polygon: Polygon
    time: float
    where: dict[str, Any] | None = None
    class_name: str | None = None


@dataclass(frozen=True, slots=True)
class WithinDistanceQuery:
    """"Retrieve the objects within ``radius`` of ``center``" at ``time``."""

    center: Point
    radius: float
    time: float
    where: dict[str, Any] | None = None
    class_name: str | None = None


BatchQuery = Union[PositionQuery, RangeQuery, WithinDistanceQuery]
BatchAnswer = Union[PositionAnswer, RangeAnswer]

#: No-filter sentinel for the hoisted eligibility sets.
_NO_FILTER = None


def _exact_rect(polygon: Polygon) -> Rect2D | None:
    """``polygon``'s region as a :class:`Rect2D`, if it is exactly one.

    A simple 4-gon whose vertex set is the corner set of its bounding
    rectangle *is* that rectangle (any simple ordering of four corner
    points traces the same closed region).  Returns ``None`` for every
    other shape, in which case no rectangle shortcut applies.
    """
    vertices = polygon.vertices
    if len(vertices) != 4:
        return None
    rect = polygon.bounding_rect
    corners = {
        (rect.min_x, rect.min_y), (rect.max_x, rect.min_y),
        (rect.max_x, rect.max_y), (rect.min_x, rect.max_y),
    }
    if {(v.x, v.y) for v in vertices} != corners:
        return None
    return rect


def _rect_min_distance(center: Point, rect: Rect2D) -> float:
    """Distance from ``center`` to the closest point of ``rect``."""
    dx = max(rect.min_x - center.x, 0.0, center.x - rect.max_x)
    dy = max(rect.min_y - center.y, 0.0, center.y - rect.max_y)
    return math.hypot(dx, dy)


def _rect_max_distance(center: Point, rect: Rect2D) -> float:
    """Distance from ``center`` to the farthest point of ``rect``."""
    dx = max(center.x - rect.min_x, rect.max_x - center.x)
    dy = max(center.y - rect.min_y, rect.max_y - center.y)
    return math.hypot(dx, dy)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def validate_queries(database: Any, queries: list[BatchQuery]) -> None:
    """The sequential validation sequence, run up front in query order.

    ``database`` is a :class:`MovingObjectDatabase` or a
    :class:`~repro.shard.sharded.ShardedDatabase`; both raise the same
    :class:`QueryError` the one-at-a-time call would raise at the first
    offending query.
    """
    for query in queries:
        database._check_query_time(query.time)
        if isinstance(query, PositionQuery):
            database.record(query.object_id)
            continue
        database._check_index_coverage(query.time)
        if isinstance(query, WithinDistanceQuery):
            check_radius(query.radius)


# ----------------------------------------------------------------------
# Uncertainty derivation
# ----------------------------------------------------------------------


def derive_entries(database: MovingObjectDatabase,
                   records: list[MovingObjectRecord], t: float,
                   bounds_for: Callable[[MovingObjectRecord], Any]
                   = MovingObjectRecord.bounds) -> list[Entry]:
    """``(generation, interval, geometry, bbox)`` per record at ``t``.

    ``bounds_for`` maps a record to its deviation bounds (the batch
    engine passes its generation-keyed bounds cache).  Enough records
    go through the array kernels in one pass; every entry equals the
    one :func:`uncertainty_interval` and ``interval.geometry`` give.
    """
    if len(records) >= _MIN_VEC_CANDIDATES:
        return _derive_bulk(database, records, t, bounds_for)
    return [_derive_one(database, record, t, bounds_for)
            for record in records]


def _derive_one(database: MovingObjectDatabase, record: MovingObjectRecord,
                t: float,
                bounds_for: Callable[[MovingObjectRecord], Any]) -> Entry:
    """One record's entry, through the scalar functions."""
    route = database.routes.get(record.attribute.route_id)
    interval = uncertainty_interval(record.attribute, route,
                                    bounds_for(record), t)
    geometry = interval.geometry(route)
    return (record.generation, interval, geometry, geometry.bounding_rect())


def _derive_bulk(database: MovingObjectDatabase,
                 records: list[MovingObjectRecord], t: float,
                 bounds_for: Callable[[MovingObjectRecord], Any]) -> list[Entry]:
    """Derive entries for ``records`` via the array kernels.

    Records are grouped by bound family — Propositions 2-3 for dl,
    Proposition 4 for the immediate-linear/adaptive policies — and
    each group's intervals are evaluated in one vectorized pass.
    Records of other policy families, and records the kernels must
    not touch (query before last update, negative parameters — the
    scalar constructors own those errors), go through
    :func:`_derive_one` unchanged.
    """
    rows_dl: list[int] = []
    rows_imm: list[int] = []
    rows_scalar: list[int] = []
    for i, record in enumerate(records):
        attribute = record.attribute
        policy = record.policy
        if (database.routes.get(attribute.route_id) is None
                or t < attribute.starttime or attribute.speed < 0
                or record.max_speed < 0):
            rows_scalar.append(i)
        elif isinstance(policy, DelayedLinearPolicy):
            target = rows_dl if policy.update_cost >= 0 else rows_scalar
            target.append(i)
        elif isinstance(policy, (AverageImmediateLinearPolicy,
                                 CurrentImmediateLinearPolicy,
                                 AdaptivePolicy)) and not isinstance(
                policy, (FixedThresholdPolicy, TraditionalPointPolicy,
                         PeriodicPolicy)):
            target = rows_imm if policy.update_cost >= 0 else rows_scalar
            target.append(i)
        else:
            rows_scalar.append(i)
    entries: list[Entry] = [()] * len(records)
    if rows_dl:
        _derive_family(database, records, rows_dl, t, True, entries)
    if rows_imm:
        _derive_family(database, records, rows_imm, t, False, entries)
    for i in rows_scalar:
        entries[i] = _derive_one(database, records[i], t, bounds_for)
    return entries


def _derive_family(database: MovingObjectDatabase,
                   records: list[MovingObjectRecord], rows: list[int],
                   t: float, delayed: bool, entries: list[Entry]) -> None:
    """Vectorized interval derivation for one bound family.

    The array expressions mirror :func:`uncertainty_interval` and
    the :mod:`repro.core.bounds` closures element for element (see
    :mod:`repro.vec.bounds`); the per-record pieces that stay
    scalar — travel-coordinate projection of the start point and
    interval geometry — are the exact calls the scalar path makes.
    """
    n = len(rows)
    speed = np.empty(n, dtype=np.float64)
    max_speed = np.empty(n, dtype=np.float64)
    cost = np.empty(n, dtype=np.float64)
    starttime = np.empty(n, dtype=np.float64)
    start_travel = np.empty(n, dtype=np.float64)
    length = np.empty(n, dtype=np.float64)
    routes = []
    get_route = database.routes.get
    for j, i in enumerate(rows):
        record = records[i]
        attribute = record.attribute
        route = get_route(attribute.route_id)
        routes.append(route)
        speed[j] = attribute.speed
        max_speed[j] = record.max_speed
        cost[j] = record.policy.update_cost
        starttime[j] = attribute.starttime
        start_travel[j] = route.travel_distance_of(
            attribute.start_point, attribute.direction
        )
        length[j] = route.length
    elapsed = t - starttime
    gap = vec_bounds.speed_gap(speed, max_speed)
    if delayed:
        slow, fast = vec_bounds.delayed_slow_fast(speed, gap, cost, elapsed)
    else:
        slow, fast = vec_bounds.immediate_slow_fast(speed, gap, cost, elapsed)
    center = start_travel + speed * elapsed
    lower, upper = vec_bounds.clamp_travel(
        center - slow, center + fast, length
    )
    for j, i in enumerate(rows):
        record = records[i]
        route = routes[j]
        interval = UncertaintyInterval(
            route_id=route.route_id,
            direction=record.attribute.direction,
            lower=float(lower[j]),
            upper=float(upper[j]),
        )
        geometry = interval.geometry(route)
        entries[i] = (record.generation, interval, geometry,
                      geometry.bounding_rect())


# ----------------------------------------------------------------------
# Refinement
# ----------------------------------------------------------------------


def _classification_counters(registry):
    """Outcome -> counter, for refinement outcome accounting."""
    help_text = "Candidate classifications by may/must outcome."
    return {
        outcome: registry.counter("dbms_classified_total", help=help_text,
                                  outcome=outcome)
        for outcome in (Containment.OUT, Containment.MAY, Containment.MUST)
    }


def _fold(database: MovingObjectDatabase, t: float, ids: list[str],
          outcomes: list[str], stationary: Iterable[str],
          classify_point: Callable[[Point], str],
          counted: bool = False) -> RangeAnswer:
    """Collect mobile outcomes and the stationary pass into an answer.

    ``counted`` publishes the mobile outcomes as classification
    counters (range and within-distance queries do).
    """
    registry = get_registry()
    if counted and registry.enabled:
        counters = _classification_counters(registry)
        for outcome in outcomes:
            counters[outcome].inc()
    points = database._stationary
    stationary_ids = list(stationary)
    outcomes = outcomes + [classify_point(points[object_id][1])
                           for object_id in stationary_ids]
    may: set[str] = set()
    must: set[str] = set()
    for object_id, outcome in zip(ids + stationary_ids, outcomes):
        if outcome != Containment.OUT:
            may.add(object_id)
            if outcome == Containment.MUST:
                must.add(object_id)
    return RangeAnswer(
        time=t,
        may=frozenset(may),
        must=frozenset(must),
        examined=len(outcomes),
        candidates=frozenset(ids),
    )


def refine_range(database: MovingObjectDatabase, polygon: Polygon, t: float,
                 ids: list[str], entries: list[Entry],
                 stationary: Iterable[str]) -> RangeAnswer:
    """Theorems 5-6: may/must membership of ``ids`` in ``polygon``.

    ``entries`` are the candidates' :func:`derive_entries` values, in
    ``ids`` order; ``stationary`` are the eligible stationary ids,
    answered exactly (always *must* when inside).
    """
    query_rect = polygon.bounding_rect
    rect_region = _exact_rect(polygon)
    out_mask = must_mask = None
    if len(ids) >= _MIN_VEC_CANDIDATES:
        out_mask, must_mask = vec_geom.range_pretest(
            query_rect, rect_region, [entry[3] for entry in entries]
        )
    outcomes = []
    for i, entry in enumerate(entries):
        geometry, bbox = entry[2:]
        if (not query_rect.intersects(bbox) if out_mask is None
                else out_mask[i]):
            # Disjoint bboxes: the exact predicate cannot intersect
            # either, so OUT is decided without materialising it.
            outcomes.append(Containment.OUT)
        elif (rect_region is not None
              and (rect_region.contains_rect(bbox) if must_mask is None
                   else must_mask[i])):
            # The polygon is exactly a closed rectangle holding the
            # whole geometry bbox, so the exact predicate is MUST.
            outcomes.append(Containment.MUST)
        else:
            outcomes.append(
                classify_polyline_against_polygon(geometry, polygon)
            )
    return _fold(
        database, t, ids, outcomes, stationary,
        lambda point: (Containment.MUST if polygon.contains_point(point)
                       else Containment.OUT),
        counted=True,
    )


def refine_within(database: MovingObjectDatabase, center: Point,
                  radius: float, t: float, ids: list[str],
                  entries: list[Entry],
                  stationary: Iterable[str]) -> RangeAnswer:
    """May/must membership of ``ids`` in the disc of ``radius``."""
    out_mask = must_mask = None
    if len(ids) >= _MIN_VEC_CANDIDATES:
        out_mask, must_mask = vec_geom.within_pretest(
            center, radius, [entry[3] for entry in entries]
        )
    outcomes = []
    for i, entry in enumerate(entries):
        geometry, bbox = entry[2:]
        # Bbox distance bounds bracket the exact min/max distances
        # (the geometry lies inside its bbox), so these shortcuts
        # agree with the exact classification whenever they fire.
        # The vectorized screens are a hair conservative, so an
        # ulp-boundary bbox merely falls through to the exact
        # classifier; the outcome is the same either way.
        if (_rect_min_distance(center, bbox) > radius if out_mask is None
                else out_mask[i]):
            outcomes.append(Containment.OUT)
        elif (_rect_max_distance(center, bbox) <= radius
              if must_mask is None else must_mask[i]):
            outcomes.append(Containment.MUST)
        else:
            outcomes.append(
                classify_polyline_within_distance(center, radius, geometry)
            )
    return _fold(
        database, t, ids, outcomes, stationary,
        lambda point: (Containment.MUST if point.distance_to(center) <= radius
                       else Containment.OUT),
        counted=True,
    )


def refine_proximity(database: MovingObjectDatabase, anchor: Polyline,
                     radius: float, t: float, ids: list[str],
                     entries: list[Entry],
                     stationary: Iterable[str]) -> RangeAnswer:
    """May/must membership of ``ids`` within ``radius`` of an uncertain anchor.

    ``anchor`` is the anchor's interval geometry.  Both sides are
    uncertain, so a candidate *may* qualify when the closest consistent
    placement is within ``radius`` and *must* when even the farthest is.
    """
    outcomes = [
        classify_distance_range(
            *distance_range_between_polylines(anchor, entry[2]), radius
        )
        for entry in entries
    ]
    return _fold(
        database, t, ids, outcomes, stationary,
        lambda point: classify_distance_range(
            *distance_range_to_polyline(point, anchor), radius
        ),
    )


def nearest_entries(database: MovingObjectDatabase, center: Point,
                    ids: list[str], entries: list[Entry],
                    stationary: Iterable[str]) -> list[NearestAnswer]:
    """Unranked distance bounds from ``center`` for k-nearest ranking."""
    found = [
        NearestAnswer(object_id, *distance_range_to_polyline(center, entry[2]))
        for object_id, entry in zip(ids, entries)
    ]
    points = database._stationary
    for object_id in stationary:
        distance = points[object_id][1].distance_to(center)
        found.append(NearestAnswer(object_id, distance, distance))
    return found


# ----------------------------------------------------------------------
# Trace recording
# ----------------------------------------------------------------------


def record_batch(queries: list[BatchQuery], answers: list[BatchAnswer],
                 hits: int, misses: int) -> None:
    """Emit one batch's query events and its cache event."""
    rec = get_recorder()
    if not rec.enabled or not queries:
        return
    batch = rec.next_batch_id()
    for i, (query, answer) in enumerate(zip(queries, answers)):
        if isinstance(query, PositionQuery):
            rec.record_query(
                "position", answer_digest(answer),
                time=query.time, object_id=query.object_id,
                engine="batch", batch=batch, index=i,
            )
        elif isinstance(query, RangeQuery):
            rec.record_query(
                "range", answer_digest(answer), time=query.time,
                engine="batch", batch=batch, index=i,
                polygon=[[v.x, v.y] for v in query.polygon.vertices],
                where=query.where, class_name=query.class_name,
            )
        else:
            rec.record_query(
                "within", answer_digest(answer), time=query.time,
                engine="batch", batch=batch, index=i,
                center=[query.center.x, query.center.y],
                radius=query.radius, where=query.where,
                class_name=query.class_name,
            )
    rec.record(CACHE, hits=hits, misses=misses)


# ----------------------------------------------------------------------
# The batch engine
# ----------------------------------------------------------------------


class BatchQueryEngine:
    """Amortised query processing over a :class:`MovingObjectDatabase`.

    The engine is a read-side companion to the database: it owns no
    data, only caches of values derived from records.  Cache entries
    are tagged with the source record's update generation, so they
    survive across :meth:`run` calls and invalidate per object the
    moment a position update lands — a stale interval can never be
    served.

    ``max_cache_entries`` bounds the derived-value cache; on overflow
    the cache is cleared wholesale (correct, merely cold).
    """

    def __init__(self, database: MovingObjectDatabase,
                 max_cache_entries: int = 1 << 18) -> None:
        if max_cache_entries < 1:
            raise QueryError(
                f"max_cache_entries must be positive, got {max_cache_entries}"
            )
        self._db = database
        self._max_cache_entries = max_cache_entries
        #: ``(object_id, t) -> (generation, interval, geometry, bbox)``.
        self._derived: dict[tuple[str, float], Entry] = {}
        #: ``object_id -> (generation, DeviationBounds)``.
        self._bounds: dict[str, tuple] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def database(self) -> MovingObjectDatabase:
        return self._db

    def cache_size(self) -> int:
        """Entries currently held by the derived-value cache."""
        return len(self._derived)

    def hit_rate(self) -> float:
        """Lifetime uncertainty-cache hit rate (0.0 when never used)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    # ------------------------------------------------------------------
    # Derived-value caches
    # ------------------------------------------------------------------

    def _bounds_for(self, record: MovingObjectRecord) -> Any:
        """The record's deviation bounds, cached per update generation."""
        entry = self._bounds.get(record.object_id)
        if entry is not None and entry[0] == record.generation:
            return entry[1]
        bounds = bounds_for_policy(
            record.policy, record.attribute.speed, record.max_speed
        )
        self._bounds[record.object_id] = (record.generation, bounds)
        return bounds

    def _entries_for(self, object_ids: list[str], t: float) -> list[Entry]:
        """Cache entries for all candidates of one query, in id order.

        Counts exactly one hit or miss per candidate; the misses are
        derived together through :func:`derive_entries`.
        """
        records = self._db._records
        entries: list[Entry] = [()] * len(object_ids)
        miss_rows: list[int] = []
        for i, object_id in enumerate(object_ids):
            entry = self._derived.get((object_id, t))
            if entry is not None and entry[0] == records[object_id].generation:
                self.cache_hits += 1
                entries[i] = entry
            else:
                self.cache_misses += 1
                miss_rows.append(i)
        if not miss_rows:
            return entries
        derived = derive_entries(
            self._db, [records[object_ids[i]] for i in miss_rows], t,
            self._bounds_for,
        )
        for i, entry in zip(miss_rows, derived):
            if len(self._derived) >= self._max_cache_entries:
                self._derived.clear()
            self._derived[(object_ids[i], t)] = entry
            entries[i] = entry
        return entries

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------

    def run(self, queries: list[BatchQuery],
            stats: SearchStats | None = None) -> list[BatchAnswer]:
        """Answer ``queries`` in order, with work amortised across them.

        Validation (query-time monotonicity, horizon coverage, radius,
        known object ids) runs up front in query order and raises
        the same :class:`QueryError` the sequential path would raise at
        the first offending query; no answers are produced on error.
        ``stats`` aggregates index work over the whole batch.
        """
        hits_before = self.cache_hits
        misses_before = self.cache_misses
        live = get_live()
        started = time.perf_counter() if live.enabled else 0.0
        with time_section("dbms_batch_seconds",
                          help="Wall-clock latency of one query batch."):
            validate_queries(self._db, queries)
            candidates = self._gather_candidates(queries, stats)
            eligible = _EligibilitySets(self._db)
            answers: list[BatchAnswer] = []
            for i, query in enumerate(queries):
                if isinstance(query, PositionQuery):
                    answers.append(self._answer_position(query))
                elif isinstance(query, RangeQuery):
                    answers.append(self._answer_range(
                        query, candidates[i], eligible
                    ))
                else:
                    answers.append(self._answer_within(
                        query, candidates[i], eligible
                    ))
        if live.enabled:
            live.observe("dbms_batch_seconds",
                         time.perf_counter() - started)
            live.inc("dbms_batch_queries", float(len(queries)))
        self._publish(queries, hits_before, misses_before)
        record_batch(queries, answers, self.cache_hits - hits_before,
                     self.cache_misses - misses_before)
        return answers

    def _gather_candidates(self, queries: list[BatchQuery],
                           stats: SearchStats | None) -> list[set[str] | None]:
        """Pre-refinement candidate sets, one slot per query.

        Position queries get ``None``; range/within queries get the
        same id set :meth:`MovingObjectDatabase._candidates` would
        return, but retrieved through one shared traversal when the
        index supports multi-search.
        """
        db = self._db
        windows: list[tuple[Rect2D, float]] = []
        slots: list[int] = []
        for i, query in enumerate(queries):
            if isinstance(query, RangeQuery):
                windows.append((query.polygon.bounding_rect, query.time))
            elif isinstance(query, WithinDistanceQuery):
                windows.append((disc_window(query.center, query.radius),
                                query.time))
            else:
                continue
            slots.append(i)
        candidates: list[set[str] | None] = [None] * len(queries)
        if not windows:
            return candidates
        index = db._index
        if index is not None and hasattr(index, "candidates_at_many"):
            found = index.candidates_at_many(windows, stats)
            for slot, ids in zip(slots, found):
                candidates[slot] = ids
        else:
            # No index, or one without multi-search (e.g. the
            # linear-scan baseline): one lookup per query.
            for slot, (region, t) in zip(slots, windows):
                candidates[slot] = db._candidates(region, t, stats)
        return candidates

    def _answer_position(self, query: PositionQuery) -> PositionAnswer:
        db = self._db
        record = db._records[query.object_id]
        route = db.routes.get(record.attribute.route_id)
        elapsed = record.attribute.elapsed(query.time)
        bounds = self._bounds_for(record)
        interval = self._entries_for([query.object_id], query.time)[0][1]
        return PositionAnswer(
            object_id=query.object_id,
            time=query.time,
            position=record.database_position(route, query.time),
            slow_bound=bounds.slow(elapsed),
            fast_bound=bounds.fast(elapsed),
            error_bound=bounds.total(elapsed),
            interval=interval,
        )

    def _answer_range(self, query: RangeQuery, candidates: set[str],
                      eligible: _EligibilitySets) -> RangeAnswer:
        ids = list(eligible.filter_mobile(candidates, query.where,
                                          query.class_name))
        return refine_range(
            self._db, query.polygon, query.time, ids,
            self._entries_for(ids, query.time),
            eligible.stationary(query.where, query.class_name),
        )

    def _answer_within(self, query: WithinDistanceQuery,
                       candidates: set[str],
                       eligible: _EligibilitySets) -> RangeAnswer:
        ids = list(eligible.filter_mobile(candidates, query.where,
                                          query.class_name))
        return refine_within(
            self._db, query.center, query.radius, query.time, ids,
            self._entries_for(ids, query.time),
            eligible.stationary(query.where, query.class_name),
        )

    def _publish(self, queries: list[BatchQuery], hits_before: int,
                 misses_before: int) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        kinds = {"position": 0, "range": 0, "within": 0}
        for query in queries:
            if isinstance(query, PositionQuery):
                kinds["position"] += 1
            elif isinstance(query, RangeQuery):
                kinds["range"] += 1
            else:
                kinds["within"] += 1
        help_text = "Queries answered by the batch engine, by kind."
        for kind, count in kinds.items():
            if count:
                registry.counter(
                    "dbms_batch_queries_total", help=help_text, kind=kind,
                ).inc(count)
        registry.counter(
            "dbms_batch_cache_hits_total",
            help="Uncertainty-cache hits in the batch engine.",
        ).inc(self.cache_hits - hits_before)
        registry.counter(
            "dbms_batch_cache_misses_total",
            help="Uncertainty-cache misses in the batch engine.",
        ).inc(self.cache_misses - misses_before)
        registry.gauge(
            "dbms_batch_cache_hit_rate",
            help="Lifetime hit rate of the batch uncertainty cache.",
        ).set(self.hit_rate())


class _EligibilitySets:
    """Per-batch hoisting of filter work.

    ``filter_mobile`` intersects a candidate set with the ids passing a
    ``(where, class_name)`` filter — computed once per distinct filter
    over all records, instead of per query over each candidate set.
    ``stationary`` does the same for the stationary population.  Both
    reproduce :meth:`MovingObjectDatabase._filter_candidates` membership
    exactly (candidate sets only ever contain known ids).
    """

    def __init__(self, database: MovingObjectDatabase) -> None:
        self._db = database
        self._mobile: dict = {}
        self._stationary: dict = {}

    @staticmethod
    def _key(where: dict[str, Any] | None, class_name: str | None):
        if where is None and class_name is None:
            return _NO_FILTER
        items = None if where is None else tuple(sorted(where.items()))
        return (class_name, items)

    def filter_mobile(self, candidates: set[str],
                      where: dict[str, Any] | None,
                      class_name: str | None) -> set[str]:
        try:
            key = self._key(where, class_name)
        except TypeError:
            # Unhashable filter values: fall back to direct filtering.
            return set(self._db._filter_candidates(
                candidates, where, class_name
            ))
        if key is _NO_FILTER:
            return candidates
        passing = self._mobile.get(key)
        if passing is None:
            passing = frozenset(self._db._filter_candidates(
                frozenset(self._db._records), where, class_name
            ))
            self._mobile[key] = passing
        return candidates & passing

    def stationary(self, where: dict[str, Any] | None,
                   class_name: str | None):
        db = self._db
        try:
            key = self._key(where, class_name)
        except TypeError:
            return db._stationary_for(where, class_name)
        if key is _NO_FILTER:
            return db.stationary_id_set()
        passing = self._stationary.get(key)
        if passing is None:
            passing = frozenset(db._stationary_for(where, class_name))
            self._stationary[key] = passing
        return passing

__all__ = [
    "BatchAnswer",
    "BatchQuery",
    "BatchQueryEngine",
    "PositionQuery",
    "RangeQuery",
    "WithinDistanceQuery",
    "derive_entries",
    "nearest_entries",
    "record_batch",
    "refine_proximity",
    "refine_range",
    "refine_within",
    "validate_queries",
]
