"""A spatially sharded moving-objects database.

:class:`ShardedDatabase` presents the :class:`MovingObjectDatabase`
API over N inner databases, one per shard of a
:class:`~repro.shard.partition.Partitioning`:

* **routing** — each mobile object is owned by exactly one shard,
  chosen from its insert position; ownership is sticky (an object that
  drives into another cell stays with its owner — the owner's
  *coverage* grows instead), so every update and position query is a
  single-shard operation.
* **fan-out pruning** — each shard tracks a coverage rectangle: the
  union of the route bounding boxes of every route its objects have
  ever been assigned.  Every index box of an o-plane is a sub-polyline
  of its route (:meth:`OPlane.travel_range` clamps to ``[0, length]``),
  so a query window disjoint from a shard's coverage cannot match any
  of its index boxes — that shard is skipped without changing the
  answer.  Pruning only engages when every shard runs a
  :class:`~repro.index.timespace.TimeSpaceIndex`; with no index (or
  the linear-scan baseline) candidate sets are the whole population
  and every shard must be consulted.
* **byte-identical merges** — may/must/candidate sets union across
  fanned shards (candidate sets partition by owner) and ``examined``
  counts sum, so every merged answer equals the single-database answer
  field for field.  Stationary objects live in one dedicated inner
  database and contribute to every fanned query exactly as the
  single-database stationary pass does.

The facade owns the flight-recorder stream: inner databases run
quietly and the facade emits the exact events a single database would
(plus one ``shard_route`` event per mobile insert), so sharded runs
record and replay like unsharded ones.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.core.policy import UpdatePolicy
from repro.core.position import PositionAttribute
from repro.dbms.database import DatabaseClock, MovingObjectDatabase
from repro.dbms.moving_object import MovingObjectRecord
from repro.dbms.query import (
    NearestAnswer,
    PositionAnswer,
    RangeAnswer,
    check_radius,
    disc_window,
    rank_nearest,
)
from repro.dbms.schema import Schema, SpatialKind
from repro.dbms.update_log import PositionUpdateMessage, UpdateLog
from repro.errors import QueryError, SchemaError, ShardError
from repro.geometry.bbox import Rect2D
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.index.rtree import SearchStats
from repro.index.timespace import TimeSpaceIndex
from repro.routes.route import Route, RouteDatabase
from repro.shard.partition import Partitioning
from repro.trace.events import (
    DB_CONFIG,
    INDEX_CONFIG,
    INSERT_MOBILE,
    INSERT_STATIONARY,
    REMOVE_OBJECT,
    ROUTE_REGISTER,
    SHARD_ROUTE,
    answer_digest,
)
from repro.trace.recorder import get_recorder, set_recorder


#: A per-database query: ``(database, stats)`` to that database's answer.
PieceQuery = Callable[[MovingObjectDatabase, SearchStats | None], RangeAnswer]


@contextmanager
def quiet_recording() -> Iterator[None]:
    """Suppress the ambient recorder for the duration of the block.

    The facade records the canonical event stream itself; inner
    per-shard databases would otherwise duplicate it.
    """
    rec = get_recorder()
    if not rec.enabled:
        yield
        return
    set_recorder(None)
    try:
        yield
    finally:
        set_recorder(rec)


def _merge_range(previous: RangeAnswer | None,
                 piece: RangeAnswer) -> RangeAnswer:
    """Fold one shard's (or the stationary store's) partial answer in.

    Candidate sets partition by owner shard, so unions and sums
    reproduce the single-database fields exactly.
    """
    if previous is None:
        return piece
    return RangeAnswer(
        time=piece.time,
        may=previous.may | piece.may,
        must=previous.must | piece.must,
        examined=previous.examined + piece.examined,
        candidates=previous.candidates | piece.candidates,
    )


class ShardedDatabase(DatabaseClock):
    """N :class:`MovingObjectDatabase` shards behind one facade.

    ``index_factory`` builds one index per shard (``None`` leaves the
    shards index-free, like ``MovingObjectDatabase(index=None)``).
    The schema and route catalogue are shared by every shard, so
    cross-shard answers classify through identical inputs.
    """

    def __init__(self, partitioning: Partitioning,
                 schema: Schema | None = None,
                 index_factory: Callable[[], Any] | None = None,
                 horizon: float = 120.0) -> None:
        if horizon <= 0:
            raise QueryError(f"horizon must be positive, got {horizon}")
        self.partitioning = partitioning
        self.num_shards = partitioning.num_shards
        self.schema = schema or Schema()
        self.routes = RouteDatabase()
        self.update_log = UpdateLog()
        self.horizon = horizon
        self.clock_time = 0.0
        with quiet_recording():
            self._shards = [
                MovingObjectDatabase(
                    schema=self.schema,
                    index=index_factory() if index_factory else None,
                    horizon=horizon,
                )
                for _ in range(self.num_shards)
            ]
            self._stationary_db = MovingObjectDatabase(
                schema=self.schema, index=None, horizon=horizon
            )
        for db in self._shards:
            db.routes = self.routes
        self._stationary_db.routes = self.routes
        #: ``object_id -> shard`` in insertion order, so ``object_ids``
        #: matches the single-database iteration order.
        self._owner: dict[str, int] = {}
        self._coverage: list[Rect2D | None] = [None] * self.num_shards
        self._covered_routes: list[set[str]] = [
            set() for _ in range(self.num_shards)
        ]
        rec = get_recorder()
        if rec.enabled:
            config: dict[str, Any] = {
                "horizon": horizon,
                "index": type(self._shards[0]._index).__name__
                if self._shards[0]._index is not None else "none",
                "shards": self.num_shards,
                "partitioning": partitioning.to_spec(),
            }
            if hasattr(self._shards[0]._index, "slab_minutes"):
                config["slab_minutes"] = self._shards[0]._index.slab_minutes
            rec.record(DB_CONFIG, **config)

    # ------------------------------------------------------------------
    # Shard introspection
    # ------------------------------------------------------------------

    @property
    def shard_databases(self) -> tuple[MovingObjectDatabase, ...]:
        """The inner per-shard databases, in shard order."""
        return tuple(self._shards)

    @property
    def stationary_database(self) -> MovingObjectDatabase:
        """The dedicated stationary-object database."""
        return self._stationary_db

    def shard_indexes(self) -> list[Any]:
        """Per-shard index instances (``None`` entries included)."""
        return [db._index for db in self._shards]

    def owner_of(self, object_id: str) -> int:
        """The shard owning a mobile object."""
        shard = self._owner.get(object_id)
        if shard is None:
            raise QueryError(f"unknown object id {object_id!r}")
        return shard

    def coverage_of(self, shard: int) -> Rect2D | None:
        """The shard's coverage rectangle (``None`` when empty)."""
        if not 0 <= shard < self.num_shards:
            raise ShardError(
                f"shard id {shard} out of range [0, {self.num_shards})"
            )
        return self._coverage[shard]

    def shard_sizes(self) -> list[int]:
        """Mobile object count per shard, in shard order."""
        counts = [0] * self.num_shards
        for shard in self._owner.values():
            counts[shard] += 1
        return counts

    def _prunable(self) -> bool:
        """Fan-out pruning is sound only over the time-space index.

        ``LinearScanIndex`` (and index-free shards) return the whole
        population for any window, so candidate sets do not partition
        by coverage and every shard must be consulted.
        """
        return all(
            isinstance(db._index, TimeSpaceIndex) for db in self._shards
        )

    def shards_for_window(self, window: Rect2D) -> tuple[int, ...]:
        """Shards whose coverage can contribute candidates to ``window``."""
        if not self._prunable():
            return tuple(range(self.num_shards))
        return tuple(
            shard for shard in range(self.num_shards)
            if self._coverage[shard] is not None
            and self._coverage[shard].intersects(window)
        )

    def _grow_coverage(self, shard: int, route: Route) -> None:
        if route.route_id in self._covered_routes[shard]:
            return
        self._covered_routes[shard].add(route.route_id)
        bbox = route.polyline.bounding_rect()
        current = self._coverage[shard]
        self._coverage[shard] = bbox if current is None \
            else current.union(bbox)

    # ------------------------------------------------------------------
    # Validation (the clock comes from DatabaseClock)
    # ------------------------------------------------------------------

    def _check_index_coverage(self, t: float) -> None:
        if self._shards[0]._index is None:
            return
        starts = [
            start for start in (
                db._earliest_starttime() for db in self._shards
            )
            if start is not None
        ]
        if not starts:
            return
        earliest_end = min(starts) + self.horizon
        if t > earliest_end + 1e-9:
            raise QueryError(
                f"query time {t} exceeds the indexed horizon "
                f"(coverage ends at {earliest_end}); raise the database "
                "horizon or query earlier"
            )

    # ------------------------------------------------------------------
    # Catalogue management
    # ------------------------------------------------------------------

    def register_route(self, route: Route) -> None:
        """Add a route to the shared route catalogue."""
        self.routes.add(route)
        rec = get_recorder()
        if rec.enabled:
            rec.record(
                ROUTE_REGISTER, route_id=route.route_id, name=route.name,
                vertices=[[v.x, v.y] for v in route.polyline.vertices],
            )

    # ------------------------------------------------------------------
    # Object lifecycle
    # ------------------------------------------------------------------

    def insert_moving_object(self, object_id: str, class_name: str,
                             route_id: str, t: float, position: Point,
                             direction: int, speed: float,
                             policy: UpdatePolicy, max_speed: float,
                             attributes: dict[str, Any] | None = None) -> MovingObjectRecord:
        """Insert a mobile object into its owning shard.

        Validation repeats the single-database sequence (schema, class
        kind, duplicate id, route, on-route position, clock) against
        facade state, so the raised errors are identical; the owning
        shard then re-runs it against its own (strictly weaker) state.
        """
        object_class = self.schema.get(class_name)
        if not object_class.is_mobile_point:
            raise SchemaError(
                f"class {class_name!r} is not a mobile point class"
            )
        if object_id in self._owner:
            raise SchemaError(f"duplicate object id {object_id!r}")
        route = self.routes.get(route_id)
        PositionAttribute(
            starttime=t,
            route_id=route_id,
            start_x=position.x,
            start_y=position.y,
            direction=direction,
            speed=speed,
            policy=policy.name,
        )
        route.travel_distance_of(position, direction)
        self._advance_clock(t)
        shard = self.partitioning.shard_of_point(position.x, position.y)
        with quiet_recording():
            record = self._shards[shard].insert_moving_object(
                object_id, class_name, route_id, t, position,
                direction, speed, policy, max_speed,
                attributes=attributes,
            )
        self._owner[object_id] = shard
        self._grow_coverage(shard, route)
        rec = get_recorder()
        if rec.enabled:
            from repro.core.serialize import policy_to_spec

            rec.record(
                INSERT_MOBILE, time=t, object_id=object_id,
                class_name=class_name, route_id=route_id,
                position=[position.x, position.y], direction=direction,
                speed=speed, max_speed=max_speed,
                policy=policy_to_spec(policy), attributes=attributes,
            )
            rec.record(SHARD_ROUTE, time=t, object_id=object_id,
                       shard=shard)
        return record

    def insert_stationary_object(self, object_id: str, class_name: str,
                                 position: Point,
                                 attributes: dict[str, Any] | None = None) -> None:
        """Insert a stationary object (kept outside the shard ring)."""
        object_class = self.schema.get(class_name)
        if object_class.spatial_kind is not SpatialKind.POINT:
            raise SchemaError(
                f"class {class_name!r} is not a point class"
            )
        if object_class.is_mobile_point:
            raise SchemaError(
                f"class {class_name!r} is mobile; use insert_moving_object"
            )
        if object_id in self._owner:
            raise SchemaError(f"duplicate object id {object_id!r}")
        with quiet_recording():
            self._stationary_db.insert_stationary_object(
                object_id, class_name, position, attributes=attributes
            )
        rec = get_recorder()
        if rec.enabled:
            rec.record(
                INSERT_STATIONARY, object_id=object_id,
                class_name=class_name,
                position=[position.x, position.y], attributes=attributes,
            )

    def stationary_position(self, object_id: str) -> Point:
        """The fixed position of a stationary object."""
        return self._stationary_db.stationary_position(object_id)

    def remove_object(self, object_id: str) -> None:
        """Drop an object from its shard (or the stationary store)."""
        if object_id in self._stationary_db._stationary:
            with quiet_recording():
                self._stationary_db.remove_object(object_id)
            rec = get_recorder()
            if rec.enabled:
                rec.record(REMOVE_OBJECT, object_id=object_id)
            return
        shard = self.owner_of(object_id)
        with quiet_recording():
            self._shards[shard].remove_object(object_id)
        del self._owner[object_id]
        rec = get_recorder()
        if rec.enabled:
            rec.record(REMOVE_OBJECT, object_id=object_id)

    def record(self, object_id: str) -> MovingObjectRecord:
        """The server-side record of one mobile object."""
        shard = self._owner.get(object_id)
        if shard is None:
            raise QueryError(f"unknown object id {object_id!r}")
        return self._shards[shard].record(object_id)

    def object_ids(self) -> list[str]:
        """Ids of all mobile objects, in insertion order."""
        return list(self._owner)

    def stationary_ids(self) -> list[str]:
        return self._stationary_db.stationary_ids()

    def stationary_id_set(self) -> frozenset[str]:
        return self._stationary_db.stationary_id_set()

    def generation_of(self, object_id: str) -> int:
        return self.record(object_id).generation

    def oplane_of(self, object_id: str):
        """The object's current o-plane, from its owner shard."""
        return self._shards[self.owner_of(object_id)].oplane_of(object_id)

    def __len__(self) -> int:
        return len(self._owner) + len(self._stationary_db._stationary)

    # ------------------------------------------------------------------
    # Update processing
    # ------------------------------------------------------------------

    def process_update(self, message: PositionUpdateMessage) -> None:
        """Route a position update to the owning shard."""
        shard = self.owner_of(message.object_id)
        self._advance_clock(message.time)
        self.update_log.record(message)
        with quiet_recording():
            self._shards[shard].process_update(message)
        if message.route_id is not None and message.route_id in self.routes:
            self._grow_coverage(shard, self.routes.get(message.route_id))
        registry_shard_update(shard)

    def rebuild_index(self, slab_minutes: float = 5.0,
                      max_entries: int = 8, min_entries: int = 3) -> list[Any]:
        """Rebuild every shard's time-space index at a new granularity."""
        with quiet_recording():
            indexes = [
                db.rebuild_index(
                    slab_minutes=slab_minutes, max_entries=max_entries,
                    min_entries=min_entries,
                )
                for db in self._shards
            ]
        rec = get_recorder()
        if rec.enabled:
            rec.record(
                INDEX_CONFIG, slab_minutes=slab_minutes,
                max_entries=max_entries, min_entries=min_entries,
            )
        return indexes

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def position_of(self, object_id: str, t: float) -> PositionAnswer:
        """Single-shard point query: answered by the owner alone."""
        self._check_query_time(t)
        shard = self._owner.get(object_id)
        if shard is None:
            raise QueryError(f"unknown object id {object_id!r}")
        with quiet_recording():
            answer = self._shards[shard].position_of(object_id, t)
        rec = get_recorder()
        if rec.enabled:
            rec.record_query("position", answer_digest(answer), time=t,
                             object_id=object_id)
        return answer

    def range_query(self, polygon: Polygon, t: float,
                    stats: SearchStats | None = None,
                    where: dict[str, Any] | None = None,
                    class_name: str | None = None) -> RangeAnswer:
        """Fan a polygon query to covered shards and merge the answers."""
        self._check_query_time(t)
        self._check_index_coverage(t)
        answer = self._fan_out(
            "range", polygon.bounding_rect, stats,
            lambda db, s: db.range_query(polygon, t, s, where, class_name),
        )
        rec = get_recorder()
        if rec.enabled:
            rec.record_query(
                "range", answer_digest(answer), time=t,
                polygon=[[v.x, v.y] for v in polygon.vertices],
                where=where, class_name=class_name,
            )
        return answer

    def within_distance(self, center: Point, radius: float, t: float,
                        stats: SearchStats | None = None,
                        where: dict[str, Any] | None = None,
                        class_name: str | None = None) -> RangeAnswer:
        """Fan a distance query to covered shards and merge the answers."""
        self._check_query_time(t)
        self._check_index_coverage(t)
        check_radius(radius)
        answer = self._fan_out(
            "within", disc_window(center, radius), stats,
            lambda db, s: db.within_distance(center, radius, t, s, where,
                                             class_name),
        )
        rec = get_recorder()
        if rec.enabled:
            rec.record_query(
                "within", answer_digest(answer), time=t,
                center=[center.x, center.y], radius=radius,
                where=where, class_name=class_name,
            )
        return answer

    def within_distance_of_object(self, anchor_id: str, radius: float,
                                  t: float,
                                  where: dict[str, Any] | None = None,
                                  class_name: str | None = None) -> RangeAnswer:
        """Proximity query: anchor from its owner, candidates fanned."""
        self._check_query_time(t)
        check_radius(radius)
        self._check_index_coverage(t)
        owner = self._shards[self.owner_of(anchor_id)]
        anchor, window = owner._proximity_anchor(anchor_id, radius, t)
        answer = self._fan_out(
            "proximity", window, None,
            lambda db, _: db._proximity_piece(anchor_id, anchor, window,
                                              radius, t, where, class_name),
        )
        rec = get_recorder()
        if rec.enabled:
            rec.record_query(
                "proximity", answer_digest(answer), time=t,
                object_id=anchor_id, radius=radius,
                where=where, class_name=class_name,
            )
        return answer

    def _fan_out(self, kind: str, window: Rect2D, stats: SearchStats | None,
                 ask: PieceQuery) -> RangeAnswer:
        """Ask every shard covering ``window`` plus the stationary store.

        The inner databases run quietly; ``stats`` accumulates the
        shards' index work (the stationary store has no index).
        """
        fanned = self.shards_for_window(window)
        answer: RangeAnswer | None = None
        with quiet_recording():
            for shard in fanned:
                answer = _merge_range(answer, ask(self._shards[shard], stats))
            answer = _merge_range(answer, ask(self._stationary_db, None))
        self._publish_fanout(kind, len(fanned))
        return answer

    def nearest(self, center: Point, k: int, t: float,
                where: dict[str, Any] | None = None,
                class_name: str | None = None) -> list[NearestAnswer]:
        """k-nearest across all shards (distance order defeats pruning)."""
        self._check_query_time(t)
        entries: list[NearestAnswer] = []
        for db in (*self._shards, self._stationary_db):
            entries.extend(db._nearest_entries(center, t, where, class_name))
        results = rank_nearest(entries, k)
        self._publish_fanout("nearest", self.num_shards)
        rec = get_recorder()
        if rec.enabled:
            rec.record_query(
                "nearest", answer_digest(results), time=t,
                center=[center.x, center.y], k=k,
                where=where, class_name=class_name,
            )
        return results

    # ------------------------------------------------------------------
    # Accounting and observability
    # ------------------------------------------------------------------

    def message_count(self, object_id: str | None = None) -> int:
        """Update messages received (optionally for one object)."""
        if object_id is None:
            return self.update_log.total_messages
        return self.update_log.count_for(object_id)

    def communication_cost(self) -> float:
        """Total message cost across all shards."""
        total = 0.0
        for message in self.update_log.messages():
            shard = self._owner.get(message.object_id)
            if shard is None:
                continue
            record = self._shards[shard]._records.get(message.object_id)
            if record is None:
                continue
            total += record.policy.update_cost
        return total

    def publish_shard_gauges(self) -> None:
        """Export per-shard population gauges to the metrics registry."""
        from repro.obs.registry import get_registry

        registry = get_registry()
        if not registry.enabled:
            return
        sizes = self.shard_sizes()
        for shard in range(self.num_shards):
            registry.gauge(
                "shard_objects",
                help="Mobile objects owned by each shard.",
                shard=str(shard),
            ).set(sizes[shard])

    def _publish_fanout(self, kind: str, fanned: int) -> None:
        from repro.obs.live.windows import get_live
        from repro.obs.registry import get_registry

        live = get_live()
        if live.enabled:
            live.observe("shard_fanout", float(fanned),
                         buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0))
            live.inc("shard_queries")
        registry = get_registry()
        if not registry.enabled:
            return
        registry.histogram(
            "shard_query_fanout",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
            help="Shards consulted per fanned query.",
            kind=kind,
        ).observe(float(fanned))
        registry.counter(
            "shard_queries_total",
            help="Queries fanned out by the sharded facade, by kind.",
            kind=kind,
        ).inc()


def registry_shard_update(shard: int) -> None:
    """Count one routed update against its shard label."""
    from repro.obs.registry import get_registry

    registry = get_registry()
    if not registry.enabled:
        return
    registry.counter(
        "shard_updates_total",
        help="Position updates routed to each shard.",
        shard=str(shard),
    ).inc()


__all__ = [
    "ShardedDatabase",
    "quiet_recording",
    "registry_shard_update",
]
