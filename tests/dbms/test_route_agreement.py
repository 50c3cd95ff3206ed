"""Every query route returns the same answer on generated fleets.

Hypothesis generates small fleets — dl/ail/cil objects of two mobile
classes, a few stationary depots, position updates — and a mix of
range, within-distance, nearest, proximity and position queries, some
with ``where``/``class_name`` filters.  The same workload is fed to
a single :class:`MovingObjectDatabase` and to :class:`ShardedDatabase`
instances at 1, 2 and 4 shards; the answers of the sequential calls
(through the vectorized and the scalar kernel), :class:`BatchQueryEngine`
and :class:`ShardedBatchQueryEngine` must be equal field for field.  A NaN query time or radius must be rejected
with a :class:`QueryError` on every route.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.policies import make_policy
from repro.dbms import batch as batch_module
from repro.dbms.batch import (
    BatchQueryEngine,
    PositionQuery,
    RangeQuery,
    WithinDistanceQuery,
)
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.schema import AttributeDef, Mobility, ObjectClass, SpatialKind
from repro.dbms.update_log import PositionUpdateMessage
from repro.errors import QueryError
from repro.geometry.bbox import Rect2D
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.index.timespace import TimeSpaceIndex
from repro.routes.generators import grid_city_network
from repro.shard import ShardedBatchQueryEngine, ShardedDatabase, uniform_grid_for

NETWORK = grid_city_network(4, 4, 0.5)
EXTENT = NETWORK.bounding_extent()
SHARD_COUNTS = (1, 2, 4)
QUERY_TIMES = (5.0, 7.5, 10.0)
FILTERS = st.tuples(
    st.sampled_from([None, {"free": True}]),
    st.sampled_from([None, "taxi", "truck", "depot"]),
)
unit = st.floats(0.0, 1.0)


def at(u: float, v: float) -> Point:
    """The point at fractions ``(u, v)`` of the network extent."""
    min_x, min_y, max_x, max_y = EXTENT
    return Point(min_x + u * (max_x - min_x), min_y + v * (max_y - min_y))


@dataclass(frozen=True)
class Fleet:
    seed: int
    #: (policy, update cost, speed, class name, free) per mobile object.
    objects: list[tuple[str, float, float, str, bool]]
    #: (u, v, free) per stationary depot.
    depots: list[tuple[float, float, bool]]
    #: (object index, new speed) per update, applied at times 1, 2, ...
    updates: list[tuple[int, float]]

    def object_id(self, index: int) -> str:
        return f"m-{index % len(self.objects)}"


fleets = st.builds(
    Fleet,
    seed=st.integers(0, 2 ** 16),
    objects=st.lists(st.tuples(
        st.sampled_from(["dl", "ail", "cil"]),
        st.sampled_from([1.0, 5.0, 20.0]),
        st.floats(0.05, 0.5),
        st.sampled_from(["taxi", "truck"]),
        st.booleans(),
    ), min_size=1, max_size=12),
    depots=st.lists(st.tuples(unit, unit, st.booleans()), max_size=3),
    updates=st.lists(st.tuples(st.integers(0, 11), st.floats(0.0, 0.6)),
                     max_size=4),
)

rect_region = st.builds(
    lambda u, v, w, h: Polygon.rectangle(*at(u, v), *at(u + w, v + h)),
    st.floats(0.0, 0.9), st.floats(0.0, 0.9),
    st.floats(0.05, 0.8), st.floats(0.05, 0.8),
)
triangle = st.builds(
    lambda u, v, w, h: Polygon([at(u, v), at(u + w, v), at(u + w / 2, v + h)]),
    st.floats(0.0, 0.9), st.floats(0.0, 0.9),
    st.floats(0.05, 0.8), st.floats(0.05, 0.8),
)

queries = st.lists(st.one_of(
    st.tuples(st.just("position"), st.integers(0, 11),
              st.sampled_from(QUERY_TIMES)),
    st.tuples(st.just("range"), st.one_of(rect_region, triangle),
              st.sampled_from(QUERY_TIMES), FILTERS),
    st.tuples(st.just("within"), st.tuples(unit, unit),
              st.floats(0.0, 1.0), st.sampled_from(QUERY_TIMES), FILTERS),
    st.tuples(st.just("nearest"), st.tuples(unit, unit),
              st.integers(1, 5), st.sampled_from(QUERY_TIMES), FILTERS),
    st.tuples(st.just("proximity"), st.integers(0, 11),
              st.floats(0.0, 1.0), st.sampled_from(QUERY_TIMES), FILTERS),
), min_size=1, max_size=8)


def define_schema(database) -> None:
    free = (AttributeDef("free", "bool"),)
    database.schema.define_mobile_point_class("taxi", free)
    database.schema.define_mobile_point_class("truck", free)
    database.schema.define(ObjectClass(
        "depot", SpatialKind.POINT, Mobility.STATIONARY, free,
    ))


def populate(fleet: Fleet, databases: list) -> None:
    """Feed the identical workload to every database."""
    rng = random.Random(fleet.seed)
    for database in databases:
        define_schema(database)
    for i, (policy, cost, speed, class_name, free) in enumerate(fleet.objects):
        route = NETWORK.random_route(rng, min_length=0.5)
        direction = rng.randrange(2)
        start = route.travel_point(rng.uniform(0.0, route.length / 2),
                                   direction)
        for database in databases:
            if route.route_id not in database.routes:
                database.register_route(route)
            database.insert_moving_object(
                f"m-{i}", class_name, route.route_id, 0.0, start, direction,
                speed, make_policy(policy, cost), max_speed=0.8,
                attributes={"free": free},
            )
    for i, (u, v, free) in enumerate(fleet.depots):
        for database in databases:
            database.insert_stationary_object(
                f"d-{i}", "depot", at(u, v), attributes={"free": free},
            )
    for step, (index, speed) in enumerate(fleet.updates, start=1):
        object_id = fleet.object_id(index)
        record = databases[0].record(object_id)
        route = databases[0].routes.get(record.attribute.route_id)
        position = record.database_position(route, float(step))
        message = PositionUpdateMessage(
            object_id, float(step), position.x, position.y, speed=speed,
        )
        for database in databases:
            database.process_update(message)


def as_batch_query(fleet: Fleet, query: tuple):
    kind = query[0]
    if kind == "position":
        return PositionQuery(fleet.object_id(query[1]), query[2])
    if kind == "range":
        where, class_name = query[3]
        return RangeQuery(query[1], query[2], where, class_name)
    if kind == "within":
        where, class_name = query[4]
        return WithinDistanceQuery(at(*query[1]), query[2], query[3],
                                   where, class_name)
    return None


def ask(database, fleet: Fleet, query: tuple):
    """One query through the sequential API of ``database``."""
    kind = query[0]
    if kind == "nearest":
        _, center, k, t, (where, class_name) = query
        return database.nearest(at(*center), k, t, where, class_name)
    if kind == "proximity":
        _, index, radius, t, (where, class_name) = query
        return database.within_distance_of_object(
            fleet.object_id(index), radius, t, where, class_name,
        )
    batch_query = as_batch_query(fleet, query)
    if kind == "position":
        return database.position_of(batch_query.object_id, batch_query.time)
    if kind == "range":
        return database.range_query(
            batch_query.polygon, batch_query.time,
            where=batch_query.where, class_name=batch_query.class_name,
        )
    return database.within_distance(
        batch_query.center, batch_query.radius, batch_query.time,
        where=batch_query.where, class_name=batch_query.class_name,
    )


def build(fleet: Fleet):
    single = MovingObjectDatabase(index=TimeSpaceIndex(slab_minutes=5.0))
    sharded = [
        ShardedDatabase(uniform_grid_for(Rect2D(*EXTENT), shards),
                        index_factory=lambda: TimeSpaceIndex(slab_minutes=5.0))
        for shards in SHARD_COUNTS
    ]
    populate(fleet, [single, *sharded])
    return single, sharded


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fleet=fleets, workload=queries)
def test_every_route_agrees(fleet, workload):
    single, sharded = build(fleet)
    expected = [ask(single, fleet, query) for query in workload]
    # The scalar kernel (vectorization floor out of reach) agrees too.
    with mock.patch.object(batch_module, "_MIN_VEC_CANDIDATES", math.inf):
        assert [ask(single, fleet, query) for query in workload] == expected
    batchable = [(i, q) for i, q in enumerate(
        as_batch_query(fleet, query) for query in workload
    ) if q is not None]
    batch_queries = [q for _, q in batchable]
    expected_batch = [expected[i] for i, _ in batchable]

    assert BatchQueryEngine(single).run(batch_queries) == expected_batch
    for database in sharded:
        shards = database.num_shards
        answers = [ask(database, fleet, query) for query in workload]
        assert answers == expected, shards
        engine = ShardedBatchQueryEngine(database, jobs=1)
        assert engine.run(batch_queries) == expected_batch, shards


ROUTES = ("sequential", "batch", "sharded", "sharded-batch")
NAN_CASES = {
    "position-time": ("position", 0, math.nan),
    "range-time": ("range", Polygon.rectangle(*EXTENT), math.nan,
                   (None, None)),
    "within-time": ("within", (0.5, 0.5), 0.5, math.nan, (None, None)),
    "within-radius": ("within", (0.5, 0.5), math.nan, 5.0, (None, None)),
    "nearest-time": ("nearest", (0.5, 0.5), 2, math.nan, (None, None)),
    "proximity-time": ("proximity", 0, 0.5, math.nan, (None, None)),
    "proximity-radius": ("proximity", 0, math.nan, 5.0, (None, None)),
}
FLEET = Fleet(seed=3, objects=[("dl", 5.0, 0.3, "taxi", True),
                               ("ail", 5.0, 0.2, "truck", False)],
              depots=[(0.5, 0.5, True)], updates=[])


@pytest.mark.parametrize("route, case", [
    (route, case) for route in ROUTES for case in sorted(NAN_CASES)
    # The batch engines take no nearest or proximity queries.
    if not (route.endswith("batch")
            and NAN_CASES[case][0] in ("nearest", "proximity"))
])
def test_nan_query_input_is_rejected(route, case):
    query = NAN_CASES[case]
    single, sharded = build(FLEET)
    database = single if route in ("sequential", "batch") else sharded[-1]
    if route.endswith("batch"):
        engine = (BatchQueryEngine(database) if route == "batch"
                  else ShardedBatchQueryEngine(database, jobs=1))
        with pytest.raises(QueryError, match="nan"):
            engine.run([as_batch_query(FLEET, query)])
    else:
        with pytest.raises(QueryError, match="nan"):
            ask(database, FLEET, query)
