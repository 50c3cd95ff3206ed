"""Vectorized query kernel: same answers, same cache accounting.

With the vectorization floor lowered so every query takes the array
kernels, the batch engine must return exactly the answers of the
scalar kernel (floor raised out of reach) and of the scalar
sequential database calls, and count exactly the same cache hits and
misses, across policies, filters, repeat runs, and position updates.
"""

import math

import pytest

pytest.importorskip("numpy")

from repro.dbms import batch as batch_module
from repro.dbms.batch import BatchQueryEngine
from repro.dbms.update_log import PositionUpdateMessage
from repro.index.timespace import TimeSpaceIndex

from tests.dbms.test_batch import build_database, build_workload, sequential


def counters(engine):
    return engine.cache_hits, engine.cache_misses


@pytest.fixture
def low_floor(monkeypatch):
    """Force the bulk kernels on even for tiny candidate sets."""
    monkeypatch.setattr(batch_module, "_MIN_VEC_CANDIDATES", 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vectorized_answers_match_scalar_and_sequential(seed, low_floor,
                                                        monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(batch_module, "_MIN_VEC_CANDIDATES", math.inf)
        database, network, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0), seed=seed
        )
        queries = build_workload(network, object_ids, seed=seed + 50)
        expected = sequential(database, queries)
        scalar_db, _, _ = build_database(
            TimeSpaceIndex(slab_minutes=5.0), seed=seed
        )
        scalar = BatchQueryEngine(scalar_db)
        assert scalar.run(list(queries)) == expected

    vec_db, _, _ = build_database(
        TimeSpaceIndex(slab_minutes=5.0), seed=seed
    )
    vec = BatchQueryEngine(vec_db)
    assert vec.run(list(queries)) == expected
    assert sequential(vec_db, queries) == expected
    assert counters(vec) == counters(scalar)


def test_cache_reuse_and_invalidation_match_scalar(monkeypatch):
    engines = []
    for floor in (math.inf, 1):
        monkeypatch.setattr(batch_module, "_MIN_VEC_CANDIDATES", floor)
        database, network, object_ids = build_database(
            TimeSpaceIndex(slab_minutes=5.0)
        )
        engine = BatchQueryEngine(database)
        queries = build_workload(network, object_ids)
        first = engine.run(list(queries))
        # Re-running hits the generation-keyed cache ...
        second = engine.run(list(queries))
        assert second == first
        # ... and a position update invalidates exactly the moved
        # objects, scalar and vectorized alike.
        for object_id in object_ids[:3]:
            record = database.record(object_id)
            route = database.routes.get(record.attribute.route_id)
            position = record.database_position(route, 6.0)
            database.process_update(PositionUpdateMessage(
                object_id, 6.0, position.x, position.y, speed=0.25,
            ))
        third = engine.run(list(queries))
        engines.append((first, second, third, counters(engine)))
    assert engines[0] == engines[1]

