"""Overhead of the flight recorder on the batch query path.

Three measurements around one ``BatchQueryEngine.run`` call answering a
1 000-query mixed workload over a 500-object database:

* **seed replica** — ``run()``'s body as it stood before the flight
  recorder was added (frozen history), the baseline every overhead
  claim is against,
* **null recorder** — today's instrumented engine under the default
  :class:`NullRecorder` (the library path nobody records),
* **live recorder** — the same engine under a live
  :class:`TraceRecorder`: every answer digested and recorded, the
  price a recorded run pays.

The acceptance claims: with recording *disabled* the instrumented run
must stay within 1% of the seed replica (the per-run cost is one
hoisted ``enabled`` check), and with recording *enabled* within 10%
(1 001 events, each answer SHA-256-digested).  The gate asserts on
min-of-N timings taken round-robin (legs interleaved, GC paused) so
slow machine drift hits all three legs alike.  The registered harness
cases run a scaled-down workload to keep ``repro bench run`` fast; the
gate test times the full one.
"""

import gc
import random
import time

import pytest

from repro.bench import benchmark as register_benchmark
from repro.core.policies import make_policy
from repro.dbms.batch import (
    BatchQueryEngine,
    PositionQuery,
    RangeQuery,
    _EligibilitySets,
    validate_queries,
)
from repro.dbms.database import MovingObjectDatabase
from repro.dbms.schema import AttributeDef
from repro.index.timespace import TimeSpaceIndex
from repro.obs.instrument import time_section
from repro.routes.generators import grid_city_network
from repro.trace.events import QUERY
from repro.trace.recorder import get_recorder, use_recorder
from repro.workloads.query_workloads import mixed_query_workload

#: The acceptance workload (ISSUE 6): 500 objects, 1 000 queries.
NUM_OBJECTS = 500
NUM_QUERIES = 1000
#: Scaled-down workload for the registered harness cases.
FAST_OBJECTS = 120
FAST_QUERIES = 240
QUERY_TIMES = (8.0, 10.0, 12.0)


def build_workload(num_objects=NUM_OBJECTS, num_queries=NUM_QUERIES):
    """A taxi database plus a mixed batch workload over it."""
    rng = random.Random(11)
    network = grid_city_network(10, 10, 0.5)
    database = MovingObjectDatabase(
        index=TimeSpaceIndex(slab_minutes=5.0), horizon=90.0
    )
    database.schema.define_mobile_point_class(
        "taxi", (AttributeDef("free", "bool"),)
    )
    object_ids = []
    for i in range(num_objects):
        route = network.random_route(rng, min_length=0.5)
        database.register_route(route)
        direction = rng.randrange(2)
        object_id = f"taxi-{i}"
        database.insert_moving_object(
            object_id, "taxi", route.route_id, 0.0,
            route.travel_point(0.0, direction), direction,
            rng.uniform(0.1, 0.4), make_policy("ail", 5.0),
            max_speed=0.8, attributes={"free": i % 2 == 0},
        )
        object_ids.append(object_id)
    queries = mixed_query_workload(
        network, random.Random(23), num_queries, object_ids, QUERY_TIMES,
    )
    return database, queries


@pytest.fixture(scope="module")
def trace_workload():
    return build_workload()


def _seed_batch_run(engine, queries):
    """``BatchQueryEngine.run()`` as it stood before the flight
    recorder (minus ``stats`` plumbing), copied verbatim — the
    un-instrumented baseline.  Frozen history; do not sync."""
    hits_before = engine.cache_hits
    misses_before = engine.cache_misses
    with time_section("dbms_batch_seconds",
                      help="Wall-clock latency of one query batch."):
        validate_queries(engine.database, queries)
        candidates = engine._gather_candidates(queries, None)
        eligible = _EligibilitySets(engine._db)
        answers = []
        for i, query in enumerate(queries):
            if isinstance(query, PositionQuery):
                answers.append(engine._answer_position(query))
            elif isinstance(query, RangeQuery):
                answers.append(engine._answer_range(
                    query, candidates[i], eligible
                ))
            else:
                answers.append(engine._answer_within(
                    query, candidates[i], eligible
                ))
    engine._publish(queries, hits_before, misses_before)
    return answers


def _interleaved_times(legs, rounds=5):
    """Per-round wall times for every leg, measured round-robin, GC off.

    Interleaving means slow drift (thermal, scheduler) biases every leg
    of a round equally, so *within-round ratios* measure relative cost
    with the drift cancelled; the caller takes the best ratio across
    rounds.
    """
    times = {name: [] for name, _ in legs}
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            for name, fn in legs:
                start = time.perf_counter()
                fn()
                times[name].append(time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return times


@register_benchmark("trace.seed_replica", group="trace", warmup=1, repeat=3)
def harness_seed_replica():
    """The frozen pre-recorder batch run (overhead baseline)."""
    database, queries = build_workload(FAST_OBJECTS, FAST_QUERIES)
    return lambda: _seed_batch_run(BatchQueryEngine(database), queries)


@register_benchmark("trace.null_recorder", group="trace", warmup=1, repeat=3)
def harness_null_recorder():
    """Instrumented batch run under the default NullRecorder."""
    database, queries = build_workload(FAST_OBJECTS, FAST_QUERIES)
    return lambda: BatchQueryEngine(database).run(queries)


@register_benchmark("trace.live_recorder", group="trace", warmup=1, repeat=3)
def harness_live_recorder():
    """Instrumented batch run under a live TraceRecorder."""
    database, queries = build_workload(FAST_OBJECTS, FAST_QUERIES)

    def kernel():
        with use_recorder():
            return BatchQueryEngine(database).run(queries)

    return kernel


def test_recorder_overhead_gates(trace_workload):
    """Acceptance gates: <1% recorder-off, <10% recorder-on."""
    database, queries = trace_workload
    assert get_recorder().enabled is False

    def seed():
        return _seed_batch_run(BatchQueryEngine(database), queries)

    def recorder_off():
        return BatchQueryEngine(database).run(queries)

    def recorder_on():
        with use_recorder() as recorder:
            answers = BatchQueryEngine(database).run(queries)
        return answers, recorder

    # Equivalence first (doubles as warm-up): all three paths produce
    # identical answers, so the timing comparison is apples to apples —
    # and the live leg actually recorded the whole batch (one event per
    # query plus the cache summary event).
    expected = seed()
    assert recorder_off() == expected
    answers, recorder = recorder_on()
    assert answers == expected
    query_events = [e for e in recorder.events() if e.kind == QUERY]
    assert len(query_events) == NUM_QUERIES
    assert len(recorder) == NUM_QUERIES + 1

    times = _interleaved_times([
        ("seed", seed),
        ("off", recorder_off),
        ("on", lambda: recorder_on()[0]),
    ])
    # The best *paired* ratio per leg: within a round the drift hits
    # both legs alike, so the smallest observed ratio upper-bounds the
    # true overhead far more tightly than a ratio of global minima.
    off_overhead = min(o / s for o, s in zip(times["off"], times["seed"])) - 1.0
    on_overhead = min(o / s for o, s in zip(times["on"], times["seed"])) - 1.0
    print(f"\nseed {min(times['seed']) * 1e3:.1f} ms  "
          f"recorder-off {min(times['off']) * 1e3:.1f} ms "
          f"({off_overhead * 100:+.2f}%)  "
          f"recorder-on {min(times['on']) * 1e3:.1f} ms "
          f"({on_overhead * 100:+.2f}%)")
    assert off_overhead < 0.01, (
        f"recorder-off overhead {off_overhead * 100:.2f}% exceeds 1%"
    )
    assert on_overhead < 0.10, (
        f"recorder-on overhead {on_overhead * 100:.2f}% exceeds 10%"
    )


def test_bench_seed_replica(benchmark):
    database, queries = build_workload(FAST_OBJECTS, FAST_QUERIES)
    answers = benchmark(
        lambda: _seed_batch_run(BatchQueryEngine(database), queries)
    )
    assert len(answers) == FAST_QUERIES


def test_bench_null_recorder(benchmark):
    database, queries = build_workload(FAST_OBJECTS, FAST_QUERIES)
    assert get_recorder().enabled is False
    answers = benchmark(lambda: BatchQueryEngine(database).run(queries))
    assert len(answers) == FAST_QUERIES


def test_bench_live_recorder(benchmark):
    database, queries = build_workload(FAST_OBJECTS, FAST_QUERIES)
    with use_recorder():
        answers = benchmark(
            lambda: BatchQueryEngine(database).run(queries)
        )
    assert len(answers) == FAST_QUERIES
